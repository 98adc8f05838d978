// In-memory wall-clock span log for the traced benchmark run.
//
// The benchmark times the library from the outside: every span brackets
// one public call (a strategy run, a Simulate, an engine Feed, a service
// Run, ...). Spans are appended to a preallocated vector and written out
// once at exit, so recording costs two clock reads and one push_back.
// A disabled log records nothing; the untraced run keeps it disabled.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rtmp::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t pass = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  static constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;

  /// RAII span: opens on construction, closes on destruction. A scope on
  /// a disabled log is a no-op.
  class Scope {
   public:
    Scope(SpanLog& log, std::uint32_t name) : log_(log) {
      if (log_.enabled_) index_ = log_.Open(name);
    }
    ~Scope() {
      if (index_ != kNoSpan) log_.Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::uint32_t index_ = kNoSpan;
  };

  SpanLog() { spans_.reserve(1 << 16); }

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_pass(std::uint32_t pass) noexcept { pass_ = pass; }

  /// Id of `name` (interned once; call outside the timed loops).
  std::uint32_t Intern(std::string_view name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::uint32_t Open(std::uint32_t name) {
    Span span;
    span.name = name;
    span.pass = pass_;
    span.start_ns = NowNs();
    spans_.push_back(span);
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void Close(std::uint32_t index) { spans_[index].end_ns = NowNs(); }

  bool enabled_ = false;
  std::uint32_t pass_ = 0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace rtmp::perfbench
