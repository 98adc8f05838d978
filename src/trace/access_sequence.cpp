#include "trace/access_sequence.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rtmp::trace {

AccessSequence AccessSequence::FromTokens(
    std::span<const std::string> tokens) {
  AccessSequence seq;
  for (const std::string& token : tokens) seq.AppendToken(token);
  return seq;
}

void AccessSequence::AppendToken(std::string token) {
  if (token.empty()) return;
  AccessType type = AccessType::kRead;
  if (token.back() == '!') {
    type = AccessType::kWrite;
    token.pop_back();
    if (token.empty()) {
      throw std::invalid_argument("trace token '!' has no variable name");
    }
  }
  Append(AddVariable(std::move(token)), type);
}

AccessSequence AccessSequence::FromCompactString(std::string_view text) {
  AccessSequence seq;
  for (const char c : text) {
    if (c == ' ') continue;
    seq.Append(seq.AddVariable(std::string(1, c)));
  }
  return seq;
}

VariableId AccessSequence::AddVariable(std::string name) {
  if (auto it = ids_.find(name); it != ids_.end()) return it->second;
  const auto id = static_cast<VariableId>(names_.size());
  ids_.emplace(name, id);
  names_.push_back(std::move(name));
  return id;
}

std::optional<VariableId> AccessSequence::FindVariable(
    std::string_view name) const {
  if (auto it = ids_.find(std::string(name)); it != ids_.end()) {
    return it->second;
  }
  return std::nullopt;
}

void AccessSequence::Append(VariableId variable, AccessType type) {
  if (variable >= names_.size()) {
    throw std::out_of_range("access to unregistered variable id");
  }
  accesses_.push_back(Access{variable, type});
}

std::span<const VariableId> AccessSequence::IdsByName() const {
  return name_order_.Get(names_);
}

AccessSequence::NameOrder::NameOrder(const NameOrder& other) {
  const std::lock_guard<std::mutex> lock(other.mutex_);
  ids_ = other.ids_;
}

AccessSequence::NameOrder::NameOrder(NameOrder&& other) noexcept
    : ids_(std::move(other.ids_)) {
  other.ids_.clear();
}

AccessSequence::NameOrder& AccessSequence::NameOrder::operator=(
    const NameOrder& other) {
  if (this == &other) return *this;
  std::vector<VariableId> copy;
  {
    const std::lock_guard<std::mutex> lock(other.mutex_);
    copy = other.ids_;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ids_ = std::move(copy);
  return *this;
}

AccessSequence::NameOrder& AccessSequence::NameOrder::operator=(
    NameOrder&& other) noexcept {
  ids_ = std::move(other.ids_);
  other.ids_.clear();
  return *this;
}

std::span<const VariableId> AccessSequence::NameOrder::Get(
    const std::vector<std::string>& names) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Names are append-only, so the cache is a name-sorted permutation of
  // the ids [0, built) and the ids [built, names.size()) are new.
  const std::size_t built = ids_.size();
  if (built == names.size()) return ids_;
  const auto by_name = [&names](VariableId a, VariableId b) {
    return names[a] < names[b];
  };
  ids_.resize(names.size());
  for (std::size_t i = built; i < ids_.size(); ++i) {
    ids_[i] = static_cast<VariableId>(i);
  }
  const auto middle = ids_.begin() + static_cast<std::ptrdiff_t>(built);
  std::sort(middle, ids_.end(), by_name);
  std::inplace_merge(ids_.begin(), middle, ids_.end(), by_name);
  return ids_;
}

std::size_t AccessSequence::CountWrites() const noexcept {
  std::size_t writes = 0;
  for (const Access& a : accesses_) {
    if (a.type == AccessType::kWrite) ++writes;
  }
  return writes;
}

std::vector<Access> AccessSequence::Restrict(
    std::span<const VariableId> subset) const {
  // Variable ids are dense (assigned in registration order), so subset
  // membership is a flat bitmap — cheaper than a hash set, and no
  // unordered container near the per-DBC subsequences that feed every
  // cost figure.
  std::vector<bool> wanted(names_.size(), false);
  for (const VariableId v : subset) {
    if (v < wanted.size()) wanted[v] = true;
  }
  std::vector<Access> out;
  for (const Access& a : accesses_) {
    if (wanted[a.variable]) out.push_back(a);
  }
  return out;
}

}  // namespace rtmp::trace
