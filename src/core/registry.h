// One name-keyed registry for every extension point: placement
// strategies, workloads, online / serve / cache policies, eviction
// policies and rtmlint's rules are each a Registry<T> over their own
// small interface T.
//
// T needs only a `Describe()` returning its self-description (the
// Info type below). A registry maps lowercase names to factories,
// builds one instance per name on first lookup and caches it, so a
// component is shared by every caller; components that need per-user
// state register a factory interface instead (see cache/eviction.h).
//
// Each kind defines its process-wide instance in its own source file
// as an explicit specialization of Global() (declared next to its
// alias), which registers the built-ins and, for the kinds that share
// the experiment engine's cell-name space, claims every name in
// core::RegistryNamespace under the kind. Fresh instances (tests,
// tools) never claim: re-registering built-in names into a local
// registry stays legal.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/registry_namespace.h"
#include "util/strings.h"

namespace rtmp::core {

template <class T>
class Registry {
 public:
  using Factory = std::function<std::shared_ptr<const T>()>;
  /// T's self-description, as returned by T::Describe().
  using Info =
      std::remove_cvref_t<decltype(std::declval<const T&>().Describe())>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry, pre-populated with the kind's built-ins.
  /// Each kind specializes this in its own source file.
  [[nodiscard]] static Registry& Global();

  /// Registers `factory` under `name` (normalized to lowercase). Throws
  /// std::invalid_argument if the name is empty, contains characters
  /// outside [a-z0-9._-] (names appear in CLI arguments and in
  /// '|'-delimited ResultTable keys), is already registered, or is held
  /// by another kind in the cell-name space; or if the factory is null.
  /// Factories should be cheap: Describe() and listings instantiate the
  /// component, so defer heavy state to its methods.
  void Register(std::string name, Factory factory);

  /// The instance registered under `name`; nullptr if unknown. The first
  /// lookup runs the factory outside the lock (a factory may consult any
  /// registry, its own included); when threads race, one instance wins
  /// and every caller gets it. Throws std::logic_error when the factory
  /// returns null.
  [[nodiscard]] std::shared_ptr<const T> Find(std::string_view name) const;

  /// Metadata of the component registered under `name`; nullopt if
  /// unknown.
  [[nodiscard]] std::optional<Info> Describe(std::string_view name) const {
    const auto instance = Find(name);
    if (!instance) return std::nullopt;
    return instance->Describe();
  }

  [[nodiscard]] bool Contains(std::string_view name) const {
    const std::string key = util::ToLower(name);
    const std::lock_guard<std::mutex> lock(mutex_);
    return FindEntry(key) != nullptr;
  }

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> Names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) names.push_back(key);
    return names;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  /// RAII self-registration into Global(), for components defined
  /// outside this library:
  ///
  ///   static const rtmp::core::StrategyRegistrar kMine{"my-layout", [] {
  ///     return std::make_shared<const MyLayoutStrategy>();
  ///   }};
  ///
  /// Caveat: when linking rtmplace statically, a translation unit that
  /// is never referenced is dropped by the linker along with its
  /// registrars — keep registrars in a TU that is otherwise linked in,
  /// or register explicitly at startup.
  struct Registrar {
    Registrar(std::string name, Factory factory);
  };

 private:
  struct Entry {
    Factory factory;
    /// Built on first lookup; written under mutex_.
    mutable std::shared_ptr<const T> instance;
  };

  /// The leaked Global() instance: claims its names under `kind` (none
  /// when null) and holds the built-ins. Leaked so it outlives Registrar
  /// uses in static destructors.
  static Registry& MakeGlobal(const char* kind,
                              void (*register_builtins)(Registry&)) {
    // NOLINTNEXTLINE(rtmlint:naked-new): leaked Global() singleton.
    auto* registry = new Registry();
    registry->namespace_kind_ = kind;
    register_builtins(*registry);
    return *registry;
  }

  /// Requires mutex_ to be held by the caller.
  [[nodiscard]] const Entry* FindEntry(const std::string& key) const {
    const auto it = LowerBound(key);
    if (it == entries_.end() || it->first != key) return nullptr;
    return &it->second;
  }

  [[nodiscard]] auto LowerBound(const std::string& key) const {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            [](const auto& entry, const std::string& k) {
                              return entry.first < k;
                            });
  }

  mutable std::mutex mutex_;
  // Sorted by key; tens of entries at most, so a flat vector beats a map.
  std::vector<std::pair<std::string, Entry>> entries_;
  /// Non-null only for Global() instances that share the cell-name space.
  const char* namespace_kind_ = nullptr;
};

template <class T>
void Registry<T>::Register(std::string name, Factory factory) {
  if (!factory) {
    throw std::invalid_argument("Registry: null factory for '" + name + "'");
  }
  std::string key = util::ToLower(name);
  const auto valid_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-' ||
           c == '_' || c == '.';
  };
  if (key.empty() || !std::all_of(key.begin(), key.end(), valid_char)) {
    throw std::invalid_argument("Registry: invalid name '" + name + "'");
  }
  if (namespace_kind_ != nullptr) {
    RegistryNamespace::Global().Claim(key, namespace_kind_);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = LowerBound(key);
  if (it != entries_.end() && it->first == key) {
    throw std::invalid_argument("Registry: duplicate name '" + key + "'");
  }
  entries_.insert(it, {std::move(key), Entry{std::move(factory), nullptr}});
}

template <class T>
std::shared_ptr<const T> Registry<T>::Find(std::string_view name) const {
  const std::string key = util::ToLower(name);
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Entry* entry = FindEntry(key);
    if (entry == nullptr) return nullptr;
    if (entry->instance) return entry->instance;
    factory = entry->factory;
  }
  auto instance = factory();
  if (!instance) {
    throw std::logic_error("Registry: factory for '" + key +
                           "' returned null");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  // Entries are never removed, so the entry is still present.
  const Entry* entry = FindEntry(key);
  if (!entry->instance) entry->instance = std::move(instance);
  return entry->instance;
}

template <class T>
Registry<T>::Registrar::Registrar(std::string name, Factory factory) {
  Global().Register(std::move(name), std::move(factory));
}

}  // namespace rtmp::core
