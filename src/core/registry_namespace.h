// Cross-registry name arbitration for the experiment engine's cell-name
// space.
//
// Placement strategies, online policies, serve policies and cache
// policies are all addressed through ONE flat name space: sim::RunCell
// resolves a cell name to its kind here, CLI arguments and report keys
// carry bare names, and a name living in two registries would silently
// shadow. The registries live in different layers — core cannot ask the
// serve layer anything — so no registry can check the others itself.
//
// The process-wide (Global()) instances of those registries claim every
// name here at registration time, tagged with their kind (see
// core/registry.h), and claiming a name held by a DIFFERENT kind throws
// — whichever side registers second fails fast. Each Global() first
// builds the Global()s of the layers below it (strategies, then online
// policies, then serve and cache policies), so their built-ins are
// claimed before any name registered higher up. Eviction policies claim
// too, so no cell can shadow one. Fresh registry instances built by
// tests do NOT claim: the shared name space belongs to the singletons,
// and re-registering built-in names into a local registry must stay
// legal.
#pragma once

#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rtmp::core {

/// The kinds that claim names in RegistryNamespace::Global().
namespace cell_kind {
inline constexpr const char* kStrategy = "strategy";
inline constexpr const char* kOnlinePolicy = "online policy";
inline constexpr const char* kServePolicy = "serve policy";
inline constexpr const char* kCachePolicy = "cache policy";
inline constexpr const char* kEvictionPolicy = "cache eviction policy";
}  // namespace cell_kind

class RegistryNamespace {
 public:
  RegistryNamespace() = default;
  RegistryNamespace(const RegistryNamespace&) = delete;
  RegistryNamespace& operator=(const RegistryNamespace&) = delete;

  /// The process-wide name space shared by the Global() registries.
  [[nodiscard]] static RegistryNamespace& Global();

  /// Claims `name` (already normalized to lowercase) for `kind` (e.g.
  /// "strategy", "online policy", "serve policy"). Throws
  /// std::invalid_argument when the name is held by a DIFFERENT kind;
  /// re-claiming under the same kind is a no-op (duplicates within one
  /// kind are the owning registry's problem, and it detects them).
  void Claim(std::string name, std::string_view kind);

  /// The kind holding `name`; "" when unclaimed.
  [[nodiscard]] std::string OwnerOf(std::string_view name) const;

 private:
  mutable std::mutex mutex_;
  // Sorted by name; a few dozen entries at most.
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace rtmp::core
