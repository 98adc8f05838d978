// core::Registry<T>, once for every extension point: strategies,
// workloads, online / serve / cache policies, eviction-policy factories
// and rtmlint's rules. The per-kind test files keep only what is
// specific to a kind: its built-ins and what they do.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cache/cache_policy.h"
#include "cache/eviction.h"
#include "core/registry.h"
#include "core/registry_namespace.h"
#include "core/strategy_registry.h"
#include "online/policy.h"
#include "rtmlint/rules.h"
#include "serve/serve_policy.h"
#include "workloads/workload.h"

namespace rtmp {
namespace {

class FakeStrategy final : public core::PlacementStrategy {
 public:
  explicit FakeStrategy(std::string name) { info_.name = std::move(name); }
  const core::StrategyInfo& Describe() const noexcept override {
    return info_;
  }
  core::PlacementResult Run(const core::PlacementRequest&) const override {
    return {};
  }

 private:
  core::StrategyInfo info_;
};

class FakeWorkload final : public workloads::Workload {
 public:
  explicit FakeWorkload(std::string name) { info_.name = std::move(name); }
  const workloads::WorkloadInfo& Describe() const noexcept override {
    return info_;
  }
  offsetstone::Benchmark Generate(
      const workloads::WorkloadRequest&) const override {
    return {};
  }

 private:
  workloads::WorkloadInfo info_;
};

class FakeEvictionFactory final : public cache::EvictionPolicyFactory {
 public:
  explicit FakeEvictionFactory(std::string name) {
    info_.name = std::move(name);
  }
  const cache::EvictionPolicyInfo& Describe() const noexcept override {
    return info_;
  }
  std::unique_ptr<cache::EvictionPolicy> Create(
      std::uint64_t) const override {
    return nullptr;
  }

 private:
  cache::EvictionPolicyInfo info_;
};

class FakeRule final : public rtmlint::Rule {
 public:
  explicit FakeRule(std::string name) { info_.name = std::move(name); }
  const rtmlint::RuleInfo& Describe() const noexcept override {
    return info_;
  }
  void Check(const rtmlint::SourceFile&,
             std::vector<rtmlint::Finding>*) const override {}

 private:
  rtmlint::RuleInfo info_;
};

/// Per-kind test hooks: a name-safe tag, how to build an instance named
/// `name`, and the kind its Global() claims names under (nullptr: it
/// claims none).
template <class T>
struct Kind;

template <>
struct Kind<core::PlacementStrategy> {
  static constexpr const char* kTag = "strategy";
  static constexpr const char* kClaims = core::cell_kind::kStrategy;
  static auto Make(std::string name) {
    return std::make_shared<const FakeStrategy>(std::move(name));
  }
};

template <>
struct Kind<workloads::Workload> {
  static constexpr const char* kTag = "workload";
  static constexpr const char* kClaims = nullptr;
  static auto Make(std::string name) {
    return std::make_shared<const FakeWorkload>(std::move(name));
  }
};

template <>
struct Kind<online::OnlinePolicy> {
  static constexpr const char* kTag = "online";
  static constexpr const char* kClaims = core::cell_kind::kOnlinePolicy;
  static auto Make(std::string name) {
    return online::MakeFixedPolicy({std::move(name), "", "dma-sr", "none"},
                                   {});
  }
};

template <>
struct Kind<serve::ServePolicy> {
  static constexpr const char* kTag = "serve";
  static constexpr const char* kClaims = core::cell_kind::kServePolicy;
  static auto Make(std::string name) {
    serve::ServePolicyInfo info;
    info.name = std::move(name);
    return serve::MakeFixedServePolicy(info, {});
  }
};

template <>
struct Kind<cache::CachePolicy> {
  static constexpr const char* kTag = "cache";
  static constexpr const char* kClaims = core::cell_kind::kCachePolicy;
  static auto Make(std::string name) {
    cache::CachePolicyInfo info;
    info.name = std::move(name);
    return cache::MakeFixedCachePolicy(info, {});
  }
};

template <>
struct Kind<cache::EvictionPolicyFactory> {
  static constexpr const char* kTag = "eviction";
  static constexpr const char* kClaims = core::cell_kind::kEvictionPolicy;
  static auto Make(std::string name) {
    return std::make_shared<const FakeEvictionFactory>(std::move(name));
  }
};

template <>
struct Kind<rtmlint::Rule> {
  static constexpr const char* kTag = "rule";
  static constexpr const char* kClaims = nullptr;
  static auto Make(std::string name) {
    return std::make_shared<const FakeRule>(std::move(name));
  }
};

template <class T>
class RegistryTest : public ::testing::Test {
 protected:
  using Registry = core::Registry<T>;

  /// A factory building a fresh instance named `name` on every call.
  static typename Registry::Factory FactoryFor(std::string name) {
    return [name] { return Kind<T>::Make(name); };
  }
};

using RegistryKinds =
    ::testing::Types<core::PlacementStrategy, workloads::Workload,
                     online::OnlinePolicy, serve::ServePolicy,
                     cache::CachePolicy, cache::EvictionPolicyFactory,
                     rtmlint::Rule>;
TYPED_TEST_SUITE(RegistryTest, RegistryKinds);

TYPED_TEST(RegistryTest, LookupIsCaseInsensitive) {
  typename TestFixture::Registry registry;
  registry.Register("Mixed-Case_1.x", TestFixture::FactoryFor("m"));
  EXPECT_TRUE(registry.Contains("mixed-case_1.x"));
  EXPECT_TRUE(registry.Contains("MIXED-CASE_1.X"));
  EXPECT_NE(registry.Find("mIxEd-CaSe_1.X"), nullptr);
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"mixed-case_1.x"});
}

TYPED_TEST(RegistryTest, RejectsBadNamesDuplicatesAndNullFactories) {
  typename TestFixture::Registry registry;
  const auto factory = TestFixture::FactoryFor("x");
  // Names appear in CLI arguments and '|'-delimited report keys: only
  // [a-z0-9._-] (after lowercasing) is allowed.
  for (const char* bad : {"", "has space", "a|b", "a/b", "a(b)", "tab\t",
                          "caf\xc3\xa9"}) {
    EXPECT_THROW(registry.Register(bad, factory), std::invalid_argument)
        << bad;
  }
  EXPECT_THROW(registry.Register("ok", nullptr), std::invalid_argument);
  EXPECT_EQ(registry.size(), 0u);

  registry.Register("taken", factory);
  EXPECT_THROW(registry.Register("taken", factory), std::invalid_argument);
  EXPECT_THROW(registry.Register("TAKEN", factory), std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TYPED_TEST(RegistryTest, UnknownNamesMissAndNamesAreSorted) {
  typename TestFixture::Registry registry;
  for (const char* name : {"b", "c.2", "a-1", "c_1"}) {
    registry.Register(name, TestFixture::FactoryFor(name));
  }
  EXPECT_EQ(registry.Find("no-such"), nullptr);
  EXPECT_EQ(registry.Find(""), nullptr);
  EXPECT_FALSE(registry.Describe("no-such").has_value());
  EXPECT_FALSE(registry.Contains("a-"));
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"a-1", "b", "c.2", "c_1"}));
  EXPECT_EQ(registry.size(), 4u);
  const auto info = registry.Describe("C.2");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->name, "c.2");
}

TYPED_TEST(RegistryTest, NullFromAFactoryIsALogicError) {
  typename TestFixture::Registry registry;
  registry.Register("broken", [] {
    return std::shared_ptr<const TypeParam>();
  });
  EXPECT_TRUE(registry.Contains("broken"));
  EXPECT_THROW((void)registry.Find("broken"), std::logic_error);
  // Nothing is cached: every lookup reports the broken factory.
  EXPECT_THROW((void)registry.Find("broken"), std::logic_error);
  EXPECT_THROW((void)registry.Describe("broken"), std::logic_error);
}

TYPED_TEST(RegistryTest, FactoriesMayLookUpTheirOwnRegistry) {
  typename TestFixture::Registry registry;
  registry.Register("base", TestFixture::FactoryFor("base"));
  // Find() must not hold its lock across the factory call, or this
  // deadlocks.
  registry.Register("alias", [&registry] { return registry.Find("base"); });
  const auto alias = registry.Find("alias");
  ASSERT_NE(alias, nullptr);
  EXPECT_EQ(alias, registry.Find("base"));
  EXPECT_EQ(registry.Find("alias"), alias);  // cached under the alias too
}

TYPED_TEST(RegistryTest, RacingFirstLookupsShareOneInstance) {
  typename TestFixture::Registry registry;
  registry.Register("shared", TestFixture::FactoryFor("shared"));
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const TypeParam>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[static_cast<std::size_t>(t)] = registry.Find("shared");
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_NE(seen[0], nullptr);
  for (const auto& instance : seen) EXPECT_EQ(instance, seen[0]);
  EXPECT_EQ(registry.Find("shared"), seen[0]);
}

TYPED_TEST(RegistryTest, GlobalNamesCollideAcrossKindsOnlyInTheCellSpace) {
  using Registrar = typename TestFixture::Registry::Registrar;
  const std::string held_name =
      std::string("registry-test-held-") + Kind<TypeParam>::kTag;
  // Another kind's Global() claims the name first: an online policy for
  // the strategy kind, a strategy for every other kind.
  const char* holder = core::cell_kind::kStrategy;
  if constexpr (std::is_same_v<TypeParam, core::PlacementStrategy>) {
    holder = core::cell_kind::kOnlinePolicy;
    const online::OnlinePolicyRegistrar claim{
        held_name, [held_name] {
          return Kind<online::OnlinePolicy>::Make(held_name);
        }};
  } else {
    const core::StrategyRegistrar claim{held_name, [held_name] {
      return Kind<core::PlacementStrategy>::Make(held_name);
    }};
  }
  ASSERT_EQ(core::RegistryNamespace::Global().OwnerOf(held_name), holder);

  const auto factory = TestFixture::FactoryFor(held_name);
  if (Kind<TypeParam>::kClaims != nullptr) {
    EXPECT_THROW((Registrar{held_name, factory}), std::invalid_argument);
    EXPECT_FALSE(TestFixture::Registry::Global().Contains(held_name));
  } else {
    // Workloads and rules are not cells and claim nothing.
    EXPECT_NO_THROW((Registrar{held_name, factory}));
    EXPECT_TRUE(TestFixture::Registry::Global().Contains(held_name));
  }
  EXPECT_EQ(core::RegistryNamespace::Global().OwnerOf(held_name), holder);

  // Fresh instances never claim, so the name stays legal there.
  typename TestFixture::Registry fresh;
  EXPECT_NO_THROW(fresh.Register(held_name, factory));
}

}  // namespace
}  // namespace rtmp
