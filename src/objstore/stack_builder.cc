#include "objstore/stack_builder.h"

namespace arkfs::objstore {

namespace {
constexpr char kCanonicalOrder[] =
    "base/cluster -> ec|tiering -> scrub -> chaos -> retrying";
}  // namespace

StackBuilder& StackBuilder::Metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  return *this;
}

void StackBuilder::Fail(std::string message) {
  if (error_.ok()) error_ = ErrStatus(Errc::kInval, std::move(message));
}

bool StackBuilder::Require(int rank, const char* stage) {
  if (!error_.ok()) return false;
  if (rank <= last_rank_) {
    Fail(std::string("StackBuilder: stage '") + stage +
         "' violates the canonical decorator order (" + kCanonicalOrder + ")");
    return false;
  }
  if (rank > 0 && !cur_) {
    Fail(std::string("StackBuilder: stage '") + stage +
         "' before a Base or Cluster stage");
    return false;
  }
  last_rank_ = rank;
  return true;
}

StackBuilder& StackBuilder::Base(ObjectStorePtr store) {
  if (!Require(0, "Base")) return *this;
  if (!store) {
    Fail("StackBuilder: Base(null store)");
    return *this;
  }
  stack_.base = store;
  cur_ = std::move(store);
  return *this;
}

StackBuilder& StackBuilder::Cluster(const ClusterConfig& config) {
  if (!Require(0, "Cluster")) return *this;
  ClusterConfig c = config;
  if (!c.metrics) c.metrics = metrics_;
  stack_.cluster = std::make_shared<ClusterObjectStore>(c);
  stack_.base = stack_.cluster;
  cur_ = stack_.cluster;
  return *this;
}

StackBuilder& StackBuilder::Ec(EcStoreOptions options) {
  if (!Require(1, "Ec")) return *this;
  if (!options.metrics) options.metrics = metrics_;
  if (!options.placement) options.placement = ClusterPrimaryPlacement(cur_);
  stack_.ec = std::make_shared<EcStore>(cur_, std::move(options));
  cur_ = stack_.ec;
  return *this;
}

StackBuilder& StackBuilder::Tiering(TieringOptions options,
                                    MigratorOptions migrate,
                                    EcStoreOptions cold_geometry) {
  if (!Require(1, "Tiering")) return *this;
  if (!options.metrics) options.metrics = metrics_;
  if (!options.cold) {
    // Synthesize the cold tier: an EcStore over the CURRENT store (a side
    // store sharing the hot store's namespace, not a layer the stack grows
    // through) that encodes exactly the "..cold" objects TieringStore
    // writes through it. Demotion thereby EC-encodes for free and cold
    // reads reconstruct under node outages.
    if (!cold_geometry.metrics) cold_geometry.metrics = metrics_;
    cold_geometry.should_encode = [](const std::string& key) {
      return key.find("..cold") != std::string::npos;
    };
    if (!cold_geometry.placement) {
      cold_geometry.placement = ClusterPrimaryPlacement(cur_);
    }
    stack_.ec = std::make_shared<EcStore>(cur_, std::move(cold_geometry));
    options.cold = stack_.ec;
  } else if (auto ec = std::dynamic_pointer_cast<EcStore>(options.cold)) {
    stack_.ec = std::move(ec);
  }
  stack_.tiering = std::make_shared<TieringStore>(cur_, std::move(options));
  cur_ = stack_.tiering;
  if (!migrate.metrics) migrate.metrics = metrics_;
  stack_.migrator = std::make_shared<Migrator>(stack_.tiering, migrate);
  return *this;
}

StackBuilder& StackBuilder::Scrub(ScrubberOptions options) {
  if (!Require(2, "Scrub")) return *this;
  if (!stack_.ec) {
    Fail("StackBuilder: Scrub requires an Ec or Tiering stage below it");
    return *this;
  }
  if (!options.metrics) options.metrics = metrics_;
  stack_.scrubber = std::make_shared<Scrubber>(stack_.ec, options);
  return *this;
}

StackBuilder& StackBuilder::Chaos(ChaosConfig config) {
  if (!Require(3, "Chaos")) return *this;
  stack_.chaos =
      std::make_shared<ChaosStore>(cur_, std::move(config), nullptr, metrics_);
  cur_ = stack_.chaos;
  return *this;
}

StackBuilder& StackBuilder::Retrying(RetryPolicy policy) {
  if (!Require(4, "Retrying")) return *this;
  stack_.retrying = std::make_shared<RetryingStore>(cur_, policy, metrics_);
  cur_ = stack_.retrying;
  return *this;
}

Result<StoreStack> StackBuilder::Build() {
  if (!error_.ok()) return error_;
  if (!cur_) {
    return ErrStatus(Errc::kInval, "StackBuilder: no Base or Cluster stage");
  }
  stack_.instrumented = std::make_shared<InstrumentedStore>(cur_, metrics_);
  stack_.store = stack_.instrumented;
  return stack_;
}

}  // namespace arkfs::objstore
