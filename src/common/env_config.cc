#include "common/env_config.h"

#include <cstdlib>

namespace arkfs::env {

namespace {

Knob MakeKnob(const char* name, const char* description) {
  Knob k;
  k.name = name;
  k.description = description;
  if (const char* raw = std::getenv(name)) {
    k.from_env = true;
    k.raw = raw;
  }
  return k;
}

bool ParseU64(const std::string& raw, std::uint64_t max, std::uint64_t* out) {
  // strtoull silently wraps "-3" to a huge value; digits only.
  if (raw.empty() || raw[0] < '0' || raw[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0' || errno != 0 || v > max) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

EnvConfig EnvConfig::FromEnvironment() {
  EnvConfig c;

  Knob placement = MakeKnob(
      "ARKFS_PLACEMENT", "data-chunk placement: replica | ec | tiered");
  if (placement.from_env) {
    if (placement.raw == "replica" || placement.raw == "ec" ||
        placement.raw == "tiered") {
      c.placement_ = placement.raw;
    } else {
      placement.valid = false;
      placement.error = "expected replica|ec|tiered";
    }
  }
  placement.value = c.placement_;
  c.knobs_.push_back(std::move(placement));

  Knob durability = MakeKnob(
      "ARKFS_DURABILITY", "journal durability mode: sync | group | async");
  if (durability.from_env) {
    if (durability.raw == "sync" || durability.raw == "group" ||
        durability.raw == "async") {
      c.durability_ = durability.raw;
    } else {
      durability.valid = false;
      durability.error = "expected sync|group|async";
    }
  }
  durability.value = c.durability_.empty() ? "(journal default)" : c.durability_;
  c.knobs_.push_back(std::move(durability));

  Knob tenant = MakeKnob("ARKFS_TENANT", "tenant id charged for every op");
  if (tenant.from_env) {
    std::uint64_t id = 0;
    if (ParseU64(tenant.raw, 0xffffffffULL, &id)) {
      c.tenant_ = static_cast<std::uint32_t>(id);
    } else {
      tenant.valid = false;
      tenant.error = "expected a decimal id <= 2^32-1";
    }
  }
  tenant.value = c.tenant_ ? std::to_string(*c.tenant_) : "(unset)";
  c.knobs_.push_back(std::move(tenant));

  Knob verbose = MakeKnob(
      "ARKFS_BENCH_VERBOSE", "per-phase progress output in benches");
  // Historic contract: presence enables, any value counts.
  c.bench_verbose_ = verbose.from_env;
  verbose.value = c.bench_verbose_ ? "on" : "off";
  c.knobs_.push_back(std::move(verbose));

  Knob seed = MakeKnob(
      "ARKFS_CHAOS_SEED", "pins the randomized chaos-test seed (replay)");
  if (seed.from_env) {
    std::uint64_t v = 0;
    if (ParseU64(seed.raw, ~0ULL, &v)) {
      c.chaos_seed_ = v;
    } else {
      seed.valid = false;
      seed.error = "expected a decimal uint64";
    }
  }
  seed.value = c.chaos_seed_ ? std::to_string(*c.chaos_seed_) : "(random)";
  c.knobs_.push_back(std::move(seed));

  return c;
}

const Knob* EnvConfig::Find(const std::string& name) const {
  for (const Knob& k : knobs_) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

std::string EnvConfig::DumpText() const {
  std::string out;
  for (const Knob& k : knobs_) {
    out += k.name;
    out += k.from_env ? " source=env" : " source=default";
    out += " value=" + k.value;
    if (k.from_env) out += " raw=" + k.raw;
    if (!k.valid) out += " error=" + k.error;
    out += "  # " + k.description;
    out += "\n";
  }
  return out;
}

}  // namespace arkfs::env
