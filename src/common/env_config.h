// EnvConfig — the one parser for ARKFS_* environment knobs.
//
// The CLI, benches and chaos tests each grew their own getenv() calls with
// subtly different parsing (and no way to see what a process actually
// picked up). This consolidates them: every knob is parsed in one place
// with one grammar, carries its source (environment vs default) and its
// parse error if the value was malformed, and `arkfs_cli config` dumps the
// whole table.
//
// This lives in common/ and therefore speaks strings, not higher-layer
// enums: placement()/durability() validate the token set and the consumer
// (arkfs_cli, bench) maps it onto DataPlacement / DurabilityMode. A knob
// set to a malformed value is reported via the knob's `error` field and the
// typed accessor returns the default — consumers that must fail hard (the
// CLI) check `knob().valid` first.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace arkfs::env {

// One knob's parse outcome.
struct Knob {
  std::string name;         // e.g. "ARKFS_PLACEMENT"
  std::string description;  // what it controls
  bool from_env = false;    // false = unset, default in effect
  std::string raw;          // the environment value, verbatim (if set)
  bool valid = true;        // false = set but malformed
  std::string error;        // why it was malformed
  std::string value;        // parsed value, rendered as text
};

class EnvConfig {
 public:
  // Reads the process environment now (no caching: tests setenv/unsetenv
  // around calls).
  static EnvConfig FromEnvironment();

  // ARKFS_PLACEMENT: "replica" | "ec" | "tiered". Default "replica".
  const std::string& placement() const { return placement_; }
  // ARKFS_DURABILITY: "sync" | "group" | "async". Empty = journal default.
  const std::string& durability() const { return durability_; }
  // ARKFS_TENANT: decimal tenant id (fits uint32). nullopt = unset.
  std::optional<std::uint32_t> tenant() const { return tenant_; }
  // ARKFS_BENCH_VERBOSE: any non-empty value enables (historic contract).
  bool bench_verbose() const { return bench_verbose_; }
  // ARKFS_CHAOS_SEED: decimal seed pinning randomized chaos tests.
  std::optional<std::uint64_t> chaos_seed() const { return chaos_seed_; }

  // Every knob in declaration order, for `arkfs_cli config`.
  const std::vector<Knob>& knobs() const { return knobs_; }
  // Lookup by name; nullptr if unknown.
  const Knob* Find(const std::string& name) const;

  // "name source=env|default value=... [error=...]" per line.
  std::string DumpText() const;

 private:
  std::string placement_ = "replica";
  std::string durability_;
  std::optional<std::uint32_t> tenant_;
  bool bench_verbose_ = false;
  std::optional<std::uint64_t> chaos_seed_;
  std::vector<Knob> knobs_;
};

}  // namespace arkfs::env
