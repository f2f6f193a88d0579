#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hpop::sweep {

/// Seed-sweep scenarios: each builds a fresh world in its own Simulator,
/// runs to a fixed horizon, and reports a deterministic one-line summary.
/// Reports are built only from per-object state (client stats, received
/// bytes, admission counters) — never from the telemetry registry, which
/// is thread-local and accumulates across every seed a worker thread runs.
/// The chaos, flash, rampup, metro and directory scenarios run the worlds
/// their benches report on (sweep/worlds.hpp, metro::run_service_day),
/// with params derived from the seed.
enum class Scenario {
  kChaos,       // HTTP fetches with retries through a flapping link
  kFlashCrowd,  // open-loop crowd vs one admission-controlled NoCDN peer
  kRampup,      // TCP slow-start ramp to 90% of a 1 Gbps path
  kMetro,       // small metro tree, diurnal NoCDN day with crowd + outage
  kDurable,     // WAL'd attic through torn crashes: zero acked-write loss
  kDirectory,   // sharded directory day: shard crash + subtree partition
  kPsim,        // sharded parallel metro day (2 workers), chaos in shards
  kPsimTcp,     // same day over TCP/MPTCP: segments cross shard cuts
};

/// Every scenario, in declaration order: the one list the parser, the
/// sweeper's usage text and the tests iterate.
inline constexpr std::array kScenarios = {
    Scenario::kChaos,   Scenario::kFlashCrowd, Scenario::kRampup,
    Scenario::kMetro,   Scenario::kDurable,    Scenario::kDirectory,
    Scenario::kPsim,    Scenario::kPsimTcp,
};

const char* to_string(Scenario s);
std::optional<Scenario> scenario_from_string(std::string_view name);

/// Runs one scenario at one seed. Same (scenario, seed) always returns the
/// same string, regardless of which thread runs it or what ran before —
/// this is the property the parallel sweeper's CI check enforces.
std::string run_scenario(Scenario s, std::uint64_t seed);

/// Runs `seeds` across `jobs` worker threads (jobs <= 1 runs serially on
/// the calling thread) and returns one report line per seed, merged in
/// input-seed order — completion order never leaks into the output.
std::vector<std::string> run_sweep(Scenario s,
                                   const std::vector<std::uint64_t>& seeds,
                                   std::size_t jobs);

}  // namespace hpop::sweep
