// Parallel sweep determinism: running N seeds on worker threads must
// produce byte-identical reports to running them serially, merged in seed
// order. This is the contract ci.sh re-checks on the sweeper binary.

#include <gtest/gtest.h>

#include "sweep/sweep.hpp"

namespace hpop {
namespace {

TEST(Sweep, ScenarioNamesRoundTrip) {
  for (const sweep::Scenario s : sweep::kScenarios) {
    const auto parsed = sweep::scenario_from_string(sweep::to_string(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(sweep::scenario_from_string("nope").has_value());
}

TEST(Sweep, ChaosParallelMatchesSerial) {
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  const auto serial = sweep::run_sweep(sweep::Scenario::kChaos, seeds, 1);
  const auto parallel = sweep::run_sweep(sweep::Scenario::kChaos, seeds, 4);
  ASSERT_EQ(serial.size(), seeds.size());
  EXPECT_EQ(serial, parallel);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(serial[i].rfind("chaos seed=" + std::to_string(seeds[i]), 0),
              0u)
        << serial[i];
  }
}

TEST(Sweep, FlashCrowdParallelMatchesSerial) {
  const std::vector<std::uint64_t> seeds = {7, 11};
  const auto serial =
      sweep::run_sweep(sweep::Scenario::kFlashCrowd, seeds, 1);
  const auto parallel =
      sweep::run_sweep(sweep::Scenario::kFlashCrowd, seeds, 2);
  EXPECT_EQ(serial, parallel);
  for (const std::string& line : serial) {
    EXPECT_NE(line.find("warmed=1"), std::string::npos) << line;
  }
}

TEST(Sweep, PsimParallelMatchesSerial) {
  // Each seed runs a 2-worker sharded engine *inside* a sweep worker
  // thread: nested worker threads, and the thread-local telemetry
  // registries of the inner shards must not perturb the per-object day
  // report.
  const std::vector<std::uint64_t> seeds = {42, 43};
  const auto serial = sweep::run_sweep(sweep::Scenario::kPsim, seeds, 1);
  const auto parallel = sweep::run_sweep(sweep::Scenario::kPsim, seeds, 2);
  EXPECT_EQ(serial, parallel);
  for (const std::string& line : serial) {
    EXPECT_NE(line.find("crashes=1"), std::string::npos) << line;
    EXPECT_EQ(line.find("requests=0 "), std::string::npos) << line;
  }
}

TEST(Sweep, PsimTcpParallelMatchesSerial) {
  // The TCP day adds per-connection endpoint state (cwnd, SACK, RTO
  // timers) on top of the nested-pool hazards above; the report must
  // still be a pure function of the seed.
  const std::vector<std::uint64_t> seeds = {42, 43};
  const auto serial = sweep::run_sweep(sweep::Scenario::kPsimTcp, seeds, 1);
  const auto parallel =
      sweep::run_sweep(sweep::Scenario::kPsimTcp, seeds, 2);
  EXPECT_EQ(serial, parallel);
  for (const std::string& line : serial) {
    EXPECT_NE(line.find("crashes=1"), std::string::npos) << line;
    EXPECT_EQ(line.find("conns=0 "), std::string::npos) << line;
    EXPECT_EQ(line.find("completed=0 "), std::string::npos) << line;
  }
}

TEST(Sweep, RerunOnSameThreadIsIdentical) {
  // Worker threads run many seeds back to back; leftover thread-local
  // state (telemetry, the log clock) must not leak into reports.
  const auto first = sweep::run_scenario(sweep::Scenario::kChaos, 3);
  const auto second = sweep::run_scenario(sweep::Scenario::kChaos, 3);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace hpop
