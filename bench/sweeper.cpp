// Parallel seed-sweep driver. Runs one scenario across a list of seeds on
// worker threads (one Simulator per seed, nothing shared between seeds) and
// prints one report line per seed to stdout, in seed order. The contract
// CI enforces: stdout is byte-identical for any --jobs value, so
//
//   sweeper --scenario chaos --seeds 1-8 --jobs 1 > serial.txt
//   sweeper --scenario chaos --seeds 1-8 --jobs 8 > parallel.txt
//   diff serial.txt parallel.txt
//
// must always be empty. Timing goes to stderr, outside the comparison.
//
// Usage: sweeper [--scenario NAME] [--seeds A-B | a,b,c] [--jobs N]
// (the usage text lists every scenario name).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sweep/sweep.hpp"

namespace {

std::vector<std::uint64_t> parse_seeds(const char* spec) {
  std::vector<std::uint64_t> seeds;
  const char* p = spec;
  const char* dash = std::strchr(spec, '-');
  if (dash && dash != spec) {
    const std::uint64_t lo = std::strtoull(spec, nullptr, 10);
    const std::uint64_t hi = std::strtoull(dash + 1, nullptr, 10);
    for (std::uint64_t s = lo; s <= hi; ++s) seeds.push_back(s);
    return seeds;
  }
  while (*p) {
    char* end = nullptr;
    seeds.push_back(std::strtoull(p, &end, 10));
    if (end == p) break;
    p = *end == ',' ? end + 1 : end;
  }
  return seeds;
}

/// "chaos|flash|...": every scenario name, in declaration order.
std::string scenario_names() {
  std::string names;
  for (const hpop::sweep::Scenario s : hpop::sweep::kScenarios) {
    if (!names.empty()) names += '|';
    names += hpop::sweep::to_string(s);
  }
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  hpop::sweep::Scenario scenario = hpop::sweep::Scenario::kChaos;
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  std::size_t jobs = 1;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      const auto parsed = hpop::sweep::scenario_from_string(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "unknown scenario '%s' (%s)\n", argv[i],
                     scenario_names().c_str());
        return 2;
      }
      scenario = *parsed;
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = parse_seeds(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: sweeper [--scenario %s] [--seeds A-B|a,b,c] "
                   "[--jobs N]\n",
                   scenario_names().c_str());
      return 2;
    }
  }
  if (seeds.empty()) {
    std::fprintf(stderr, "no seeds\n");
    return 2;
  }

  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::string> lines =
      hpop::sweep::run_sweep(scenario, seeds, jobs);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (const std::string& line : lines) std::printf("%s\n", line.c_str());
  std::fprintf(stderr, "sweep: scenario=%s seeds=%zu jobs=%zu wall=%.2fs\n",
               hpop::sweep::to_string(scenario), seeds.size(), jobs, wall_s);
  return 0;
}
