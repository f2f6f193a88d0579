// E20: the sharded parallel metro day (src/psim). Runs the same 10k-home
// compressed diurnal day serially (workers=1) and sharded (--workers N) and
// self-gates on:
//   - byte-identical day reports across worker counts (the determinism
//     contract: partitioning is per-PoP regardless of workers, crossings
//     drain in a fixed order at barrier epochs),
//   - chaos fired inside non-zero shards (a DSLAM crash+restart in PoP 1,
//     a partition cut in PoP 2 that ate traffic),
//   - traffic actually flowed (requests, response bytes).
//
// E21: the same day over real transport (psim::run_tcp_day): per-home TCP
// and MPTCP connections whose segments cross shard boundaries while every
// piece of endpoint state stays shard-local. Gates mirror E20, plus
// transfers must complete and loss recovery must have fired (the chaos
// faults land mid-transfer).
//
// Deterministic stdout: every line printed is derived from simulated state
// only, so CI can diff a --workers 1 run against a --workers 4 run. Wall
// times go to stderr.
//
// Flags: --workers N (default 4), --homes N, --seed S, --smoke.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/psim/day.hpp"
#include "src/psim/tcp_day.hpp"
#include "src/util/time.hpp"

using namespace hpop;

int main(int argc, char** argv) {
  std::size_t workers = 4;
  std::size_t homes = 10'000;
  std::uint64_t seed = 42;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--workers") && i + 1 < argc) {
      workers = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--homes") && i + 1 < argc) {
      homes = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--smoke")) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--workers N] [--homes N] [--seed S] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }

  psim::DayConfig cfg;
  cfg.homes = smoke ? std::min<std::size_t>(homes, 2'000) : homes;
  cfg.seed = seed;
  cfg.day = (smoke ? 10 : 20) * util::kSecond;

  cfg.workers = 1;
  psim::DayResult serial = psim::run_day(cfg);
  cfg.workers = workers;
  psim::DayResult sharded = psim::run_day(cfg);

  std::printf("# E20: sharded parallel metro day\n");
  std::printf("%s", sharded.report.c_str());
  std::fprintf(stderr, "wall: serial %.3fs, %zu workers %.3fs\n",
               serial.wall_s, workers, sharded.wall_s);

  const bool identical = serial.report == sharded.report;
  const bool chaos_ok =
      sharded.chaos_crashes >= 1 && sharded.chaos_restarts >= 1 &&
      sharded.partition_drops >= 1;
  const bool traffic_ok = sharded.requests > 0 && sharded.rx_bytes > 0 &&
                          sharded.crossings > 0;
  std::printf("gate identical_across_workers=%s\n", identical ? "ok" : "FAIL");
  std::printf("gate chaos_fired=%s\n", chaos_ok ? "ok" : "FAIL");
  std::printf("gate traffic_flowed=%s\n", traffic_ok ? "ok" : "FAIL");

  psim::TcpDayConfig tcfg;
  tcfg.homes = cfg.homes;
  tcfg.seed = seed;
  tcfg.day = cfg.day;

  tcfg.workers = 1;
  psim::TcpDayResult tserial = psim::run_tcp_day(tcfg);
  tcfg.workers = workers;
  psim::TcpDayResult tsharded = psim::run_tcp_day(tcfg);

  std::printf("# E21: sharded parallel metro day over TCP/MPTCP\n");
  std::printf("%s", tsharded.report.c_str());
  std::fprintf(stderr, "wall: serial %.3fs, %zu workers %.3fs\n",
               tserial.wall_s, workers, tsharded.wall_s);

  const bool tcp_identical = tserial.report == tsharded.report;
  const bool tcp_chaos_ok =
      tsharded.chaos_crashes >= 1 && tsharded.chaos_restarts >= 1 &&
      tsharded.partition_drops >= 1;
  const bool tcp_traffic_ok = tsharded.completed > 0 &&
                              tsharded.rx_bytes > 0 &&
                              tsharded.mptcp_sessions > 0 &&
                              tsharded.crossings > 0;
  // Loss recovery at work: data retransmissions or RTO-driven retries
  // (a SYN lost to the crashed DSLAM retries via RTO without counting a
  // data retransmit, so both counters qualify).
  const bool tcp_recovery_ok = tsharded.retransmits + tsharded.timeouts > 0;
  std::printf("gate tcp_identical_across_workers=%s\n",
              tcp_identical ? "ok" : "FAIL");
  std::printf("gate tcp_chaos_fired=%s\n", tcp_chaos_ok ? "ok" : "FAIL");
  std::printf("gate tcp_traffic_flowed=%s\n", tcp_traffic_ok ? "ok" : "FAIL");
  std::printf("gate tcp_recovery_fired=%s\n", tcp_recovery_ok ? "ok" : "FAIL");

  if (!(identical && chaos_ok && traffic_ok && tcp_identical && tcp_chaos_ok &&
        tcp_traffic_ok && tcp_recovery_ok)) {
    std::fprintf(stderr, "bench_psim: gate failure\n");
    return 1;
  }
  return 0;
}
