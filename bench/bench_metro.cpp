// E17: metro-scale capacity and the diurnal NoCDN day.
//
// Part 1 (capacity): builds a --homes metro (default 100k) in one process,
// measures live heap bytes per home via the alloc hook, and proves the
// hierarchical routing plan end to end with a cross-PoP home-to-home fetch
// plus a home-to-origin fetch.
//
// Part 2 (diurnal day): for a ladder of populations, runs a compressed
// diurnal day of NoCDN page loads (Zipf catalog, flash crowd + regional
// outage via the chaos controller) and reports offload and peer hit rate
// vs population.
//
// Self-gating: exits non-zero unless the capacity build stays within the
// committed bytes-per-home budget, both functional fetches succeed, and
// every population's day completes with sane offload. All stdout is
// deterministic (same seed => byte-identical; CI diffs two runs); wall
// timings go to stderr.
//
// Flags: --homes N (capacity part; default 100000, --smoke default 10000),
// --smoke (small populations), --no-gate (report but always exit 0 — use
// under ASan, where redzones inflate the byte numbers).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_hook.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "metro/driver.hpp"
#include "metro/topology.hpp"
#include "sim/simulator.hpp"
#include "transport/mux.hpp"
#include "util/rng.hpp"

namespace {

using namespace hpop;
using util::kSecond;

struct CapacityResult {
  std::size_t homes = 0;
  std::size_t dslams = 0;
  std::size_t pops = 0;
  std::uint64_t fingerprint = 0;
  double bytes_per_home = 0;
  bool cross_pop_ok = false;
  bool origin_ok = false;
};

CapacityResult run_capacity(std::size_t homes) {
  CapacityResult r;
  const std::int64_t live_before = benchhook::live_bytes();
  sim::Simulator sim;
  net::Network net(sim, util::Rng(17));
  metro::MetroParams params;
  params.homes = homes;
  util::Rng rng(17);
  metro::MetroTopology topo = metro::build_metro(net, params, rng);
  const std::int64_t live_after = benchhook::live_bytes();
  r.homes = topo.homes.size();
  r.dslams = topo.dslams.size();
  r.pops = topo.pops.size();
  r.fingerprint = topo.fingerprint();
  r.bytes_per_home = static_cast<double>(live_after - live_before) /
                     static_cast<double>(homes);

  // Functional slice: the first home fetches from the last home (the
  // longest path in the tree — up through its DSLAM, PoP, the core, and
  // down the far edge) and from the origin.
  net::Host& near = *topo.homes.front();
  net::Host& far = *topo.homes.back();
  transport::TransportMux far_mux(far);
  http::HttpServer far_server(far_mux, 8080);
  far_server.route(http::Method::kGet, "/x",
                   [](const http::Request&, http::ResponseWriter& w) {
                     http::Response resp;
                     resp.body = http::Body::synthetic(8192, 0xCAFE);
                     w.respond(std::move(resp));
                   });
  transport::TransportMux origin_mux(*topo.origins.front());
  http::HttpServer origin_server(origin_mux, 80);
  origin_server.route(http::Method::kGet, "/o",
                      [](const http::Request&, http::ResponseWriter& w) {
                        http::Response resp;
                        resp.body = http::Body::synthetic(4096, 0xBEEF);
                        w.respond(std::move(resp));
                      });
  transport::TransportMux near_mux(near);
  http::HttpClient client(near_mux);
  http::Request rq;
  rq.path = "/x";
  client.fetch({far.address(), 8080}, rq, [&r](util::Result<http::Response> x) {
    r.cross_pop_ok = x.ok() && x.value().status == 200 &&
                     x.value().body.size() == 8192;
  });
  http::Request rq2;
  rq2.path = "/o";
  client.fetch({topo.origins.front()->address(), 80}, rq2,
               [&r](util::Result<http::Response> x) {
                 r.origin_ok = x.ok() && x.value().status == 200 &&
                               x.value().body.size() == 4096;
               });
  sim.run_until(10 * kSecond);
  return r;
}

/// E17's day at one population: the default 60-second service day with one
/// flash crowd and one regional outage.
metro::ServiceDayResult run_diurnal_day(std::size_t homes) {
  metro::ServiceDayParams p;
  p.seed = 42;
  p.topology.homes = homes;
  p.driver.active_homes = homes;  // clamped to leave room for peers + attic
  p.driver.peers = std::max<std::size_t>(8, homes / 128);
  p.driver.attic_pairs = 4;
  p.driver.attic_interval = 10 * kSecond;
  p.outages = 1;
  p.drain = 15 * kSecond;
  return metro::run_service_day(p);
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t homes = 0;  // 0 = default by mode
  bool smoke = false;
  bool gate = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--homes") == 0 && i + 1 < argc) {
      homes = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-gate") == 0) {
      gate = false;
    } else {
      std::fprintf(stderr, "usage: %s [--homes N] [--smoke] [--no-gate]\n",
                   argv[0]);
      return 2;
    }
  }
  if (homes == 0) homes = smoke ? 10'000 : 100'000;

  constexpr double kBytesPerHomeMax = 4'096.0;
  constexpr double kOffloadMin = 0.5;

  std::fprintf(stderr, "[bench_metro] capacity build (%zu homes)...\n", homes);
  Clock::time_point t0 = Clock::now();
  const CapacityResult cap = run_capacity(homes);
  std::fprintf(stderr, "[bench_metro] capacity done in %.2fs\n",
               seconds_since(t0));
  std::printf(
      "bench_metro capacity homes=%zu dslams=%zu pops=%zu fp=%016llx "
      "bytes_per_home=%.1f cross_pop=%s origin=%s\n",
      cap.homes, cap.dslams, cap.pops,
      static_cast<unsigned long long>(cap.fingerprint), cap.bytes_per_home,
      cap.cross_pop_ok ? "ok" : "FAIL", cap.origin_ok ? "ok" : "FAIL");

  const std::vector<std::size_t> populations =
      smoke ? std::vector<std::size_t>{200, 500}
            : std::vector<std::size_t>{1'000, 4'000, 10'000};
  std::vector<metro::ServiceDayResult> days;
  for (const std::size_t n : populations) {
    std::fprintf(stderr, "[bench_metro] diurnal day (%zu homes)...\n", n);
    t0 = Clock::now();
    days.push_back(run_diurnal_day(n));
    std::fprintf(stderr, "[bench_metro] day done in %.2fs\n",
                 seconds_since(t0));
    std::printf("bench_metro diurnal %s\n", days.back().report.c_str());
  }

  const bool gate_bytes =
      cap.bytes_per_home > 0 && cap.bytes_per_home <= kBytesPerHomeMax;
  const bool gate_routing = cap.cross_pop_ok && cap.origin_ok;
  bool gate_days = true;
  for (const metro::ServiceDayResult& d : days) {
    gate_days = gate_days && d.stats.loads_ok > 0 &&
                d.offload >= kOffloadMin && d.stats.attic_gets > 0;
  }
  const bool passed = gate_bytes && gate_routing && gate_days;
  std::printf(
      "bench_metro gates bytes_per_home=%s (max=%.0f) routing=%s days=%s "
      "-> %s\n",
      gate_bytes ? "ok" : "FAIL", kBytesPerHomeMax,
      gate_routing ? "ok" : "FAIL", gate_days ? "ok" : "FAIL",
      passed ? "PASSED" : "FAILED");

  if (gate && !passed) return 1;
  return 0;
}
