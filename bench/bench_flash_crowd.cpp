// E14 — Overload resilience under a flash crowd (DESIGN.md §9).
//
// §IV-B serves provider content from peers on residential uplinks; a
// popular page can point a crowd at a single home. An unprotected peer
// accepts every request: its uplink queue grows without bound, every
// transfer crosses the client timeout, aborted connections waste the
// bytes already committed to the wire, and goodput collapses even though
// the link is saturated — classic congestion collapse. With admission
// control the peer sheds excess requests instantly with a cheap 429 +
// Retry-After; admitted transfers finish fast, and client-side circuit
// breakers + Retry-After pacing stop the crowd from hammering.
//
// This bench stampedes one warmed peer twice with identical seeds and
// client behaviour (retries, breakers on in BOTH runs) — admission off,
// then admission on — and compares goodput and latency percentiles over
// the steady-state window.
//
// Usage: bench_flash_crowd [--smoke]   (--smoke: fewer clients, shorter run)

#include "bench/common.hpp"
#include "sweep/worlds.hpp"
#include "telemetry/metrics.hpp"

#include <cstring>

using namespace hpop;
using namespace hpop::bench;
using util::kMillisecond;
using util::kSecond;

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // The sweeper's flash world, at this bench's fixed seeds and sizes.
  sweep::StampedeParams p{.net_seed = 71,
                          .origin_seed = 99,
                          .peer_seed = 1000,
                          .client_seed = 7000};
  if (smoke) {
    p.clients = 8;
    p.issue_every = 250 * kMillisecond;
    p.warmup = 3 * kSecond;
    p.horizon = 15 * kSecond;
  }

  header("E14", "flash crowd vs one NoCDN peer: admission control on/off",
         "peers serve provider content from home uplinks (§IV-B); a flash "
         "crowd must degrade a peer gracefully, not collapse it");

  // A run whose warming fetch failed comes back zeroed and fails the
  // verdicts loudly.
  const auto before = telemetry::registry().snapshot();
  p.admission = false;
  const sweep::StampedeResult off = sweep::run_stampede(p);
  p.admission = true;
  const sweep::StampedeResult on = sweep::run_stampede(p);
  const auto delta = telemetry::MetricsRegistry::delta(
      before, telemetry::registry().snapshot());
  const auto goodput_mbps = [&](const sweep::StampedeResult& o) {
    const double secs = static_cast<double>(p.horizon - p.warmup) / kSecond;
    return static_cast<double>(o.goodput_bytes) * 8.0 / secs / 1e6;
  };

  const double demand_rps =
      static_cast<double>(p.clients) * kSecond /
      static_cast<double>(p.issue_every);
  const double capacity_rps =
      p.peer_uplink / 8.0 / static_cast<double>(p.object_kb * 1024);
  std::printf("%d clients, one %.0fKB object every %.0fms each "
              "(demand %.0f req/s, uplink fits ~%.1f req/s)\n",
              p.clients, static_cast<double>(p.object_kb),
              static_cast<double>(p.issue_every) / kMillisecond, demand_rps,
              capacity_rps);
  std::printf("identical clients both runs: timeout 1.5s, retries + "
              "Retry-After + circuit breakers on\n\n");

  util::Table table({"run", "goodput", "ok/issued", "sheds(429)",
                     "fast-fails", "retries", "p50", "p99"});
  auto add_row = [&](const char* name, const sweep::StampedeResult& o) {
    table.add_row({name, fmt(goodput_mbps(o)) + "Mbps",
                   std::to_string(o.ok) + "/" + std::to_string(o.issued),
                   std::to_string(o.sheds),
                   std::to_string(o.client_fast_fails),
                   std::to_string(o.client_retries),
                   fmt(o.percentile(0.50)) + "s",
                   fmt(o.percentile(0.99)) + "s"});
  };
  add_row("admission off", off);
  add_row("admission on", on);
  std::printf("%s", table.render().c_str());

  std::printf("\noverload counters (svc=nocdn.peer, both runs):\n");
  util::Table counters({"metric", "value"});
  counters.add_row({"overload.admitted",
                    fmt(delta.value("overload.admitted", "svc=nocdn.peer"),
                        0)});
  counters.add_row({"overload.shed_rate",
                    fmt(delta.value("overload.shed_rate", "svc=nocdn.peer"),
                        0)});
  counters.add_row({"nocdn.peer.requests",
                    fmt(delta.value("nocdn.peer.requests"), 0)});
  std::printf("%s\n", counters.render().c_str());

  const double ratio =
      goodput_mbps(off) > 0.0
          ? goodput_mbps(on) / goodput_mbps(off)
          : (goodput_mbps(on) > 0.0 ? 99.0 : 0.0);
  verdict("goodput with admission control", ">=2x of without",
          fmt(ratio, 1) + "x", ratio >= 2.0);
  verdict("p99 latency with admission on", "bounded (<2.5s)",
          fmt(on.percentile(0.99)) + "s",
          on.ok > 0 && on.percentile(0.99) < 2.5);
  verdict("excess load shed, not queued", ">0 sheds, 0 without",
          std::to_string(on.sheds) + " vs " + std::to_string(off.sheds),
          on.sheds > 0 && off.sheds == 0);
  return exit_status();
}
