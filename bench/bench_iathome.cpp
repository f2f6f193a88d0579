// E10 — §IV-D Internet@home: "Instead of retrieving content on-demand over
// the wide-area network, users will access a local copy cached in the
// HPoP" — with the aggressiveness knob trading upstream load for local
// hits, the freshness-policy choice, and demand smoothing that flattens
// the upstream peaks aggressive gathering would otherwise create.

#include "bench/common.hpp"
#include "iathome/browsing.hpp"
#include "iathome/prefetcher.hpp"
#include "net/topology.hpp"

using namespace hpop;
using namespace hpop::bench;
using namespace hpop::iathome;

namespace {

struct Metrics {
  double hit_pct = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double upstream_mb = 0;
  std::uint64_t upstream_requests = 0;  // the paper's load metric (§IV-D)
  double peak_minute_mb = 0;   // busiest minute of upstream traffic
  double mean_minute_mb = 0;
};

Metrics run(const HomeWebConfig& config, util::Duration horizon,
            util::TimePoint start_hour) {
  sim::Simulator sim;
  net::Network net(sim, util::Rng(73));
  CorpusConfig cc;
  cc.n_sites = 30;
  cc.objects_per_site = 8;
  cc.deep_fraction = 0.0;
  cc.max_age_s = 120;
  WebCorpus corpus(cc, util::Rng(7));

  net::Router& core = net.add_router("core");
  net::Host& internet_host = net.add_host("internet",
                                          net.next_public_address());
  net::Link& wan = net.connect(
      internet_host, internet_host.address(), core, net::IpAddr{},
      net::LinkParams{10 * util::kGbps, 25 * util::kMillisecond});
  net::Host& hpop = net.add_host("hpop", net.next_public_address());
  net.connect(hpop, hpop.address(), core, net::IpAddr{},
              net::LinkParams{1 * util::kGbps, 1 * util::kMillisecond});
  net::Host& device = net.add_host("device", net.next_public_address());
  net.connect(device, device.address(), hpop, hpop.address(),
              net::LinkParams{1 * util::kGbps, 100 * util::kMicrosecond});
  net.auto_route();

  transport::TransportMux mux_internet(internet_host), mux_hpop(hpop),
      mux_device(device);
  InternetService internet(mux_internet, corpus, 80);
  HomeWebService web(mux_hpop, config,
                     net::Endpoint{internet_host.address(), 80});
  web.start();
  BrowsingConfig browsing;
  browsing.mean_think_time = 15 * util::kSecond;
  UserDevice user(mux_device, corpus, browsing, web.endpoint(),
                  {internet_host.address(), 80}, util::Rng(11));
  user.start();

  // Sample upstream bytes per minute for the peak/smoothing analysis.
  util::Summary per_minute_mb;
  sim.run_until(start_hour);
  const util::TimePoint measure_start = sim.now();
  std::uint64_t last_wan_bytes = wan.stats(0).bytes + wan.stats(1).bytes;
  while (sim.now() - measure_start < horizon) {
    sim.run_until(sim.now() + util::kMinute);
    const std::uint64_t wan_bytes = wan.stats(0).bytes + wan.stats(1).bytes;
    per_minute_mb.add(static_cast<double>(wan_bytes - last_wan_bytes) /
                      (1 << 20));
    last_wan_bytes = wan_bytes;
  }
  user.stop();

  Metrics m;
  const auto& stats = web.stats();
  const double answered = static_cast<double>(stats.device_requests);
  m.hit_pct = answered > 0
                  ? 100.0 * static_cast<double>(stats.local_hits) / answered
                  : 0;
  m.p50_ms = web.stats().device_latency_ms.percentile(0.5);
  m.p95_ms = web.stats().device_latency_ms.percentile(0.95);
  m.upstream_mb = static_cast<double>(stats.upstream_bytes) / (1 << 20);
  m.upstream_requests = stats.upstream_fetches;
  m.peak_minute_mb = per_minute_mb.max();
  m.mean_minute_mb = per_minute_mb.mean();
  return m;
}

}  // namespace

int main() {
  header("E10", "Internet@home: aggressiveness, freshness, smoothing",
         "local copies turn WAN latency into LAN latency; aggressiveness "
         "trades upstream load for hits; smoothing flattens upstream peaks");

  const util::Duration kHorizon = 2 * util::kHour;
  const util::TimePoint kEvening = 19 * util::kHour;

  std::printf("aggressiveness sweep (evening browsing, refresh-on-expire):\n");
  util::Table sweep({"aggressiveness", "local hit %", "HPoP p50 (ms)",
                     "HPoP p95 (ms)", "upstream requests", "upstream MB"});
  Metrics demand_only, full;
  for (const double a : {0.0, 0.25, 0.5, 1.0}) {
    HomeWebConfig config;
    config.aggressiveness = a;
    config.prefetch_scan_interval = 20 * util::kSecond;
    const Metrics m = run(config, kHorizon, kEvening);
    if (a == 0.0) demand_only = m;
    if (a == 1.0) full = m;
    sweep.add_row({fmt(a, 2), fmt(m.hit_pct, 1), fmt(m.p50_ms, 2),
                   fmt(m.p95_ms, 2), std::to_string(m.upstream_requests),
                   fmt(m.upstream_mb, 1)});
  }
  std::printf("%s", sweep.render().c_str());
  verdict("aggressive copying lifts local hits", "higher with a=1",
          fmt(demand_only.hit_pct, 1) + "% -> " + fmt(full.hit_pct, 1) + "%",
          full.hit_pct > demand_only.hit_pct + 5);
  verdict("hits are LAN-fast", "HPoP p50 << WAN RTT (52 ms)",
          fmt(full.p50_ms, 2) + " ms (+<1 ms in-home hop)",
          full.p50_ms < 10);
  // §IV-D frames upstream load as the number of requests (fetch +
  // pre-validation); aggressive copying multiplies them even though most
  // are cheap 304s.
  verdict("the cost is upstream request load", "more requests with a=1",
          std::to_string(demand_only.upstream_requests) + " -> " +
              std::to_string(full.upstream_requests),
          full.upstream_requests > demand_only.upstream_requests);

  std::printf("\nfreshness-policy ablation (a=0.5):\n");
  util::Table fresh({"policy", "local hit %", "p95 (ms)", "upstream MB"});
  for (const auto& [name, policy] :
       std::vector<std::pair<const char*, FreshnessPolicy>>{
           {"refresh-on-expire", FreshnessPolicy::kRefreshOnExpire},
           {"revalidate-on-access", FreshnessPolicy::kRevalidateOnAccess}}) {
    HomeWebConfig config;
    config.aggressiveness = 0.5;
    config.freshness = policy;
    config.prefetch_scan_interval = 20 * util::kSecond;
    const Metrics m = run(config, kHorizon, kEvening);
    fresh.add_row({name, fmt(m.hit_pct, 1), fmt(m.p95_ms, 2),
                   fmt(m.upstream_mb, 1)});
  }
  std::printf("%s", fresh.render().c_str());

  // Demand smoothing is cleanest to observe on the gathering workload
  // itself (subscriptions, no device traffic): unconstrained refreshes
  // burst as expirations align; a token bucket just above the mean demand
  // spreads them out ("schedule content acquisition at an opportune time").
  std::printf("\ndemand smoothing (300 subscriptions, gathering only; "
              "per-minute upstream traffic, 1 h after warmup):\n");
  auto run_gathering = [&](bool smoothing,
                           double budget_bytes_per_s) -> std::pair<double,
                                                                   double> {
    sim::Simulator sim;
    net::Network net(sim, util::Rng(73));
    CorpusConfig cc;
    cc.n_sites = 60;
    cc.objects_per_site = 5;
    cc.deep_fraction = 0.0;
    cc.max_age_s = 120;
    WebCorpus corpus(cc, util::Rng(7));
    net::Router& core = net.add_router("core");
    net::Host& internet_host =
        net.add_host("internet", net.next_public_address());
    net::Link& wan = net.connect(
        internet_host, internet_host.address(), core, net::IpAddr{},
        net::LinkParams{10 * util::kGbps, 25 * util::kMillisecond});
    net::Host& hpop = net.add_host("hpop", net.next_public_address());
    net.connect(hpop, hpop.address(), core, net::IpAddr{},
                net::LinkParams{1 * util::kGbps, 1 * util::kMillisecond});
    net.auto_route();
    transport::TransportMux mux_internet(internet_host), mux_hpop(hpop);
    InternetService internet(mux_internet, corpus, 80);
    HomeWebConfig config;
    config.demand_smoothing = smoothing;
    config.smoothing_rate_bytes_per_s = budget_bytes_per_s;
    HomeWebService web(mux_hpop, config,
                       net::Endpoint{internet_host.address(), 80});
    web.start();
    for (std::size_t i = 0; i < corpus.object_count(); ++i) {
      web.subscribe(corpus.object(i).url);
    }
    sim.run_until(40 * util::kMinute);  // warmup: initial gathering
                                        // fully drains even when smoothed
    std::uint64_t last = wan.stats(0).bytes + wan.stats(1).bytes;
    util::Summary per_minute;
    for (int m = 0; m < 60; ++m) {
      sim.run_until(sim.now() + util::kMinute);
      const std::uint64_t now_bytes =
          wan.stats(0).bytes + wan.stats(1).bytes;
      per_minute.add(static_cast<double>(now_bytes - last) / (1 << 20));
      last = now_bytes;
    }
    return {per_minute.max(), per_minute.mean()};
  };

  const auto [peak_raw, mean_raw] = run_gathering(false, 1.0);
  // Budget comfortably above the measured mean: freshness sustained,
  // bursts queued and spread.
  const double budget = 2.0 * mean_raw * (1 << 20) / 60.0;
  const auto [peak_smooth, mean_smooth] = run_gathering(true, budget);

  util::Table smooth({"mode", "peak minute MB", "mean minute MB",
                      "peak/mean"});
  smooth.add_row({"unconstrained", fmt(peak_raw, 2), fmt(mean_raw, 2),
                  fmt(peak_raw / std::max(mean_raw, 0.001), 1) + "x"});
  smooth.add_row({"smoothed (2x mean budget)", fmt(peak_smooth, 2),
                  fmt(mean_smooth, 2),
                  fmt(peak_smooth / std::max(mean_smooth, 0.001), 1) + "x"});
  std::printf("%s", smooth.render().c_str());
  verdict("smoothing flattens the upstream peak", "lower peak/mean",
          fmt(peak_raw / std::max(mean_raw, 0.001), 1) + "x -> " +
              fmt(peak_smooth / std::max(mean_smooth, 0.001), 1) + "x",
          peak_smooth / std::max(mean_smooth, 0.001) <
              peak_raw / std::max(mean_raw, 0.001));
  return exit_status();
}
