// E11 — §IV-D "A Cooperative Cache": "neighboring HPoPs can link together
// to coordinate their content gathering activities and avoid duplicate
// retrievals and storage of content in an effort to save aggregate
// capacity to the neighborhood. Content can then be shared by all hosts
// within the community in a peer-to-peer manner." (Lateral bandwidth, §II.)
//
// An FTTH street with a shared aggregation uplink: cooperative cache on vs
// off, sweeping neighbourhood size. Reports uplink traffic, upstream
// request dedup, and device latency.

#include "bench/common.hpp"
#include "iathome/browsing.hpp"
#include "iathome/prefetcher.hpp"
#include "net/topology.hpp"
#include "telemetry/telemetry.hpp"

using namespace hpop;
using namespace hpop::bench;
using namespace hpop::iathome;

namespace {

struct Metrics {
  double uplink_mb = 0;
  std::uint64_t upstream_requests = 0;
  std::uint64_t lateral_hits = 0;
  double p95_ms = 0;
  std::uint64_t objects = 0;
};

Metrics run(int homes, bool coop_enabled) {
  sim::Simulator sim;
  net::Network net(sim, util::Rng(79));
  CorpusConfig cc;
  cc.n_sites = 25;
  cc.objects_per_site = 8;
  cc.deep_fraction = 0.0;
  cc.max_age_s = 600;
  WebCorpus corpus(cc, util::Rng(7));

  net::Router& agg = net.add_router("agg");
  net::Router& core = net.add_router("core");
  net::Link& uplink =
      net.connect(agg, net::IpAddr{}, core, net::IpAddr{},
                  net::LinkParams{10 * util::kGbps, 1 * util::kMillisecond});
  net::Host& internet_host = net.add_host("internet",
                                          net.next_public_address());
  net.connect(internet_host, internet_host.address(), core, net::IpAddr{},
              net::LinkParams{40 * util::kGbps, 25 * util::kMillisecond});

  struct HomeSetup {
    std::unique_ptr<transport::TransportMux> mux_hpop;
    std::unique_ptr<transport::TransportMux> mux_device;
    std::unique_ptr<HomeWebService> web;
    std::unique_ptr<UserDevice> user;
  };
  std::vector<HomeSetup> setups(static_cast<std::size_t>(homes));
  std::vector<net::Host*> hpop_hosts, device_hosts;
  for (int h = 0; h < homes; ++h) {
    hpop_hosts.push_back(&net.add_host("hpop" + std::to_string(h),
                                       net.next_public_address()));
    net.connect(*hpop_hosts.back(), hpop_hosts.back()->address(), agg,
                net::IpAddr{},
                net::LinkParams{1 * util::kGbps, 1 * util::kMillisecond});
    device_hosts.push_back(&net.add_host("dev" + std::to_string(h),
                                         net.next_public_address()));
    net.connect(*device_hosts.back(), device_hosts.back()->address(),
                *hpop_hosts.back(), hpop_hosts.back()->address(),
                net::LinkParams{1 * util::kGbps, 100 * util::kMicrosecond});
  }
  net.auto_route();

  transport::TransportMux mux_internet(internet_host);
  InternetService internet(mux_internet, corpus, 80);
  auto coop = std::make_shared<CoopDirectory>();
  for (int h = 0; h < homes; ++h) {
    auto& s = setups[static_cast<std::size_t>(h)];
    s.mux_hpop = std::make_unique<transport::TransportMux>(
        *hpop_hosts[static_cast<std::size_t>(h)]);
    HomeWebConfig config;
    config.aggressiveness = 0.0;  // isolate the coop effect
    s.web = std::make_unique<HomeWebService>(
        *s.mux_hpop, config, net::Endpoint{internet_host.address(), 80});
    coop->add_member(s.web->endpoint());
  }
  for (int h = 0; h < homes; ++h) {
    auto& s = setups[static_cast<std::size_t>(h)];
    if (coop_enabled) s.web->join_coop(coop, h);
    s.mux_device = std::make_unique<transport::TransportMux>(
        *device_hosts[static_cast<std::size_t>(h)]);
    BrowsingConfig browsing;
    browsing.mean_think_time = 20 * util::kSecond;
    s.user = std::make_unique<UserDevice>(
        *s.mux_device, corpus, browsing, s.web->endpoint(),
        net::Endpoint{internet_host.address(), 80},
        util::Rng(500 + static_cast<std::uint64_t>(h)));
    s.user->start();
  }

  sim.run_until(19 * util::kHour);
  const std::uint64_t uplink_before =
      uplink.stats(0).bytes + uplink.stats(1).bytes;
  // Everything below reports the same 2-hour evening window: a registry
  // snapshot pair isolates the interval (and this run — the registry is
  // process-wide) without per-home stat plumbing.
  const auto before = telemetry::registry().snapshot();
  sim.run_until(21 * util::kHour);
  const auto window = telemetry::MetricsRegistry::delta(
      before, telemetry::registry().snapshot());

  Metrics m;
  m.uplink_mb = static_cast<double>(uplink.stats(0).bytes +
                                    uplink.stats(1).bytes - uplink_before) /
                (1 << 20);
  m.upstream_requests =
      static_cast<std::uint64_t>(window.value("iathome.upstream_fetches"));
  m.lateral_hits =
      static_cast<std::uint64_t>(window.value("iathome.coop_hits"));
  if (const auto* lat = window.find("iathome.device_latency_ms")) {
    m.p95_ms = lat->p95;
  }
  for (auto& s : setups) {
    m.objects += s.user->stats().objects_fetched;
    s.user->stop();
  }
  return m;
}

}  // namespace

int main() {
  header("E11", "cooperative neighbourhood cache on the shared uplink",
         "coordinated gathering avoids duplicate retrievals; lateral "
         "gigabit links serve neighbours without touching the aggregate");

  util::Table table({"homes", "coop", "uplink MB (2h evening)",
                     "upstream req (2h)", "lateral hits (2h)",
                     "p95 ms (2h)"});
  double solo_requests = 0, coop_requests = 0;
  for (const int homes : {4, 8}) {
    for (const bool coop : {false, true}) {
      const Metrics m = run(homes, coop);
      if (homes == 8 && !coop) {
        solo_requests = static_cast<double>(m.upstream_requests);
      }
      if (homes == 8 && coop) {
        coop_requests = static_cast<double>(m.upstream_requests);
      }
      table.add_row({std::to_string(homes), coop ? "yes" : "no",
                     fmt(m.uplink_mb, 1),
                     std::to_string(m.upstream_requests),
                     std::to_string(m.lateral_hits), fmt(m.p95_ms, 1)});
    }
  }
  std::printf("%s", table.render().c_str());

  const double dedup = 1.0 - coop_requests / std::max(solo_requests, 1.0);
  verdict("upstream request dedup at 8 homes", "substantial (shared Zipf "
          "head)",
          fmt(dedup * 100, 1) + "% fewer", dedup > 0.2);
  std::printf("=> the shared head of the popularity distribution is "
              "fetched once per street instead of once per home; the tail "
              "still goes upstream.\n");
  return exit_status();
}
