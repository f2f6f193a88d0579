// E4 — the §IV-A1 health-records case study: "records are currently
// dispersed among providers, each requiring a separate release form ...
// or impossible, e.g., when a past provider is no longer in business ...
// the patient can provide immediate access to their complete records."
//
// Sweeps the number of providers and measures: (a) time for an emergency
// room to obtain the complete history via the attic vs the conventional
// per-provider release process, and (b) completeness when some providers
// have gone out of business.

#include "attic/health.hpp"
#include "attic/webdav.hpp"
#include "bench/common.hpp"
#include "net/topology.hpp"

using namespace hpop;
using namespace hpop::bench;

namespace {

struct Result {
  double attic_ms = 0;          // emergency aggregation via the attic
  double conventional_hours = 0;  // max per-provider release latency
  std::size_t attic_records = 0;
  std::size_t conventional_records = 0;  // after defunct providers vanish
  std::size_t total_records = 0;
};

Result run(int n_providers, int records_each, int defunct, util::Rng& rng) {
  sim::Simulator sim;
  net::Network net(sim, util::Rng(11));
  net::Router& core = net.add_router("core");
  const net::Home home =
      net::make_home(net, "home", core, 1, net::NatConfig::full_cone(),
                     net::PathParams{1 * util::kGbps,
                                     3 * util::kMillisecond});
  net::Host& er = net.add_host("er", net.next_public_address());
  net.connect(er, er.address(), core, net::IpAddr{},
              net::LinkParams{1 * util::kGbps, 8 * util::kMillisecond});
  std::vector<net::Host*> provider_hosts;
  for (int p = 0; p < n_providers; ++p) {
    provider_hosts.push_back(
        &net.add_host("prov" + std::to_string(p), net.next_public_address()));
    net.connect(*provider_hosts.back(), provider_hosts.back()->address(),
                core, net::IpAddr{},
                net::LinkParams{1 * util::kGbps, 12 * util::kMillisecond});
  }
  net.auto_route();

  core::HpopConfig config;
  config.household = "patient";
  config.reachability.home_gateway = home.nat;
  core::Hpop hpop(*home.hosts[0], config);
  attic::AtticService attic_service(hpop);
  hpop.boot();
  sim.run_until(5 * util::kSecond);

  std::vector<std::unique_ptr<transport::TransportMux>> muxes;
  std::vector<std::unique_ptr<http::HttpClient>> https;
  std::vector<std::unique_ptr<attic::HealthProviderSystem>> providers;
  Result result;
  for (int p = 0; p < n_providers; ++p) {
    muxes.push_back(
        std::make_unique<transport::TransportMux>(*provider_hosts[p]));
    https.push_back(std::make_unique<http::HttpClient>(*muxes.back()));
    providers.push_back(std::make_unique<attic::HealthProviderSystem>(
        "prov" + std::to_string(p), *https.back(), sim));
    providers.back()->release_delay =
        util::seconds(rng.uniform(6, 96) * 3600);  // 6h..4 days of paperwork
    const auto grant = attic::issue_provider_grant(
        attic_service, "prov" + std::to_string(p));
    (void)providers.back()->link_patient("patient", grant.encode());
    for (int r = 0; r < records_each; ++r) {
      attic::HealthRecord record;
      record.patient = "patient";
      record.record_id = "rec" + std::to_string(r);
      record.content = http::Body::synthetic(40 * 1024, // a scan or note
                                             static_cast<std::uint64_t>(
                                                 p * 1000 + r));
      providers.back()->add_record(record);
      ++result.total_records;
    }
  }
  sim.run_until(sim.now() + 30 * util::kSecond);

  // The first `defunct` providers go out of business: conventional
  // requests to them return nothing; the attic copies remain.
  for (int p = 0; p < n_providers; ++p) {
    const bool gone = p < defunct;
    if (!gone) {
      result.conventional_records +=
          providers[static_cast<std::size_t>(p)]
              ->local_records("patient")
              .size();
      result.conventional_hours = std::max(
          result.conventional_hours,
          util::to_seconds(providers[static_cast<std::size_t>(p)]
                               ->release_delay) /
              3600.0);
    }
  }

  // Emergency aggregation through the attic.
  transport::TransportMux er_mux(er);
  http::HttpClient er_http(er_mux);
  const auto cap = hpop.tokens().issue("patient", "/records", false,
                                       sim.now() + util::kDay);
  attic::AtticClient er_attic(er_http, {home.nat->public_ip(), 443},
                              core::TokenAuthority::encode(cap));
  attic::PatientHealthView view(er_attic);
  const util::TimePoint start = sim.now();
  view.aggregate(
      [&](util::Result<attic::PatientHealthView::Aggregated> aggregated) {
        if (aggregated.ok()) {
          result.attic_records = aggregated.value().total;
          result.attic_ms = util::to_millis(sim.now() - start);
        }
      });
  sim.run_until(sim.now() + 60 * util::kSecond);
  return result;
}

}  // namespace

int main() {
  header("E4", "health-records aggregation: attic vs per-provider releases",
         "immediate access to complete records; conventional releases are "
         "slow and lose defunct providers' records entirely");

  util::Rng rng(5);
  util::Table table({"providers", "records", "defunct", "attic (ms)",
                     "conventional (hours)", "attic complete",
                     "conventional complete"});
  Result headline;
  for (const auto& [providers, defunct] :
       std::vector<std::pair<int, int>>{{2, 0}, {5, 0}, {5, 1}, {10, 2}}) {
    const Result r = run(providers, 8, defunct, rng);
    if (providers == 5 && defunct == 1) headline = r;
    table.add_row(
        {std::to_string(providers), std::to_string(r.total_records),
         std::to_string(defunct), fmt(r.attic_ms, 1),
         fmt(r.conventional_hours, 0),
         fmt(100.0 * static_cast<double>(r.attic_records) /
                 static_cast<double>(r.total_records), 0) + "%",
         fmt(100.0 * static_cast<double>(r.conventional_records) /
                 static_cast<double>(r.total_records), 0) + "%"});
  }
  std::printf("%s", table.render().c_str());

  verdict("attic gives the full history", "100%",
          fmt(100.0 * static_cast<double>(headline.attic_records) /
                  static_cast<double>(headline.total_records), 0) + "%",
          headline.attic_records == headline.total_records);
  verdict("conventional loses defunct providers", "incomplete",
          fmt(100.0 * static_cast<double>(headline.conventional_records) /
                  static_cast<double>(headline.total_records), 0) + "%",
          headline.conventional_records < headline.total_records);
  verdict("speedup (emergency access)", ">10^5x",
          fmt(headline.conventional_hours * 3600e3 / headline.attic_ms, 0) +
              "x",
          headline.conventional_hours * 3600e3 / headline.attic_ms > 1e4);
  return exit_status();
}
