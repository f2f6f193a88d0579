// E2 — the §IV-D TCP ramp-up arithmetic: "over a 1 Gbps network path with
// a 50 msec RTT a TCP connection will require 10 RTTs and over 14 MB of
// data before utilizing the available capacity. Most transfers carry
// nowhere near enough data to achieve these speeds."
//
// Runs real (simulated) TCP flows and measures per-RTT goodput windows:
// the RTT count and cumulative bytes needed to first reach 90% of link
// rate, across a rate x RTT sweep; then the flow-size sweep that shows how
// little of the capacity typical transfer sizes ever see.

#include "bench/common.hpp"
#include "net/topology.hpp"
#include "sweep/worlds.hpp"
#include "transport/mux.hpp"

using namespace hpop;
using namespace hpop::bench;

namespace {

/// Seconds until the first window at 90% of the link rate (0 if none).
double seconds_to_saturation(const sweep::RampResult& r, util::Duration rtt) {
  if (r.rtts_to_saturation < 0) return 0.0;
  return util::to_seconds(r.rtts_to_saturation * rtt);
}

double megabytes(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1 << 20);
}

double flow_average_rate(util::BitRate rate, util::Duration rtt,
                         std::size_t flow_bytes) {
  sim::Simulator sim;
  net::Network net(sim, util::Rng(17));
  const net::PathParams params{rate, rtt / 4, 0.0,
                               static_cast<std::size_t>(64) << 20};
  auto path = net::make_two_host_path(net, params, params);
  transport::TransportMux mux_a(*path.a), mux_b(*path.b);
  auto listener = mux_b.tcp_listen(80);
  std::uint64_t received = 0;
  util::TimePoint done = 0;
  listener->set_on_accept([&](std::shared_ptr<transport::TcpConnection> c) {
    c->set_on_bytes([&](std::size_t n) {
      received += n;
      if (received >= flow_bytes && done == 0) done = sim.now();
    });
  });
  auto client = mux_a.tcp_connect({path.b->address(), 80});
  util::TimePoint established = 0;
  client->set_on_established([&] {
    established = sim.now();
    client->send_bytes(flow_bytes);
  });
  sim.run_until(120 * util::kSecond);
  if (done == 0) return 0;
  return static_cast<double>(flow_bytes) * 8 /
         util::to_seconds(done - established) / 1e6;
}

}  // namespace

int main() {
  header("E2", "TCP slow-start ramp-up on ultrabroadband paths",
         "1 Gbps / 50 ms RTT: ~10 RTTs and >14 MB before reaching capacity");

  // The sweeper's rampup world, at this bench's fixed seed.
  const sweep::RampResult headline = sweep::measure_ramp(
      {.seed = 17, .rate = 1 * util::kGbps, .rtt = 50 * util::kMillisecond});
  verdict("RTTs to 90% of 1 Gbps", "~10",
          std::to_string(headline.rtts_to_saturation),
          headline.rtts_to_saturation >= 8 &&
              headline.rtts_to_saturation <= 12);
  verdict("cumulative MB at saturation", ">14 (sent); ~7-15 delivered",
          fmt(megabytes(headline.bytes_at_saturation), 1) + " MB",
          megabytes(headline.bytes_at_saturation) > 6);

  std::printf("\nrate x RTT sweep (RTTs / MB / seconds to 90%% capacity):\n");
  util::Table table({"rate", "RTT (ms)", "RTTs", "MB delivered", "seconds"});
  for (const double gbps : {0.1, 1.0, 10.0}) {
    for (const double rtt_ms : {10.0, 25.0, 50.0, 100.0}) {
      const util::Duration rtt = util::milliseconds(rtt_ms);
      const sweep::RampResult r = sweep::measure_ramp(
          {.seed = 17, .rate = gbps * util::kGbps, .rtt = rtt});
      table.add_row({fmt(gbps, 1) + " Gbps", fmt(rtt_ms, 0),
                     r.rtts_to_saturation < 0
                         ? "never"
                         : std::to_string(r.rtts_to_saturation),
                     fmt(megabytes(r.bytes_at_saturation), 1),
                     fmt(seconds_to_saturation(r, rtt), 2)});
    }
  }
  std::printf("%s", table.render().c_str());

  std::printf("\nflow-size sweep at 1 Gbps / 50 ms — what typical transfers "
              "actually see:\n");
  util::Table flows({"flow size", "avg rate (Mbit/s)", "% of capacity"});
  for (const std::size_t size :
       {std::size_t(50) << 10, std::size_t(500) << 10, std::size_t(5) << 20,
        std::size_t(50) << 20}) {
    const double mbps =
        flow_average_rate(1 * util::kGbps, 50 * util::kMillisecond, size);
    flows.add_row({fmt_bytes(static_cast<double>(size)), fmt(mbps, 1),
                   fmt(mbps / 10.0, 2)});
  }
  std::printf("%s", flows.render().c_str());
  std::printf("=> \"realizing high speed transfer is not as easy as simply "
              "adding raw capacity\" (§IV-D): small flows never leave slow "
              "start — the Internet@home rationale.\n");
  return exit_status();
}
