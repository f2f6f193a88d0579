// Micro-benchmarks (google-benchmark) for the primitives every experiment
// leans on: SHA-256 / HMAC (NoCDN integrity + accounting), Reed-Solomon
// encode/decode (attic backup), the event queue, and simulated-TCP
// throughput in events and bytes per wall-second. These bound how large a
// simulated world the harness can afford.

#include <benchmark/benchmark.h>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "psim/day.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/mux.hpp"
#include "transport/payloads.hpp"
#include "util/erasure.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

using namespace hpop;

namespace {

void BM_Sha256(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  util::Bytes data(size, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(262144);

void BM_HmacSign(benchmark::State& state) {
  const util::Bytes key = util::to_bytes("short-term-key");
  const util::Bytes msg = util::to_bytes(
      "nytimes|7|1234|99|1048576|12");  // a usage record's canonical form
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::hmac_sha256(key, msg));
  }
}
BENCHMARK(BM_HmacSign);

void BM_ReedSolomonEncode(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  util::ReedSolomon rs(k, m);
  util::Rng rng(1);
  util::Bytes data(64 * 1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ReedSolomonEncode)->Args({4, 2})->Args({6, 3})->Args({10, 4});

void BM_ReedSolomonDecode(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  util::ReedSolomon rs(k, m);
  util::Rng rng(1);
  util::Bytes data(64 * 1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto shards = rs.encode(data);
  std::vector<std::optional<util::Bytes>> damaged(shards.begin(),
                                                  shards.end());
  for (int i = 0; i < m; ++i) damaged[static_cast<std::size_t>(i)].reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.decode(damaged, data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ReedSolomonDecode)->Args({4, 2})->Args({10, 4});

// The tracer's contract: a disabled category must cost one load+test+branch
// per emit(), so leaving instrumentation compiled into every hot path is
// free. Compare against the enabled path and a bare counter bump.
void BM_TracerEmitDisabled(benchmark::State& state) {
  telemetry::Tracer tracer(4096);
  tracer.disable_all();
  for (auto _ : state) {
    tracer.emit(telemetry::TraceEvent::kCacheHit, 1.0, 2.0, "bench");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerEmitDisabled);

void BM_TracerEmitEnabled(benchmark::State& state) {
  telemetry::Tracer tracer(4096);
  tracer.enable(telemetry::TraceCategory::kCache);
  for (auto _ : state) {
    tracer.emit(telemetry::TraceEvent::kCacheHit, 1.0, 2.0, "bench");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerEmitEnabled);

void BM_CounterInc(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter* counter = registry.counter("bench.counter");
  for (auto _ : state) {
    counter->inc();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterInc);

void BM_SummaryObserve(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::SummaryMetric* summary = registry.summary("bench.summary");
  double x = 0;
  for (auto _ : state) {
    summary->observe(x);
    x += 0.5;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SummaryObserve);

void BM_RegistrySnapshot(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  const auto n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    registry.counter("c" + std::to_string(i))->inc();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.snapshot());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RegistrySnapshot)->Arg(16)->Arg(256);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    std::function<void()> tick = [&] {
      if (++counter < 10000) sim.schedule(util::kMicrosecond, tick);
    };
    sim.schedule(0, tick);
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// Timer churn: the RTO/delayed-ACK pattern where nearly every armed timer
// is pushed out before it fires. reschedule() rearms in place — no
// tombstone, no fresh closure — so this should track schedule throughput.
void BM_SimulatorRearm(benchmark::State& state) {
  const auto timers = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  std::vector<sim::TimerId> ids(timers);
  for (std::size_t i = 0; i < timers; ++i) {
    ids[i] = sim.schedule(util::kSecond + static_cast<util::Duration>(i),
                          [] {});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.reschedule(ids[i], util::kSecond));
    i = (i + 1) % timers;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorRearm)->Arg(64)->Arg(4096);

// Arm/disarm cycle: schedule + cancel of a short-lived timer, the pattern
// of one-shot guards (connect timeouts, probe deadlines) that usually die
// before firing.
void BM_SimulatorScheduleCancel(benchmark::State& state) {
  sim::Simulator sim;
  // A standing population keeps the heap at realistic depth.
  for (int i = 0; i < 1024; ++i) {
    sim.schedule(util::kSecond + i, [] {});
  }
  for (auto _ : state) {
    const auto id = sim.schedule(500 * util::kMillisecond, [] {});
    sim.cancel(id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorScheduleCancel);

// Packet hops per wall-second: UDP datagrams crossing host--router--host.
// Every hop copies the Packet struct; the copy-on-write body makes that a
// header-only copy, which is what this measures end to end.
void BM_PacketHopThroughput(benchmark::State& state) {
  const std::uint64_t kPackets = 20000;
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim, util::Rng(7));
    const net::PathParams params{1 * util::kGbps, 1 * util::kMillisecond,
                                 0.0, 16 << 20};
    auto path = net::make_two_host_path(net, params, params);
    transport::TransportMux mux_a(*path.a), mux_b(*path.b);
    auto rx = mux_b.udp_open(9000);
    std::uint64_t delivered = 0;
    rx->set_on_datagram(
        [&delivered](net::Endpoint, net::PayloadPtr) { ++delivered; });
    auto tx = mux_a.udp_open(9001);
    const auto payload = std::make_shared<transport::FillerPayload>(1200);
    const net::Endpoint dst{path.b->address(), 9000};
    std::uint64_t sent = 0;
    std::function<void()> pump = [&] {
      tx->send_to(dst, payload);
      if (++sent < kPackets) sim.schedule(10 * util::kMicrosecond, pump);
    };
    sim.schedule(0, pump);
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPackets));
}
BENCHMARK(BM_PacketHopThroughput)->Unit(benchmark::kMillisecond);

void BM_SimulatedTcpTransfer(benchmark::State& state) {
  const auto mb = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim, util::Rng(11));
    const net::PathParams params{1 * util::kGbps, 5 * util::kMillisecond,
                                 0.0, 16 << 20};
    auto path = net::make_two_host_path(net, params, params);
    transport::TransportMux mux_a(*path.a), mux_b(*path.b);
    auto listener = mux_b.tcp_listen(80);
    std::uint64_t received = 0;
    listener->set_on_accept(
        [&](std::shared_ptr<transport::TcpConnection> c) {
          c->set_on_bytes([&](std::size_t n) { received += n; });
        });
    auto client = mux_a.tcp_connect({path.b->address(), 80});
    client->set_on_established([&] { client->send_bytes(mb << 20); });
    sim.run_until(60 * util::kSecond);
    benchmark::DoNotOptimize(received);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(mb << 20));
}
BENCHMARK(BM_SimulatedTcpTransfer)->Arg(1)->Arg(8)->Unit(
    benchmark::kMillisecond);

// NAT idle-timeout sweep: N distinct inside flows create N mappings, then
// the periodic sweep evicts them all once the timeout lapses. With the
// expiry-ordered intrusive list each sweep is O(expired), so items/s here
// is mapping churn (create + refresh-order bookkeeping + evict), not a
// full-table walk per sweep period. items = mappings evicted.
void BM_NatSweepEviction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim, util::Rng(3));
    net::NatConfig config = net::NatConfig::full_cone();
    config.udp_mapping_timeout = 1 * util::kSecond;
    net::NatBox& nat = net.add_nat("nat", net::IpAddr(100, 64, 0, 1), config);
    net::Host& server = net.add_host("s", net::IpAddr(100, 64, 0, 9));
    net.connect(nat, nat.public_ip(), server, net::IpAddr{});
    net::Host& inside = net.add_host("inside", net::IpAddr(10, 0, 0, 10));
    net.connect(inside, inside.address(), nat, net::IpAddr(10, 0, 0, 1));
    net.auto_route();
    nat.enable_mapping_sweep(250 * util::kMillisecond);
    for (std::size_t i = 0; i < n; ++i) {
      net::Packet pkt;
      pkt.src = inside.address();
      pkt.dst = server.address();
      pkt.proto = net::Proto::kUdp;
      pkt.udp.src_port = static_cast<std::uint16_t>(1024 + i);
      pkt.udp.dst_port = 53;
      pkt.payload_len = 64;
      inside.send_packet(std::move(pkt));
    }
    sim.run();  // sweep timer self-terminates once the table drains
    benchmark::DoNotOptimize(nat.mapping_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NatSweepEviction)->Arg(256)->Arg(4096);

// The NAT translation hot path under burst drain: one flow, back-to-back
// datagrams. After the first packet of a burst misses, the direct-mapped
// flow cache turns every later translation into a tag check + timeout
// refresh instead of a map walk. items = packets translated.
void BM_NatTranslateBurst(benchmark::State& state) {
  const std::uint64_t kPackets = 20'000;
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim, util::Rng(3));
    net::NatBox& nat = net.add_nat("nat", net::IpAddr(100, 64, 0, 1),
                                   net::NatConfig::full_cone());
    net::Host& server = net.add_host("s", net::IpAddr(100, 64, 0, 9));
    net.connect(nat, nat.public_ip(), server, net::IpAddr{});
    net::Host& inside = net.add_host("inside", net::IpAddr(10, 0, 0, 10));
    net.connect(inside, inside.address(), nat, net::IpAddr(10, 0, 0, 1));
    net.auto_route();
    std::uint64_t sent = 0;
    std::function<void()> pump = [&] {
      net::Packet pkt;
      pkt.src = inside.address();
      pkt.dst = server.address();
      pkt.proto = net::Proto::kUdp;
      pkt.udp.src_port = 5000;
      pkt.udp.dst_port = 53;
      pkt.payload_len = 1200;
      inside.send_packet(std::move(pkt));
      if (++sent < kPackets) sim.schedule(10 * util::kMicrosecond, pump);
    };
    sim.schedule(0, pump);
    sim.run();
    benchmark::DoNotOptimize(nat.nat_counters().translated_out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPackets));
}
BENCHMARK(BM_NatTranslateBurst)->Unit(benchmark::kMillisecond);

// A full barrier-epoch cycle of the sharded metro day: builds a small
// 4-PoP world once per iteration and runs one compressed day at the given
// worker count. items = barrier epochs, so the per-epoch cost (min-clock
// scan, generation bump to the persistent workers, arrival wait, crossing
// drain) is the number to watch — it is the serial fraction that bounds
// shard scaling.
void BM_BarrierEpoch(benchmark::State& state) {
  psim::DayConfig cfg;
  cfg.homes = 2'000;
  cfg.workers = static_cast<std::size_t>(state.range(0));
  cfg.day = 2 * util::kSecond;
  cfg.base_rate_per_home = 0.2;
  std::uint64_t epochs = 0;
  for (auto _ : state) {
    const psim::DayResult r = psim::run_day(cfg);
    epochs += r.epochs;
    benchmark::DoNotOptimize(r.rx_bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(epochs));
}
BENCHMARK(BM_BarrierEpoch)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
