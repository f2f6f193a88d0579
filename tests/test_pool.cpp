// PacketPool invariants: generation-checked reuse, retire mode, drain on
// simulator teardown (closures still holding handles), the determinism
// contract — recycling slots must not change simulation behavior — and the
// PacketFifo threaded through pool slots.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "net/pool.hpp"
#include "net/topology.hpp"
#include "telemetry/metrics.hpp"
#include "transport/mux.hpp"

namespace hpop {
namespace {

using util::kSecond;

TEST(PacketPool, GenerationCheckedReuse) {
  sim::Simulator sim;
  net::PacketPool& pool = net::PacketPool::of(sim);
  EXPECT_EQ(&pool, &net::PacketPool::of(sim));  // one pool per simulator

  net::PooledPacket p = pool.acquire();
  const std::uint32_t idx = p.index();
  const std::uint32_t gen = p.generation();
  p->payload_len = 77;
  EXPECT_EQ(pool.try_get(idx, gen), p.get());

  p.reset();
  EXPECT_EQ(pool.try_get(idx, gen), nullptr);  // stale handle detected

  net::PooledPacket q = pool.acquire();
  EXPECT_EQ(q.index(), idx);        // freelist reissued the slot...
  EXPECT_NE(q.generation(), gen);   // ...under a new generation
  EXPECT_EQ(q->payload_len, 0u);    // contents reset between lives
  EXPECT_EQ(pool.try_get(idx, gen), nullptr);
  EXPECT_EQ(pool.try_get(idx, q.generation()), q.get());
  EXPECT_EQ(pool.stats().recycled, 1u);
}

TEST(PacketPool, RetireModeNeverReusesSlots) {
  sim::Simulator sim;
  net::PacketPool& pool = net::PacketPool::of(sim);
  pool.set_recycling(false);
  net::PooledPacket p = pool.acquire();
  const std::uint32_t idx = p.index();
  p.reset();
  net::PooledPacket q = pool.acquire();
  EXPECT_NE(q.index(), idx);
  EXPECT_EQ(pool.stats().recycled, 0u);
}

TEST(PacketPool, DrainsOnSimulatorTeardown) {
  // Handles captured by never-run closures must release into a live pool
  // when the simulator dies (the pool outlives the event queue). Crossing
  // a slab boundary exercises multi-slab teardown; ASan (ci.sh) turns any
  // ordering mistake here into a hard failure.
  sim::Simulator sim;
  net::PacketPool& pool = net::PacketPool::of(sim);
  for (int i = 0; i < 300; ++i) {
    net::PooledPacket p = pool.acquire();
    p->payload_len = static_cast<std::size_t>(i);
    sim.schedule((i + 1) * kSecond, [h = std::move(p)] { (void)h; });
  }
  EXPECT_GE(pool.stats().slabs, 2u);
  EXPECT_EQ(pool.stats().live, 300u);
  // Scope exit: queue drains first, then the attachment — no touch-after-free.
}

// --- PacketFifo -------------------------------------------------------------

net::PooledPacket tagged(net::PacketPool& pool, std::size_t tag) {
  net::PooledPacket p = pool.acquire();
  p->payload_len = tag;
  return p;
}

std::vector<std::size_t> drain_tags(net::PacketFifo& fifo) {
  std::vector<std::size_t> tags;
  while (!fifo.empty()) tags.push_back(fifo.pop_front()->payload_len);
  return tags;
}

TEST(PacketFifo, KeepsOrderAcrossSlotReuse) {
  sim::Simulator sim;
  net::PacketPool& pool = net::PacketPool::of(sim);
  net::PacketFifo fifo;
  for (std::size_t i = 0; i < 4; ++i) fifo.push(tagged(pool, i));
  EXPECT_EQ(fifo.pop_front()->payload_len, 0u);  // slot 0 back on the freelist
  EXPECT_EQ(fifo.pop_front()->payload_len, 1u);
  // The next two packets reuse the freed slots, in freelist order (1, 0),
  // but queue behind the older packets in push order.
  net::PooledPacket reused = tagged(pool, 4);
  EXPECT_EQ(reused.index(), 1u);
  fifo.push(std::move(reused));
  fifo.push(tagged(pool, 5));
  fifo.push(tagged(pool, 6));  // a fresh slot
  EXPECT_EQ(drain_tags(fifo), (std::vector<std::size_t>{2, 3, 4, 5, 6}));
  EXPECT_EQ(pool.stats().live, 0u);
  // Drained empty, the FIFO starts over cleanly.
  fifo.push(tagged(pool, 7));
  EXPECT_EQ(drain_tags(fifo), (std::vector<std::size_t>{7}));
}

TEST(PacketFifo, TimedPushLandsAfterEqualStamps) {
  sim::Simulator sim;
  net::PacketPool& pool = net::PacketPool::of(sim);
  net::PacketFifo fifo;
  fifo.push(tagged(pool, 0), 10);
  fifo.push(tagged(pool, 1), 20);
  fifo.push(tagged(pool, 2), 20);
  fifo.push(tagged(pool, 3), 30);
  fifo.push(tagged(pool, 4), 20);  // overtakes 3, not the earlier 20s
  fifo.push(tagged(pool, 5), 5);   // overtakes everything
  fifo.push(tagged(pool, 6), 10);  // after 0, its equal
  fifo.push(tagged(pool, 7), 30);  // the back, after 3
  EXPECT_EQ(fifo.front_at(), 5);
  EXPECT_EQ(drain_tags(fifo),
            (std::vector<std::size_t>{5, 0, 6, 1, 2, 4, 3, 7}));
}

TEST(PacketFifo, ClearAndDestructionReleaseEverySlot) {
  sim::Simulator sim;
  net::PacketPool& pool = net::PacketPool::of(sim);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> handles;
  auto fill = [&](net::PacketFifo& fifo) {
    handles.clear();
    for (std::size_t i = 0; i < 300; ++i) {  // spans two slabs
      net::PooledPacket p = tagged(pool, i);
      handles.emplace_back(p.index(), p.generation());
      fifo.push(std::move(p), static_cast<util::TimePoint>(i % 7));
    }
    EXPECT_EQ(pool.stats().live, 300u);
  };
  auto all_stale = [&] {
    for (const auto& [idx, gen] : handles) {
      if (pool.try_get(idx, gen) != nullptr) return false;
    }
    return true;
  };

  net::PacketFifo fifo;
  fill(fifo);
  EXPECT_EQ(fifo.clear(), 300u);
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(pool.stats().live, 0u);
  EXPECT_TRUE(all_stale());

  {
    net::PacketFifo scoped;
    fill(scoped);
  }
  EXPECT_EQ(pool.stats().live, 0u);
  EXPECT_TRUE(all_stale());
}

TEST(PacketFifoDeathTest, PushFromSecondPoolAborts) {
  sim::Simulator sim_a;
  sim::Simulator sim_b;
  net::PacketFifo fifo;
  fifo.push(net::PacketPool::of(sim_a).acquire());
  EXPECT_DEATH(fifo.push(net::PacketPool::of(sim_b).acquire()),
               "net::PacketFifo: packet from pool .* pushed onto a FIFO of "
               "pool .*; a FIFO holds one pool's packets");
}

// --- Pooled vs unpooled determinism --------------------------------------

std::string canon(const telemetry::Snapshot& s) {
  std::string out;
  char buf[256];
  for (const auto& sample : s.samples) {
    std::snprintf(buf, sizeof buf, "%s|%s|%s|%.17g|%llu|%.17g\n",
                  sample.name.c_str(), sample.labels.c_str(),
                  telemetry::metric_kind_name(sample.kind), sample.value,
                  static_cast<unsigned long long>(sample.count), sample.sum);
    out += buf;
  }
  return out;
}

std::string run_fixed_script(bool recycling) {
  const auto before = telemetry::registry().snapshot();
  sim::Simulator sim;
  net::PacketPool::of(sim).set_recycling(recycling);
  net::Network net(sim, util::Rng(5));
  const net::PathParams params{20 * util::kMbps, 5 * util::kMillisecond,
                               0.02, 1 << 20};
  auto path = net::make_two_host_path(net, params, params);
  transport::TransportMux mux_a(*path.a), mux_b(*path.b);
  auto listener = mux_b.tcp_listen(80);
  std::uint64_t received = 0;
  listener->set_on_accept([&](std::shared_ptr<transport::TcpConnection> c) {
    c->set_on_bytes([&](std::size_t n) { received += n; });
  });
  auto client = mux_a.tcp_connect({path.b->address(), 80});
  client->set_on_established([&] { client->send_bytes(256 << 10); });
  sim.run_until(120 * kSecond);

  const auto delta =
      telemetry::MetricsRegistry::delta(before,
                                        telemetry::registry().snapshot());
  char head[128];
  std::snprintf(head, sizeof head, "received=%llu events=%llu end=%llu\n",
                static_cast<unsigned long long>(received),
                static_cast<unsigned long long>(sim.events_executed()),
                static_cast<unsigned long long>(sim.now()));
  return head + canon(delta);
}

TEST(PacketPool, RecyclingDoesNotChangeSimulationBehavior) {
  const std::string pooled = run_fixed_script(true);
  const std::string unpooled = run_fixed_script(false);
  EXPECT_EQ(pooled, unpooled);
  EXPECT_NE(pooled.find("received=262144"), std::string::npos) << pooled;
}

}  // namespace
}  // namespace hpop
