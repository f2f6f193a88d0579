#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/trace.hpp"

namespace hpop::sim {
namespace {

using util::kMillisecond;
using util::kSecond;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3 * kMillisecond, [&] { order.push_back(3); });
  sim.schedule(1 * kMillisecond, [&] { order.push_back(1); });
  sim.schedule(2 * kMillisecond, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3 * kMillisecond);
}

TEST(Simulator, TiesRunInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(kMillisecond, [&] { order.push_back(1); });
  sim.schedule(kMillisecond, [&] { order.push_back(2); });
  sim.schedule(kMillisecond, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, HandlersMaySchedule) {
  Simulator sim;
  int fired = 0;
  sim.schedule(kMillisecond, [&] {
    ++fired;
    sim.schedule(kMillisecond, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 2 * kMillisecond);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const TimerId id = sim.schedule(kMillisecond, [&] { ++fired; });
  sim.schedule(2 * kMillisecond, [&] { ++fired; });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelFromWithinHandler) {
  Simulator sim;
  int fired = 0;
  const TimerId later = sim.schedule(2 * kMillisecond, [&] { ++fired; });
  sim.schedule(kMillisecond, [&] { sim.cancel(later); });
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, StaleCancelDoesNotLeakIntoCancelledSet) {
  // A timer id cancelled after its event already ran must not poison a
  // later schedule: the cancelled-set only accepts ids still pending.
  Simulator sim;
  int fired = 0;
  const TimerId stale = sim.schedule(kMillisecond, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.cancel(stale);  // already ran: must be a no-op
  sim.schedule(kMillisecond, [&] { ++fired; });
  EXPECT_FALSE(sim.empty());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, DoubleCancelIsNoOp) {
  Simulator sim;
  int fired = 0;
  const TimerId id = sim.schedule(kMillisecond, [&] { ++fired; });
  sim.cancel(id);
  sim.cancel(id);
  sim.schedule(2 * kMillisecond, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelledEventsDoNotKeepSimNonEmpty) {
  Simulator sim;
  const TimerId id = sim.schedule(kMillisecond, [] {});
  sim.cancel(id);
  // The heap still holds the tombstoned entry, but no live work remains.
  EXPECT_TRUE(sim.empty());
  sim.run();
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(kSecond, [&] { ++fired; });
  sim.schedule(3 * kSecond, [&] { ++fired; });
  sim.run_until(2 * kSecond);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 2 * kSecond);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.run_until(kSecond);
  int fired = 0;
  sim.schedule(kSecond, [&] { ++fired; });
  sim.run_for(kSecond);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 2 * kSecond);
}

TEST(Simulator, EventLimitBoundsExecution) {
  Simulator sim;
  // A self-perpetuating event chain must stop at the limit.
  std::function<void()> tick = [&] { sim.schedule(kMillisecond, tick); };
  sim.schedule(kMillisecond, tick);
  sim.run(100);
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulator, ZeroDelayRunsImmediatelyInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(0, [&] {
    order.push_back(1);
    sim.schedule(0, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, RescheduleMovesTimerLater) {
  Simulator sim;
  int fired = 0;
  const TimerId id = sim.schedule(kMillisecond, [&] { ++fired; });
  EXPECT_TRUE(sim.reschedule(id, 5 * kMillisecond));
  sim.run_until(4 * kMillisecond);
  EXPECT_EQ(fired, 0);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5 * kMillisecond);
}

TEST(Simulator, RescheduleMovesTimerEarlier) {
  Simulator sim;
  std::vector<int> order;
  const TimerId id = sim.schedule(9 * kMillisecond, [&] { order.push_back(1); });
  sim.schedule(5 * kMillisecond, [&] { order.push_back(2); });
  EXPECT_TRUE(sim.reschedule(id, 2 * kMillisecond));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RescheduleFailsAfterFire) {
  Simulator sim;
  int fired = 0;
  const TimerId id = sim.schedule(kMillisecond, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.reschedule(id, kMillisecond));
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RescheduleFailsAfterCancel) {
  Simulator sim;
  const TimerId id = sim.schedule(kMillisecond, [] {});
  sim.cancel(id);
  EXPECT_FALSE(sim.reschedule(id, kMillisecond));
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, PendingTracksLifecycle) {
  Simulator sim;
  const TimerId a = sim.schedule(kMillisecond, [] {});
  const TimerId b = sim.schedule(2 * kMillisecond, [] {});
  EXPECT_TRUE(sim.pending(a));
  EXPECT_TRUE(sim.pending(b));
  sim.cancel(a);
  EXPECT_FALSE(sim.pending(a));
  EXPECT_TRUE(sim.reschedule(b, 3 * kMillisecond));
  EXPECT_TRUE(sim.pending(b));
  sim.run();
  EXPECT_FALSE(sim.pending(b));
}

TEST(Simulator, RescheduleResequencesBehindEqualTimestampPeers) {
  // Determinism contract: rearming to an instant where other events are
  // already queued runs the rearmed event last — exactly the order
  // cancel() + schedule() would have produced.
  Simulator sim;
  std::vector<int> order;
  const TimerId id = sim.schedule(kMillisecond, [&] { order.push_back(1); });
  sim.schedule(2 * kMillisecond, [&] { order.push_back(2); });
  sim.schedule(2 * kMillisecond, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.reschedule(id, 2 * kMillisecond));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(Simulator, EqualTimestampFifoAcrossScheduleCancelRearm) {
  // An interleaving touching all three mutators must still run the
  // survivors at one instant strictly in (re)scheduling order.
  Simulator sim;
  std::vector<int> order;
  const auto at = 10 * kMillisecond;
  sim.schedule(at, [&] { order.push_back(1); });
  const TimerId doomed = sim.schedule(at, [&] { order.push_back(99); });
  const TimerId moved = sim.schedule(at, [&] { order.push_back(4); });
  sim.schedule(at, [&] { order.push_back(2); });
  sim.cancel(doomed);
  sim.schedule(at, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.reschedule(moved, at));  // re-sequences 4 behind 3
  sim.schedule(at, [&] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Simulator, StaleIdAfterSlotReuseDoesNotKillNewTimer) {
  // Freed slots are reused, so a stale id may point at a slot now owned by
  // a different timer. The generation tag must make the stale cancel and
  // reschedule no-ops instead of destroying the new owner.
  Simulator sim;
  int first = 0, second = 0;
  const TimerId stale = sim.schedule(kMillisecond, [&] { ++first; });
  sim.run();
  EXPECT_EQ(first, 1);
  // Drain the free list into fresh timers so the stale id's slot is reused.
  std::vector<TimerId> fresh;
  for (int i = 0; i < 4; ++i) {
    fresh.push_back(sim.schedule(kMillisecond, [&] { ++second; }));
  }
  sim.cancel(stale);
  EXPECT_FALSE(sim.reschedule(stale, kSecond));
  for (const TimerId id : fresh) EXPECT_TRUE(sim.pending(id));
  sim.run();
  EXPECT_EQ(second, 4);
}

TEST(Simulator, RearmedChainStaysDeterministicUnderChurn) {
  // A fixed schedule/cancel/rearm script must yield the same firing order
  // every run (this is the engine-level half of the telemetry-diff gate).
  const auto script = [](std::vector<int>& order) {
    Simulator sim;
    std::vector<TimerId> ids;
    for (int i = 0; i < 16; ++i) {
      ids.push_back(
          sim.schedule((1 + i % 4) * kMillisecond, [&order, i] {
            order.push_back(i);
          }));
    }
    for (int i = 0; i < 16; i += 3) sim.cancel(ids[static_cast<size_t>(i)]);
    for (int i = 1; i < 16; i += 3) {
      sim.reschedule(ids[static_cast<size_t>(i)], 2 * kMillisecond);
    }
    sim.run();
  };
  std::vector<int> first, second;
  script(first);
  script(second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// Runs `sim` over one event at `at` that emits a trace record on the
// calling thread, and returns the record's stamp (-1 if none was held).
TimePoint stamp_of_event_at(Simulator& sim, TimePoint at) {
  telemetry::Tracer& tr = telemetry::tracer();
  tr.clear();
  tr.enable(telemetry::TraceCategory::kPacket);
  sim.schedule_at(at, [] {
    telemetry::tracer().emit(telemetry::TraceEvent::kPacketDrop);
  });
  sim.run();
  tr.disable(telemetry::TraceCategory::kPacket);
  const auto recs = tr.records();
  return recs.size() == 1 ? recs[0].at : -1;
}

TEST(Simulator, RunStampsTracesWithItsOwnClock) {
  // Another simulator built and destroyed on this thread leaves the
  // running simulator's stamps alone.
  Simulator sim;
  { Simulator other; }
  EXPECT_EQ(stamp_of_event_at(sim, 5 * kSecond), 5 * kSecond);

  // A simulator built on one thread and run on another stamps that
  // thread's records with its own clock.
  Simulator elsewhere;
  TimePoint stamp = -1;
  std::thread worker(
      [&] { stamp = stamp_of_event_at(elsewhere, 6 * kSecond); });
  worker.join();
  EXPECT_EQ(stamp, 6 * kSecond);
}

// Causality holds in every build type, not only where assert is compiled
// in: scheduling into the past aborts with the offending instants.

TEST(SimulatorDeathTest, ScheduleAtBeforeNowAborts) {
  Simulator sim;
  sim.run_until(5 * kMillisecond);
  EXPECT_DEATH(sim.schedule_at(4 * kMillisecond, [] {}),
               "when >= now_.*schedule_at: when 4000000 ns < now 5000000 ns");
}

TEST(SimulatorDeathTest, NegativeScheduleDelayAborts) {
  Simulator sim;
  sim.run_until(5 * kMillisecond);
  EXPECT_DEATH(sim.schedule(-1, [] {}),
               "delay >= 0.*schedule: delay -1 ns at 5000000 ns");
}

TEST(SimulatorDeathTest, NegativeRescheduleDelayAborts) {
  Simulator sim;
  const TimerId id = sim.schedule(kSecond, [] {});
  EXPECT_DEATH(sim.reschedule(id, -kMillisecond),
               "delay >= 0.*reschedule: delay -1000000 ns at 0 ns");
}

}  // namespace
}  // namespace hpop::sim
