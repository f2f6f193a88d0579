#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "util/inline_function.hpp"
#include "util/time.hpp"

namespace hpop::sim {

using util::Duration;
using util::TimePoint;

using TimerId = std::uint64_t;

/// Deterministic discrete-event simulator.
///
/// The entire reproduction runs on simulated time: links, TCP timers,
/// prefetch schedules and user think-times are all events in one queue.
/// Events at equal timestamps run in scheduling order (a monotonically
/// increasing sequence number breaks ties), which makes every run
/// bit-reproducible for a fixed seed.
///
/// Engine shape (the hot path every experiment funnels through):
///  - Events live in an indexed 4-ary heap. Each scheduled event owns a
///    slot; the slot tracks the event's heap position, so cancel() and
///    reschedule() are true O(log n) heap operations instead of tombstones
///    that fatten the queue and cost two hash-set touches per event.
///  - TimerIds encode (slot, generation); releasing a slot bumps its
///    generation, so a stale cancel/reschedule for an already-fired id is
///    an O(1) no-op — no bookkeeping set ever grows.
///  - Closures are util::InlineFunction: captures up to 64 bytes (every
///    timer closure in the tree) never touch the allocator. The closure
///    lives in the slot, not the heap: sift operations shuffle 24-byte
///    (when, seq, slot) nodes, and a closure is moved exactly twice in its
///    life — into its slot on schedule, out on fire.
class Simulator {
 public:
  using EventFn = util::InlineFunction<void()>;

  /// Per-simulator extension slot. A subsystem that needs state scoped to
  /// one simulator instance (today: the net::PacketPool arena) derives from
  /// Attachment and parks itself here. The attachment is destroyed *after*
  /// every queued closure (see member order below), so closures holding
  /// pool handles always release into a live pool.
  class Attachment {
   public:
    virtual ~Attachment() = default;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Attachment* attachment() { return attachment_.get(); }
  void set_attachment(std::unique_ptr<Attachment> a) {
    attachment_ = std::move(a);
  }

  TimePoint now() const { return now_; }

  /// Schedules `fn` to run at now() + delay (delay >= 0). Returns an id
  /// usable with cancel() and reschedule().
  TimerId schedule(Duration delay, EventFn fn);
  TimerId schedule_at(TimePoint when, EventFn fn);

  /// Cancels a pending timer; no-op if it already fired or was cancelled.
  void cancel(TimerId id);

  /// Rearms a pending timer to fire at now() + delay, keeping its id valid
  /// and reusing its queued closure — the allocation-free replacement for
  /// cancel() + schedule() on persistent timers (TCP RTO, delayed ACK,
  /// prefetch refresh). Ordering matches cancel+schedule exactly: the event
  /// is re-sequenced behind everything already scheduled for the same
  /// instant. Returns false (and does nothing) if the timer already fired
  /// or was cancelled — the caller then schedules afresh.
  bool reschedule(TimerId id, Duration delay);

  /// True while `id` is queued and not yet fired or cancelled.
  bool pending(TimerId id) const { return slot_of(id) != kNone; }

  /// While run() or run_until() executes, this simulator's clock stamps
  /// the calling thread's log lines and trace records; the clock they
  /// replaced is restored on return.
  ///
  /// Runs until the queue drains or `limit` events execute.
  void run(std::uint64_t limit = UINT64_MAX);

  /// Runs events with timestamp <= deadline, then sets now() = deadline.
  void run_until(TimePoint deadline);

  /// Runs for `d` simulated time from the current instant.
  void run_for(Duration d) { run_until(now_ + d); }

  std::uint64_t events_executed() const { return executed_; }
  bool empty() const { return heap_.empty(); }
  std::size_t queued() const { return heap_.size(); }

  /// Timestamp of the earliest queued event, or kNoEvent when the heap is
  /// empty. The parallel engine's barrier peeks this on every shard to
  /// skip dead time: the next epoch deadline is min(horizon, global
  /// minimum next-event time + lookahead), so idle windows cost one
  /// barrier instead of many.
  static constexpr TimePoint kNoEvent = std::numeric_limits<TimePoint>::max();
  TimePoint next_event_time() const {
    return heap_.empty() ? kNoEvent : heap_.front().when;
  }

 private:
  static constexpr std::uint32_t kArity = 4;
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Heap node: trivially copyable so sifting never touches a closure.
  struct HeapNode {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint32_t pos = kNone;  // heap index while scheduled; kNone when free
    std::uint32_t gen = 0;      // bumped on release; stale ids never match
    std::uint32_t next_free = kNone;
    EventFn fn;  // stationary while queued; moved out only to fire
  };

  static bool earlier(const HeapNode& a, const HeapNode& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  TimerId make_id(std::uint32_t slot) const {
    // Slot indices are offset by one so no valid id is ever 0 — callers use
    // 0 as a "no timer" sentinel.
    return (static_cast<std::uint64_t>(slots_[slot].gen) << 32) |
           (static_cast<std::uint64_t>(slot) + 1);
  }
  std::uint32_t slot_of(TimerId id) const;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void sift_up(std::uint32_t i);
  void sift_down(std::uint32_t i);
  void restore_at(std::uint32_t i);
  void remove_at(std::uint32_t i);
  bool pop_and_run(TimePoint deadline);

  /// Declared before heap_/slots_ so it is destroyed after them: queued
  /// closures (which may own pool handles) die first, then the attachment.
  std::unique_ptr<Attachment> attachment_;
  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<HeapNode> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNone;
};

}  // namespace hpop::sim
