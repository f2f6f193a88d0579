#include "sim/simulator.hpp"

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace hpop::sim {

namespace {

/// Makes `now` this thread's log and trace clock for the guard's lifetime,
/// then puts back the clock it replaced, so records are stamped by the
/// simulator that is running, on whichever thread runs it.
class ClockScope {
 public:
  explicit ClockScope(const TimePoint* now)
      : log_(util::set_log_clock(now)),
        trace_(telemetry::tracer().set_clock(now)) {}
  ~ClockScope() {
    util::set_log_clock(log_);
    telemetry::tracer().set_clock(trace_);
  }
  ClockScope(const ClockScope&) = delete;
  ClockScope& operator=(const ClockScope&) = delete;

 private:
  const TimePoint* log_;
  const TimePoint* trace_;
};

}  // namespace

std::uint32_t Simulator::slot_of(TimerId id) const {
  const std::uint64_t raw = id & 0xFFFFFFFFull;
  if (raw == 0 || raw > slots_.size()) return kNone;
  const auto slot = static_cast<std::uint32_t>(raw - 1);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  const Slot& s = slots_[slot];
  if (s.pos == kNone || s.gen != gen) return kNone;
  return slot;
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNone) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.push_back(Slot{});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.pos = kNone;
  ++s.gen;  // invalidate every outstanding id for this slot
  s.fn = nullptr;
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::sift_up(std::uint32_t i) {
  const HeapNode ev = heap_[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / kArity;
    if (!earlier(ev, heap_[parent])) break;
    heap_[i] = heap_[parent];
    slots_[heap_[i].slot].pos = i;
    i = parent;
  }
  heap_[i] = ev;
  slots_[ev.slot].pos = i;
}

void Simulator::sift_down(std::uint32_t i) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  const HeapNode ev = heap_[i];
  while (true) {
    const std::uint64_t first = std::uint64_t{i} * kArity + 1;
    if (first >= n) break;
    std::uint32_t best = static_cast<std::uint32_t>(first);
    const auto last =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(first + kArity, n));
    for (std::uint32_t c = best + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], ev)) break;
    heap_[i] = heap_[best];
    slots_[heap_[i].slot].pos = i;
    i = best;
  }
  heap_[i] = ev;
  slots_[ev.slot].pos = i;
}

void Simulator::restore_at(std::uint32_t i) {
  if (i > 0 && earlier(heap_[i], heap_[(i - 1) / kArity])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void Simulator::remove_at(std::uint32_t i) {
  release_slot(heap_[i].slot);
  const auto last = static_cast<std::uint32_t>(heap_.size() - 1);
  if (i != last) {
    heap_[i] = std::move(heap_[last]);
    slots_[heap_[i].slot].pos = i;
    heap_.pop_back();
    restore_at(i);
  } else {
    heap_.pop_back();
  }
}

// Causality: nothing may be scheduled before the clock, or the event would
// run "now" with a timestamp in the past.

TimerId Simulator::schedule(Duration delay, EventFn fn) {
  HPOP_CHECK(delay >= 0, "sim::Simulator::schedule: delay %lld ns at %lld ns",
             static_cast<long long>(delay), static_cast<long long>(now_));
  return schedule_at(now_ + delay, std::move(fn));
}

TimerId Simulator::schedule_at(TimePoint when, EventFn fn) {
  HPOP_CHECK(when >= now_,
             "sim::Simulator::schedule_at: when %lld ns < now %lld ns",
             static_cast<long long>(when), static_cast<long long>(now_));
  const std::uint32_t slot = acquire_slot();
  slots_[slot].fn = std::move(fn);
  const auto i = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(HeapNode{when, next_seq_++, slot});
  slots_[slot].pos = i;
  sift_up(i);
  return make_id(slot);
}

void Simulator::cancel(TimerId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNone) return;  // already fired or cancelled: true no-op
  remove_at(slots_[slot].pos);
}

bool Simulator::reschedule(TimerId id, Duration delay) {
  HPOP_CHECK(delay >= 0,
             "sim::Simulator::reschedule: delay %lld ns at %lld ns",
             static_cast<long long>(delay), static_cast<long long>(now_));
  const std::uint32_t slot = slot_of(id);
  if (slot == kNone) return false;
  const std::uint32_t i = slots_[slot].pos;
  heap_[i].when = now_ + delay;
  // Fresh sequence number: the rearmed event runs after everything already
  // scheduled for the same instant, exactly as cancel+schedule would.
  heap_[i].seq = next_seq_++;
  restore_at(i);
  return true;
}

bool Simulator::pop_and_run(TimePoint deadline) {
  if (heap_.empty()) return false;
  const HeapNode top = heap_.front();
  if (top.when > deadline) return false;
  now_ = top.when;
  // Move the closure out and remove the event before running it, so the
  // handler may schedule, cancel, and reschedule freely.
  EventFn fn = std::move(slots_[top.slot].fn);
  remove_at(0);
  ++executed_;
  fn();
  return true;
}

void Simulator::run(std::uint64_t limit) {
  const ClockScope clock(&now_);
  const std::uint64_t stop = executed_ + limit < executed_
                                 ? UINT64_MAX
                                 : executed_ + limit;
  while (executed_ < stop && pop_and_run(INT64_MAX)) {
  }
}

void Simulator::run_until(TimePoint deadline) {
  const ClockScope clock(&now_);
  while (pop_and_run(deadline)) {
  }
  if (deadline > now_) now_ = deadline;
}

}  // namespace hpop::sim
