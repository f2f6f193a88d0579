#include "net/link.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "net/node.hpp"
#include "telemetry/trace.hpp"
#include "util/logging.hpp"

namespace hpop::net {

Link::Link(sim::Simulator& sim, Interface& a, Interface& b, LinkParams params,
           util::Rng rng)
    : a_(a), b_(b), burst_limit_(8) {
  a_.link = this;
  b_.link = this;
  for (Direction& dir : dir_) {
    dir.params = params;
    dir.pending_params = params;
    dir.rng = rng.fork();
    dir.sim = &sim;
  }
}

Link::Metrics& Link::metrics(Direction& dir) {
  if (dir.m.pkts == nullptr) {
    auto& reg = telemetry::registry();
    dir.m.pkts = reg.counter("link.tx_pkts");
    dir.m.bytes = reg.counter("link.tx_bytes");
    dir.m.queue_drops = reg.counter("link.queue_drops");
    dir.m.loss_drops = reg.counter("link.loss_drops");
    dir.m.admin_drops = reg.counter("link.admin_drops");
    dir.m.queued_bytes = reg.gauge("link.queued_bytes");
  }
  return dir.m;
}

void Link::prune_claimed(Direction& dir, util::TimePoint now) {
  while (dir.claimed_head < dir.claimed.size() &&
         dir.claimed[dir.claimed_head].start <= now) {
    dir.claimed_bytes -= dir.claimed[dir.claimed_head].bytes;
    ++dir.claimed_head;
  }
  if (dir.claimed_head == dir.claimed.size()) {
    dir.claimed.clear();
    dir.claimed_head = 0;
  }
}

int Link::direction_of(const Interface& from) const {
  assert(&from == &a_ || &from == &b_);
  return &from == &a_ ? 0 : 1;
}

const Link::DirectionStats& Link::stats_from(const Interface& from) const {
  return dir_[direction_of(from)].stats;
}

Interface& Link::peer_of(const Interface& one) {
  return &one == &a_ ? b_ : a_;
}

void Link::set_loss(double loss) {
  for (Direction& dir : dir_) {
    dir.pending_params.loss = std::clamp(loss, 0.0, 1.0);
    dir.params_dirty = true;
  }
}

void Link::set_rate(util::BitRate rate) {
  for (Direction& dir : dir_) {
    if (rate > 0) dir.pending_params.rate = rate;
    dir.params_dirty = true;
  }
}

void Link::set_params(LinkParams params) {
  params.loss = std::clamp(params.loss, 0.0, 1.0);
  for (int d = 0; d < 2; ++d) {
    Direction& dir = dir_[d];
    if (dir.sink != nullptr && params.delay < dir.sink->min_delay()) {
      // The parallel engine's epochs rely on this bound: stop in every
      // build type rather than deliver a packet inside its own epoch.
      const Interface& from = d == 0 ? a_ : b_;
      const Interface& to = d == 0 ? b_ : a_;
      std::fprintf(stderr,
                   "net::Link %s->%s: staged delay %lld ns < delay floor "
                   "%lld ns\n",
                   from.node->name().c_str(), to.node->name().c_str(),
                   static_cast<long long>(params.delay),
                   static_cast<long long>(dir.sink->min_delay()));
      std::abort();
    }
    LinkParams staged = params;
    if (staged.rate <= 0) staged.rate = dir.pending_params.rate;
    dir.pending_params = staged;
    dir.params_dirty = true;
  }
}

void Link::set_burst_limit(int n) { burst_limit_ = std::max(1, n); }

void Link::bind_shard(int dir, sim::Simulator* sim, CrossSink* sink) {
  assert(dir_[dir].queue.empty() && dir_[dir].flight.empty());
  dir_[dir].sim = sim;
  dir_[dir].sink = sink;
}

void Link::set_admin_up(bool up) {
  if (admin_up_ == up) return;
  admin_up_ = up;
  if (!up) {
    drain(0);
    drain(1);
  }
}

void Link::drain(int d) {
  Direction& dir = dir_[d];
  if (dir.queue.empty()) return;
  Metrics& m = metrics(dir);
  const std::size_t dropped = dir.queue.clear();
  dir.stats.admin_drops += dropped;
  m.admin_drops->inc(dropped);
  m.queued_bytes->add(-static_cast<double>(dir.queued_bytes));
  dir.queued_bytes = 0;
}

void Link::transmit(const Interface& from, PooledPacket pkt) {
  const int d = direction_of(from);
  Direction& dir = dir_[d];
  Metrics& m = metrics(dir);
  const std::size_t size = pkt->wire_size();
  if (!admin_up_) {
    ++dir.stats.admin_drops;
    m.admin_drops->inc();
    telemetry::tracer().emit(telemetry::TraceEvent::kPacketDrop,
                             static_cast<double>(size), 2, "admin_down");
    return;
  }
  // Claimed-but-not-yet-serializing burst packets still occupy the buffer
  // until their serialization start, so the drop decision is byte-identical
  // to per-packet servicing.
  prune_claimed(dir, dir.sim->now());
  if (dir.queued_bytes + dir.claimed_bytes + size > dir.params.queue_bytes) {
    ++dir.stats.queue_drops;
    m.queue_drops->inc();
    telemetry::tracer().emit(telemetry::TraceEvent::kPacketDrop,
                             static_cast<double>(size), 0, "queue_full");
    return;
  }
  dir.queued_bytes += size;
  m.queued_bytes->add(static_cast<double>(size));
  dir.queue.push(std::move(pkt));
  if (!dir.busy) start_service(d);
}

void Link::start_service(int d) {
  Direction& dir = dir_[d];
  if (dir.queue.empty()) {
    dir.busy = false;
    return;
  }
  // Staged parameter changes take effect here — at a burst boundary — so
  // every packet this burst claims keeps the rate/loss it was dequeued
  // under.
  if (dir.params_dirty) {
    dir.params = dir.pending_params;
    dir.params_dirty = false;
  }
  dir.busy = true;
  Metrics& m = metrics(dir);
  sim::Simulator& sim = *dir.sim;
  Interface& to = d == 0 ? b_ : a_;

  // Drain up to burst_limit_ packets in one timer event. `span` is the
  // running sum of serialization times, so packet k completes at
  // now + tx_0 + ... + tx_k and propagates from there — byte-identical to
  // servicing one packet per event, at 1/burst the heap dispatches.
  prune_claimed(dir, sim.now());
  util::Duration span = 0;
  for (int n = 0; n < burst_limit_ && !dir.queue.empty(); ++n) {
    PooledPacket pkt = dir.queue.pop_front();
    const std::size_t size = pkt->wire_size();
    dir.queued_bytes -= size;
    m.queued_bytes->add(-static_cast<double>(size));
    if (n > 0) {
      // Serialization starts at now + span (after the packets ahead of it
      // in the burst); until then its bytes count against the buffer.
      dir.claimed.push_back({sim.now() + span, size});
      dir.claimed_bytes += size;
    }
    const util::Duration tx = util::transmission_delay(size, dir.params.rate);
    span += tx;
    dir.stats.busy_time += tx;
    if (dir.rng.bernoulli(dir.params.loss)) {
      ++dir.stats.loss_drops;
      m.loss_drops->inc();
      telemetry::tracer().emit(telemetry::TraceEvent::kPacketDrop,
                               static_cast<double>(size), 1, "channel_loss");
      continue;
    }
    ++dir.stats.pkts;
    dir.stats.bytes += size;
    m.pkts->inc();
    m.bytes->inc(size);
    const util::TimePoint deliver_at = sim.now() + span + dir.params.delay;
    if (dir.sink != nullptr) {
      // Boundary direction: the packet leaves this shard. Detach the
      // Packet from our pool (the handle releases here, on our thread) and
      // let the engine carry it to the owner of `to`.
      dir.sink->push(deliver_at, std::move(*pkt), &to);
    } else {
      enqueue_flight(d, deliver_at, std::move(pkt));
    }
  }
  // The transmitter stays busy until the last claimed packet finishes
  // serializing; the next burst (or idle transition) happens there.
  sim.schedule(span, [this, d] { start_service(d); });
}

void Link::enqueue_flight(int d, util::TimePoint deliver_at,
                          PooledPacket pkt) {
  Direction& dir = dir_[d];
  const bool rearm = !dir.flight_armed || deliver_at < dir.flight.front_at();
  // Ordered by deliver_at: a staged delay decrease can let this packet
  // overtake older wire traffic (parameters only change at burst
  // boundaries, so that is rare), and it still lands after any packet due
  // at the same instant.
  dir.flight.push(std::move(pkt), deliver_at);
  if (rearm) arm_flight(d);
}

void Link::arm_flight(int d) {
  Direction& dir = dir_[d];
  sim::Simulator& sim = *dir.sim;
  const util::TimePoint when = dir.flight.front_at();
  const util::Duration delta = when > sim.now() ? when - sim.now() : 0;
  dir.flight_armed = true;
  // One persistent timer per direction: rearm in place while pending,
  // schedule afresh only after it fired.
  if (dir.flight_timer != 0 && sim.reschedule(dir.flight_timer, delta)) {
    return;
  }
  dir.flight_timer = sim.schedule(delta, [this, d] { on_flight(d); });
}

void Link::on_flight(int d) {
  Direction& dir = dir_[d];
  dir.flight_armed = false;
  sim::Simulator& sim = *dir.sim;
  Interface& to = d == 0 ? b_ : a_;
  while (!dir.flight.empty() && dir.flight.front_at() <= sim.now()) {
    PooledPacket pkt = dir.flight.pop_front();
    if (!admin_up_) {
      // Link still down when propagation completed: the wire lost it.
      ++dir.stats.admin_drops;
      metrics(dir).admin_drops->inc();
      continue;
    }
    to.node->deliver(std::move(pkt), to);
  }
  if (!dir.flight.empty() && !dir.flight_armed) arm_flight(d);
}

}  // namespace hpop::net
