#include "net/link.hpp"

#include <algorithm>
#include <cassert>

#include "net/node.hpp"
#include "telemetry/trace.hpp"
#include "util/check.hpp"
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
  }
  return dir.m;
}

std::size_t Link::claimed_bytes(const Direction& dir, util::TimePoint now) {
  std::size_t bytes = 0;
  for (const Direction::ClaimedSpan& span : dir.claimed) {
    if (span.start > now) bytes += span.bytes;
  }
  return bytes;
}

int Link::direction_of(const Interface& from) const {
  assert(&from == &a_ || &from == &b_);
  return &from == &a_ ? 0 : 1;
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
    // The parallel engine's epochs rely on this bound: stop in every build
    // type rather than deliver a packet inside its own epoch.
    HPOP_CHECK(dir.sink == nullptr || params.delay >= dir.sink->min_delay(),
               "net::Link %s->%s: staged delay %lld ns < delay floor %lld ns",
               (d == 0 ? a_ : b_).node->name().c_str(),
               (d == 0 ? b_ : a_).node->name().c_str(),
               static_cast<long long>(params.delay),
               static_cast<long long>(dir.sink->min_delay()));
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
  sim::Simulator& sim = *dir.sim;
  if (dir.queued_bytes + claimed_bytes(dir, sim.now()) + size >
      dir.params.queue_bytes) {
    ++dir.stats.queue_drops;
    m.queue_drops->inc();
    telemetry::tracer().emit(telemetry::TraceEvent::kPacketDrop,
                             static_cast<double>(size), 0, "queue_full");
    return;
  }
  dir.queued_bytes += size;
  dir.queue.push(std::move(pkt));
  if (dir.busy) return;
  if (sim.now() >= dir.busy_until) {
    start_service(d);
    return;
  }
  // The last burst is still serializing: the queue is served the instant
  // the transmitter frees up, as per-packet service would.
  dir.busy = true;
  sim.schedule_at(dir.busy_until, [this, d] { start_service(d); });
}

void Link::start_service(int d) {
  Direction& dir = dir_[d];
  if (dir.queue.empty()) {
    // An admin drain emptied the queue while this event was pending.
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
  Metrics& m = metrics(dir);
  sim::Simulator& sim = *dir.sim;
  Interface& to = d == 0 ? b_ : a_;

  // Drain up to burst_limit_ packets in one call. `span` is the running
  // sum of serialization times, so packet k completes at
  // now + tx_0 + ... + tx_k and propagates from there — byte-identical to
  // servicing one packet per event, at 1/burst the heap dispatches. The
  // last burst's packets have all started by now.
  dir.claimed.clear();
  util::Duration span = 0;
  for (int n = 0; n < burst_limit_ && !dir.queue.empty(); ++n) {
    PooledPacket pkt = dir.queue.pop_front();
    const std::size_t size = pkt->wire_size();
    dir.queued_bytes -= size;
    if (n > 0) {
      // Serialization starts at now + span (after the packets ahead of it
      // in the burst); until then its bytes count against the buffer.
      dir.claimed.push_back({sim.now() + span, size});
    }
    const util::Duration tx = util::transmission_delay(size, dir.params.rate);
    span += tx;
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
  // serializing. The next burst starts there if packets are still queued;
  // otherwise nothing is scheduled, and the next transmit() finds the
  // transmitter free at or after busy_until.
  dir.busy_until = sim.now() + span;
  dir.busy = !dir.queue.empty();
  if (dir.busy) sim.schedule(span, [this, d] { start_service(d); });
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
