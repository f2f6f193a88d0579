#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "net/pool.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hpop::net {

struct Interface;

struct LinkParams {
  util::BitRate rate = 1 * util::kGbps;
  util::Duration delay = 1 * util::kMillisecond;  // one-way propagation
  double loss = 0.0;          // independent per-packet loss probability
  std::size_t queue_bytes = 512 * 1024;  // drop-tail buffer per direction
};

/// Destination for packets leaving the shard that services a link
/// direction. A boundary direction bound to a CrossSink hands each
/// fully-serialized packet — with its absolute delivery time — to the sink
/// instead of scheduling local delivery; the parallel engine's epoch
/// buffers implement it. `pkt` is detached from any pool (moved by value)
/// so the receiving shard can re-home it in its own arena.
class CrossSink {
 public:
  virtual ~CrossSink() = default;
  virtual void push(util::TimePoint deliver_at, Packet&& pkt,
                    Interface* to) = 0;
  /// The least propagation delay a direction bound to this sink may have
  /// (the engine's lookahead: anything shorter could deliver a packet
  /// inside the epoch that sent it).
  virtual util::Duration min_delay() const = 0;
};

/// Full-duplex point-to-point link between two interfaces. Each direction
/// has an independent drop-tail queue, serialization at `rate`, propagation
/// `delay`, and Bernoulli loss applied after serialization (channel noise);
/// queue overflow models congestion loss.
///
/// Service is burst-oriented: one timer event drains up to burst_limit()
/// queued packets, accumulating their serialization times, so a deep queue
/// costs one heap dispatch per burst instead of one per packet. Delivery
/// times and per-direction loss draws are identical to per-packet
/// servicing by construction (the accumulated offset is exactly the sum of
/// the per-packet schedules).
///
/// Every mutable per-packet datum — queue, effective/staged parameters,
/// loss Rng, telemetry handles, the servicing Simulator — lives per
/// direction, because the parallel engine services the two directions of a
/// boundary link on different shards (each end's sender owns its
/// direction).
class Link {
 public:
  Link(sim::Simulator& sim, Interface& a, Interface& b, LinkParams params,
       util::Rng rng);

  /// Called by the owning node: transmit `pkt` from interface `from`.
  void transmit(const Interface& from, PooledPacket pkt);

  const LinkParams& params() const { return dir_[0].params; }
  /// Effective parameters of one direction (0: a->b, 1: b->a).
  const LinkParams& params_of(int dir) const { return dir_[dir].params; }

  /// Parameter changes are *staged*: packets already claimed by a service
  /// burst keep the schedule they were dequeued with, and the new
  /// rate/loss apply from the start of the next burst. Changing params
  /// mid-flight therefore never reschedules or double-accounts an
  /// in-service packet (it used to corrupt busy_time and delivery
  /// ordering). Setters stage on both directions. set_params aborts, in
  /// every build type, when it would stage a delay below the min_delay()
  /// of a direction's CrossSink.
  void set_loss(double loss);
  void set_rate(util::BitRate rate);
  void set_params(LinkParams params);

  /// Administrative state. Taking a link down drains both queues (counted
  /// as admin_drops) and discards anything transmitted while down; packets
  /// already on the wire are lost too if the link is still down when their
  /// propagation completes. Unsupported on directions bound to a CrossSink
  /// (the receiving shard cannot consult this shard's admin flag) — the
  /// parallel engine keeps chaos off boundary links.
  void set_admin_up(bool up);
  bool admin_up() const { return admin_up_; }

  /// Upper bound on packets drained per service event (>= 1). 1 restores
  /// strict per-packet servicing (the A/B switch bench_core gates on).
  void set_burst_limit(int n);
  int burst_limit() const { return burst_limit_; }

  /// Rebinds direction `dir` to a shard: its service and delivery events
  /// schedule on `sim`, and — when `sink` is non-null — completed packets
  /// are pushed into `sink` instead of delivered locally, and the sink's
  /// min_delay() becomes the direction's delay floor. Must be called
  /// before any traffic flows. Only the parallel engine calls this; serial
  /// code leaves both directions on the constructing simulator.
  void bind_shard(int dir, sim::Simulator* sim, CrossSink* sink);

  struct DirectionStats {
    std::uint64_t pkts = 0;
    std::uint64_t bytes = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t loss_drops = 0;
    std::uint64_t admin_drops = 0;
    /// Total time the transmitter was busy; utilization = busy/elapsed.
    util::Duration busy_time = 0;
  };
  /// dir 0: a->b, dir 1: b->a.
  const DirectionStats& stats(int dir) const { return dir_[dir].stats; }
  /// Stats for the direction whose sender is `from`.
  const DirectionStats& stats_from(const Interface& from) const;

  Interface& end_a() { return a_; }
  Interface& end_b() { return b_; }
  Interface& peer_of(const Interface& one);

 private:
  /// Registry handles (aggregated across all links). Resolved lazily on
  /// first use so each direction binds to the registry of the thread that
  /// services it — the registry is thread_local, and resolving at
  /// construction (on the build thread) would hand every shard's links the
  /// same Counter objects to race on. Null until then.
  struct Metrics {
    telemetry::Counter* pkts = nullptr;
    telemetry::Counter* bytes = nullptr;
    telemetry::Counter* queue_drops = nullptr;
    telemetry::Counter* loss_drops = nullptr;
    telemetry::Counter* admin_drops = nullptr;
    telemetry::Gauge* queued_bytes = nullptr;
  };

  /// Per-direction state. Its size is a fixed cost of every link in a
  /// metro world (two directions a home), so the small fields share one
  /// word at the end.
  struct Direction {
    /// Packets waiting for service, threaded through their own pool slots
    /// (see PacketFifo): a metro-scale world has hundreds of thousands of
    /// link directions, most of them idle, and a FIFO holds no buffer of
    /// its own.
    PacketFifo queue;
    std::size_t queued_bytes = 0;
    LinkParams params;
    /// Staged parameters; applied at the next burst start (see set_rate).
    LinkParams pending_params;
    /// Packets claimed by the in-flight burst whose serialization has not
    /// started yet. Their bytes still occupy the drop-tail buffer until
    /// their serialization start instant, so transmit()'s overflow check
    /// makes exactly the same decisions as per-packet servicing (bursting
    /// must not widen the effective buffer by burst_limit-1 packets).
    /// Spans before `claimed_head` are pruned; the vector is cleared,
    /// keeping its capacity, once pruned empty. Every span starts before
    /// the next burst does, so it never holds more than burst_limit - 1,
    /// and stays unallocated while burst_limit() == 1.
    struct ClaimedSpan {
      util::TimePoint start;
      std::size_t bytes;
    };
    std::vector<ClaimedSpan> claimed;
    std::size_t claimed_bytes = 0;
    /// Packets serialized and propagating toward the receiver, in delivery
    /// order, each stamped with its deliver_at. One persistent timer per
    /// direction walks this FIFO instead of scheduling a heap event per
    /// packet: a gigabit path keeps hundreds of packets on the wire, and
    /// holding them here instead of in the event heap keeps every sift
    /// over a far smaller heap. The delivery instants are unchanged — the
    /// timer fires at exactly the per-packet deliver_at times.
    PacketFifo flight;
    sim::TimerId flight_timer = 0;  // 0 = never scheduled
    /// Per-direction loss stream: the draw sequence of one direction is
    /// independent of the other's traffic (and of which thread services
    /// it).
    util::Rng rng;
    sim::Simulator* sim = nullptr;
    CrossSink* sink = nullptr;
    Metrics m;
    DirectionStats stats;
    std::uint32_t claimed_head = 0;
    bool busy = false;
    bool params_dirty = false;
    /// The flight timer is pending, due at flight.front_at().
    bool flight_armed = false;
  };

  Metrics& metrics(Direction& dir);
  static void prune_claimed(Direction& dir, util::TimePoint now);
  void start_service(int dir);
  int direction_of(const Interface& from) const;
  void drain(int dir);
  void enqueue_flight(int dir, util::TimePoint deliver_at, PooledPacket pkt);
  void arm_flight(int dir);
  void on_flight(int dir);

  Interface& a_;
  Interface& b_;
  bool admin_up_ = true;
  int burst_limit_;
  Direction dir_[2];
};

}  // namespace hpop::net
