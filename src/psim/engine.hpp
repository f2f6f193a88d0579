#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "net/link.hpp"
#include "net/pool.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace hpop::psim {

/// One packet in flight between shards: where it is due and the interface
/// it will be delivered on.
struct CrossItem {
  util::TimePoint deliver_at = 0;
  net::Interface* to = nullptr;
  net::Packet pkt;
};

/// The epoch buffer for one ordered partition pair (from → to). The
/// producer, the worker servicing `from`, appends during an epoch; the
/// barrier (worker 0, the others waiting) drains it in push order and
/// clears it, keeping the capacity. Pushes and the drain never overlap:
/// the generation bump that starts an epoch orders the previous drain
/// before every push, and the arrival bump that ends it orders every push
/// before the next drain. So the buffer needs no synchronization of its
/// own and grows only to the busiest epoch's traffic.
class Crossing : public net::CrossSink {
 public:
  Crossing(std::size_t from, std::size_t to, util::Duration lookahead)
      : from_(from), to_(to), lookahead_(lookahead) {}

  void push(util::TimePoint deliver_at, net::Packet&& pkt,
            net::Interface* to) override;
  util::Duration min_delay() const override { return lookahead_; }

  std::size_t from() const { return from_; }
  std::size_t to() const { return to_; }

 private:
  friend class Engine;
  std::size_t from_;
  std::size_t to_;
  util::Duration lookahead_;
  std::vector<CrossItem> items_;  // this epoch's pushes, in push order
};

/// Conservative-lookahead parallel engine (CMB-style). The topology is cut
/// into logical partitions, each with its own Simulator (event heap) and
/// PacketPool; partition p belongs to worker p % workers for the engine's
/// lifetime. Worker 0 is the thread calling run_until; the constructor
/// starts workers - 1 persistent threads that loop over their fixed
/// partition lists. Execution alternates epochs and barriers:
///
///   1. barrier (worker 0, the others waiting): drain every crossing,
///      re-homing each packet into its destination partition's pool and
///      scheduling its delivery; then read every shard's next-event time.
///   2. deadline = min(horizon, T_min + lookahead), where T_min is the
///      global minimum next-event time. Any packet a shard emits at t >=
///      T_min arrives at t + tx + delay > T_min + lookahead (boundary
///      delays >= lookahead, tx > 0), i.e. strictly after the epoch — so
///      shards cannot affect each other inside one epoch.
///   3. epoch: worker 0 publishes the deadline by bumping a generation
///      counter, every worker runs its shards to the deadline, and each
///      other worker bumps an arrival counter when done. Both waits spin
///      for kSpinWindow, then park on the counter (std::atomic::wait).
///
/// Partitioning is a function of the topology alone (never the worker
/// count) and crossings drain in registration order, so event order — and
/// therefore telemetry — is byte-identical for any worker count.
class Engine {
 public:
  struct Config {
    /// Threads that run partitions, counting the caller of run_until as
    /// worker 0. 0 and 1 both run every partition inline on the caller.
    std::size_t workers = 1;
    /// Minimum boundary-link one-way delay; must be > 0.
    util::Duration lookahead = 0;
  };

  /// How long a waiting worker spins before it parks. Long enough to
  /// cover a typical barrier drain, short enough that the CPU burnt
  /// spinning stays a small share of a day's.
  static constexpr std::chrono::microseconds kSpinWindow{50};

  /// Aborts unless cfg.lookahead > 0.
  explicit Engine(const Config& cfg);
  /// Wakes and joins the worker threads.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Adds a partition (own Simulator + PacketPool); returns its index.
  std::size_t add_partition();
  std::size_t partitions() const { return sims_.size(); }

  sim::Simulator& sim(std::size_t p) { return *sims_[p]; }
  net::PacketPool& pool(std::size_t p) {
    return net::PacketPool::of(*sims_[p]);
  }

  /// The crossing for ordered pair (from → to), created on first use.
  Crossing* crossing(std::size_t from, std::size_t to);

  /// Binds both directions of an intra-partition link to partition p.
  void bind_local(net::Link* link, std::size_t p);
  /// Binds link direction `dir` (sender side in `from`) as a boundary: it
  /// serializes on `from`'s clock and hands finished packets to the
  /// (from → to) crossing. Aborts unless the direction's propagation
  /// delay is >= the configured lookahead. The crossing's min_delay() is
  /// the lookahead, so a later Link::set_params that would lower the delay
  /// below it aborts too.
  void bind_boundary(net::Link* link, int dir, std::size_t from,
                     std::size_t to);

  /// Runs every partition to `horizon` through the epoch/barrier protocol.
  /// An exception thrown by an event on any worker is rethrown here once
  /// every worker has finished the epoch.
  void run_until(util::TimePoint horizon);

  struct Stats {
    std::uint64_t epochs = 0;
    std::uint64_t crossings = 0;  // packets drained across shard boundaries
  };
  const Stats& stats() const { return stats_; }

  /// Total events executed across all partitions (worker-count invariant).
  std::uint64_t events_executed() const;

 private:
  void drain_all();
  void deliver_item(net::PacketPool& pool, sim::Simulator& dest,
                    CrossItem&& item);
  /// Runs worker w's partitions (w, w + stride, ...) to deadline_.
  void run_partitions(std::size_t w) noexcept;
  void worker_loop(std::size_t w);
  void stop_workers();

  Config cfg_;
  std::size_t stride_;  // partition p runs on worker p % stride_
  std::vector<std::unique_ptr<sim::Simulator>> sims_;
  std::vector<std::unique_ptr<Crossing>> crossings_;  // registration order
  std::vector<std::vector<Crossing*>> inbound_;       // [to], reg. order
  Stats stats_;

  // Epoch hand-off. Worker 0 writes deadline_/final_/stopping_, then bumps
  // generation_; a worker that sees the bump (acquire) runs its
  // partitions, records any exception in errors_[w], and bumps arrived_.
  // Bumps are seq_cst, so each is ordered before the notifier's check for
  // parked waiters and a worker about to park cannot miss one. Each
  // counter has its own cache line, so worker 0's drain (stats_ above)
  // does not disturb workers spinning on generation_.
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  util::TimePoint deadline_ = 0;
  bool final_ = false;     // last epoch: idle shards settle at the horizon
  bool stopping_ = false;  // workers exit at the next generation bump
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  std::vector<std::exception_ptr> errors_;  // [worker]
  std::vector<std::thread> threads_;  // workers 1..stride_-1; declared last
};

}  // namespace hpop::psim
