#include "psim/engine.hpp"

#include <algorithm>
#include <utility>

#include "net/node.hpp"
#include "util/check.hpp"

namespace hpop::psim {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until done(word) holds: spins for Engine::kSpinWindow, then parks
/// on the word until a writer notifies. Returns the value that satisfied
/// `done`, loaded with acquire ordering.
template <typename Done>
std::uint32_t spin_then_park(const std::atomic<std::uint32_t>& word,
                             Done done) {
  std::uint32_t v = word.load(std::memory_order_acquire);
  if (done(v)) return v;
  const auto give_up = std::chrono::steady_clock::now() + Engine::kSpinWindow;
  for (unsigned i = 1;; ++i) {
    cpu_relax();
    v = word.load(std::memory_order_acquire);
    if (done(v)) return v;
    if (i % 32 == 0 && std::chrono::steady_clock::now() >= give_up) break;
  }
  while (!done(v)) {
    word.wait(v, std::memory_order_acquire);
    v = word.load(std::memory_order_acquire);
  }
  return v;
}

}  // namespace

void Crossing::push(util::TimePoint deliver_at, net::Packet&& pkt,
                    net::Interface* to) {
  // CowVec's sole-owner fast path mutates shared storage without
  // synchronization, so a body that crossed shards could be written by
  // both sides. Deep-copy the two CowVec bodies here, on the producer, so
  // the packet the consumer re-homes shares no mutable storage with this
  // shard. Payload objects themselves are immutable (const Payload behind
  // shared_ptr) and safe to share.
  if (!pkt.messages.empty()) {
    std::vector<net::MessageRef> body(pkt.messages.view());
    pkt.messages.assign(std::move(body));
  }
  if (!pkt.tcp.sack.empty()) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> body(
        pkt.tcp.sack.view());
    pkt.tcp.sack.assign(std::move(body));
  }
  items_.push_back({deliver_at, to, std::move(pkt)});
}

Engine::Engine(const Config& cfg)
    : cfg_(cfg),
      stride_(std::max<std::size_t>(cfg.workers, 1)),
      errors_(stride_) {
  // A broken engine precondition makes the epoch bound unsound: stop in
  // every build type rather than produce causality-violating results.
  HPOP_CHECK(cfg_.lookahead > 0, "psim::Engine: lookahead %lld ns must be > 0",
             static_cast<long long>(cfg_.lookahead));
  threads_.reserve(stride_ - 1);
  try {
    for (std::size_t w = 1; w < stride_; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    stop_workers();
    throw;
  }
}

Engine::~Engine() { stop_workers(); }

void Engine::stop_workers() {
  stopping_ = true;
  generation_.fetch_add(1);
  generation_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

std::size_t Engine::add_partition() {
  sims_.push_back(std::make_unique<sim::Simulator>());
  net::PacketPool::of(*sims_.back());  // create the arena on the main thread
  inbound_.emplace_back();
  return sims_.size() - 1;
}

Crossing* Engine::crossing(std::size_t from, std::size_t to) {
  for (auto& c : crossings_) {
    if (c->from() == from && c->to() == to) return c.get();
  }
  crossings_.push_back(std::make_unique<Crossing>(from, to, cfg_.lookahead));
  inbound_[to].push_back(crossings_.back().get());
  return crossings_.back().get();
}

void Engine::bind_local(net::Link* link, std::size_t p) {
  link->bind_shard(0, &sim(p), nullptr);
  link->bind_shard(1, &sim(p), nullptr);
}

void Engine::bind_boundary(net::Link* link, int dir, std::size_t from,
                           std::size_t to) {
  const util::Duration delay = link->params_of(dir).delay;
  HPOP_CHECK(delay >= cfg_.lookahead,
             "psim::Engine: boundary %zu->%zu delay %lld ns < lookahead "
             "%lld ns",
             from, to, static_cast<long long>(delay),
             static_cast<long long>(cfg_.lookahead));
  link->bind_shard(dir, &sim(from), crossing(from, to));
}

void Engine::deliver_item(net::PacketPool& pool, sim::Simulator& dest,
                          CrossItem&& item) {
  net::PooledPacket q = pool.acquire();
  *q = std::move(item.pkt);
  net::Interface* to = item.to;
  dest.schedule_at(item.deliver_at, [q = std::move(q), to]() mutable {
    to->node->deliver(std::move(q), *to);
  });
  ++stats_.crossings;
}

void Engine::drain_all() {
  for (std::size_t to = 0; to < sims_.size(); ++to) {
    if (inbound_[to].empty()) continue;
    sim::Simulator& dest = *sims_[to];
    net::PacketPool& pool = net::PacketPool::of(dest);
    for (Crossing* c : inbound_[to]) {
      for (CrossItem& item : c->items_) {
        deliver_item(pool, dest, std::move(item));
      }
      c->items_.clear();
    }
  }
}

void Engine::run_partitions(std::size_t w) noexcept {
  try {
    for (std::size_t p = w; p < sims_.size(); p += stride_) {
      sim::Simulator& s = *sims_[p];
      // Idle shards (no event due this epoch) run only on the final pass,
      // to settle every clock at the horizon.
      if (!final_ && s.next_event_time() > deadline_) continue;
      s.run_until(deadline_);
    }
  } catch (...) {
    errors_[w] = std::current_exception();
  }
}

void Engine::worker_loop(std::size_t w) {
  const auto others = static_cast<std::uint32_t>(stride_ - 1);
  std::uint32_t seen = 0;  // generation_ when the engine was constructed
  for (;;) {
    seen = spin_then_park(generation_,
                          [seen](std::uint32_t g) { return g != seen; });
    if (stopping_) return;
    run_partitions(w);
    if (arrived_.fetch_add(1) + 1 == others) arrived_.notify_one();
  }
}

void Engine::run_until(util::TimePoint horizon) {
  const auto others = static_cast<std::uint32_t>(stride_ - 1);
  bool done = false;
  while (!done) {
    util::TimePoint tmin = sim::Simulator::kNoEvent;
    for (auto& s : sims_) tmin = std::min(tmin, s->next_event_time());
    util::TimePoint deadline;
    if (tmin >= horizon) {
      deadline = horizon;
      done = true;
    } else {
      deadline = tmin + cfg_.lookahead;
      if (deadline >= horizon) {
        deadline = horizon;
        done = true;
      }
    }
    deadline_ = deadline;
    final_ = done;
    if (others > 0) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1);
      generation_.notify_all();
    }
    run_partitions(0);
    if (others > 0) {
      spin_then_park(arrived_,
                     [others](std::uint32_t a) { return a == others; });
    }
    ++stats_.epochs;
    for (std::exception_ptr& e : errors_) {
      if (e) std::rethrow_exception(std::exchange(e, nullptr));
    }
    // Safety: every packet pushed during this epoch left its shard at some
    // t >= tmin, so it is due at t + tx + delay > tmin + lookahead >=
    // deadline — always in the receiving shard's future.
    drain_all();
  }
}

std::uint64_t Engine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->events_executed();
  return total;
}

}  // namespace hpop::psim
