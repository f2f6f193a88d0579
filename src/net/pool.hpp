#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace hpop::net {

class PacketFifo;
class PacketPool;

/// Move-only owning handle to a pool slot. Small enough (24 bytes) that a
/// link-delivery closure capturing one stays inside the simulator's 64-byte
/// inline-closure buffer — the allocation the pool exists to kill.
///
/// A handle must not outlive its pool (in practice: the Simulator that owns
/// it). Destruction releases the slot back to the freelist.
class PooledPacket {
 public:
  PooledPacket() = default;
  PooledPacket(PooledPacket&& other) noexcept
      : pool_(other.pool_), idx_(other.idx_), gen_(other.gen_) {
    other.pool_ = nullptr;
  }
  PooledPacket& operator=(PooledPacket&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      idx_ = other.idx_;
      gen_ = other.gen_;
      other.pool_ = nullptr;
    }
    return *this;
  }
  PooledPacket(const PooledPacket&) = delete;
  PooledPacket& operator=(const PooledPacket&) = delete;
  ~PooledPacket() { reset(); }

  explicit operator bool() const { return pool_ != nullptr; }
  Packet& operator*() const { return *get(); }
  Packet* operator->() const { return get(); }
  Packet* get() const;

  /// Releases the slot now; the handle becomes empty.
  void reset();

  /// Slot coordinates, for generation-check tests and tracing.
  std::uint32_t index() const { return idx_; }
  std::uint32_t generation() const { return gen_; }

 private:
  friend class PacketFifo;
  friend class PacketPool;
  PooledPacket(PacketPool* pool, std::uint32_t idx, std::uint32_t gen)
      : pool_(pool), idx_(idx), gen_(gen) {}

  PacketPool* pool_ = nullptr;
  std::uint32_t idx_ = 0;
  std::uint32_t gen_ = 0;
};

/// Per-simulator freelist arena for net::Packet. Slots live in fixed-size
/// slabs (stable addresses — a handle's Packet* never moves), a released
/// slot keeps its uniquely-owned CowVec buffers warm for the next acquire,
/// and generations catch stale handles. Attached to the owning Simulator so
/// the arena drains exactly when the simulation dies — after every queued
/// closure has released its handle.
class PacketPool : public sim::Simulator::Attachment {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// The pool attached to `sim`, created and attached on first use.
  static PacketPool& of(sim::Simulator& sim);

  /// A fresh zeroed packet (body buffers may carry reserved capacity from a
  /// previous life; contents are always reset).
  PooledPacket acquire();

  /// Generation-checked lookup: nullptr when (idx, gen) no longer names a
  /// live packet — the slot was released, or released and reissued.
  Packet* try_get(std::uint32_t idx, std::uint32_t gen);

  /// When recycling is off, released slots are retired instead of reused:
  /// every acquire gets a never-before-seen slot. Determinism tests run the
  /// same script pooled and effectively-unpooled and byte-compare.
  void set_recycling(bool on) { recycling_ = on; }

  struct Stats {
    std::uint64_t acquired = 0;  // total acquire() calls
    std::uint64_t recycled = 0;  // acquires served from the freelist
    std::size_t live = 0;        // currently checked-out handles
    std::size_t peak_live = 0;
    std::size_t slabs = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class PacketFifo;
  friend class PooledPacket;

  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  static constexpr std::size_t kSlabSize = 256;

  struct Slot {
    Packet pkt;
    /// A PacketFifo's stamp for the packet it holds here.
    util::TimePoint at = 0;
    std::uint32_t gen = 0;
    /// The freelist link while the slot is free; a PacketFifo's link while
    /// the (live) slot's packet is queued in one.
    std::uint32_t next = kNone;
    bool live = false;
  };

  Slot& slot_at(std::uint32_t idx) {
    return slabs_[idx / kSlabSize][idx % kSlabSize];
  }
  void release(std::uint32_t idx, std::uint32_t gen);

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::uint32_t size_ = 0;  // slots handed out at least once
  std::uint32_t free_head_ = kNone;
  bool recycling_ = true;
  Stats stats_;
};

/// A FIFO of pooled packets threaded through their slots: a queued
/// packet's slot is live, so its freelist link is free to chain the queue,
/// and the FIFO itself is just its pool, head and tail. Pushing allocates
/// nothing. The FIFO owns what it holds: pop_front hands a packet's handle
/// back, and clear() or destruction release the rest to the pool.
///
/// Each packet carries a stamp, kept in its slot, and push keeps the FIFO
/// ordered by stamp: a packet lands after every packet stamped at or
/// before its own, so with equal stamps (the default) it is a plain FIFO.
///
/// One pool only: the first push binds the FIFO to its packet's pool, and
/// a packet from any other pool aborts in every build type. The FIFO must
/// not outlive that pool.
class PacketFifo {
 public:
  PacketFifo() = default;
  PacketFifo(const PacketFifo&) = delete;
  PacketFifo& operator=(const PacketFifo&) = delete;
  ~PacketFifo() { clear(); }

  bool empty() const { return head_ == PacketPool::kNone; }

  /// Queues `pkt` stamped `at`. O(1) when no queued packet is stamped
  /// later than `at`; otherwise walks in from the front.
  void push(PooledPacket pkt, util::TimePoint at = 0);
  /// The front packet's stamp. The FIFO must not be empty.
  util::TimePoint front_at() const;
  /// Dequeues the front packet. The FIFO must not be empty.
  PooledPacket pop_front();
  /// Releases every queued packet to the pool; returns how many.
  std::size_t clear();

 private:
  PacketPool* pool_ = nullptr;
  std::uint32_t head_ = PacketPool::kNone;
  std::uint32_t tail_ = PacketPool::kNone;
};

inline Packet* PooledPacket::get() const {
  return &pool_->slot_at(idx_).pkt;
}

inline void PooledPacket::reset() {
  if (pool_ == nullptr) return;
  pool_->release(idx_, gen_);
  pool_ = nullptr;
}

}  // namespace hpop::net
