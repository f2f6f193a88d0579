#include "net/pool.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace hpop::net {

PacketPool& PacketPool::of(sim::Simulator& sim) {
  // The attachment slot is single-occupancy and the pool is its only
  // tenant today; a second tenant would need a keyed registry here.
  if (auto* a = sim.attachment()) return static_cast<PacketPool&>(*a);
  auto pool = std::make_unique<PacketPool>();
  PacketPool& ref = *pool;
  sim.set_attachment(std::move(pool));
  return ref;
}

PooledPacket PacketPool::acquire() {
  ++stats_.acquired;
  std::uint32_t idx;
  if (free_head_ != kNone) {
    idx = free_head_;
    Slot& s = slot_at(idx);
    free_head_ = s.next;
    s.next = kNone;
    ++stats_.recycled;
  } else {
    if (size_ % kSlabSize == 0) {
      slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
      stats_.slabs = slabs_.size();
    }
    idx = size_++;
  }
  Slot& s = slot_at(idx);
  s.live = true;
  ++stats_.live;
  if (stats_.live > stats_.peak_live) stats_.peak_live = stats_.live;
  return PooledPacket(this, idx, s.gen);
}

Packet* PacketPool::try_get(std::uint32_t idx, std::uint32_t gen) {
  if (idx >= size_) return nullptr;
  Slot& s = slot_at(idx);
  if (!s.live || s.gen != gen) return nullptr;
  return &s.pkt;
}

void PacketPool::release(std::uint32_t idx, std::uint32_t gen) {
  Slot& s = slot_at(idx);
  assert(s.live && s.gen == gen);
  (void)gen;
  s.live = false;
  ++s.gen;  // stale handles to this slot stop resolving
  --stats_.live;

  // Reset contents but keep uniquely-owned body buffers warm: the next
  // packet built in this slot appends messages / SACK blocks without
  // touching the allocator.
  auto messages = std::move(s.pkt.messages);
  auto sack = std::move(s.pkt.tcp.sack);
  messages.clear_keep_capacity();
  sack.clear_keep_capacity();
  s.pkt = Packet{};
  s.pkt.messages = std::move(messages);
  s.pkt.tcp.sack = std::move(sack);

  if (recycling_) {
    s.next = free_head_;
    free_head_ = idx;
  }
  // Recycling off: the slot is retired (never re-enters the freelist), so
  // every acquire sees virgin storage — the "unpooled" comparison mode.
}

void PacketFifo::push(PooledPacket pkt, util::TimePoint at) {
  // Mixing pools would chain slot indices of one arena into another's:
  // stop in every build type rather than corrupt both.
  if (pkt.pool_ == nullptr || (pool_ != nullptr && pkt.pool_ != pool_)) {
    std::fprintf(stderr,
                 "net::PacketFifo: packet from pool %p pushed onto a FIFO "
                 "of pool %p; a FIFO holds one pool's packets\n",
                 static_cast<void*>(pkt.pool_), static_cast<void*>(pool_));
    std::abort();
  }
  pool_ = pkt.pool_;
  const std::uint32_t idx = pkt.idx_;
  pkt.pool_ = nullptr;  // the FIFO owns the slot now
  PacketPool::Slot& s = pool_->slot_at(idx);
  s.at = at;
  // Insert after the last packet stamped <= at: the tail in the common
  // case, else found by a walk from the front.
  std::uint32_t prev = tail_;
  if (prev != PacketPool::kNone && pool_->slot_at(prev).at > at) {
    prev = PacketPool::kNone;
    for (std::uint32_t i = head_; pool_->slot_at(i).at <= at;
         i = pool_->slot_at(i).next) {
      prev = i;
    }
  }
  if (prev == PacketPool::kNone) {
    s.next = head_;
    head_ = idx;
  } else {
    PacketPool::Slot& p = pool_->slot_at(prev);
    s.next = p.next;
    p.next = idx;
  }
  if (s.next == PacketPool::kNone) tail_ = idx;
}

util::TimePoint PacketFifo::front_at() const {
  return pool_->slot_at(head_).at;
}

PooledPacket PacketFifo::pop_front() {
  const std::uint32_t idx = head_;
  PacketPool::Slot& s = pool_->slot_at(idx);
  head_ = s.next;
  s.next = PacketPool::kNone;
  if (head_ == PacketPool::kNone) tail_ = PacketPool::kNone;
  return PooledPacket(pool_, idx, s.gen);
}

std::size_t PacketFifo::clear() {
  std::size_t released = 0;
  while (head_ != PacketPool::kNone) {
    const std::uint32_t idx = head_;
    PacketPool::Slot& s = pool_->slot_at(idx);
    head_ = s.next;
    s.next = PacketPool::kNone;
    pool_->release(idx, s.gen);
    ++released;
  }
  tail_ = PacketPool::kNone;
  return released;
}

}  // namespace hpop::net
