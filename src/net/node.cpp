#include "net/node.hpp"

#include <algorithm>

#include "net/link.hpp"
#include "util/logging.hpp"

namespace hpop::net {

Node::Node(sim::Simulator& sim, std::string name)
    : sim_(&sim), pool_(&PacketPool::of(sim)), name_(std::move(name)) {}

Node::~Node() = default;

void Node::bind_shard(sim::Simulator& sim) {
  sim_ = &sim;
  pool_ = &PacketPool::of(sim);
}

Interface& Node::add_interface(IpAddr addr) {
  auto iface = std::make_unique<Interface>();
  iface->node = this;
  iface->addr = addr;
  iface->index = static_cast<int>(interfaces_.size());
  interfaces_.push_back(std::move(iface));
  return *interfaces_.back();
}

void Node::add_virtual_address(IpAddr a) {
  for (const IpAddr v : virtual_addrs_) {
    if (v == a) return;
  }
  virtual_addrs_.push_back(a);
}

void Node::remove_virtual_address(IpAddr a) {
  for (std::size_t i = 0; i < virtual_addrs_.size(); ++i) {
    if (virtual_addrs_[i] == a) {
      virtual_addrs_.erase_at(i);
      return;
    }
  }
}

bool Node::owns_address(IpAddr a) const {
  for (const auto& iface : interfaces_) {
    if (iface->addr == a) return true;
  }
  for (const IpAddr v : virtual_addrs_) {
    if (v == a) return true;
  }
  return false;
}

IpAddr Node::address() const {
  return interfaces_.empty() ? IpAddr{} : interfaces_.front()->addr;
}

bool Node::route_before(const RouteEntry& r, const Prefix& key) {
  return r.prefix.bits != key.bits ? r.prefix.bits > key.bits
                                   : r.prefix.base < key.base;
}

void Node::add_route(Prefix p, Interface* out) {
  p.base.value &= p.mask();
  const auto it =
      std::lower_bound(routes_.begin(), routes_.end(), p, route_before);
  // Replace an existing identical prefix so auto_route may be re-run.
  if (it != routes_.end() && it->prefix == p) {
    it->out = out;
    return;
  }
  routes_.insert(it, {p, out});
}

Interface* Node::route_lookup(IpAddr dst) const {
  // Search each run of equal-length prefixes, longest first, for the
  // destination's masked address: the first hit is the longest match.
  auto first = routes_.begin();
  const auto end = routes_.end();
  while (first != end) {
    const Prefix key{IpAddr{dst.value & first->prefix.mask()},
                     first->prefix.bits};
    first = std::lower_bound(first, end, key, route_before);
    if (first != end && first->prefix == key) return first->out;
    first = std::partition_point(first, end, [&key](const RouteEntry& r) {
      return r.prefix.bits == key.bits;
    });
  }
  return nullptr;
}

void Node::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  if (!up) {
    // Soft interface state lives in the (now dead) process image.
    virtual_addrs_.clear();
    egress_hooks_.clear();
    ingress_hooks_.clear();
  }
}

void Node::send_packet(PooledPacket pkt) {
  if (!up_) {
    ++counters_.down_drops;
    return;
  }
  for (auto& hook : egress_hooks_) {
    if (hook(*pkt)) return;
  }
  forward_packet(std::move(pkt));
}

void Node::send_packet(Packet pkt) {
  PooledPacket pooled = pool_->acquire();
  *pooled = std::move(pkt);
  send_packet(std::move(pooled));
}

void Node::forward_packet(PooledPacket pkt) {
  // Local loopback: a node talking to one of its own addresses short-cuts
  // the wire (hosts contacting their own HPoP services in-process).
  if (owns_address(pkt->dst)) {
    if (!interfaces_.empty()) {
      deliver(std::move(pkt), *interfaces_.front());
    }
    return;
  }
  route_out(std::move(pkt));
}

void Node::route_out(PooledPacket pkt) {
  Interface* out = route_lookup(pkt->dst);
  if (out == nullptr || out->link == nullptr) {
    HPOP_LOG(kDebug, "net") << name_ << ": no route to "
                            << pkt->dst.to_string();
    return;
  }
  out->link->transmit(*out, std::move(pkt));
}

void Node::deliver(PooledPacket pkt, Interface& in) {
  if (!up_) {
    ++counters_.down_drops;
    return;
  }
  ++counters_.pkts_in;
  for (auto& hook : ingress_hooks_) {
    if (hook(*pkt)) return;
  }
  handle_packet(std::move(pkt), in);
}

void Node::deliver(Packet pkt, Interface& in) {
  PooledPacket pooled = pool_->acquire();
  *pooled = std::move(pkt);
  deliver(std::move(pooled), in);
}

void Host::handle_packet(PooledPacket pkt, Interface& in) {
  if (!owns_address(pkt->dst)) {
    // Hosts do not forward.
    HPOP_LOG(kTrace, "net") << name() << ": dropping transit packet to "
                            << pkt->dst.to_string();
    return;
  }
  if (transport_) transport_(std::move(pkt), in);
}

void Host::set_up(bool up) {
  if (!up) transport_ = nullptr;
  Node::set_up(up);
}

std::uint16_t Host::allocate_port() {
  if (next_port_ == 0) next_port_ = 49152;  // wrapped
  return next_port_++;
}

void Router::handle_packet(PooledPacket pkt, Interface& in) {
  (void)in;
  if (owns_address(pkt->dst)) return;  // routers host no transports
  if (--pkt->ttl <= 0) return;
  route_out(std::move(pkt));
}

}  // namespace hpop::net
