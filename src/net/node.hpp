#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/pool.hpp"
#include "sim/simulator.hpp"
#include "util/small_vec.hpp"

namespace hpop::net {

class Link;
class Node;

/// A network attachment point: an address bound to a node, wired to one
/// link. Nodes own their interfaces; links reference them.
struct Interface {
  Node* node = nullptr;
  IpAddr addr;
  Link* link = nullptr;
  int index = -1;
};

/// Base class for everything attached to the simulated network: hosts,
/// routers and NAT boxes.
class Node {
 public:
  Node(sim::Simulator& sim, std::string name);
  virtual ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return name_; }
  sim::Simulator& simulator() { return *sim_; }
  /// The simulator's packet arena; every wire packet is built in it.
  PacketPool& packet_pool() { return *pool_; }

  /// Re-homes the node into a shard's simulator (parallel engine): timers
  /// and pooled packets created from here on belong to that shard. Must run
  /// during partition binding, before any traffic or transport state exists
  /// — timers already scheduled on the old simulator are not migrated.
  void bind_shard(sim::Simulator& sim);

  Interface& add_interface(IpAddr addr);
  const std::vector<std::unique_ptr<Interface>>& interfaces() const {
    return interfaces_;
  }
  Interface& interface(int index) { return *interfaces_.at(index); }

  /// Additional addresses this node answers to (e.g. VPN virtual addresses
  /// assigned by a DCol waypoint). A node holds zero of these almost
  /// always and one or two under DCol, so the set is an inline small-vec —
  /// at 100k+ nodes per process an unordered_set's heap buckets per node
  /// would dominate idle memory.
  void add_virtual_address(IpAddr a);
  void remove_virtual_address(IpAddr a);
  bool owns_address(IpAddr a) const;

  /// The primary (first-interface) address; convenience for hosts.
  IpAddr address() const;

  // --- Lifecycle ---
  /// Administrative/process state. Taking a node down models a crash or
  /// power-off: every packet in or out is dropped, and the "soft" interface
  /// state that lives in the crashed process — virtual addresses and
  /// egress/ingress hooks (tunnels) — is reset. Interfaces, links, and
  /// routes survive (they model cabling and DHCP-persistent config).
  virtual void set_up(bool up);
  bool is_up() const { return up_; }

  // --- Routing ---
  /// Adds a route, keyed by the prefix with its host bits cleared: adding a
  /// prefix already in the table (host bits aside) replaces its interface.
  void add_route(Prefix p, Interface* out);
  void set_default_route(Interface* out) { add_route(Prefix{}, out); }
  void clear_routes() { routes_.clear(); }
  /// Longest-prefix match; nullptr if no route.
  Interface* route_lookup(IpAddr dst) const;

  // --- I/O ---
  /// Sends a locally originated packet: egress hooks may consume or rewrite
  /// it (tunnels); otherwise it is routed out an interface. The pooled
  /// overload is the wire path; the value overload is a convenience for
  /// callers that build a Packet directly (tests, traversal probes,
  /// waypoint re-injection) — it moves the packet into a pool slot.
  void send_packet(PooledPacket pkt);
  void send_packet(Packet pkt);
  /// Entry point from a link. Runs ingress hooks, then handle_packet.
  void deliver(PooledPacket pkt, Interface& in);
  void deliver(Packet pkt, Interface& in);

  /// Per-node packet processing: hosts hand to transport, routers forward,
  /// NATs translate.
  virtual void handle_packet(PooledPacket pkt, Interface& in) = 0;

  /// Egress/ingress hooks; return true to consume the packet. Used by the
  /// DCol tunnels and by tests to inject faults or trace traffic.
  using PacketHook = std::function<bool(Packet&)>;
  void add_egress_hook(PacketHook h) { egress_hooks_.push_back(std::move(h)); }
  void add_ingress_hook(PacketHook h) { ingress_hooks_.push_back(std::move(h)); }

  struct Counters {
    std::uint64_t pkts_in = 0;
    std::uint64_t down_drops = 0;  // packets dropped while the node was down
  };
  const Counters& counters() const { return counters_; }

 protected:
  /// Routes and transmits without egress hooks (used by forwarding paths).
  /// A packet addressed to this node loops back to it instead.
  void forward_packet(PooledPacket pkt);
  /// Routes and transmits a packet the caller knows is not addressed to
  /// this node.
  void route_out(PooledPacket pkt);

 private:
  /// `routes_` is sorted longest prefix first, then by base, so a lookup
  /// is a binary search in each run of equal-length prefixes, longest
  /// first.
  struct RouteEntry {
    Prefix prefix;
    Interface* out;
  };
  /// The table's order: longest prefix first, then by base.
  static bool route_before(const RouteEntry& r, const Prefix& key);

  sim::Simulator* sim_;
  PacketPool* pool_;
  std::string name_;
  std::vector<std::unique_ptr<Interface>> interfaces_;
  util::SmallVec<IpAddr, 2> virtual_addrs_;
  std::vector<RouteEntry> routes_;
  std::vector<PacketHook> egress_hooks_;
  std::vector<PacketHook> ingress_hooks_;
  bool up_ = true;
  Counters counters_;
};

/// An end system: delivers packets addressed to it to the transport layer.
/// The transport multiplexer (transport/mux) installs itself via
/// set_transport_handler, keeping net/ independent of transport/.
class Host : public Node {
 public:
  using Node::Node;

  using TransportHandler = std::function<void(PooledPacket, Interface&)>;
  void set_transport_handler(TransportHandler h) { transport_ = std::move(h); }

  void handle_packet(PooledPacket pkt, Interface& in) override;

  /// A host going down also forgets its transport handler: the mux lives in
  /// the crashed process, and a stale handler would dangle between restart
  /// and service re-attachment.
  void set_up(bool up) override;

  /// Ephemeral port allocator (per host, monotonically increasing).
  std::uint16_t allocate_port();

 private:
  TransportHandler transport_;
  std::uint16_t next_port_ = 49152;
};

/// Store-and-forward router.
class Router : public Node {
 public:
  using Node::Node;
  void handle_packet(PooledPacket pkt, Interface& in) override;
};

}  // namespace hpop::net
