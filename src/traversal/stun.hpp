#pragma once

#include <functional>
#include <memory>

#include "transport/mux.hpp"
#include "util/result.hpp"

namespace hpop::traversal {

/// STUN Binding messages (RFC 5389, reduced to what address discovery and
/// hole punching need).
struct StunBindingRequest : net::Payload {
  std::uint64_t txn_id = 0;
  std::size_t wire_size() const override { return 20; }
};

struct StunBindingResponse : net::Payload {
  std::uint64_t txn_id = 0;
  net::Endpoint mapped;  // XOR-MAPPED-ADDRESS in real STUN
  std::size_t wire_size() const override { return 32; }
};

/// Sent over the TCP variant: the observed remote endpoint of the
/// connection (how the HPoP discovers its service port's NAT mapping).
struct StunTcpMapped : net::Payload {
  net::Endpoint mapped;
  std::size_t wire_size() const override { return 32; }
};

/// Answers UDP binding requests with the source endpoint it observed — the
/// client's outermost NAT mapping — and, on TCP, immediately reports the
/// observed endpoint of each accepted connection (STUN-over-TCP).
class StunServer {
 public:
  StunServer(transport::TransportMux& mux, std::uint16_t port = 3478);

 private:
  std::shared_ptr<transport::UdpSocket> socket_;
  std::shared_ptr<transport::TcpListener> tcp_listener_;
};

/// Discovers the NAT mapping for TCP connections originating from
/// `local_port` (the HPoP's service port) by dialing the STUN server's TCP
/// side from that port.
void discover_tcp_mapping(
    transport::TransportMux& mux, net::Endpoint stun_server,
    std::uint16_t local_port,
    std::function<void(util::Result<net::Endpoint>)> cb);

/// Client side: discovers the reflexive (outermost-NAT) UDP endpoint and
/// keeps the mapping alive. The HPoP holds one of these open permanently so
/// its public UDP endpoint stays stable (§III).
class StunClient {
 public:
  StunClient(transport::TransportMux& mux, net::Endpoint server);

  using DiscoverCallback =
      std::function<void(util::Result<net::Endpoint>)>;
  /// Binding request with up to `retries` retransmissions (UDP loss).
  void discover(DiscoverCallback cb, int retries = 3);

  /// Refreshes the mapping every `interval` (keeps NAT state from
  /// expiring).
  void start_keepalive(util::Duration interval);
  void stop_keepalive();

  /// Local UDP port of the mapping (the punched service rides this port).
  std::uint16_t local_port() const { return socket_->port(); }
  std::shared_ptr<transport::UdpSocket> socket() { return socket_; }

 private:
  void send_request(std::uint64_t txn, int remaining, DiscoverCallback cb);

  transport::TransportMux& mux_;
  net::Endpoint server_;
  std::shared_ptr<transport::UdpSocket> socket_;
  std::uint64_t next_txn_ = 1;
  std::map<std::uint64_t, DiscoverCallback> pending_;
  std::optional<sim::TimerId> keepalive_timer_;
};

/// TCP hole punch: emits a bare SYN from (host, local_port) toward
/// `remote` purely to install outbound mapping + filter state on the NAT
/// chain, so the remote's inbound SYN to the mapped endpoint is admitted.
/// `ttl` is set low (NAT depth + 1), the standard trick so the punch dies
/// inside the network instead of eliciting an RST from the far host.
void punch_tcp(net::Host& host, std::uint16_t local_port, net::Endpoint remote,
               int ttl = 2);

/// UDP hole punch: a small datagram with the same purpose.
void punch_udp(transport::UdpSocket& socket, net::Endpoint remote);

}  // namespace hpop::traversal
