#pragma once

#include <map>
#include <memory>
#include <unordered_map>

#include "net/node.hpp"
#include "transport/mptcp.hpp"
#include "transport/tcp.hpp"
#include "transport/udp.hpp"

namespace hpop::transport {

/// Per-host transport demultiplexer: owns the host's UDP sockets, TCP
/// listeners and connections, and MPTCP sessions, and dispatches inbound
/// packets to them. Installing a TransportMux turns a bare net::Host into
/// an end system with a socket-like API.
///
/// One lifetime rule covers every transport endpoint: the mux holds each
/// connection and session until it closes, so callers need not keep one
/// alive; a closed endpoint drops its handlers once the last one returns,
/// so handlers may capture the endpoint itself; and ~TransportMux detaches
/// whatever is still open.
class TransportMux {
 public:
  explicit TransportMux(net::Host& host);
  ~TransportMux();
  TransportMux(const TransportMux&) = delete;
  TransportMux& operator=(const TransportMux&) = delete;

  net::Host& host() { return host_; }
  sim::Simulator& simulator() { return host_.simulator(); }

  // --- UDP ---
  /// port 0 allocates an ephemeral port.
  std::shared_ptr<UdpSocket> udp_open(std::uint16_t port = 0);

  // --- TCP ---
  std::shared_ptr<TcpListener> tcp_listen(std::uint16_t port,
                                          TcpOptions opts = {});
  std::shared_ptr<TcpConnection> tcp_connect(net::Endpoint remote,
                                             TcpOptions opts = {});

  // --- MPTCP ---
  std::shared_ptr<MptcpConnection> mptcp_connect(net::Endpoint remote,
                                                 MptcpOptions opts = {});

  // --- Internals used by the endpoint classes ---
  /// A fresh packet from the host's pool; endpoints build segments and
  /// datagrams in place (the slot's body buffers stay warm across reuse).
  net::PooledPacket make_packet() { return host_.packet_pool().acquire(); }
  void send_packet(net::PooledPacket pkt) { host_.send_packet(std::move(pkt)); }
  net::IpAddr default_source() const;
  void udp_unregister(std::uint16_t port);
  void tcp_unregister(const net::Endpoint& local, const net::Endpoint& remote);
  void mptcp_unregister(std::uint64_t token);
  /// Opens a subflow connection bound to an MPTCP session token.
  std::shared_ptr<TcpConnection> open_subflow(net::Endpoint remote,
                                              TcpOptions opts);

 private:
  void dispatch(net::PooledPacket pkt, net::Interface& in);
  void handle_tcp(net::PooledPacket pkt);
  void handle_udp(net::PooledPacket pkt);
  void send_rst_for(const net::Packet& pkt);
  std::shared_ptr<TcpConnection> create_passive(const net::Packet& syn,
                                                const TcpOptions& opts);

  net::Host& host_;
  std::unordered_map<std::uint16_t, std::shared_ptr<UdpSocket>> udp_;
  std::unordered_map<std::uint16_t, std::shared_ptr<TcpListener>> listeners_;
  std::map<std::pair<net::Endpoint, net::Endpoint>,
           std::shared_ptr<TcpConnection>>
      connections_;  // (local, remote) -> connection
  /// Keyed by the session's token: this host's own for the sessions it
  /// opened, the client's for the ones it accepted. A token hashes the
  /// opening host's name with its session counter, so tokens from
  /// different hosts do not collide at a shared server.
  std::unordered_map<std::uint64_t, std::shared_ptr<MptcpConnection>> mptcp_;
  std::uint64_t token_counter_ = 0;
};

}  // namespace hpop::transport
