#include "transport/mux.hpp"

#include <stdexcept>

#include "util/hash.hpp"
#include "util/logging.hpp"

namespace hpop::transport {

TransportMux::TransportMux(net::Host& host) : host_(host) {
  host_.set_transport_handler(
      [this](net::PooledPacket pkt, net::Interface& in) {
        dispatch(std::move(pkt), in);
      });
}

TransportMux::~TransportMux() {
  host_.set_transport_handler(nullptr);
  // Applications may keep endpoints alive past the mux (a peer's
  // connection map); a pending RTO on one of those would fire into this
  // freed mux. Detach them all: timers cancelled, handlers dropped, no
  // callbacks invoked. Listener handlers go too: a TURN allocation holds
  // its relay listener, whose accept handler holds the allocation.
  for (auto& [key, conn] : connections_) {
    conn->detach();
  }
  connections_.clear();
  for (auto& [token, session] : mptcp_) {
    session->detach();
  }
  mptcp_.clear();
  for (auto& [port, listener] : listeners_) {
    listener->on_accept_ = nullptr;
    listener->on_accept_mptcp_ = nullptr;
  }
}

net::IpAddr TransportMux::default_source() const { return host_.address(); }

void TransportMux::dispatch(net::PooledPacket pkt, net::Interface& in) {
  (void)in;
  switch (pkt->proto) {
    case net::Proto::kTcp:
      handle_tcp(std::move(pkt));
      break;
    case net::Proto::kUdp:
      handle_udp(std::move(pkt));
      break;
  }
}

// --- UDP ---

std::shared_ptr<UdpSocket> TransportMux::udp_open(std::uint16_t port) {
  if (port == 0) {
    do {
      port = host_.allocate_port();
    } while (udp_.count(port) > 0);
  } else if (udp_.count(port) > 0) {
    throw std::invalid_argument("UDP port in use: " + std::to_string(port));
  }
  auto socket = std::make_shared<UdpSocket>(*this, port);
  udp_[port] = socket;
  return socket;
}

void TransportMux::udp_unregister(std::uint16_t port) { udp_.erase(port); }

void TransportMux::handle_udp(net::PooledPacket pkt) {
  const auto it = udp_.find(pkt->udp.dst_port);
  if (it == udp_.end()) {
    HPOP_LOG(kTrace, "mux") << host_.name() << ": UDP to closed port "
                            << pkt->udp.dst_port;
    return;
  }
  it->second->on_packet(*pkt);
}

// --- TCP ---

std::shared_ptr<TcpListener> TransportMux::tcp_listen(std::uint16_t port,
                                                      TcpOptions opts) {
  if (listeners_.count(port) > 0) {
    throw std::invalid_argument("TCP port in use: " + std::to_string(port));
  }
  auto listener = std::make_shared<TcpListener>(*this, port, opts);
  listeners_[port] = listener;
  return listener;
}

std::shared_ptr<TcpConnection> TransportMux::tcp_connect(net::Endpoint remote,
                                                         TcpOptions opts) {
  const net::IpAddr src = opts.bind_ip.value_or(host_.address());
  net::Endpoint local{src, opts.local_port.value_or(host_.allocate_port())};
  while (connections_.count({local, remote}) > 0) {
    local.port = host_.allocate_port();
  }
  auto conn =
      std::make_shared<TcpConnection>(*this, local, remote, opts, false);
  connections_[{local, remote}] = conn;
  conn->start_active_open();
  return conn;
}

void TransportMux::tcp_unregister(const net::Endpoint& local,
                                  const net::Endpoint& remote) {
  connections_.erase({local, remote});
}

std::shared_ptr<TcpConnection> TransportMux::create_passive(
    const net::Packet& syn, const TcpOptions& opts) {
  const net::Endpoint local = syn.dst_endpoint();
  const net::Endpoint remote = syn.src_endpoint();
  auto conn = std::make_shared<TcpConnection>(*this, local, remote, opts,
                                              /*passive=*/true);
  connections_[{local, remote}] = conn;
  return conn;
}

void TransportMux::send_rst_for(const net::Packet& pkt) {
  if (pkt.tcp.rst) return;
  net::PooledPacket rst = make_packet();
  rst->src = pkt.dst;
  rst->dst = pkt.src;
  rst->proto = net::Proto::kTcp;
  rst->tcp.src_port = pkt.tcp.dst_port;
  rst->tcp.dst_port = pkt.tcp.src_port;
  rst->tcp.rst = true;
  rst->tcp.ack = pkt.tcp.seq + pkt.payload_len;
  send_packet(std::move(rst));
}

void TransportMux::handle_tcp(net::PooledPacket pooled) {
  const net::Packet& pkt = *pooled;
  const auto key = std::make_pair(pkt.dst_endpoint(), pkt.src_endpoint());
  const auto it = connections_.find(key);
  if (it != connections_.end()) {
    // Keep the connection alive across the callback even if it
    // unregisters itself.
    const auto conn = it->second;
    conn->on_packet(pkt);
    return;
  }

  if (!(pkt.tcp.syn && !pkt.tcp.ack_flag)) {
    send_rst_for(pkt);
    return;
  }

  // Additional MPTCP subflow joining an existing session.
  if (pkt.tcp.mp_join) {
    const auto mit = mptcp_.find(*pkt.tcp.mp_join);
    if (mit == mptcp_.end()) {
      send_rst_for(pkt);
      return;
    }
    const auto session = mit->second;
    TcpOptions opts = session->opts_.subflow;
    opts.mp_capable = false;
    opts.join_token.reset();
    opts.bind_ip = pkt.dst;
    auto conn = create_passive(pkt, opts);
    conn->internal_established_ =
        [session, conn_wp = std::weak_ptr<TcpConnection>(conn)] {
          if (const auto c = conn_wp.lock()) {
            session->attach_subflow(c, /*primary=*/false);
          }
        };
    conn->on_packet(pkt);
    return;
  }

  const auto lit = listeners_.find(pkt.tcp.dst_port);
  if (lit == listeners_.end()) {
    send_rst_for(pkt);
    return;
  }
  const auto listener = lit->second;
  TcpOptions opts = listener->options();
  const bool mptcp_session = opts.mp_capable && pkt.tcp.mp_capable.has_value();
  opts.mp_capable = false;
  opts.join_token.reset();
  opts.bind_ip = pkt.dst;
  auto conn = create_passive(pkt, opts);

  if (mptcp_session) {
    // Until the handshake completes, the session belongs to its primary
    // subflow's establishment hook; a handshake that never completes
    // frees it with the subflow.
    const std::uint64_t token = *pkt.tcp.mp_capable;
    auto session = std::make_shared<MptcpConnection>(
        *this, token,
        MptcpOptions{listener->options(), SchedulerKind::kMinRtt},
        /*server_role=*/true);
    session->set_remote(pkt.src_endpoint());
    conn->internal_established_ =
        [this, listener, session,
         conn_wp = std::weak_ptr<TcpConnection>(conn)] {
          if (const auto c = conn_wp.lock()) {
            mptcp_[session->token()] = session;
            session->attach_subflow(c, /*primary=*/true);
            if (listener->on_accept_mptcp_) listener->on_accept_mptcp_(session);
          }
        };
  } else {
    conn->internal_established_ =
        [listener, conn_wp = std::weak_ptr<TcpConnection>(conn)] {
          if (const auto c = conn_wp.lock()) {
            if (listener->on_accept_) listener->on_accept_(c);
          }
        };
  }
  conn->on_packet(pkt);
}

// --- MPTCP ---

std::shared_ptr<MptcpConnection> TransportMux::mptcp_connect(
    net::Endpoint remote, MptcpOptions opts) {
  const std::uint64_t token =
      util::Fnv1a{}.str(host_.name()).u64(++token_counter_).h;
  auto session = std::make_shared<MptcpConnection>(*this, token, opts,
                                                   /*server_role=*/false);
  mptcp_[token] = session;
  session->set_remote(remote);
  TcpOptions sub = opts.subflow;
  sub.mp_capable = true;
  sub.mptcp_token = token;
  auto first = tcp_connect(remote, sub);
  session->attach_subflow(first, /*primary=*/true);
  return session;
}

std::shared_ptr<TcpConnection> TransportMux::open_subflow(net::Endpoint remote,
                                                          TcpOptions opts) {
  return tcp_connect(remote, opts);
}

void TransportMux::mptcp_unregister(std::uint64_t token) {
  mptcp_.erase(token);
}

}  // namespace hpop::transport
