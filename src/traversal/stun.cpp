#include "traversal/stun.hpp"

#include "util/logging.hpp"

namespace hpop::traversal {

StunServer::StunServer(transport::TransportMux& mux, std::uint16_t port)
    : socket_(mux.udp_open(port)), tcp_listener_(mux.tcp_listen(port)) {
  socket_->set_on_datagram([this](net::Endpoint from, net::PayloadPtr msg) {
    const auto req =
        std::dynamic_pointer_cast<const StunBindingRequest>(msg);
    if (!req) return;
    auto resp = std::make_shared<StunBindingResponse>();
    resp->txn_id = req->txn_id;
    resp->mapped = from;
    socket_->send_to(from, resp);
  });
  tcp_listener_->set_on_accept(
      [](std::shared_ptr<transport::TcpConnection> conn) {
        auto resp = std::make_shared<StunTcpMapped>();
        resp->mapped = conn->remote();
        conn->send(resp);
        conn->close();
      });
}

void discover_tcp_mapping(
    transport::TransportMux& mux, net::Endpoint stun_server,
    std::uint16_t local_port,
    std::function<void(util::Result<net::Endpoint>)> cb) {
  transport::TcpOptions opts;
  opts.local_port = local_port;
  auto conn = mux.tcp_connect(stun_server, opts);
  auto done = std::make_shared<bool>(false);
  conn->set_on_message([conn, cb, done](net::PayloadPtr msg) {
    const auto resp = std::dynamic_pointer_cast<const StunTcpMapped>(msg);
    if (!resp || *done) return;
    *done = true;
    cb(resp->mapped);
  });
  conn->set_on_remote_close([conn] { conn->close(); });
  conn->set_on_reset([cb, done] {
    if (*done) return;
    *done = true;
    cb(util::Result<net::Endpoint>::failure("unreachable",
                                            "STUN TCP connect failed"));
  });
}

StunClient::StunClient(transport::TransportMux& mux, net::Endpoint server)
    : mux_(mux), server_(server), socket_(mux.udp_open()) {
  socket_->set_on_datagram([this](net::Endpoint from, net::PayloadPtr msg) {
    (void)from;
    const auto resp =
        std::dynamic_pointer_cast<const StunBindingResponse>(msg);
    if (!resp) return;
    const auto it = pending_.find(resp->txn_id);
    if (it == pending_.end()) return;  // duplicate/late response
    DiscoverCallback cb = std::move(it->second);
    pending_.erase(it);
    cb(resp->mapped);
  });
}

void StunClient::send_request(std::uint64_t txn, int remaining,
                              DiscoverCallback cb) {
  auto req = std::make_shared<StunBindingRequest>();
  req->txn_id = txn;
  socket_->send_to(server_, req);
  pending_[txn] = std::move(cb);

  mux_.simulator().schedule(500 * util::kMillisecond,
                            [this, txn, remaining] {
    const auto it = pending_.find(txn);
    if (it == pending_.end()) return;  // answered
    DiscoverCallback cb = std::move(it->second);
    pending_.erase(it);
    if (remaining > 0) {
      send_request(next_txn_++, remaining - 1, std::move(cb));
    } else {
      cb(util::Result<net::Endpoint>::failure("timeout",
                                              "no STUN response"));
    }
  });
}

void StunClient::discover(DiscoverCallback cb, int retries) {
  send_request(next_txn_++, retries, std::move(cb));
}

void StunClient::start_keepalive(util::Duration interval) {
  stop_keepalive();
  keepalive_timer_ = mux_.simulator().schedule(interval, [this, interval] {
    auto req = std::make_shared<StunBindingRequest>();
    req->txn_id = next_txn_++;
    socket_->send_to(server_, req);  // response (if any) refreshes nothing
    start_keepalive(interval);
  });
}

void StunClient::stop_keepalive() {
  if (keepalive_timer_) {
    mux_.simulator().cancel(*keepalive_timer_);
    keepalive_timer_.reset();
  }
}

void punch_tcp(net::Host& host, std::uint16_t local_port, net::Endpoint remote,
               int ttl) {
  net::Packet syn;
  syn.src = host.address();
  syn.dst = remote.ip;
  syn.proto = net::Proto::kTcp;
  syn.tcp.src_port = local_port;
  syn.tcp.dst_port = remote.port;
  syn.tcp.syn = true;
  syn.ttl = ttl;
  host.send_packet(std::move(syn));
}

void punch_udp(transport::UdpSocket& socket, net::Endpoint remote) {
  socket.send_to(remote, std::make_shared<StunBindingRequest>());
}

}  // namespace hpop::traversal
