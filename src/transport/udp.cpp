#include "transport/udp.hpp"

#include "transport/mux.hpp"

namespace hpop::transport {

UdpSocket::UdpSocket(TransportMux& mux, std::uint16_t port)
    : mux_(mux), port_(port) {}

void UdpSocket::send_to(net::Endpoint dst, net::PayloadPtr payload) {
  if (closed_) return;
  net::PooledPacket pkt = mux_.make_packet();
  pkt->src = mux_.default_source();
  pkt->dst = dst.ip;
  pkt->proto = net::Proto::kUdp;
  pkt->udp.src_port = port_;
  pkt->udp.dst_port = dst.port;
  pkt->payload_len = payload ? payload->wire_size() : 0;
  if (payload) {
    pkt->messages.push_back(net::MessageRef{pkt->payload_len, payload});
  }
  mux_.send_packet(std::move(pkt));
}

void UdpSocket::send_packet_to(net::Endpoint dst, net::Packet inner) {
  if (closed_) return;
  net::PooledPacket pkt = mux_.make_packet();
  pkt->src = mux_.default_source();
  pkt->dst = dst.ip;
  pkt->proto = net::Proto::kUdp;
  pkt->udp.src_port = port_;
  pkt->udp.dst_port = dst.port;
  // The inner packet is shared, not pooled: tunnel hops hold it across
  // arbitrary lifetimes and the encap path is rare (DCol VPN only).
  pkt->encapsulated = std::make_shared<const net::Packet>(std::move(inner));
  mux_.send_packet(std::move(pkt));
}

void UdpSocket::close() {
  if (closed_) return;
  closed_ = true;
  mux_.udp_unregister(port_);
}

void UdpSocket::on_packet(const net::Packet& pkt) {
  if (closed_) return;
  if (packet_handler_) {
    packet_handler_(pkt);
    return;
  }
  if (!handler_) return;
  net::PayloadPtr payload;
  for (const auto& ref : pkt.messages) {
    if (ref.message) {
      payload = ref.message;
      break;
    }
  }
  handler_(pkt.src_endpoint(), payload);
}

}  // namespace hpop::transport
