#include "net/nat.hpp"

#include <algorithm>

#include "telemetry/trace.hpp"
#include "util/logging.hpp"

namespace hpop::net {

NatBox::NatBox(sim::Simulator& sim, std::string name, NatConfig config)
    : Node(sim, std::move(name)),
      config_(config),
      next_port_(config.port_pool_start) {
  auto& reg = telemetry::registry();
  m_translated_ = reg.counter("nat.translated");
  m_rejected_ = reg.counter("nat.rejected");
  m_table_size_ = reg.gauge("nat.table_size");
}

util::Duration NatBox::timeout_for(Proto proto) const {
  return proto == Proto::kUdp ? config_.udp_mapping_timeout
                              : config_.tcp_mapping_timeout;
}

NatBox::MappingKey NatBox::make_key(Proto proto, Endpoint internal,
                                    Endpoint remote) const {
  MappingKey key{proto, internal, {}};
  switch (config_.mapping) {
    case NatBehavior::kEndpointIndependent:
      break;
    case NatBehavior::kAddressDependent:
      key.remote_component = Endpoint{remote.ip, 0};
      break;
    case NatBehavior::kAddressAndPortDependent:
      key.remote_component = remote;
      break;
  }
  return key;
}

void NatBox::erase_mapping(std::map<MappingKey, Mapping>::iterator it) {
  by_public_port_.erase({it->second.proto, it->second.public_port});
  by_key_.erase(it);
  m_table_size_->set(static_cast<double>(by_key_.size()));
}

NatBox::Mapping* NatBox::outbound_mapping(Proto proto, Endpoint internal,
                                          Endpoint remote) {
  const MappingKey key = make_key(proto, internal, remote);
  auto it = by_key_.find(key);
  const util::TimePoint now = simulator().now();
  if (it != by_key_.end() && it->second.expires < now) {
    ++counters_.expired;
    erase_mapping(it);
    it = by_key_.end();
  }
  if (it == by_key_.end()) {
    Mapping m;
    m.proto = proto;
    m.internal = internal;
    // Skip ports held by static forwards or live mappings.
    while (static_forwards_.count({proto, next_port_}) > 0 ||
           by_public_port_.count({proto, next_port_}) > 0 || next_port_ == 0) {
      ++next_port_;
    }
    m.public_port = next_port_++;
    it = by_key_.emplace(key, std::move(m)).first;
    by_public_port_[{proto, it->second.public_port}] = key;
    m_table_size_->set(static_cast<double>(by_key_.size()));
    maybe_schedule_sweep();
  }
  it->second.contacted.insert(remote);
  it->second.expires = now + timeout_for(proto);
  return &it->second;
}

NatBox::Mapping* NatBox::inbound_lookup(Proto proto,
                                        std::uint16_t public_port) {
  const auto port_it = by_public_port_.find({proto, public_port});
  if (port_it == by_public_port_.end()) return nullptr;
  const auto it = by_key_.find(port_it->second);
  if (it == by_key_.end()) return nullptr;
  if (it->second.expires < simulator().now()) {
    ++counters_.expired;
    erase_mapping(it);
    return nullptr;
  }
  return &it->second;
}

bool NatBox::filtering_allows(const Mapping& m, Endpoint remote) const {
  switch (config_.filtering) {
    case NatBehavior::kEndpointIndependent:
      return true;
    case NatBehavior::kAddressDependent:
      for (const auto& e : m.contacted) {
        if (e.ip == remote.ip) return true;
      }
      return false;
    case NatBehavior::kAddressAndPortDependent:
      return m.contacted.count(remote) > 0;
  }
  return false;
}

void NatBox::enable_mapping_sweep(util::Duration period) {
  sweep_period_ = period;
  maybe_schedule_sweep();
}

void NatBox::maybe_schedule_sweep() {
  if (sweep_period_ <= 0 || sweep_scheduled_ || by_key_.empty()) return;
  sweep_scheduled_ = true;
  simulator().schedule(sweep_period_, [this] {
    sweep_scheduled_ = false;
    sweep_expired();
    maybe_schedule_sweep();
  });
}

void NatBox::sweep_expired() {
  const util::TimePoint now = simulator().now();
  for (auto it = by_key_.begin(); it != by_key_.end();) {
    const auto next = std::next(it);
    if (it->second.expires < now) {
      ++counters_.expired;
      erase_mapping(it);
    }
    it = next;
  }
}

void NatBox::flush_mappings() {
  counters_.flushed += by_key_.size();
  by_key_.clear();
  by_public_port_.clear();
  m_table_size_->set(0);
}

util::Status NatBox::add_port_mapping(Proto proto, std::uint16_t external_port,
                                      Endpoint internal) {
  if (!config_.upnp_enabled) {
    return util::Status::failure("upnp_disabled",
                                 name() + " does not honour UPnP");
  }
  const auto key = std::make_pair(proto, external_port);
  if (static_forwards_.count(key) > 0 || by_public_port_.count(key) > 0) {
    return util::Status::failure("port_taken", "external port in use");
  }
  static_forwards_[key] = internal;
  return util::Status::success();
}

util::Status NatBox::remove_port_mapping(Proto proto,
                                         std::uint16_t external_port) {
  if (static_forwards_.erase({proto, external_port}) == 0) {
    return util::Status::failure("not_found", "no such mapping");
  }
  return util::Status::success();
}

void NatBox::translate_and_forward_out(PooledPacket pkt) {
  const Proto proto = pkt->proto;
  const Endpoint internal = pkt->src_endpoint();
  // Traffic from an endpoint with a static forward keeps that external
  // port (otherwise replies from a UPnP-published service would leave
  // through a different port than clients connected to).
  const auto fwd = std::find_if(
      static_forwards_.begin(), static_forwards_.end(), [&](const auto& f) {
        return f.first.first == proto && f.second == internal;
      });
  const std::uint16_t port =
      fwd != static_forwards_.end()
          ? fwd->first.second
          : outbound_mapping(proto, internal, pkt->dst_endpoint())->public_port;
  pkt->src = public_ip();
  pkt->set_src_port(port);
  ++counters_.translated_out;
  m_translated_->inc();
  forward_packet(std::move(pkt));
}

void NatBox::translate_and_forward_in(PooledPacket pkt, const Mapping& m) {
  pkt->dst = m.internal.ip;
  pkt->set_dst_port(m.internal.port);
  ++counters_.translated_in;
  m_translated_->inc();
  forward_packet(std::move(pkt));
}

void NatBox::handle_packet(PooledPacket pkt, Interface& in) {
  if (--pkt->ttl <= 0) return;

  const bool from_outside = is_outside(in);
  const bool to_me = pkt->dst == public_ip();

  if (!from_outside && !to_me) {
    // Inside -> outside (or inside -> inside of a different realm, which
    // also traverses translation in deployed NATs).
    translate_and_forward_out(std::move(pkt));
    return;
  }

  if (!from_outside && to_me) {
    // Hairpin: inside host addressing the NAT's public side.
    if (!config_.hairpinning) {
      ++counters_.filtered;
      m_rejected_->inc();
      telemetry::tracer().emit(telemetry::TraceEvent::kNatMappingRejected, 0,
                               pkt->dst_port(), "hairpin_disabled");
      return;
    }
    ++counters_.hairpin;
    // Translate outbound, then loop back through inbound processing.
    Mapping* m = outbound_mapping(pkt->proto, pkt->src_endpoint(),
                                  pkt->dst_endpoint());
    pkt->src = public_ip();
    pkt->set_src_port(m->public_port);
    // Fall through to inbound handling below.
  }

  // Outside (or hairpinned) packet addressed to our public IP.
  if (pkt->dst != public_ip()) {
    // Transit traffic: a NAT is not a router for foreign destinations.
    ++counters_.unmatched;
    m_rejected_->inc();
    telemetry::tracer().emit(telemetry::TraceEvent::kNatMappingRejected, 1,
                             pkt->dst_port(), "transit");
    return;
  }
  const auto fwd = static_forwards_.find({pkt->proto, pkt->dst_port()});
  if (fwd != static_forwards_.end()) {
    pkt->dst = fwd->second.ip;
    pkt->set_dst_port(fwd->second.port);
    ++counters_.translated_in;
    forward_packet(std::move(pkt));
    return;
  }
  Mapping* m = inbound_lookup(pkt->proto, pkt->dst_port());
  if (m == nullptr) {
    ++counters_.unmatched;
    m_rejected_->inc();
    telemetry::tracer().emit(telemetry::TraceEvent::kNatMappingRejected, 1,
                             pkt->dst_port(), "no_mapping");
    HPOP_LOG(kTrace, "nat") << name() << ": no mapping for inbound port "
                            << pkt->dst_port();
    return;
  }
  if (!filtering_allows(*m, pkt->src_endpoint())) {
    ++counters_.filtered;
    m_rejected_->inc();
    telemetry::tracer().emit(telemetry::TraceEvent::kNatMappingRejected, 0,
                             pkt->dst_port(), "filtered");
    HPOP_LOG(kTrace, "nat") << name() << ": filtered inbound from "
                            << pkt->src_endpoint().to_string();
    return;
  }
  translate_and_forward_in(std::move(pkt), *m);
}

}  // namespace hpop::net
