#pragma once

#include <map>
#include <set>
#include <string>

#include "net/node.hpp"
#include "telemetry/metrics.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace hpop::net {

/// RFC 4787 NAT behaviour taxonomy. Mapping behaviour controls when a new
/// public port is allocated; filtering behaviour controls which inbound
/// packets a mapping accepts. The classic "full cone" is endpoint-
/// independent mapping + filtering; "symmetric" is address-and-port-
/// dependent both ways — the case where STUN hole punching fails (§III).
enum class NatBehavior {
  kEndpointIndependent,
  kAddressDependent,
  kAddressAndPortDependent,
};

struct NatConfig {
  NatBehavior mapping = NatBehavior::kEndpointIndependent;
  NatBehavior filtering = NatBehavior::kEndpointIndependent;
  bool hairpinning = false;
  /// Whether the box honours UPnP-IGD port-mapping requests. Home routers
  /// typically do; carrier-grade NATs do not (§III).
  bool upnp_enabled = true;
  util::Duration udp_mapping_timeout = 30 * util::kSecond;
  util::Duration tcp_mapping_timeout = 2 * util::kHour;
  std::uint16_t port_pool_start = 20000;

  static NatConfig full_cone() { return {}; }
  static NatConfig restricted_cone() {
    NatConfig c;
    c.filtering = NatBehavior::kAddressDependent;
    return c;
  }
  static NatConfig port_restricted_cone() {
    NatConfig c;
    c.filtering = NatBehavior::kAddressAndPortDependent;
    return c;
  }
  static NatConfig symmetric() {
    NatConfig c;
    c.mapping = NatBehavior::kAddressAndPortDependent;
    c.filtering = NatBehavior::kAddressAndPortDependent;
    return c;
  }
  /// A typical CGN: port-restricted filtering, no UPnP.
  static NatConfig carrier_grade() {
    NatConfig c = port_restricted_cone();
    c.upnp_enabled = false;
    return c;
  }
};

/// Network address (and port) translator. Interface 0 must be the *outside*
/// (public-facing) interface; all further interfaces face inside realms.
class NatBox : public Node {
 public:
  NatBox(sim::Simulator& sim, std::string name, NatConfig config);

  void handle_packet(PooledPacket pkt, Interface& in) override;

  IpAddr public_ip() const { return interfaces().front()->addr; }
  const NatConfig& config() const { return config_; }

  /// UPnP-IGD AddPortMapping: forwards outside `external_port` to
  /// `internal`. Fails if UPnP is disabled or the port is taken. The UPnP
  /// client module wraps this in the simulated control exchange.
  util::Status add_port_mapping(Proto proto, std::uint16_t external_port,
                                Endpoint internal);
  util::Status remove_port_mapping(Proto proto, std::uint16_t external_port);

  /// Enables periodic idle-timeout eviction: every `period` the box walks
  /// its table and drops mappings whose timeout has lapsed. Without this,
  /// expiry is only checked lazily when a packet touches a mapping, so an
  /// idle mapping would pin table space forever. The sweep timer only runs
  /// while the table is non-empty (so draining the event queue still
  /// terminates).
  void enable_mapping_sweep(util::Duration period);

  /// Drops every dynamic mapping at once — the chaos model of a NAT reboot
  /// or table flush. Static (UPnP) forwards survive: deployed boxes keep
  /// them in persistent config.
  void flush_mappings();

  std::size_t mapping_count() const { return by_key_.size(); }

  struct Counters {
    std::uint64_t translated_out = 0;
    std::uint64_t translated_in = 0;
    std::uint64_t filtered = 0;     // inbound rejected by filtering rule
    std::uint64_t unmatched = 0;    // inbound with no mapping at all
    std::uint64_t hairpin = 0;
    std::uint64_t expired = 0;
    std::uint64_t flushed = 0;
  };
  const Counters& nat_counters() const { return counters_; }

 private:
  struct MappingKey {
    Proto proto = Proto::kUdp;
    Endpoint internal;
    // For address-dependent mapping: remote IP; for address-and-port-
    // dependent: remote endpoint. Unused components stay zero.
    Endpoint remote_component;

    bool operator<(const MappingKey& o) const {
      if (proto != o.proto) return proto < o.proto;
      if (internal != o.internal) return internal < o.internal;
      return remote_component < o.remote_component;
    }
  };
  struct Mapping {
    std::uint16_t public_port = 0;
    Endpoint internal;
    Proto proto = Proto::kUdp;
    /// Remote endpoints this inside host has sent to through the mapping;
    /// the filtering rule consults this set.
    std::set<Endpoint> contacted;
    util::TimePoint expires = 0;
  };

  MappingKey make_key(Proto proto, Endpoint internal, Endpoint remote) const;
  Mapping* outbound_mapping(Proto proto, Endpoint internal, Endpoint remote);
  Mapping* inbound_lookup(Proto proto, std::uint16_t public_port);
  bool filtering_allows(const Mapping& m, Endpoint remote) const;
  bool is_outside(const Interface& in) const {
    return in.index == 0;
  }
  void translate_and_forward_out(PooledPacket pkt);
  void translate_and_forward_in(PooledPacket pkt, const Mapping& m);
  util::Duration timeout_for(Proto proto) const;
  void maybe_schedule_sweep();
  void sweep_expired();
  /// Removes a mapping from the table and the port index.
  void erase_mapping(std::map<MappingKey, Mapping>::iterator it);

  NatConfig config_;
  std::map<MappingKey, Mapping> by_key_;
  std::map<std::pair<Proto, std::uint16_t>, MappingKey> by_public_port_;
  std::map<std::pair<Proto, std::uint16_t>, Endpoint> static_forwards_;
  std::uint16_t next_port_;
  util::Duration sweep_period_ = 0;  // 0: lazy expiry only
  bool sweep_scheduled_ = false;
  Counters counters_;

  // Registry handles (aggregated across all NAT boxes).
  telemetry::Counter* m_translated_;
  telemetry::Counter* m_rejected_;
  telemetry::Gauge* m_table_size_;
};

}  // namespace hpop::net
