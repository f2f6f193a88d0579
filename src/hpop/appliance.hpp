#pragma once

#include <memory>
#include <string>

#include "hpop/auth.hpp"
#include "hpop/dir_cluster.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "overload/admission.hpp"
#include "traversal/reachability.hpp"
#include "util/symbol_map.hpp"

namespace hpop::core {

struct HpopConfig {
  std::string household;
  std::uint16_t service_port = 443;
  util::Bytes secret = util::to_bytes("household-secret");
  traversal::ReachabilityConfig reachability;
  /// The directory to register with at boot. The appliance keeps its
  /// lease renewed and re-registers after a directory restart.
  std::optional<net::Endpoint> directory;
  /// Front-door overload admission (off by default). When set, requests
  /// bearing an owner-scoped capability outrank third-party traffic, and
  /// provider health-record writes (PUT /attic/records/...) are critical —
  /// they are never shed, per the §IV-A promise that the attic is the
  /// durable home for a patient's records.
  std::optional<overload::AdmissionConfig> admission;
};

/// The home point of presence (§II-III): an always-on appliance in the home
/// network that maintains a fixed Internet presence for the household and
/// hosts its services — the attic, NoCDN peer, DCol waypoint and
/// Internet@home all attach to one of these.
///
/// Owns the host's transport stack, an HTTP(S) front door on the service
/// port, the reachability machinery (UPnP -> STUN -> TURN), directory
/// registration, and the capability-token authority.
class Hpop {
 public:
  Hpop(net::Host& host, HpopConfig config);

  /// Boot sequence: establish reachability, register with the directory,
  /// then report how the appliance is reachable.
  using BootCallback = std::function<void(const traversal::Advertisement&)>;
  void boot(BootCallback cb = nullptr);

  /// Services register themselves for introspection; route installation
  /// happens directly on http_server().
  void register_service(const std::string& name,
                        const std::string& description);
  /// Registered services, in registration order.
  const util::SymbolMap<std::string>& services() const { return services_; }

  const std::string& household() const { return config_.household; }
  net::Host& host() { return host_; }
  sim::Simulator& simulator() { return host_.simulator(); }
  transport::TransportMux& mux() { return mux_; }
  http::HttpServer& http_server() { return http_server_; }
  http::HttpClient& http_client() { return http_client_; }
  TokenAuthority& tokens() { return tokens_; }
  traversal::ReachabilityManager& reachability() { return reachability_; }
  const traversal::Advertisement& advertisement() const {
    return reachability_.advertisement();
  }
  std::uint16_t service_port() const { return config_.service_port; }
  bool online() const { return online_; }
  overload::AdmissionController* admission() { return admission_.get(); }

 private:
  net::Host& host_;
  HpopConfig config_;
  transport::TransportMux mux_;
  http::HttpServer http_server_;
  http::HttpClient http_client_;
  TokenAuthority tokens_;
  std::unique_ptr<overload::AdmissionController> admission_;
  traversal::ReachabilityManager reachability_;
  HashRing directory_ring_{1};  // config_.directory is a one-shard ring
  std::unique_ptr<DirectoryRegistration> registration_;
  util::SymbolMap<std::string> services_;
  bool online_ = false;
};

}  // namespace hpop::core
