#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "http/server.hpp"
#include "nocdn/accounting.hpp"
#include "nocdn/object.hpp"
#include "nocdn/selection.hpp"
#include "overload/admission.hpp"
#include "util/symbol_map.hpp"

namespace hpop::nocdn {

struct OriginConfig {
  std::string provider;           // e.g. "nytimes"
  std::uint16_t port = 80;
  util::Duration key_validity = 5 * util::kMinute;
  /// Objects split into this many range chunks across distinct peers;
  /// 1 = whole objects (§IV-B "Leveraging Redundancy").
  int chunks_per_object = 1;
  PaymentModel payment = PaymentModel::kPerByte;
  std::string selector = "random";
  /// Cache lifetime peers may assume for objects.
  std::int64_t object_max_age_s = 3600;
  /// Backup peers listed per whole-object assignment so the loader can
  /// fail over without a wrapper round-trip when the primary is dead.
  int alternates_per_object = 2;
  /// Overload admission (off by default). Under pressure the origin
  /// degrades to wrapper-only service: the small dynamic pages that
  /// delegate delivery to peers are the last thing shed, direct object
  /// serves go first, and accounting uploads are background.
  std::optional<overload::AdmissionConfig> admission;
};

/// A content provider's origin site running NoCDN (§IV-B, Fig. 2). Serves:
///   GET  /page/<name>  -> dynamically generated wrapper page
///   GET  /loader.js    -> the (cacheable) loader script
///   GET  /obj/<url>    -> the object itself (peers on miss; clients on
///                         fallback after a failed verification)
///   POST /usage        -> signed usage-record batches from peers
///   POST /report       -> client reports of peer misbehaviour
class OriginServer {
 public:
  OriginServer(transport::TransportMux& mux, OriginConfig config,
               util::Rng rng);

  /// Content management.
  void add_object(WebObject object);
  void add_page(PageSpec page);

  /// Peer recruitment ("content providers recruit well-connected users").
  std::uint64_t recruit_peer(net::Endpoint endpoint);
  void set_rtt_oracle(
      std::function<double(std::uint64_t peer, net::Endpoint client)> oracle) {
    rtt_oracle_ = std::move(oracle);
  }

  Ledger& ledger() { return ledger_; }
  const std::map<std::uint64_t, PeerView>& peers() const { return peers_; }
  double peer_trust(std::uint64_t peer_id) const;

  struct Stats {
    std::uint64_t wrapper_pages = 0;
    std::uint64_t objects_served = 0;   // direct serves (misses/fallbacks)
    std::uint64_t bytes_served = 0;     // total origin bytes incl. wrappers
    std::uint64_t usage_batches = 0;
    std::uint64_t misbehaviour_reports = 0;
  };
  const Stats& stats() const { return stats_; }
  const http::HttpServer& http() const { return server_; }
  overload::AdmissionController* admission() { return admission_.get(); }

  static constexpr std::size_t kLoaderScriptSize = 18 * 1024;

 private:
  void install_routes();
  http::Response make_wrapper(const std::string& page_path,
                              net::Endpoint client);
  std::vector<PeerView> candidates(net::Endpoint client);

  transport::TransportMux& mux_;
  OriginConfig config_;
  util::Rng rng_;
  http::HttpServer server_;
  std::unique_ptr<overload::AdmissionController> admission_;
  std::unique_ptr<PeerSelector> selector_;
  /// Catalog and page specs, Symbol-keyed (URLs are matched
  /// case-insensitively, like the rest of the stack): a metro-scale origin
  /// carries a six-figure catalog, where std::map's node-per-entry heap
  /// layout and string keys were the single largest origin allocation.
  util::SymbolMap<WebObject> objects_;
  util::SymbolMap<PageSpec> pages_;
  std::map<std::uint64_t, PeerView> peers_;
  std::function<double(std::uint64_t, net::Endpoint)> rtt_oracle_;
  Ledger ledger_;
  std::uint64_t next_peer_id_ = 1;
  std::uint64_t next_key_id_ = 1;
  std::uint64_t next_nonce_base_ = 1;
  Stats stats_;

  // Registry handle (aggregated across all origins).
  telemetry::Counter* m_bytes_served_;
};

}  // namespace hpop::nocdn
