#include "nocdn/peer.hpp"

#include <sstream>

#include "util/encoding.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace hpop::nocdn {

PeerProxy::PeerProxy(transport::TransportMux& mux, std::uint16_t port,
                     util::Rng rng, PeerBehavior behavior)
    : mux_(mux),
      port_(port),
      rng_(rng),
      behavior_(behavior),
      server_(mux, port),
      client_(mux),
      cache_(256ull << 20) {
  auto& reg = telemetry::registry();
  m_requests_ = reg.counter("nocdn.peer.requests");
  m_bytes_served_ = reg.counter("nocdn.peer.bytes_served");
  m_records_received_ = reg.counter("nocdn.peer.records_received");
  m_usage_evicted_ = reg.counter("nocdn.peer.usage_evicted");
}

void PeerProxy::enable_admission(overload::AdmissionConfig config) {
  admission_ = std::make_unique<overload::AdmissionController>(
      mux_.simulator(), "nocdn.peer", config);
  server_.set_admission(
      admission_.get(), [](const http::Request& req) {
        // Content GETs are third-party serving work — the load admission
        // protects the uplink from. Usage-record uploads are small
        // bookkeeping POSTs that can always wait.
        return req.method == http::Method::kPost
                   ? overload::Class::kBackground
                   : overload::Class::kThirdParty;
      });
}

net::Endpoint PeerProxy::endpoint() const {
  return {mux_.host().address(), port_};
}

void PeerProxy::signup(ProviderSignup signup) {
  const std::string provider = signup.provider;
  signups_.insert_or_assign(provider, std::move(signup));
  install_routes(provider);
}

void PeerProxy::install_routes(const std::string& provider) {
  // Reverse-proxy GETs for this provider's vhost.
  server_.vhost_route(
      provider, http::Method::kGet, "/",
      [this, provider](const http::Request& req, http::ResponseWriter& w) {
        serve(*signups_.find(provider), req, w);
      });
  // Clients deliver their signed usage records here (Fig. 2 final step).
  server_.vhost_route(
      provider, http::Method::kPost, "/nocdn/usage",
      [this, provider](const http::Request& req, http::ResponseWriter& w) {
        bool durable = true;
        if (req.body.is_real()) {
          const auto record = parse_usage_line(req.body.text());
          if (record.ok()) {
            ++stats_.records_received;
            m_records_received_->inc();
            durable = accept_usage(provider, record.value());
          }
        }
        http::Response resp;
        // 503, not 204, when the WAL barrier failed: the claim is not
        // durable and must not be acked (the client retries the POST).
        resp.status = durable ? 204 : 503;
        w.respond(std::move(resp));
      });
}

void PeerProxy::respond_from(const ProviderSignup& signup,
                             const http::Request& req,
                             http::ResponseWriter w, http::Response resp) {
  (void)signup;
  if (resp.status == 200 && behavior_.corrupt_content) {
    resp.body = resp.body.corrupted();
  }
  // Honour range requests against the (possibly cached full) body.
  if (resp.status == 200) {
    if (const auto range = http::parse_range(req.headers, resp.body.size())) {
      resp.status = 206;
      resp.body = resp.body.slice(range->first, range->second);
    }
  }
  stats_.bytes_served += resp.wire_size();
  m_bytes_served_->inc(resp.wire_size());
  if (behavior_.extra_delay > 0) {
    auto writer = std::make_shared<http::ResponseWriter>(w);
    mux_.simulator().schedule(
        behavior_.extra_delay,
        [writer, resp = std::move(resp)]() mutable {
          writer->respond(std::move(resp));
        });
    return;
  }
  w.respond(std::move(resp));
}

void PeerProxy::serve(const ProviderSignup& signup, const http::Request& req,
                      http::ResponseWriter w) {
  ++stats_.requests;
  m_requests_->inc();
  if (behavior_.drop_rate > 0.0 && rng_.bernoulli(behavior_.drop_rate)) {
    ++stats_.dropped;
    http::Response resp;
    resp.status = 503;
    w.respond(std::move(resp));
    return;
  }

  const std::string cache_key =
      http::HttpCache::key(signup.provider, req.path);
  if (const auto* entry =
          cache_.lookup_fresh(cache_key, mux_.simulator().now())) {
    ++stats_.cache_hits;
    respond_from(signup, req, w, entry->response);
    return;
  }
  ++stats_.cache_misses;

  // Fetch the FULL object from the origin (cacheable), then satisfy the
  // client's (possibly ranged) request from it.
  http::Request upstream;
  upstream.method = http::Method::kGet;
  upstream.path = "/obj" + req.path;
  auto writer = std::make_shared<http::ResponseWriter>(w);
  client_.fetch(
      signup.origin, std::move(upstream),
      [this, signup, req, writer, cache_key](
          util::Result<http::Response> result) {
        http::Response resp;
        if (!result.ok()) {
          resp.status = 502;
          writer->respond(std::move(resp));
          return;
        }
        resp = result.value();
        if (resp.status == 200) {
          cache_.store(cache_key, resp, mux_.simulator().now());
        }
        respond_from(signup, req, *writer, std::move(resp));
      });
}

bool PeerProxy::accept_usage(const std::string& provider, UsageRecord record) {
  auto& pending = pending_usage_[provider];
  if (pending.size() >= kMaxPendingUsage) {
    pending.erase(pending.begin());
    ++stats_.usage_evicted;
    if (!replaying_) m_usage_evicted_->inc();
  }
  if (wal_ != nullptr && !replaying_) {
    durable::PayloadWriter w;
    w.put_string(provider);
    w.put_string(serialize_usage_line(record));
    wal_->append(kWalUsage, w.take());
  }
  pending.push_back(std::move(record));
  if (wal_ != nullptr && !replaying_) return wal_->sync();
  return true;
}

void PeerProxy::apply_record(const durable::WalRecord& rec) {
  durable::PayloadReader r(rec.payload);
  switch (rec.type) {
    case kWalUsage: {
      std::string provider, line;
      if (!r.get_string(provider) || !r.get_string(line)) return;
      const auto record = parse_usage_line(line);
      if (record.ok()) accept_usage(provider, record.value());
      return;
    }
    case kWalFlush: {
      std::string provider;
      if (!r.get_string(provider)) return;
      if (auto* pending = pending_usage_.find(provider)) pending->clear();
      return;
    }
    case durable::kSnapshotRecordType:
      restore_state(rec.payload);
      return;
    default:
      return;
  }
}

durable::Wal::RecoveryStats PeerProxy::recover_from_wal(durable::Wal& wal) {
  pending_usage_.clear();
  wal_ = &wal;
  replaying_ = true;
  const auto stats =
      wal.recover([this](const durable::WalRecord& rec) { apply_record(rec); });
  replaying_ = false;
  return stats;
}

bool PeerProxy::compact_wal() {
  if (wal_ == nullptr) return false;
  return wal_->compact(serialize_state());
}

util::Bytes PeerProxy::serialize_state() const {
  durable::PayloadWriter w;
  std::uint32_t providers = 0;
  for (const auto& [provider, records] : pending_usage_) {
    (void)provider;
    (void)records;
    ++providers;
  }
  w.put_u32(providers);
  for (const auto& [provider, records] : pending_usage_) {
    w.put_string(provider.str());
    w.put_u32(static_cast<std::uint32_t>(records.size()));
    for (const UsageRecord& r : records) w.put_string(serialize_usage_line(r));
  }
  return w.take();
}

bool PeerProxy::restore_state(const util::Bytes& payload) {
  pending_usage_.clear();
  durable::PayloadReader r(payload);
  std::uint32_t providers = 0;
  if (!r.get_u32(providers)) return false;
  for (std::uint32_t i = 0; i < providers; ++i) {
    std::string provider;
    std::uint32_t count = 0;
    if (!r.get_string(provider) || !r.get_u32(count)) return false;
    auto& pending = pending_usage_[provider];
    for (std::uint32_t j = 0; j < count; ++j) {
      std::string line;
      if (!r.get_string(line)) return false;
      const auto record = parse_usage_line(line);
      if (!record.ok()) return false;
      pending.push_back(record.value());
    }
  }
  return true;
}

std::uint64_t PeerProxy::fingerprint() const {
  util::Fnv1a fnv{util::Fnv1a::kLegacyBasis};
  auto mix_str = [&fnv](std::string_view s) {
    // The length goes in as one whole word, not byte by byte as
    // Fnv1a::str would mix it.
    fnv.h = (fnv.h ^ s.size()) * util::Fnv1a::kPrime;
    fnv.bytes(s.data(), s.size());
  };
  for (const auto& [provider, records] : pending_usage_) {
    mix_str(provider.str());
    for (const UsageRecord& r : records) mix_str(serialize_usage_line(r));
  }
  return fnv.h;
}

std::size_t PeerProxy::pending_usage_count() const {
  std::size_t n = 0;
  for (const auto& [provider, records] : pending_usage_) {
    (void)provider;
    n += records.size();
  }
  return n;
}

void PeerProxy::start_usage_uploads(util::Duration interval) {
  upload_timer_ = mux_.simulator().schedule(interval, [this, interval] {
    upload_usage_now();
    start_usage_uploads(interval);
  });
}

void PeerProxy::upload_usage_now() {
  for (auto& [provider, records] : pending_usage_) {
    if (records.empty()) continue;
    const ProviderSignup& signup = *signups_.find(provider);
    std::ostringstream body;
    for (const UsageRecord& r : records) {
      if (behavior_.inflate_factor != 1.0) {
        // Inflate the claim. The peer cannot re-sign (it never sees the
        // short-term key), so the origin's signature check catches this.
        UsageRecord inflated = r;
        inflated.bytes_served = static_cast<std::uint64_t>(
            static_cast<double>(r.bytes_served) * behavior_.inflate_factor);
        body << serialize_usage_line(inflated) << "\n";
      } else {
        body << serialize_usage_line(r) << "\n";
      }
      if (behavior_.replay_records) {
        body << serialize_usage_line(r) << "\n";
      }
    }
    records.clear();
    if (wal_ != nullptr) {
      durable::PayloadWriter w;
      w.put_string(signup.provider);
      wal_->append(kWalFlush, w.take());
      wal_->sync();
    }
    http::Request req;
    req.method = http::Method::kPost;
    req.path = "/usage";
    req.body = http::Body(body.str());
    client_.fetch(signup.origin, std::move(req),
                  [](util::Result<http::Response>) {});
  }
}

}  // namespace hpop::nocdn
