#include "hpop/appliance.hpp"

#include "util/hash.hpp"
#include "util/logging.hpp"

namespace hpop::core {

Hpop::Hpop(net::Host& host, HpopConfig config)
    : host_(host),
      config_(std::move(config)),
      mux_(host),
      http_server_(mux_, config_.service_port),
      http_client_(mux_),
      tokens_(config_.secret),
      reachability_(mux_, [this] {
        traversal::ReachabilityConfig rc = config_.reachability;
        rc.service_port = config_.service_port;
        return rc;
      }()) {
  if (config_.admission) {
    admission_ = std::make_unique<overload::AdmissionController>(
        simulator(), "hpop.front", *config_.admission);
    http_server_.set_admission(
        admission_.get(), [](const http::Request& req) {
          // Provider health-record writes must never bounce: the provider
          // fires them and forgets, and a lost record is a lost record.
          if (req.method == http::Method::kPut &&
              req.path.rfind("/attic/records/", 0) == 0) {
            return overload::Class::kCritical;
          }
          // Owner-scoped capabilities mark household traffic.
          if (const auto header = req.headers.get("x-capability")) {
            const auto cap = TokenAuthority::decode(*header);
            if (cap.ok() && cap.value().scope == "/") {
              return overload::Class::kOwner;
            }
          }
          return overload::Class::kThirdParty;
        });
  }
  // A friendly landing page, so "is my HPoP up?" has an answer.
  http_server_.route(http::Method::kGet, "/",
                     [this](const http::Request&, http::ResponseWriter& w) {
                       http::Response resp;
                       std::string body =
                           "HPoP for household '" + config_.household + "'\n";
                       for (const auto& [name, desc] : services_) {
                         body += std::string(name.str()) + ": " + desc + "\n";
                       }
                       resp.body = http::Body(body);
                       w.respond(std::move(resp));
                     });
}

void Hpop::boot(BootCallback cb) {
  reachability_.establish([this, cb](const traversal::Advertisement& adv) {
    online_ = adv.method != traversal::ReachMethod::kUnreachable;
    if (config_.directory && online_) {
      registration_ = std::make_unique<DirectoryRegistration>(
          mux_, &directory_ring_,
          std::vector<net::Endpoint>{*config_.directory}, config_.household,
          DirRegistrationConfig{},
          util::Rng(util::Fnv1a{}.str(config_.household).h), &reachability_);
      registration_->register_advertisement(adv);
    }
    HPOP_LOG(kInfo, "hpop") << config_.household << " online via "
                            << traversal::to_string(adv.method);
    if (cb) cb(adv);
  });
}

void Hpop::register_service(const std::string& name,
                            const std::string& description) {
  services_[name] = description;
}

}  // namespace hpop::core
