#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "attic/store.hpp"
#include "iathome/prefetcher.hpp"

namespace hpop::iathome {

/// §IV-D "Deep Web Content": "the HPoP will hold user credentials so it
/// can copy deep web content ... providing these to a device in a user's
/// own house and ultimately under their control is much more palatable."
/// The vault maps corpus sites to credentials and installs them into the
/// HomeWebService so its gathering can authenticate.
class CredentialVault {
 public:
  explicit CredentialVault(HomeWebService& service) : service_(service) {}

  void store(int site, const std::string& credential) {
    credentials_[site] = credential;
    service_.add_credential(site, credential);
  }
  std::size_t size() const { return credentials_.size(); }

 private:
  HomeWebService& service_;
  std::map<int, std::string> credentials_;
};

/// §IV-D "Leveraging the Data Attic": "a generic modular framework such
/// that many forms of information within the data attic can trigger data
/// collection." A trigger inspects the attic and yields URLs worth
/// maintaining locally; the engine periodically re-runs all triggers and
/// subscribes any new URLs on the HomeWebService.
class AtticTriggerEngine {
 public:
  using Trigger =
      std::function<std::vector<std::string>(const attic::AtticStore&)>;

  AtticTriggerEngine(sim::Simulator& sim, const attic::AtticStore& store,
                     HomeWebService& service)
      : sim_(sim), store_(store), service_(service) {}

  void register_trigger(Trigger trigger) {
    triggers_.push_back(std::move(trigger));
  }
  void start(util::Duration scan_interval = 10 * util::kMinute);
  /// One synchronous pass (also called by the periodic scan).
  int scan_now();

 private:
  sim::Simulator& sim_;
  const attic::AtticStore& store_;
  HomeWebService& service_;
  std::vector<Trigger> triggers_;
  std::set<std::string> subscribed_;
};

/// The paper's worked example: "by gathering stock ticker symbols from tax
/// documents the HPoP can maintain fresh stock quotes." Scans files under
/// `scan_dir` for "TICKER:<sym>" markers and maps each symbol through
/// `symbol_to_url`.
AtticTriggerEngine::Trigger make_ticker_trigger(
    std::string scan_dir,
    std::map<std::string, std::string> symbol_to_url);

}  // namespace hpop::iathome
