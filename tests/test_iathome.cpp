#include <gtest/gtest.h>

#include "iathome/browsing.hpp"
#include "iathome/deepweb.hpp"
#include "iathome/prefetcher.hpp"
#include "net/topology.hpp"

namespace hpop::iathome {
namespace {

using util::kMinute;
using util::kSecond;

// ----------------------------------------------------------------- Corpus

TEST(Corpus, DeterministicForSeed) {
  CorpusConfig config;
  config.n_sites = 10;
  config.objects_per_site = 5;
  WebCorpus a(config, util::Rng(5));
  WebCorpus b(config, util::Rng(5));
  ASSERT_EQ(a.object_count(), 50u);
  for (std::size_t i = 0; i < a.object_count(); ++i) {
    EXPECT_EQ(a.object(i).size, b.object(i).size);
    EXPECT_EQ(a.object(i).change_period, b.object(i).change_period);
  }
}

TEST(Corpus, LazyVersioning) {
  CorpusConfig config;
  config.n_sites = 1;
  config.objects_per_site = 1;
  WebCorpus corpus(config, util::Rng(5));
  const auto period = corpus.object(0).change_period;
  EXPECT_EQ(corpus.version_at(0, 0), 0u);
  EXPECT_EQ(corpus.version_at(0, period - 1), 0u);
  EXPECT_EQ(corpus.version_at(0, period), 1u);
  EXPECT_EQ(corpus.version_at(0, 5 * period), 5u);
  // Different versions hash differently; same version hashes identically.
  EXPECT_EQ(corpus.body_at(0, 0).digest(),
            corpus.body_at(0, period - 1).digest());
  EXPECT_NE(corpus.body_at(0, 0).digest(),
            corpus.body_at(0, period).digest());
}

TEST(Corpus, FindParsesUrls) {
  CorpusConfig config;
  config.n_sites = 3;
  config.objects_per_site = 4;
  WebCorpus corpus(config, util::Rng(5));
  EXPECT_EQ(corpus.find("/s2/o3"), 2 * 4 + 3);
  EXPECT_EQ(corpus.find("/s0/o0"), 0);
  EXPECT_EQ(corpus.find("/s9/o0"), -1);
  EXPECT_EQ(corpus.find("/bogus"), -1);
}

TEST(Corpus, ZipfPopularityFavorsLowSites) {
  CorpusConfig config;
  config.n_sites = 50;
  WebCorpus corpus(config, util::Rng(5));
  util::Rng rng(6);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 20000; ++i) ++counts[corpus.sample_site(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[49]);
}

// ------------------------------------------------------------ HomeWeb

/// One home with an HPoP web service, a device, and the upstream Internet
/// across a WAN path.
struct HomeWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(73)};
  WebCorpus corpus;
  net::Router* core;
  net::Host* internet_host;
  net::Host* hpop_host;
  net::Host* device_host;
  std::unique_ptr<transport::TransportMux> mux_internet;
  std::unique_ptr<transport::TransportMux> mux_hpop;
  std::unique_ptr<transport::TransportMux> mux_device;
  std::unique_ptr<InternetService> internet;
  std::unique_ptr<HomeWebService> home_web;
  std::unique_ptr<http::HttpClient> device_http;

  explicit HomeWorld(HomeWebConfig config = {}, CorpusConfig cc = small())
      : corpus(cc, util::Rng(7)) {
    core = &net.add_router("core");
    internet_host = &net.add_host("internet", net.next_public_address());
    // The WAN: 40 ms RTT to the upstream server.
    net.connect(*internet_host, internet_host->address(), *core,
                net::IpAddr{},
                net::LinkParams{10 * util::kGbps, 20 * util::kMillisecond});
    hpop_host = &net.add_host("hpop", net.next_public_address());
    net.connect(*hpop_host, hpop_host->address(), *core, net::IpAddr{},
                net::LinkParams{1 * util::kGbps, 1 * util::kMillisecond});
    device_host = &net.add_host("device", net.next_public_address());
    // In-home gigabit hop to the HPoP (sub-millisecond).
    net.connect(*device_host, device_host->address(), *hpop_host,
                hpop_host->address(),
                net::LinkParams{1 * util::kGbps, 100 * util::kMicrosecond});
    net.auto_route();

    mux_internet = std::make_unique<transport::TransportMux>(*internet_host);
    mux_hpop = std::make_unique<transport::TransportMux>(*hpop_host);
    mux_device = std::make_unique<transport::TransportMux>(*device_host);
    internet = std::make_unique<InternetService>(*mux_internet, corpus, 80);
    home_web = std::make_unique<HomeWebService>(
        *mux_hpop, config, net::Endpoint{internet_host->address(), 80});
    device_http = std::make_unique<http::HttpClient>(*mux_device);
  }

  static CorpusConfig small() {
    CorpusConfig cc;
    cc.n_sites = 5;
    cc.objects_per_site = 4;
    cc.deep_fraction = 0.0;
    return cc;
  }

  /// Device-side fetch through the HPoP; returns (status, latency_ms).
  std::pair<int, double> device_get(const std::string& url) {
    http::Request req;
    req.path = std::string(HomeWebService::kPrefix) + url;
    int status = 0;
    const util::TimePoint start = sim.now();
    util::TimePoint done = 0;
    device_http->fetch(home_web->endpoint(), std::move(req),
                       [&](util::Result<http::Response> r) {
                         status = r.ok() ? r.value().status : -1;
                         done = sim.now();
                       });
    sim.run_until(sim.now() + 30 * kSecond);
    return {status, util::to_millis(done - start)};
  }
};

TEST(HomeWeb, MissThenHitLatencyCollapse) {
  HomeWorld w;
  const auto [status1, miss_ms] = w.device_get("/s0/o0");
  ASSERT_EQ(status1, 200);
  EXPECT_GT(miss_ms, 40.0);  // paid the WAN round trip

  const auto [status2, hit_ms] = w.device_get("/s0/o0");
  ASSERT_EQ(status2, 200);
  // §IV-D: the local copy turns WAN latency into LAN latency.
  EXPECT_LT(hit_ms, 10.0);
  EXPECT_EQ(w.home_web->stats().local_hits, 1u);
}

TEST(HomeWeb, RevalidatePolicyUses304) {
  HomeWebConfig config;
  config.freshness = FreshnessPolicy::kRevalidateOnAccess;
  CorpusConfig cc = HomeWorld::small();
  cc.max_age_s = 1;  // expires almost immediately
  HomeWorld w(config, cc);
  ASSERT_EQ(w.device_get("/s0/o0").first, 200);
  w.sim.run_until(w.sim.now() + 5 * kSecond);  // entry now stale
  const auto before_304 = w.internet->stats().not_modified;
  ASSERT_EQ(w.device_get("/s0/o0").first, 200);
  // Object unchanged upstream: the conditional GET got a 304.
  EXPECT_EQ(w.internet->stats().not_modified, before_304 + 1);
}

TEST(HomeWeb, PrefetchKeepsTrackedUrlsFresh) {
  HomeWebConfig config;
  config.aggressiveness = 1.0;  // track everything observed
  config.prefetch_scan_interval = 10 * kSecond;
  CorpusConfig cc = HomeWorld::small();
  cc.max_age_s = 30;
  HomeWorld w(config, cc);
  w.home_web->start();
  // Device touches a URL once; the prefetcher should keep refreshing it.
  ASSERT_EQ(w.device_get("/s1/o2").first, 200);
  w.sim.run_until(w.sim.now() + 10 * kMinute);
  EXPECT_GE(w.home_web->tracked(), 1u);
  EXPECT_GT(w.home_web->stats().prefetch_fetches, 5u);
  // And an access long after the first still hits locally.
  const auto [status, ms] = w.device_get("/s1/o2");
  EXPECT_EQ(status, 200);
  EXPECT_LT(ms, 10.0);
}

TEST(HomeWeb, AggressivenessZeroMeansNoPrefetch) {
  HomeWebConfig config;
  config.aggressiveness = 0.0;
  config.prefetch_scan_interval = 10 * kSecond;
  HomeWorld w(config);
  w.home_web->start();
  ASSERT_EQ(w.device_get("/s1/o2").first, 200);
  w.sim.run_until(w.sim.now() + 10 * kMinute);
  EXPECT_EQ(w.home_web->stats().prefetch_fetches, 0u);
}

TEST(HomeWeb, SubscriptionPrefetchesWithoutAccess) {
  HomeWebConfig config;
  config.prefetch_scan_interval = 10 * kSecond;
  HomeWorld w(config);
  w.home_web->start();
  w.home_web->subscribe("/s3/o1");
  w.sim.run_until(w.sim.now() + kMinute);
  EXPECT_GT(w.home_web->stats().prefetch_fetches, 0u);
  // First device access is already a local hit.
  const auto [status, ms] = w.device_get("/s3/o1");
  EXPECT_EQ(status, 200);
  EXPECT_LT(ms, 10.0);
}

TEST(HomeWeb, DemandSmoothingDefersRefreshes) {
  HomeWebConfig fast;
  fast.aggressiveness = 1.0;
  fast.prefetch_scan_interval = 5 * kSecond;
  HomeWebConfig smoothed = fast;
  smoothed.demand_smoothing = true;
  // Tight budget: below even the 304-revalidation traffic, so the deficit
  // shaper must defer refreshes.
  smoothed.smoothing_rate_bytes_per_s = 256;

  CorpusConfig cc = HomeWorld::small();
  cc.max_age_s = 5;  // rapid churn: lots of refresh pressure
  HomeWorld w_fast(fast, cc);
  HomeWorld w_smooth(smoothed, cc);
  for (auto* w : {&w_fast, &w_smooth}) {
    w->home_web->start();
    for (int s = 0; s < 5; ++s) {
      for (int o = 0; o < 4; ++o) {
        ASSERT_EQ(w->device_get("/s" + std::to_string(s) + "/o" +
                                std::to_string(o))
                      .first,
                  200);
      }
    }
    w->sim.run_until(w->sim.now() + 10 * kMinute);
  }
  // The smoothed prefetcher made (far) fewer upstream fetches per unit
  // time because the token bucket spread them out.
  EXPECT_LT(w_smooth.home_web->stats().prefetch_fetches,
            w_fast.home_web->stats().prefetch_fetches);
}

// ------------------------------------------------------------- Deep web

TEST(DeepWeb, CredentialsUnlockDeepContent) {
  CorpusConfig cc = HomeWorld::small();
  cc.deep_fraction = 1.0;  // everything requires credentials
  HomeWorld w(HomeWebConfig{}, cc);
  w.internet->add_credential("alice-password");

  // Without the vault: 401.
  EXPECT_EQ(w.device_get("/s0/o0").first, 401);

  // Store the credential in the HPoP's vault; now the fetch succeeds.
  CredentialVault vault(*w.home_web);
  for (int s = 0; s < 5; ++s) vault.store(s, "alice-password");
  EXPECT_EQ(w.device_get("/s0/o1").first, 200);
  EXPECT_EQ(w.internet->stats().unauthorized, 1u);
}

TEST(DeepWeb, TickerTriggerSubscribesFromAtticDocs) {
  HomeWorld w;
  attic::AtticStore store;
  const http::Body tax("W2 income ... TICKER:ACME and TICKER:GLOBEX ...");
  ASSERT_TRUE(store.put("/documents/tax-2026.txt", tax, 0).ok());
  ASSERT_TRUE(
      store.put("/documents/unrelated.txt", http::Body("no symbols here"), 0)
          .ok());

  AtticTriggerEngine engine(w.sim, store, *w.home_web);
  engine.register_trigger(make_ticker_trigger(
      "/documents",
      {{"ACME", "/s2/o0"}, {"GLOBEX", "/s2/o1"}, {"INITECH", "/s2/o2"}}));
  const int added = engine.scan_now();
  EXPECT_EQ(added, 2);  // ACME + GLOBEX; INITECH not mentioned
  w.sim.run_until(w.sim.now() + kMinute);
  // The subscribed quotes are now locally fresh.
  const auto [status, ms] = w.device_get("/s2/o0");
  EXPECT_EQ(status, 200);
  EXPECT_LT(ms, 10.0);
  // Re-scan adds nothing new.
  EXPECT_EQ(engine.scan_now(), 0);
}

// ------------------------------------------------------------ Coop cache

TEST(Coop, OwnerPartitionDedupsUpstreamFetches) {
  // Two homes on one aggregation router; both touch the same URL. With
  // the cooperative cache the neighbourhood fetches it upstream once.
  sim::Simulator sim;
  net::Network net(sim, util::Rng(79));
  CorpusConfig cc = HomeWorld::small();
  WebCorpus corpus(cc, util::Rng(7));
  net::Router& agg = net.add_router("agg");
  net::Router& core = net.add_router("core");
  net.connect(agg, net::IpAddr{}, core, net::IpAddr{},
              net::LinkParams{10 * util::kGbps, 1 * util::kMillisecond});
  net::Host& internet_host = net.add_host("internet",
                                          net.next_public_address());
  net.connect(internet_host, internet_host.address(), core, net::IpAddr{},
              net::LinkParams{10 * util::kGbps, 20 * util::kMillisecond});
  net::Host& hpop1 = net.add_host("hpop1", net.next_public_address());
  net::Host& hpop2 = net.add_host("hpop2", net.next_public_address());
  net.connect(hpop1, hpop1.address(), agg, net::IpAddr{},
              net::LinkParams{1 * util::kGbps, 1 * util::kMillisecond});
  net.connect(hpop2, hpop2.address(), agg, net::IpAddr{},
              net::LinkParams{1 * util::kGbps, 1 * util::kMillisecond});
  net.auto_route();

  transport::TransportMux mux_internet(internet_host);
  transport::TransportMux mux1(hpop1);
  transport::TransportMux mux2(hpop2);
  InternetService internet(mux_internet, corpus, 80);
  HomeWebService web1(mux1, HomeWebConfig{},
                      {internet_host.address(), 80});
  HomeWebService web2(mux2, HomeWebConfig{},
                      {internet_host.address(), 80});
  auto coop = std::make_shared<CoopDirectory>();
  coop->add_member(web1.endpoint());
  coop->add_member(web2.endpoint());
  web1.join_coop(coop, 0);
  web2.join_coop(coop, 1);

  http::HttpClient client1(mux1);
  http::HttpClient client2(mux2);
  auto get_via = [&](http::HttpClient& client, HomeWebService& web,
                     const std::string& url) {
    http::Request req;
    req.path = std::string(HomeWebService::kPrefix) + url;
    int status = 0;
    client.fetch(web.endpoint(), std::move(req),
                 [&](util::Result<http::Response> r) {
                   status = r.ok() ? r.value().status : -1;
                 });
    sim.run_until(sim.now() + 10 * kSecond);
    return status;
  };

  ASSERT_EQ(get_via(client1, web1, "/s0/o0"), 200);
  ASSERT_EQ(get_via(client2, web2, "/s0/o0"), 200);
  // One upstream retrieval total — the second home got it laterally.
  EXPECT_EQ(internet.stats().requests, 1u);
  EXPECT_EQ(web1.stats().coop_hits + web2.stats().coop_hits, 1u);
}

// ------------------------------------------------------------- Browsing

TEST(Browsing, GeneratesDiurnalPageViews) {
  HomeWorld w;
  BrowsingConfig config;
  config.mean_think_time = 30 * kSecond;
  config.via_hpop = true;
  UserDevice user(*w.mux_device, w.corpus, config, w.home_web->endpoint(),
                  {w.internet_host->address(), 80}, util::Rng(11));
  user.start();
  // Start at hour 19 (simulated evening) for high activity.
  w.sim.run_until(19 * util::kHour);
  const auto views_before = user.stats().page_views;
  w.sim.run_until(21 * util::kHour);
  EXPECT_GT(user.stats().page_views, views_before + 50);
  EXPECT_GT(user.stats().objects_fetched, user.stats().page_views);
  EXPECT_EQ(user.stats().failures, 0u);
  user.stop();
}

TEST(Browsing, NightIsQuieterThanEvening) {
  HomeWorld w;
  BrowsingConfig config;
  config.mean_think_time = 20 * kSecond;
  UserDevice user(*w.mux_device, w.corpus, config, w.home_web->endpoint(),
                  {w.internet_host->address(), 80}, util::Rng(11));
  user.start();
  w.sim.run_until(2 * util::kHour);
  const auto night_views = user.stats().page_views;  // hours 0-2
  w.sim.run_until(19 * util::kHour);
  const auto before_evening = user.stats().page_views;
  w.sim.run_until(21 * util::kHour);
  const auto evening_views = user.stats().page_views - before_evening;
  EXPECT_GT(evening_views, 3 * night_views);
}

}  // namespace
}  // namespace hpop::iathome
