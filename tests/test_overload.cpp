#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "hpop/appliance.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "net/topology.hpp"
#include "nocdn/loader.hpp"
#include "nocdn/origin.hpp"
#include "nocdn/peer.hpp"
#include "overload/admission.hpp"
#include "overload/breaker.hpp"
#include "telemetry/metrics.hpp"

namespace hpop {
namespace {

using http::Method;
using http::Request;
using http::Response;
using http::ResponseWriter;
using net::PathParams;
using overload::AdmissionConfig;
using overload::AdmissionController;
using overload::BreakerConfig;
using overload::CircuitBreaker;
using overload::Class;
using overload::ShedReason;
using util::kMillisecond;
using util::kSecond;

// ------------------------------------------------- Admission primitives

TEST(Admission, RateLimitShedsWithRetryAfter) {
  sim::Simulator sim;
  AdmissionConfig config;
  config.rate = 1.0;
  config.burst = 2.0;
  AdmissionController ac(sim, "test.rate", config);

  int ran = 0, shed = 0;
  util::Duration last_hint = 0;
  for (int i = 0; i < 5; ++i) {
    ac.submit(
        Class::kThirdParty, [&] { ran++; },
        [&](ShedReason reason, util::Duration retry_after) {
          EXPECT_EQ(reason, ShedReason::kRateLimited);
          last_hint = retry_after;
          shed++;
        });
  }
  EXPECT_EQ(ran, 2);   // burst of 2 tokens
  EXPECT_EQ(shed, 3);
  EXPECT_GT(last_hint, 0);  // refill ETA, not a blind guess
  EXPECT_EQ(ac.stats().shed_rate, 3u);

  // Tokens refill with simulated time.
  sim.run_until(2 * kSecond);
  bool admitted_later = false;
  ac.submit(Class::kThirdParty, [&] { admitted_later = true; },
            [](ShedReason, util::Duration) { FAIL() << "should admit"; });
  EXPECT_TRUE(admitted_later);
}

TEST(Admission, ConcurrencyCapQueuesAndDrainsInOrder) {
  sim::Simulator sim;
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queue = 8;
  AdmissionController ac(sim, "test.conc", config);

  std::vector<int> order;
  ac.submit(Class::kOwner, [&] { order.push_back(0); },
            [](ShedReason, util::Duration) { FAIL(); });
  ac.submit(Class::kOwner, [&] { order.push_back(1); },
            [](ShedReason, util::Duration) { FAIL(); });
  ac.submit(Class::kOwner, [&] { order.push_back(2); },
            [](ShedReason, util::Duration) { FAIL(); });
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(ac.in_flight(), 1);
  EXPECT_EQ(ac.queue_depth(), 2u);

  ac.release();  // finishes 0 -> admits 1
  ac.release();  // finishes 1 -> admits 2
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  ac.release();
  EXPECT_EQ(ac.in_flight(), 0);
  EXPECT_EQ(ac.stats().queued, 2u);
}

TEST(Admission, QueueBoundSheds) {
  sim::Simulator sim;
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queue = 1;
  AdmissionController ac(sim, "test.qbound", config);

  int shed = 0;
  const auto noshed = [](ShedReason, util::Duration) { FAIL(); };
  ac.submit(Class::kOwner, [] {}, noshed);  // running
  ac.submit(Class::kOwner, [] {}, noshed);  // queued
  ac.submit(Class::kOwner, [] {},
            [&](ShedReason reason, util::Duration) {
              EXPECT_EQ(reason, ShedReason::kQueueFull);
              shed++;
            });
  EXPECT_EQ(shed, 1);
  EXPECT_EQ(ac.stats().shed_queue_full, 1u);
}

TEST(Admission, DeadlineShedsStaleQueuedWork) {
  sim::Simulator sim;
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.queue_deadline = 500 * kMillisecond;
  AdmissionController ac(sim, "test.deadline", config);

  bool ran_first = false;
  int deadline_sheds = 0;
  ac.submit(Class::kOwner, [&] { ran_first = true; },
            [](ShedReason, util::Duration) { FAIL(); });
  ac.submit(Class::kOwner, [] { FAIL() << "stale work must not run"; },
            [&](ShedReason reason, util::Duration) {
              EXPECT_EQ(reason, ShedReason::kDeadline);
              deadline_sheds++;
            });
  EXPECT_TRUE(ran_first);
  // Nobody releases; the queued unit goes stale and is shed on time.
  sim.run_until(2 * kSecond);
  EXPECT_EQ(deadline_sheds, 1);
  EXPECT_EQ(ac.stats().shed_deadline, 1u);
  EXPECT_EQ(ac.queue_depth(), 0u);
}

TEST(Admission, OwnerPreemptsQueuedBackground) {
  sim::Simulator sim;
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queue = 2;
  AdmissionController ac(sim, "test.preempt", config);

  const auto noshed = [](ShedReason, util::Duration) { FAIL(); };
  int preempted = 0;
  bool owner_ran = false;
  ac.submit(Class::kOwner, [] {}, noshed);  // occupies the slot
  ac.submit(Class::kBackground, [] {}, noshed);
  ac.submit(Class::kBackground, [] { FAIL() << "evicted work must not run"; },
            [&](ShedReason reason, util::Duration) {
              EXPECT_EQ(reason, ShedReason::kPreempted);
              preempted++;
            });
  // Queue is full of background work; an owner arrival evicts the newest
  // background entry instead of being turned away.
  ac.submit(Class::kOwner, [&] { owner_ran = true; }, noshed);
  EXPECT_EQ(preempted, 1);
  EXPECT_EQ(ac.stats().shed_preempted, 1u);

  ac.release();  // owner outranks the remaining background entry
  EXPECT_TRUE(owner_ran);
}

TEST(Admission, CriticalBypassesRateAndQueue) {
  sim::Simulator sim;
  AdmissionConfig config;
  config.rate = 0.001;  // effectively zero
  config.burst = 0.0;
  config.max_concurrent = 1;
  config.max_queue = 0;
  AdmissionController ac(sim, "test.critical", config);

  // Drain the bucket's one-token floor so non-critical work is starved.
  EXPECT_TRUE(ac.try_admit_instant(Class::kThirdParty));
  EXPECT_FALSE(ac.try_admit_instant(Class::kThirdParty));

  int ran = 0;
  for (int i = 0; i < 5; ++i) {
    ac.submit(Class::kCritical, [&] { ran++; },
              [](ShedReason, util::Duration) { FAIL(); });
  }
  EXPECT_EQ(ran, 5);
  for (int i = 0; i < 5; ++i) ac.release();
  EXPECT_TRUE(ac.try_admit_instant(Class::kCritical));
  EXPECT_FALSE(ac.try_admit_instant(Class::kThirdParty));
}

TEST(Admission, TryAdmitInstantReportsRefillTime) {
  sim::Simulator sim;
  AdmissionConfig config;
  config.rate = 2.0;
  config.burst = 1.0;
  AdmissionController ac(sim, "test.instant", config);

  EXPECT_TRUE(ac.try_admit_instant(Class::kThirdParty));
  util::Duration hint = 0;
  EXPECT_FALSE(ac.try_admit_instant(Class::kThirdParty, &hint));
  EXPECT_GT(hint, 0);
  EXPECT_LE(hint, kSecond);  // one token at 2/s refills within 500ms
}

// ----------------------------------------------------- Circuit breaker

TEST(Breaker, TripsAtFailureRateAndFastFails) {
  BreakerConfig config;
  config.window = 8;
  config.min_samples = 4;
  config.failure_threshold = 0.5;
  config.open_for = 5 * kSecond;
  config.jitter = 0.0;
  CircuitBreaker br(config);

  util::TimePoint now = 0;
  br.record_success(now);
  br.record_failure(now);
  br.record_failure(now);
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
  br.record_failure(now);  // 3 of 4 >= 50%: trip
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.stats().trips, 1u);
  EXPECT_FALSE(br.allow(now + kSecond));
  EXPECT_GE(br.stats().fast_fails, 1u);
}

TEST(Breaker, HalfOpenProbeRecoversOrReopens) {
  BreakerConfig config;
  config.window = 4;
  config.min_samples = 2;
  config.open_for = kSecond;
  config.jitter = 0.0;
  config.half_open_probes = 1;

  {  // probe succeeds -> closed
    CircuitBreaker br(config);
    br.record_failure(0);
    br.record_failure(0);
    ASSERT_EQ(br.state(), CircuitBreaker::State::kOpen);
    EXPECT_TRUE(br.allow(2 * kSecond));  // open window lapsed: probe
    EXPECT_EQ(br.state(), CircuitBreaker::State::kHalfOpen);
    EXPECT_FALSE(br.allow(2 * kSecond));  // single probe slot consumed
    br.record_success(2 * kSecond + 100 * kMillisecond);
    EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
    EXPECT_TRUE(br.allow(2 * kSecond + 200 * kMillisecond));
  }
  {  // probe fails -> open again
    CircuitBreaker br(config);
    br.record_failure(0);
    br.record_failure(0);
    EXPECT_TRUE(br.allow(2 * kSecond));
    br.record_failure(2 * kSecond + 100 * kMillisecond);
    EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
    EXPECT_FALSE(br.allow(2 * kSecond + 500 * kMillisecond));
  }
}

TEST(Breaker, WouldAllowDoesNotConsumeProbes) {
  BreakerConfig config;
  config.window = 4;
  config.min_samples = 2;
  config.open_for = kSecond;
  config.jitter = 0.0;
  CircuitBreaker br(config);
  br.record_failure(0);
  br.record_failure(0);
  EXPECT_FALSE(br.would_allow(500 * kMillisecond));
  EXPECT_TRUE(br.would_allow(2 * kSecond));
  EXPECT_TRUE(br.would_allow(2 * kSecond));  // preview is repeatable
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);  // no transition
  EXPECT_TRUE(br.allow(2 * kSecond));  // the real call takes the slot
  EXPECT_FALSE(br.allow(2 * kSecond));
}

TEST(Breaker, ForceOpenHoldsAtLeastTheHint) {
  CircuitBreaker br;
  br.force_open(0, 30 * kSecond);
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(br.allow(29 * kSecond));
  EXPECT_TRUE(br.allow(31 * kSecond));
}

TEST(Breaker, JitterIsDeterministicAcrossSameSeedRuns) {
  BreakerConfig config;
  config.window = 4;
  config.min_samples = 2;
  config.open_for = 10 * kSecond;
  config.jitter = 0.3;

  util::Rng rng_a(77), rng_b(77), rng_c(78);
  CircuitBreaker a(config, &rng_a), b(config, &rng_b), c(config, &rng_c);
  for (CircuitBreaker* br : {&a, &b, &c}) {
    br->record_failure(0);
    br->record_failure(0);
  }
  EXPECT_EQ(a.open_until(), b.open_until());  // same seed: same jitter
  EXPECT_NE(a.open_until(), c.open_until());  // different seed: different
  EXPECT_GE(a.open_until(), 7 * kSecond);     // within [0.7, 1.0] * open_for
  EXPECT_LE(a.open_until(), 10 * kSecond);
}

// ----------------------------------------------- Server-side integration

struct OverloadHttpFixture {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(21)};
  net::TwoHostPath path;
  std::unique_ptr<transport::TransportMux> mux_client;
  std::unique_ptr<transport::TransportMux> mux_server;
  std::unique_ptr<http::HttpClient> client;
  std::unique_ptr<http::HttpServer> server;

  OverloadHttpFixture() {
    path = net::make_two_host_path(net, PathParams{}, PathParams{});
    mux_client = std::make_unique<transport::TransportMux>(*path.a);
    mux_server = std::make_unique<transport::TransportMux>(*path.b);
    client = std::make_unique<http::HttpClient>(*mux_client);
    server = std::make_unique<http::HttpServer>(*mux_server, 80);
  }
  net::Endpoint server_ep() const { return {path.b->address(), 80}; }
};

TEST(ServerAdmission, ShedsWith429AndRetryAfterHeader) {
  OverloadHttpFixture f;
  AdmissionConfig config;
  config.rate = 1.0;
  config.burst = 2.0;
  AdmissionController ac(f.sim, "test.server", config);
  f.server->set_admission(&ac);
  f.server->route(Method::kGet, "/",
                  [](const Request&, ResponseWriter& w) {
                    w.respond(Response{});
                  });

  int ok = 0, shed = 0;
  bool saw_retry_after = false;
  for (int i = 0; i < 6; ++i) {
    Request req;
    req.path = "/x";
    f.client->fetch(f.server_ep(), std::move(req),
                    [&](util::Result<Response> r) {
                      ASSERT_TRUE(r.ok());
                      if (r.value().status == 429) {
                        shed++;
                        if (http::retry_after(r.value().headers)) {
                          saw_retry_after = true;
                        }
                      } else if (r.value().ok()) {
                        ok++;
                      }
                    });
  }
  f.sim.run_until(5 * kSecond);
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(shed, 4);
  EXPECT_TRUE(saw_retry_after);
  EXPECT_EQ(f.server->stats().shed, 4u);
  EXPECT_EQ(ac.stats().shed_rate, 4u);
}

TEST(ServerAdmission, PipeliningOrderSurvivesSheds) {
  // A shed response still occupies its pipeline slot: responses must come
  // back in request order even when some requests are refused instantly
  // and others run handlers.
  OverloadHttpFixture f;
  AdmissionConfig config;
  config.rate = 1.0;
  config.burst = 1.0;
  AdmissionController ac(f.sim, "test.order", config);
  f.server->set_admission(&ac);
  f.server->route(Method::kGet, "/",
                  [](const Request& req, ResponseWriter& w) {
                    Response resp;
                    resp.body = http::Body("ok " + req.path);
                    w.respond(std::move(resp));
                  });

  std::vector<int> statuses;
  for (int i = 0; i < 4; ++i) {
    Request req;
    req.path = "/" + std::to_string(i);
    f.client->fetch(f.server_ep(), std::move(req),
                    [&](util::Result<Response> r) {
                      ASSERT_TRUE(r.ok());
                      statuses.push_back(r.value().status);
                    });
  }
  f.sim.run_until(5 * kSecond);
  ASSERT_EQ(statuses.size(), 4u);
  EXPECT_EQ(statuses[0], 200);  // burst token
  EXPECT_EQ(statuses[1], 429);
  EXPECT_EQ(statuses[2], 429);
  EXPECT_EQ(statuses[3], 429);
}

TEST(ServerAdmission, ClassifierProtectsCriticalTraffic) {
  OverloadHttpFixture f;
  AdmissionConfig config;
  config.rate = 0.001;  // shed essentially everything...
  config.burst = 0.0;
  AdmissionController ac(f.sim, "test.crit", config);
  f.server->set_admission(&ac, [](const Request& req) {
    return req.path.rfind("/health", 0) == 0 ? Class::kCritical
                                             : Class::kThirdParty;
  });
  f.server->route(Method::kGet, "/",
                  [](const Request&, ResponseWriter& w) {
                    w.respond(Response{});
                  });

  int health_ok = 0, other_shed = 0;
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.path = "/health/ping";
    f.client->fetch(f.server_ep(), std::move(req),
                    [&](util::Result<Response> r) {
                      if (r.ok() && r.value().ok()) health_ok++;
                    });
    Request other;
    other.path = "/content";
    f.client->fetch(f.server_ep(), std::move(other),
                    [&](util::Result<Response> r) {
                      if (r.ok() && r.value().status == 429) other_shed++;
                    });
  }
  f.sim.run_until(5 * kSecond);
  EXPECT_EQ(health_ok, 3);  // ...except the critical class
  // The bucket's one-token floor lets exactly one /content through.
  EXPECT_EQ(other_shed, 2);
}

// ----------------------------------------------- Client-side integration

TEST(ClientOverload, RetryHonorsRetryAfter) {
  OverloadHttpFixture f;
  int hits = 0;
  f.server->route(Method::kGet, "/flaky",
                  [&](const Request&, ResponseWriter& w) {
                    Response resp;
                    if (++hits == 1) {
                      resp.status = 503;
                      http::set_retry_after(resp.headers, 2 * kSecond);
                    }
                    w.respond(std::move(resp));
                  });

  http::FetchOptions options;
  options.retry = util::RetryPolicy{3, 100 * kMillisecond, 2.0, 0.0,
                                    kSecond, 0};
  options.retry_on_overload = true;

  util::TimePoint finished = 0;
  int final_status = 0;
  Request req;
  req.path = "/flaky";
  f.client->fetch(f.server_ep(), std::move(req),
                  [&](util::Result<Response> r) {
                    ASSERT_TRUE(r.ok());
                    final_status = r.value().status;
                    finished = f.sim.now();
                  },
                  options);
  f.sim.run_until(10 * kSecond);
  EXPECT_EQ(final_status, 200);
  EXPECT_EQ(hits, 2);
  // The local backoff would retry after ~100ms; Retry-After stretched it.
  EXPECT_GE(finished, 2 * kSecond);
  EXPECT_EQ(f.client->stats().overload_retries, 1u);
}

TEST(ClientOverload, NonIdempotentRequestsAreNotRetried) {
  OverloadHttpFixture f;
  int hits = 0;
  f.server->route(Method::kPost, "/submit",
                  [&](const Request&, ResponseWriter& w) {
                    ++hits;
                    Response resp;
                    resp.status = 503;
                    http::set_retry_after(resp.headers, kSecond);
                    w.respond(std::move(resp));
                  });

  http::FetchOptions options;
  options.retry = util::RetryPolicy{3, 100 * kMillisecond, 2.0, 0.0,
                                    kSecond, 0};
  options.retry_on_overload = true;

  int final_status = 0;
  Request req;
  req.method = Method::kPost;
  req.path = "/submit";
  f.client->fetch(f.server_ep(), std::move(req),
                  [&](util::Result<Response> r) {
                    ASSERT_TRUE(r.ok());
                    final_status = r.value().status;
                  },
                  options);
  f.sim.run_until(10 * kSecond);
  // A response WAS received; replaying the POST could duplicate its side
  // effect, so the 503 surfaces to the caller instead.
  EXPECT_EQ(final_status, 503);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(f.client->stats().overload_retries, 0u);
}

TEST(ClientOverload, BreakerStopsHammeringASheddingServer) {
  OverloadHttpFixture f;
  f.server->route(Method::kGet, "/",
                  [](const Request&, ResponseWriter& w) {
                    Response resp;
                    resp.status = 503;
                    w.respond(std::move(resp));
                  });
  BreakerConfig config;
  config.window = 4;
  config.min_samples = 2;
  config.failure_threshold = 0.5;
  config.open_for = 60 * kSecond;
  config.jitter = 0.0;
  f.client->enable_breakers(config);

  int circuit_open_errors = 0;
  for (int i = 0; i < 10; ++i) {
    f.sim.schedule(i * 500 * kMillisecond, [&] {
      Request req;
      req.path = "/x";
      f.client->fetch(f.server_ep(), std::move(req),
                      [&](util::Result<Response> r) {
                        if (!r.ok() && r.error().code == "circuit_open") {
                          circuit_open_errors++;
                        }
                      });
    });
  }
  f.sim.run_until(30 * kSecond);
  // Two 503s trip the circuit; the remaining fetches fast-fail locally and
  // the struggling server sees no further requests.
  EXPECT_EQ(f.server->stats().requests, 2u);
  EXPECT_EQ(circuit_open_errors, 8);
  EXPECT_EQ(f.client->stats().fast_fails, 8u);
  const CircuitBreaker* br = f.client->breaker(f.server_ep());
  ASSERT_NE(br, nullptr);
  EXPECT_EQ(br->state(), CircuitBreaker::State::kOpen);
}

// ------------------------------- Flash crowd + chaos composition (e2e)

/// Origin + two NoCDN peers + four loader clients. The hot peer has
/// admission control; a flash crowd stampedes it while the ChaosController
/// crashes it mid-crowd. Loads must keep completing (alternates + origin
/// fallback), shed counts must be visible, and two same-seed runs must be
/// byte-identical.
struct FlashOutcome {
  int loads_done = 0;
  int loads_succeeded = 0;
  std::uint64_t peer_sheds = 0;
  fault::ChaosController::Stats faults;
  std::string telemetry_jsonl;
};

FlashOutcome run_flash_chaos_scenario() {
  const telemetry::Snapshot before = telemetry::registry().snapshot();
  FlashOutcome out;

  sim::Simulator sim;
  net::Network net{sim, util::Rng(71)};
  net::Router& core = net.add_router("core");
  net::Host& origin_host = net.add_host("origin", net.next_public_address());
  net.connect(origin_host, origin_host.address(), core, net::IpAddr{},
              net::LinkParams{1 * util::kGbps, 20 * kMillisecond});

  struct PeerSlot {
    net::Host* host = nullptr;
    std::unique_ptr<transport::TransportMux> mux;
    std::unique_ptr<nocdn::PeerProxy> proxy;
    std::uint64_t id = 0;
    int index = 0;
  };
  std::array<PeerSlot, 2> peers;
  for (int i = 0; i < 2; ++i) {
    peers[i].index = i;
    peers[i].host = &net.add_host("peer-" + std::to_string(i),
                                  net.next_public_address());
    net.connect(*peers[i].host, peers[i].host->address(), core, net::IpAddr{},
                net::LinkParams{100 * util::kMbps, 5 * kMillisecond});
  }

  constexpr int kClients = 4;
  std::vector<net::Host*> client_hosts;
  for (int i = 0; i < kClients; ++i) {
    client_hosts.push_back(&net.add_host("client-" + std::to_string(i),
                                         net.next_public_address()));
    net.connect(*client_hosts.back(), client_hosts.back()->address(), core,
                net::IpAddr{},
                net::LinkParams{1 * util::kGbps, 8 * kMillisecond});
  }
  net.auto_route();

  auto mux_origin = std::make_unique<transport::TransportMux>(origin_host);
  nocdn::OriginConfig oconfig;
  oconfig.provider = "nytimes";
  oconfig.alternates_per_object = 1;
  auto origin = std::make_unique<nocdn::OriginServer>(*mux_origin, oconfig,
                                                      util::Rng(99));

  auto build_peer = [&](PeerSlot& peer) {
    peer.mux = std::make_unique<transport::TransportMux>(*peer.host);
    peer.proxy = std::make_unique<nocdn::PeerProxy>(
        *peer.mux, 8080, util::Rng(1000 + peer.index));
    AdmissionConfig admission;
    admission.rate = 30.0;
    admission.burst = 8.0;
    peer.proxy->enable_admission(admission);
    if (peer.id != 0) {
      peer.proxy->signup({"nytimes", peer.id, {origin_host.address(), 80}});
    }
  };
  for (auto& peer : peers) {
    build_peer(peer);
    peer.id = origin->recruit_peer(peer.proxy->endpoint());
    peer.proxy->signup({"nytimes", peer.id, {origin_host.address(), 80}});
  }

  nocdn::PageSpec page;
  page.path = "/news";
  page.container_url = "/news/index.html";
  origin->add_object({page.container_url,
                      http::Body::synthetic(30 * 1024, 0xC0)});
  for (int i = 0; i < 3; ++i) {
    const std::string url = "/news/obj" + std::to_string(i);
    page.embedded_urls.push_back(url);
    origin->add_object(
        {url, http::Body::synthetic((80 + 30 * i) * 1024,
                                    0xE0 + static_cast<unsigned>(i))});
  }
  origin->add_page(page);

  struct ClientSlot {
    std::unique_ptr<transport::TransportMux> mux;
    std::unique_ptr<http::HttpClient> http;
    std::unique_ptr<nocdn::LoaderClient> loader;
  };
  std::vector<ClientSlot> clients(kClients);
  BreakerConfig bconfig;
  bconfig.window = 8;
  bconfig.min_samples = 4;
  bconfig.open_for = 3 * kSecond;
  for (int i = 0; i < kClients; ++i) {
    clients[static_cast<std::size_t>(i)].mux =
        std::make_unique<transport::TransportMux>(*client_hosts[
            static_cast<std::size_t>(i)]);
    clients[static_cast<std::size_t>(i)].http =
        std::make_unique<http::HttpClient>(
            *clients[static_cast<std::size_t>(i)].mux,
            util::Rng(7000 + static_cast<std::uint64_t>(i)));
    clients[static_cast<std::size_t>(i)].http->enable_breakers(bconfig);
    clients[static_cast<std::size_t>(i)].loader =
        std::make_unique<nocdn::LoaderClient>(
            *clients[static_cast<std::size_t>(i)].http,
            net::Endpoint{origin_host.address(), 80}, "nytimes");
  }

  // Chaos: the first peer crashes mid-crowd and comes back later.
  fault::ChaosController chaos(sim, util::Rng(2027));
  chaos.register_node(
      peers[0].host->name(), peers[0].host,
      [&] {
        peers[0].proxy.reset();
        peers[0].mux.reset();
      },
      [&] { build_peer(peers[0]); });
  chaos.crash_at(peers[0].host->name(), 4 * kSecond, 6 * kSecond);

  // The stampede: every client loads the page repeatedly.
  constexpr int kLoadsPerClient = 5;
  for (int c = 0; c < kClients; ++c) {
    // Each load schedules a copy of itself: no closure owns itself.
    const auto next = [&, c](const auto& self, int remaining) -> void {
      clients[static_cast<std::size_t>(c)].loader->load_page(
          "/news", [&, remaining, self](nocdn::PageLoadResult r) {
            ++out.loads_done;
            if (r.success) ++out.loads_succeeded;
            if (remaining > 1) {
              sim.schedule(kSecond, [self, remaining] {
                self(self, remaining - 1);
              });
            }
          });
    };
    sim.schedule((1 + c) * 100 * kMillisecond, [next] {
      next(next, kLoadsPerClient);
    });
  }

  sim.run_until(120 * kSecond);
  for (const auto& peer : peers) {
    if (peer.proxy && peer.proxy->admission()) {
      out.peer_sheds += peer.proxy->admission()->total_shed();
    }
  }
  out.faults = chaos.stats();
  out.telemetry_jsonl = telemetry::to_jsonl(telemetry::MetricsRegistry::delta(
      before, telemetry::registry().snapshot()));
  return out;
}

TEST(OverloadChaos, FlashCrowdSurvivesPeerCrash) {
  const FlashOutcome out = run_flash_chaos_scenario();
  EXPECT_EQ(out.faults.crashes, 1u);
  EXPECT_EQ(out.faults.restarts, 1u);
  EXPECT_EQ(out.loads_done, 20);
  // Degraded, not down: alternates and origin fallback absorb both the
  // sheds and the crash.
  EXPECT_EQ(out.loads_succeeded, out.loads_done);
}

TEST(OverloadChaos, SameSeedFlashCrowdRunsAreByteIdentical) {
  const FlashOutcome first = run_flash_chaos_scenario();
  const FlashOutcome second = run_flash_chaos_scenario();
  ASSERT_FALSE(first.telemetry_jsonl.empty());
  EXPECT_EQ(first.telemetry_jsonl, second.telemetry_jsonl);
  EXPECT_EQ(first.loads_succeeded, second.loads_succeeded);
  EXPECT_EQ(first.peer_sheds, second.peer_sheds);
}

}  // namespace
}  // namespace hpop
