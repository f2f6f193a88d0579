#include <gtest/gtest.h>

#include "durable/device.hpp"
#include "durable/wal.hpp"
#include "fault/fault.hpp"
#include "hpop/appliance.hpp"
#include "hpop/dir_cluster.hpp"
#include "net/topology.hpp"
#include "util/encoding.hpp"

namespace hpop::core {
namespace {

using util::kDay;
using util::kSecond;

// ----------------------------------------------------------- Capabilities

TEST(Tokens, IssueAndVerify) {
  TokenAuthority authority(util::to_bytes("secret"));
  const Capability cap =
      authority.issue("smith-family", "/records/clinic", true, kDay);
  EXPECT_TRUE(authority.verify(cap, "/records/clinic/visit1", true, 0).ok());
  EXPECT_TRUE(authority.verify(cap, "/records/clinic", false, 0).ok());
}

TEST(Tokens, ScopeEnforced) {
  TokenAuthority authority(util::to_bytes("secret"));
  const Capability cap =
      authority.issue("smith-family", "/records/clinic", true, kDay);
  const auto status = authority.verify(cap, "/photos/cat.jpg", false, 0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "out_of_scope");
}

TEST(Tokens, ReadOnlyEnforced) {
  TokenAuthority authority(util::to_bytes("secret"));
  const Capability cap = authority.issue("h", "/shared", false, kDay);
  EXPECT_TRUE(authority.verify(cap, "/shared/doc", false, 0).ok());
  EXPECT_EQ(authority.verify(cap, "/shared/doc", true, 0).error().code,
            "read_only");
}

TEST(Tokens, ExpiryEnforced) {
  TokenAuthority authority(util::to_bytes("secret"));
  const Capability cap = authority.issue("h", "/", true, 100 * kSecond);
  EXPECT_TRUE(authority.verify(cap, "/x", true, 99 * kSecond).ok());
  EXPECT_EQ(authority.verify(cap, "/x", true, 101 * kSecond).error().code,
            "expired");
}

TEST(Tokens, RevocationBySerial) {
  TokenAuthority authority(util::to_bytes("secret"));
  const Capability keep = authority.issue("h", "/", true, kDay);
  const Capability revoke = authority.issue("h", "/", true, kDay);
  authority.revoke(revoke.serial);
  EXPECT_TRUE(authority.verify(keep, "/x", true, 0).ok());
  EXPECT_EQ(authority.verify(revoke, "/x", true, 0).error().code, "revoked");
}

TEST(Tokens, ForgeryDetected) {
  TokenAuthority authority(util::to_bytes("secret"));
  Capability cap = authority.issue("h", "/mine", false, kDay);
  cap.scope = "/";  // privilege escalation attempt
  EXPECT_EQ(authority.verify(cap, "/anything", false, 0).error().code,
            "bad_signature");
  // A different household's authority cannot mint valid tokens either.
  TokenAuthority other(util::to_bytes("other-secret"));
  const Capability foreign = other.issue("h", "/", true, kDay);
  EXPECT_FALSE(authority.verify(foreign, "/x", true, 0).ok());
}

TEST(Tokens, EncodeDecodeRoundTrip) {
  TokenAuthority authority(util::to_bytes("secret"));
  const Capability cap =
      authority.issue("smith-family", "/records/dr-jones", true,
                      123456789 * kSecond);
  const auto decoded = TokenAuthority::decode(TokenAuthority::encode(cap));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().household, cap.household);
  EXPECT_EQ(decoded.value().scope, cap.scope);
  EXPECT_EQ(decoded.value().allow_write, cap.allow_write);
  EXPECT_EQ(decoded.value().expires, cap.expires);
  EXPECT_EQ(decoded.value().serial, cap.serial);
  EXPECT_TRUE(authority.verify(decoded.value(), "/records/dr-jones/a", true,
                               0)
                  .ok());
}

TEST(Tokens, DecodeRejectsGarbage) {
  EXPECT_FALSE(TokenAuthority::decode("!!!not-base64!!!").ok());
  EXPECT_FALSE(TokenAuthority::decode(
                   util::base64_encode(util::to_bytes("a|b")))
                   .ok());
}

// ----------------------------------------------------- Directory + boot

/// A device's client of one directory server: a one-shard ring.
DirectoryClient one_directory_client(transport::TransportMux& mux,
                                     net::Endpoint directory) {
  static const HashRing ring(1);
  return DirectoryClient(mux, &ring, {directory}, DirClientConfig{},
                         util::Rng(1));
}

/// Resolves `household` and runs `sim` 2 s forward; "ok" or an error code.
std::string resolve_code(sim::Simulator& sim, DirectoryClient& client,
                         const std::string& household) {
  std::string code = "no_reply";
  client.lookup(household, [&](util::Result<traversal::Advertisement> r) {
    code = r.ok() ? "ok" : r.error().code;
  });
  sim.run_until(sim.now() + 2 * kSecond);
  return code;
}

/// Connects to `household`'s HPoP and asks it for its landing page, which
/// lands in `landing`; a failed connect leaves its code in `error`.
void fetch_landing_page(DirectoryClient& client, const std::string& household,
                        std::string& landing, std::string& error) {
  client.connect(
      household,
      [&](util::Result<std::shared_ptr<transport::TcpConnection>> r) {
        if (!r.ok()) {
          error = r.error().code;
          return;
        }
        auto conn = r.value();
        conn->set_on_message([&, conn](net::PayloadPtr msg) {
          if (const auto resp =
                  std::dynamic_pointer_cast<const http::ResponsePayload>(
                      msg)) {
            landing = resp->response.body.text();
          }
        });
        http::Request req;
        req.path = "/";
        // Raw request over the established connection (the device-side
        // HttpClient pools by endpoint; here the endpoint may be punched,
        // so we reuse the rendezvous connection directly).
        conn->send(std::make_shared<http::RequestPayload>(std::move(req)));
      });
}

/// The HPoP's side of traversal: the home's gateway, and STUN, TURN and
/// the reflector on `infra`.
traversal::ReachabilityConfig reachability_via(const net::Home& home,
                                               const net::Host& infra) {
  traversal::ReachabilityConfig rc;
  rc.home_gateway = home.nat;
  rc.stun_server = net::Endpoint{infra.address(), 3478};
  rc.turn_server = net::Endpoint{infra.address(), 3479};
  rc.reflector = net::Endpoint{infra.address(), 7100};
  return rc;
}

/// A port-restricted NAT without UPnP: the HPoP punches, and a device
/// needs a rendezvous to reach it.
net::NatConfig punch_nat() {
  auto c = net::NatConfig::port_restricted_cone();
  c.upnp_enabled = false;
  return c;
}

/// A world with a directory + traversal infrastructure on one public host,
/// an HPoP home behind a configurable NAT, and a roaming device (two when
/// asked: the second is built after everything else, so the one-device
/// world is unchanged).
struct HpopWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(47)};
  net::Router* core;
  net::Host* infra;
  net::Host* device;
  net::Home home;
  std::unique_ptr<transport::TransportMux> mux_infra;
  std::unique_ptr<transport::TransportMux> mux_device;
  std::unique_ptr<traversal::StunServer> stun;
  std::unique_ptr<traversal::TurnServer> turn;
  std::unique_ptr<traversal::Reflector> reflector;
  std::unique_ptr<DirectoryServer> directory;
  std::unique_ptr<Hpop> hpop;
  net::Host* device2 = nullptr;
  std::unique_ptr<transport::TransportMux> mux_device2;

  explicit HpopWorld(net::NatConfig nat_config, bool second_device = false) {
    core = &net.add_router("core");
    infra = &net.add_host("infra", net.next_public_address());
    net.connect(*infra, infra->address(), *core, net::IpAddr{},
                net::LinkParams{10 * util::kGbps, 5 * util::kMillisecond});
    device = &net.add_host("device", net.next_public_address());
    net.connect(*device, device->address(), *core, net::IpAddr{},
                net::LinkParams{100 * util::kMbps, 15 * util::kMillisecond});
    home = net::make_home(net, "home", *core, 1, nat_config,
                          net::PathParams{});
    if (second_device) {
      device2 = &net.add_host("device2", net.next_public_address());
      net.connect(*device2, device2->address(), *core, net::IpAddr{},
                  net::LinkParams{100 * util::kMbps, 15 * util::kMillisecond});
    }
    net.auto_route();

    mux_infra = std::make_unique<transport::TransportMux>(*infra);
    mux_device = std::make_unique<transport::TransportMux>(*device);
    stun = std::make_unique<traversal::StunServer>(*mux_infra, 3478);
    turn = std::make_unique<traversal::TurnServer>(*mux_infra, 3479);
    reflector = std::make_unique<traversal::Reflector>(*mux_infra, 7100);
    directory = std::make_unique<DirectoryServer>(*mux_infra, 5300);

    HpopConfig config;
    config.household = "smith-family";
    config.reachability = reachability_via(home, *infra);
    config.directory = net::Endpoint{infra->address(), 5300};
    hpop = std::make_unique<Hpop>(*home.hosts[0], config);
    if (second_device) {
      mux_device2 = std::make_unique<transport::TransportMux>(*device2);
    }
  }

  DirectoryClient client(transport::TransportMux& mux) {
    return one_directory_client(mux, {infra->address(), 5300});
  }
};

TEST(Directory, LookupUnknownHouseholdFails) {
  HpopWorld w(net::NatConfig::full_cone());
  DirectoryClient client = w.client(*w.mux_device);
  std::string code;
  client.lookup("nobody", [&](util::Result<traversal::Advertisement> r) {
    code = r.error().code;
  });
  w.sim.run_until(5 * kSecond);
  EXPECT_EQ(code, "not_found");
}

TEST(Directory, BootRegistersAndLookupFinds) {
  HpopWorld w(net::NatConfig::full_cone());
  w.hpop->boot();
  w.sim.run_until(30 * kSecond);
  EXPECT_TRUE(w.hpop->online());
  EXPECT_EQ(w.directory->registered(), 1u);

  DirectoryClient client = w.client(*w.mux_device);
  std::optional<traversal::Advertisement> adv;
  client.lookup("smith-family",
                [&](util::Result<traversal::Advertisement> r) {
                  ASSERT_TRUE(r.ok());
                  adv = r.value();
                });
  w.sim.run_until(40 * kSecond);
  ASSERT_TRUE(adv.has_value());
  EXPECT_EQ(adv->method, traversal::ReachMethod::kUpnp);
  EXPECT_EQ(adv->endpoint.ip, w.home.nat->public_ip());
}

struct ConnectCase {
  net::NatConfig nat;
  const char* label;
};

class ConnectFromAnywhere : public ::testing::TestWithParam<ConnectCase> {};

TEST_P(ConnectFromAnywhere, DeviceReachesHpopLandingPage) {
  HpopWorld w(GetParam().nat);
  w.hpop->boot();
  w.sim.run_until(30 * kSecond);
  ASSERT_TRUE(w.hpop->online()) << GetParam().label;

  DirectoryClient client = w.client(*w.mux_device);
  std::string landing, error;
  fetch_landing_page(client, "smith-family", landing, error);
  w.sim.run_until(90 * kSecond);
  EXPECT_EQ(error, "") << GetParam().label;
  EXPECT_NE(landing.find("smith-family"), std::string::npos)
      << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    NatTypes, ConnectFromAnywhere,
    ::testing::Values(
        ConnectCase{net::NatConfig::full_cone(), "upnp"},
        ConnectCase{punch_nat(), "stun-punch"},
        ConnectCase{[] {
                      auto c = net::NatConfig::symmetric();
                      c.upnp_enabled = false;
                      return c;
                    }(),
                    "turn-relay"}));

TEST(Directory, BootedApplianceOutlivesItsFirstLease) {
  // The directory grants an hour by default; the appliance renews at
  // half-lease, so it still resolves two hours after boot.
  HpopWorld w(net::NatConfig::full_cone());
  w.hpop->boot();
  w.sim.run_until(2 * util::kHour);
  DirectoryClient client = w.client(*w.mux_device);
  EXPECT_EQ(resolve_code(w.sim, client, "smith-family"), "ok");
}

TEST(Directory, SimultaneousRendezvousBothConnect) {
  // Both devices' clients number their txns from 1, so the two rendezvous
  // requests carry the same txn: the directory's relay ids keep them apart.
  HpopWorld w(punch_nat(), /*second_device=*/true);
  w.hpop->boot();
  w.sim.run_until(30 * kSecond);
  ASSERT_TRUE(w.hpop->advertisement().rendezvous_required);

  DirectoryClient a = w.client(*w.mux_device);
  DirectoryClient b = w.client(*w.mux_device2);
  std::string landing_a, error_a, landing_b, error_b;
  fetch_landing_page(a, "smith-family", landing_a, error_a);
  fetch_landing_page(b, "smith-family", landing_b, error_b);
  w.sim.run_until(60 * kSecond);
  EXPECT_EQ(error_a, "");
  EXPECT_EQ(error_b, "");
  EXPECT_NE(landing_a.find("smith-family"), std::string::npos);
  EXPECT_NE(landing_b.find("smith-family"), std::string::npos);
}

TEST(Directory, ConnectFailsWhenHpopWentDownAfterRegistering) {
  HpopWorld w(punch_nat());
  w.hpop->boot();
  w.sim.run_until(30 * kSecond);
  ASSERT_EQ(w.directory->registered(), 1u);
  // The lease outlives the HPoP: the directory relays the rendezvous onto
  // a control connection nobody answers.
  w.home.hosts[0]->set_up(false);

  DirectoryClient client = w.client(*w.mux_device);
  std::string landing, error;
  fetch_landing_page(client, "smith-family", landing, error);
  w.sim.run_until(60 * kSecond);
  EXPECT_EQ(error, "rendezvous_failed");
  EXPECT_EQ(landing, "");
}

TEST(Directory, UnansweredRendezvousDoNotPileUp) {
  // Each connect to a dead HPoP files a waiter nobody will answer. Its
  // requester gives up at attempt_timeout and aborts, and the directory
  // drops such waiters before filing the next one.
  HpopWorld w(punch_nat());
  w.hpop->boot();
  w.sim.run_until(30 * kSecond);
  ASSERT_EQ(w.directory->registered(), 1u);
  w.home.hosts[0]->set_up(false);

  DirectoryClient client = w.client(*w.mux_device);
  std::vector<std::string> errors;
  for (int i = 0; i < 20; ++i) {
    client.connect(
        "smith-family",
        [&](util::Result<std::shared_ptr<transport::TcpConnection>> r) {
          errors.push_back(r.ok() ? "connected" : r.error().code);
        });
    w.sim.run_until(w.sim.now() + 10 * kSecond);
  }
  EXPECT_EQ(errors, std::vector<std::string>(20, "rendezvous_failed"));
  EXPECT_LE(w.directory->rendezvous_pending(), 1u);
}

// -------------------------------------------- Leases + WAL recovery

TEST(DirectoryWire, SizesAccountForCarriedAdvertisement) {
  DirRegister reg;
  reg.household = "casa";
  EXPECT_EQ(reg.wire_size(), 32 + 4 + reg.advertisement.wire_bytes());
  DirLookupResponse miss;
  EXPECT_EQ(miss.wire_size(), 24u);
  DirLookupResponse hit;
  hit.found = true;
  EXPECT_EQ(hit.wire_size(), 24 + hit.advertisement.wire_bytes());
}

/// Three public hosts on a star: the directory, a lightweight "HPoP" that
/// registers over raw wire messages, and a device that looks up.
struct DirWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(11)};
  net::Router* rtr;
  net::Host* server;
  net::Host* hpop;
  net::Host* device;
  std::unique_ptr<transport::TransportMux> mux_server;
  std::unique_ptr<transport::TransportMux> mux_hpop;
  std::unique_ptr<transport::TransportMux> mux_device;

  DirWorld() {
    rtr = &net.add_router("rtr");
    server = &net.add_host("dir", net.next_public_address());
    hpop = &net.add_host("hpop", net.next_public_address());
    device = &net.add_host("device", net.next_public_address());
    for (net::Host* h : {server, hpop, device}) {
      net.connect(*h, h->address(), *rtr, net::IpAddr{},
                  net::LinkParams{util::kGbps, util::kMillisecond});
    }
    net.auto_route();
    mux_server = std::make_unique<transport::TransportMux>(*server);
    mux_hpop = std::make_unique<transport::TransportMux>(*hpop);
    mux_device = std::make_unique<transport::TransportMux>(*device);
  }

  std::shared_ptr<DirRegister> make_register(const std::string& household,
                                             std::uint32_t lease_s,
                                             std::uint64_t txn,
                                             std::uint16_t adv_port = 443) {
    auto reg = std::make_shared<DirRegister>();
    reg->household = household;
    reg->advertisement.method = traversal::ReachMethod::kDirect;
    reg->advertisement.endpoint = {hpop->address(), adv_port};
    reg->lease_s = lease_s;
    reg->txn = txn;
    return reg;
  }

  /// Opens a control connection and registers `household`; the returned
  /// connection is the entry's live control (drop it and it stays alive
  /// through its own callbacks, like a real HPoP's persistent socket).
  std::shared_ptr<transport::TcpConnection> register_household(
      std::uint16_t port, const std::string& household, std::uint32_t lease_s,
      std::uint16_t adv_port = 443) {
    auto conn = mux_hpop->tcp_connect({server->address(), port});
    auto reg = make_register(household, lease_s, 1, adv_port);
    conn->set_on_established([conn, reg] { conn->send(reg); });
    return conn;
  }

  /// Resolves `household` and runs the sim forward; "ok" or an error code.
  std::string lookup_code(std::uint16_t port, const std::string& household) {
    DirectoryClient client =
        one_directory_client(*mux_device, {server->address(), port});
    return resolve_code(sim, client, household);
  }
};

TEST(DirectoryLease, ExpiredEntryIsNeverServed) {
  DirWorld w;
  DirectoryServer dir(*w.mux_server, 5300);
  w.register_household(5300, "casa", 4);
  w.sim.run_until(kSecond);
  ASSERT_EQ(dir.registered(), 1u);
  EXPECT_TRUE(dir.would_resolve("casa"));
  EXPECT_EQ(w.lookup_code(5300, "casa"), "ok");  // now at 3 s, inside lease

  w.sim.run_until(5 * kSecond);  // the ~4 s lease has lapsed
  EXPECT_FALSE(dir.would_resolve("casa"));
  EXPECT_EQ(w.lookup_code(5300, "casa"), "not_found");
  EXPECT_EQ(dir.stats().expired_dropped, 1u);
  EXPECT_EQ(dir.registered(), 0u);
}

TEST(DirectoryLease, RenewalExtendsTheLease) {
  DirWorld w;
  DirectoryServer dir(*w.mux_server, 5300);
  auto conn = w.register_household(5300, "casa", 4);
  w.sim.run_until(3 * kSecond);
  ASSERT_EQ(dir.registered(), 1u);
  conn->send(w.make_register("casa", 4, 2));  // renew: lease now ends ~7 s

  w.sim.run_until(6 * kSecond);
  // Without the renewal this would have expired at ~4 s.
  EXPECT_EQ(w.lookup_code(5300, "casa"), "ok");  // now at 8 s
  EXPECT_EQ(w.lookup_code(5300, "casa"), "not_found");
  EXPECT_EQ(dir.stats().registrations, 2u);
}

TEST(DirectoryLease, ExpirySweepEvictsWithoutLookups) {
  DirWorld w;
  DirectoryServer dir(*w.mux_server, 5300);
  dir.start_expiry_sweep(kSecond);
  w.register_household(5300, "casa", 2);
  w.sim.run_until(kSecond);
  ASSERT_EQ(dir.registered(), 1u);
  w.sim.run_until(5 * kSecond);
  EXPECT_EQ(dir.registered(), 0u);
  EXPECT_EQ(dir.stats().expired_dropped, 1u);
}

TEST(DirectoryWal, RecoveredEntriesHonorLeases) {
  DirWorld w;
  durable::StorageDevice disk("dirdisk", util::Rng(3));
  auto wal = std::make_unique<durable::Wal>(disk, "directory.wal");
  auto dir = std::make_unique<DirectoryServer>(*w.mux_server, 5300);
  dir->attach_wal(wal.get());
  w.register_household(5300, "casa", 120);
  w.register_household(5300, "ghost", 3);  // lapses while the process is dead
  w.sim.run_until(kSecond);
  ASSERT_EQ(dir->registered(), 2u);

  // Process death: the directory and its WAL handle go, sockets included.
  dir.reset();
  wal.reset();
  auto wal2 = std::make_unique<durable::Wal>(disk, "directory.wal");
  auto dir2 = std::make_unique<DirectoryServer>(*w.mux_server, 5301);
  const auto rec = dir2->recover_from_wal(*wal2);
  EXPECT_EQ(rec.records, 2u);
  ASSERT_EQ(dir2->registered(), 2u);

  // A recovered entry has no control connection, but lookups answer.
  EXPECT_EQ(w.lookup_code(5301, "casa"), "ok");  // now at 3 s

  // "ghost"'s lease ran out at ~3 s: recovery must not resurrect it.
  w.sim.run_until(5 * kSecond);
  EXPECT_FALSE(dir2->would_resolve("ghost"));
  EXPECT_EQ(w.lookup_code(5301, "ghost"), "not_found");
  EXPECT_EQ(dir2->stats().expired_dropped, 1u);
  EXPECT_TRUE(dir2->would_resolve("casa"));
}

TEST(DirectoryWal, RecoveredEntryUnderAdmissionControl) {
  DirWorld w;
  durable::StorageDevice disk("dirdisk", util::Rng(3));
  auto wal = std::make_unique<durable::Wal>(disk, "directory.wal");
  auto dir = std::make_unique<DirectoryServer>(*w.mux_server, 5300);
  dir->attach_wal(wal.get());
  w.register_household(5300, "casa", 120);
  w.sim.run_until(kSecond);
  ASSERT_EQ(dir->registered(), 1u);

  dir.reset();
  wal.reset();
  auto wal2 = std::make_unique<durable::Wal>(disk, "directory.wal");
  auto dir2 = std::make_unique<DirectoryServer>(*w.mux_server, 5301);
  dir2->recover_from_wal(*wal2);
  overload::AdmissionConfig acfg;
  acfg.rate = 0.1;  // one token every 10 s
  acfg.burst = 1.0;
  dir2->enable_admission(acfg);

  // The sole token goes to a lookup, answered from the recovered entry.
  EXPECT_EQ(w.lookup_code(5301, "casa"), "ok");  // now at 3 s

  // The next rendezvous is shed: busy, with a concrete retry hint.
  auto probe_rendezvous = [&](std::uint64_t txn, bool& ok, bool& busy,
                              std::uint32_t& retry) {
    auto conn = w.mux_device->tcp_connect({w.server->address(), 5301});
    auto rdv = std::make_shared<DirRendezvousRequest>();
    rdv->household = "casa";
    rdv->client = {w.device->address(), 4000};
    rdv->txn = txn;
    conn->set_on_established([conn, rdv] { conn->send(rdv); });
    conn->set_on_message([&ok, &busy, &retry](net::PayloadPtr msg) {
      if (const auto ready =
              std::dynamic_pointer_cast<const DirRendezvousReady>(msg)) {
        ok = ready->ok;
        busy = ready->busy;
        retry = ready->retry_after_s;
      }
    });
    w.sim.run_until(w.sim.now() + 2 * kSecond);
  };
  bool ok = true, busy = false;
  std::uint32_t retry = 0;
  probe_rendezvous(9, ok, busy, retry);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(busy);
  EXPECT_GE(retry, 1u);
  EXPECT_EQ(dir2->sheds(), 1u);

  // Re-registration is critical (never shed) and replaces the recovered
  // null-control entry with a live one.
  auto control = w.register_household(5301, "casa", 120, 8443);
  control->set_on_message([control](net::PayloadPtr msg) {
    if (const auto r =
            std::dynamic_pointer_cast<const DirRendezvousRequest>(msg)) {
      auto ready = std::make_shared<DirRendezvousReady>();
      ready->txn = r->txn;
      ready->ok = true;
      control->send(ready);
    }
  });
  w.sim.run_until(w.sim.now() + 2 * kSecond);
  EXPECT_EQ(dir2->stats().registrations, 1u);

  // After the bucket refills, rendezvous relays through the new control —
  // proof the re-registration replaced the socketless recovered entry.
  w.sim.run_until(20 * kSecond);
  ok = false;
  busy = true;
  probe_rendezvous(10, ok, busy, retry);
  EXPECT_TRUE(ok);
  EXPECT_FALSE(busy);
}

// ------------------------------------------------- Sharded directory

TEST(DirCluster, HashRingIsDeterministicWithDistinctReplicas) {
  HashRing r1(6, 0x52494e47, 16), r2(6, 0x52494e47, 16), r3(6, 99, 16);
  EXPECT_EQ(r1.fingerprint(), r2.fingerprint());
  EXPECT_NE(r1.fingerprint(), r3.fingerprint());
  std::vector<std::size_t> primaries(6, 0);
  for (int i = 0; i < 200; ++i) {
    const std::string h = "home-" + std::to_string(i);
    const auto reps = r1.replicas(h, 3);
    EXPECT_EQ(reps, r2.replicas(h, 3));
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_NE(reps[0], reps[1]);
    EXPECT_NE(reps[1], reps[2]);
    EXPECT_NE(reps[0], reps[2]);
    ++primaries[reps[0]];
  }
  for (const std::size_t n : primaries) EXPECT_GT(n, 0u);
  EXPECT_EQ(r1.replicas("x", 99).size(), 6u);  // r clamps to the shard count
}

/// Shard hosts, an HPoP host, and a device host on one star.
struct ClusterWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(21)};
  net::Router* rtr;
  std::vector<net::Host*> shard_hosts;
  net::Host* hpop;
  net::Host* device;
  std::unique_ptr<transport::TransportMux> mux_hpop;
  std::unique_ptr<transport::TransportMux> mux_device;
  std::unique_ptr<DirectoryCluster> cluster;

  explicit ClusterWorld(std::size_t shards) {
    rtr = &net.add_router("rtr");
    for (std::size_t i = 0; i < shards; ++i) {
      net::Host& h = net.add_host("shard-" + std::to_string(i),
                                  net.next_public_address());
      net.connect(h, h.address(), *rtr, net::IpAddr{},
                  net::LinkParams{util::kGbps, util::kMillisecond});
      shard_hosts.push_back(&h);
    }
    hpop = &net.add_host("hpop", net.next_public_address());
    device = &net.add_host("device", net.next_public_address());
    for (net::Host* h : {hpop, device}) {
      net.connect(*h, h->address(), *rtr, net::IpAddr{},
                  net::LinkParams{util::kGbps, util::kMillisecond});
    }
    net.auto_route();
    DirClusterConfig cfg;
    cfg.replication = 2;
    cfg.lease_ttl = 60 * kSecond;
    cfg.anti_entropy_interval = kSecond;
    cluster =
        std::make_unique<DirectoryCluster>(shard_hosts, cfg, util::Rng(5));
    mux_hpop = std::make_unique<transport::TransportMux>(*hpop);
    mux_device = std::make_unique<transport::TransportMux>(*device);
  }

  traversal::Advertisement adv() const {
    traversal::Advertisement a;
    a.method = traversal::ReachMethod::kDirect;
    a.endpoint = {hpop->address(), 443};
    return a;
  }
};

TEST(DirCluster, LookupFailsOverWhenPrimaryReplicaCrashes) {
  ClusterWorld w(3);
  const auto eps = w.cluster->endpoints();
  DirectoryRegistration reg(*w.mux_hpop, &w.cluster->ring(), eps, "casa",
                            DirRegistrationConfig{}, util::Rng(7));
  reg.register_advertisement(w.adv());
  w.sim.run_until(2 * kSecond);
  ASSERT_TRUE(reg.acked());
  const auto reps = w.cluster->ring().replicas("casa", 2);
  for (const std::uint32_t s : reps) {
    EXPECT_TRUE(w.cluster->shard(s)->would_resolve("casa"))
        << "eager replication should reach shard " << s;
  }

  fault::ChaosController chaos(w.sim, util::Rng(9));
  w.cluster->register_with_chaos(chaos);
  chaos.crash_at(w.cluster->host(reps[0]).name(), 3 * kSecond, 6 * kSecond);

  DirectoryClient client(*w.mux_device, &w.cluster->ring(), eps,
                         w.cluster->client_config(), util::Rng(11));
  std::string code = "no_reply";
  w.sim.schedule(4 * kSecond, [&] {
    client.lookup("casa", [&](util::Result<traversal::Advertisement> r) {
      code = r.ok() ? "ok" : r.error().code;
    });
  });
  w.sim.run_until(8 * kSecond);
  EXPECT_EQ(code, "ok");  // the surviving replica answered
  EXPECT_GE(client.stats().failovers, 1u);
  EXPECT_EQ(w.cluster->shard(reps[0]), nullptr);  // still down at 8 s

  w.sim.run_until(15 * kSecond);
  EXPECT_NE(w.cluster->shard(reps[0]), nullptr);
  EXPECT_TRUE(w.cluster->resolves("casa"));
}

TEST(DirCluster, RegistrationFailsOverWhenPrimaryIsDown) {
  ClusterWorld w(3);
  fault::ChaosController chaos(w.sim, util::Rng(9));
  w.cluster->register_with_chaos(chaos);
  const auto reps = w.cluster->ring().replicas("casa", 2);
  chaos.crash_at(w.cluster->host(reps[0]).name(), kSecond, 8 * kSecond);

  DirectoryRegistration reg(*w.mux_hpop, &w.cluster->ring(),
                            w.cluster->endpoints(), "casa",
                            DirRegistrationConfig{}, util::Rng(7));
  w.sim.schedule(2 * kSecond, [&] { reg.register_advertisement(w.adv()); });
  w.sim.run_until(8 * kSecond);
  EXPECT_TRUE(reg.acked());
  EXPECT_GE(reg.stats().failovers, 1u);
  EXPECT_TRUE(w.cluster->shard(reps[1])->would_resolve("casa"));
}

TEST(DirCluster, AntiEntropyCatchesUpAShardThatMissedWrites) {
  ClusterWorld w(3);
  fault::ChaosController chaos(w.sim, util::Rng(9));
  w.cluster->register_with_chaos(chaos);
  const auto reps = w.cluster->ring().replicas("casa", 2);
  // The secondary sleeps through the registration: down [1, 5), so both
  // the eager replica push and the WAL write miss it entirely.
  chaos.crash_at(w.cluster->host(reps[1]).name(), kSecond, 4 * kSecond);

  DirectoryRegistration reg(*w.mux_hpop, &w.cluster->ring(),
                            w.cluster->endpoints(), "casa",
                            DirRegistrationConfig{}, util::Rng(7));
  w.sim.schedule(2 * kSecond, [&] { reg.register_advertisement(w.adv()); });
  w.sim.run_until(3 * kSecond);
  ASSERT_TRUE(reg.acked());
  EXPECT_EQ(w.cluster->shard(reps[1]), nullptr);
  EXPECT_TRUE(w.cluster->shard(reps[0])->would_resolve("casa"));

  // Back at 5 s with an empty WAL; round-robin anti-entropy (1 s ticks)
  // replays the registration onto it within a few rounds.
  w.sim.run_until(12 * kSecond);
  ASSERT_NE(w.cluster->shard(reps[1]), nullptr);
  EXPECT_TRUE(w.cluster->shard(reps[1])->would_resolve("casa"));
  EXPECT_GE(w.cluster->shard(reps[1])->sync_stats().entries_applied, 1u);
  EXPECT_GT(w.cluster->sync_totals().rounds, 0u);
}

/// Connect-from-anywhere through the replicated directory: traversal
/// infrastructure on one public host, three directory shards, a home behind
/// a port-restricted NAT, and a roaming device. The HPoP registers with
/// every replica of its household on its own mux and ReachabilityManager.
struct ClusterConnectWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(31)};
  net::Host* infra;
  net::Host* device;
  std::vector<net::Host*> shard_hosts;
  net::Home home;
  std::unique_ptr<transport::TransportMux> mux_infra;
  std::unique_ptr<transport::TransportMux> mux_device;
  std::unique_ptr<traversal::StunServer> stun;
  std::unique_ptr<traversal::TurnServer> turn;
  std::unique_ptr<traversal::Reflector> reflector;
  std::unique_ptr<DirectoryCluster> cluster;
  std::unique_ptr<Hpop> hpop;
  std::unique_ptr<DirectoryRegistration> registration;

  ClusterConnectWorld() {
    net::Router& core = net.add_router("core");
    infra = &net.add_host("infra", net.next_public_address());
    device = &net.add_host("device", net.next_public_address());
    for (int i = 0; i < 3; ++i) {
      shard_hosts.push_back(&net.add_host("shard-" + std::to_string(i),
                                          net.next_public_address()));
    }
    std::vector<net::Host*> hosts = shard_hosts;
    hosts.push_back(infra);
    hosts.push_back(device);
    for (net::Host* h : hosts) {
      net.connect(*h, h->address(), core, net::IpAddr{},
                  net::LinkParams{util::kGbps, 5 * util::kMillisecond});
    }
    home = net::make_home(net, "home", core, 1, punch_nat(),
                          net::PathParams{});
    net.auto_route();

    mux_infra = std::make_unique<transport::TransportMux>(*infra);
    mux_device = std::make_unique<transport::TransportMux>(*device);
    stun = std::make_unique<traversal::StunServer>(*mux_infra, 3478);
    turn = std::make_unique<traversal::TurnServer>(*mux_infra, 3479);
    reflector = std::make_unique<traversal::Reflector>(*mux_infra, 7100);
    cluster = std::make_unique<DirectoryCluster>(
        shard_hosts, DirClusterConfig{}, util::Rng(5));

    HpopConfig config;
    config.household = "smith-family";
    config.reachability = reachability_via(home, *infra);
    hpop = std::make_unique<Hpop>(*home.hosts[0], config);
    registration = std::make_unique<DirectoryRegistration>(
        hpop->mux(), &cluster->ring(), cluster->endpoints(), "smith-family",
        DirRegistrationConfig{}, util::Rng(7), &hpop->reachability());
  }

  void boot() {
    hpop->boot([this](const traversal::Advertisement& adv) {
      registration->register_advertisement(adv);
    });
  }

  DirectoryClient client() {
    return DirectoryClient(*mux_device, &cluster->ring(), cluster->endpoints(),
                           cluster->client_config(), util::Rng(11));
  }
};

/// Runs healthy, and with the household's primary replica crashed before
/// the lookup: the client then fails over to the secondary, whose entry
/// holds the HPoP's own control connection, and the rendezvous goes
/// through it too.
class ClusterConnect : public ::testing::TestWithParam<bool> {};

TEST_P(ClusterConnect, DeviceReachesHpopBehindPortRestrictedNat) {
  const bool crash_primary = GetParam();
  ClusterConnectWorld w;
  w.boot();
  w.sim.run_until(20 * kSecond);
  ASSERT_TRUE(w.registration->acked());
  ASSERT_TRUE(w.hpop->advertisement().rendezvous_required);
  const auto reps = w.cluster->ring().replicas("smith-family", 2);
  fault::ChaosController chaos(w.sim, util::Rng(9));
  w.cluster->register_with_chaos(chaos);
  if (crash_primary) {
    chaos.crash_at(w.cluster->host(reps[0]).name(), 21 * kSecond,
                   30 * kSecond);
  }
  w.sim.run_until(22 * kSecond);

  DirectoryClient client = w.client();
  std::string landing, error;
  fetch_landing_page(client, "smith-family", landing, error);
  w.sim.run_until(40 * kSecond);
  EXPECT_EQ(error, "");
  EXPECT_NE(landing.find("smith-family"), std::string::npos);
  EXPECT_EQ(client.stats().failovers > 0, crash_primary);
  EXPECT_EQ(w.cluster->shard(reps[0]) == nullptr, crash_primary);
}

INSTANTIATE_TEST_SUITE_P(DirCluster, ClusterConnect, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "PrimaryCrashed" : "Healthy";
                         });

}  // namespace
}  // namespace hpop::core
