#include <gtest/gtest.h>

#include "attic/backup.hpp"
#include "attic/client.hpp"
#include "attic/grant.hpp"
#include "attic/health.hpp"
#include "attic/webdav.hpp"
#include "attic/wrap_driver.hpp"
#include "net/topology.hpp"

namespace hpop::attic {
namespace {

using util::kSecond;

// ------------------------------------------------------------------ Store

TEST(Store, PutGetVersions) {
  AtticStore store;
  ASSERT_TRUE(store.put("/docs/a.txt", http::Body("v1"), 0).ok());
  ASSERT_TRUE(store.put("/docs/a.txt", http::Body("v2"), kSecond).ok());
  const auto latest = store.get("/docs/a.txt");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().content.text(), "v2");
  const auto history = store.history("/docs/a.txt");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history.value().size(), 2u);
  EXPECT_EQ(history.value()[0].content.text(), "v1");
  EXPECT_NE(history.value()[0].etag, history.value()[1].etag);
}

TEST(Store, ImplicitDirectoriesAndListing) {
  AtticStore store;
  ASSERT_TRUE(store.put("/records/clinic/visit1", http::Body("x"), 0).ok());
  ASSERT_TRUE(store.put("/records/clinic/visit2", http::Body("y"), 0).ok());
  ASSERT_TRUE(store.put("/records/lab/result", http::Body("z"), 0).ok());
  EXPECT_TRUE(store.dir_exists("/records"));
  EXPECT_TRUE(store.dir_exists("/records/clinic"));
  const auto top = store.list("/records");
  EXPECT_EQ(top.size(), 2u);
  const auto clinic = store.list("/records/clinic");
  ASSERT_EQ(clinic.size(), 2u);
  EXPECT_EQ(clinic[0], "/records/clinic/visit1");
}

TEST(Store, QuotaEnforced) {
  AtticStore store(1000);
  ASSERT_TRUE(store.put("/a", http::Body::synthetic(800, 1), 0).ok());
  EXPECT_FALSE(store.put("/b", http::Body::synthetic(300, 2), 0).ok());
  // Replacing a file frees its old bytes first.
  EXPECT_TRUE(store.put("/a", http::Body::synthetic(900, 3), 0).ok());
  EXPECT_EQ(store.used_bytes(), 900u + 800u);  // history retained
}

TEST(Store, VersionHistoryBoundedAndQuotaReflectsPruning) {
  AtticStore store(1 << 20);
  const std::size_t total = AtticStore::kMaxVersions + 4;
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_TRUE(store
                    .put("/f", http::Body::synthetic(100 + i, i),
                         static_cast<util::TimePoint>(i) * kSecond)
                    .ok());
  }
  const auto history = store.history("/f");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history.value().size(), AtticStore::kMaxVersions);
  EXPECT_EQ(store.versions_pruned(), 4u);
  // The oldest retained version is the 5th write; pruned bytes returned
  // to the quota.
  EXPECT_EQ(history.value().front().content.size(), 104u);
  std::size_t expected = 0;
  for (std::size_t i = 4; i < total; ++i) expected += 100 + i;
  EXPECT_EQ(store.used_bytes(), expected);
}

TEST(Store, RemoveFreesSpace) {
  AtticStore store(1000);
  ASSERT_TRUE(store.put("/a", http::Body::synthetic(800, 1), 0).ok());
  ASSERT_TRUE(store.remove("/a").ok());
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_FALSE(store.get("/a").ok());
  EXPECT_FALSE(store.remove("/a").ok());
}

// ----------------------------------------------------- WebDAV end-to-end

/// One HPoP with an attic, plus an external client host.
struct AtticWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(53)};
  net::TwoHostPath path;
  std::unique_ptr<core::Hpop> hpop;
  std::unique_ptr<AtticService> attic;
  std::unique_ptr<transport::TransportMux> mux_client;
  std::unique_ptr<http::HttpClient> http_client;
  std::unique_ptr<AtticClient> owner_client;

  AtticWorld() {
    path = net::make_two_host_path(net, net::PathParams{}, net::PathParams{});
    core::HpopConfig config;
    config.household = "test-family";
    hpop = std::make_unique<core::Hpop>(*path.a, config);
    attic = std::make_unique<AtticService>(*hpop);
    mux_client = std::make_unique<transport::TransportMux>(*path.b);
    http_client = std::make_unique<http::HttpClient>(*mux_client);
    owner_client = std::make_unique<AtticClient>(
        *http_client, net::Endpoint{path.a->address(), 443},
        attic->owner_token());
  }
};

TEST(WebDav, PutThenGetWithEtags) {
  AtticWorld w;
  std::string etag;
  w.owner_client->put("/notes/todo.txt", http::Body("buy milk"),
                      [&](util::Result<std::string> r) {
                        ASSERT_TRUE(r.ok());
                        etag = r.value();
                      });
  w.sim.run_until(5 * kSecond);
  ASSERT_FALSE(etag.empty());

  std::string content, got_etag;
  w.owner_client->get("/notes/todo.txt",
                      [&](util::Result<AtticClient::File> r) {
                        ASSERT_TRUE(r.ok());
                        content = r.value().content.text();
                        got_etag = r.value().etag;
                      });
  w.sim.run_until(10 * kSecond);
  EXPECT_EQ(content, "buy milk");
  EXPECT_EQ(got_etag, etag);
}

TEST(WebDav, RejectsMissingAndForgedTokens) {
  AtticWorld w;
  AtticClient no_token(*w.http_client,
                       net::Endpoint{w.path.a->address(), 443}, "");
  std::string code;
  no_token.get("/anything",
               [&](util::Result<AtticClient::File> r) {
                 code = r.error().code;
               });
  w.sim.run_until(5 * kSecond);
  EXPECT_EQ(code, "unauthorized");

  // A token minted by a different household's authority.
  core::TokenAuthority foreign(util::to_bytes("not-the-secret"));
  const std::string forged = core::TokenAuthority::encode(
      foreign.issue("test-family", "/", true, 365 * util::kDay));
  AtticClient intruder(*w.http_client,
                       net::Endpoint{w.path.a->address(), 443}, forged);
  code.clear();
  intruder.get("/anything", [&](util::Result<AtticClient::File> r) {
    code = r.error().code;
  });
  w.sim.run_until(10 * kSecond);
  EXPECT_EQ(code, "unauthorized");
}

TEST(WebDav, ScopedTokenConfinedToDirectory) {
  AtticWorld w;
  const auto cap = w.hpop->tokens().issue(
      "test-family", "/records/clinic", true,
      w.sim.now() + 365 * util::kDay);
  AtticClient provider(*w.http_client,
                       net::Endpoint{w.path.a->address(), 443},
                       core::TokenAuthority::encode(cap));
  std::string ok_etag, fail_code;
  provider.put("/records/clinic/visit1", http::Body("bp 120/80"),
               [&](util::Result<std::string> r) {
                 ASSERT_TRUE(r.ok());
                 ok_etag = r.value();
               });
  provider.get("/photos/private.jpg",
               [&](util::Result<AtticClient::File> r) {
                 fail_code = r.error().code;
               });
  w.sim.run_until(5 * kSecond);
  EXPECT_FALSE(ok_etag.empty());
  EXPECT_EQ(fail_code, "forbidden");
}

TEST(WebDav, LockingMediatesWriters) {
  AtticWorld w;
  ASSERT_TRUE(w.attic->store().put("/shared/doc", http::Body("base"), 0).ok());

  std::string token;
  w.owner_client->lock("/shared/doc", [&](util::Result<std::string> r) {
    ASSERT_TRUE(r.ok());
    token = r.value();
  });
  w.sim.run_until(2 * kSecond);
  ASSERT_FALSE(token.empty());

  // A write without the lock token is refused (423).
  std::string blocked_code;
  w.owner_client->put("/shared/doc", http::Body("intruder"),
                      [&](util::Result<std::string> r) {
                        blocked_code = r.error().code;
                      });
  // The lock holder writes fine.
  std::string holder_etag;
  w.owner_client->put("/shared/doc", http::Body("holder"),
                      [&](util::Result<std::string> r) {
                        ASSERT_TRUE(r.ok());
                        holder_etag = r.value();
                      },
                      "", token);
  w.sim.run_until(6 * kSecond);
  EXPECT_EQ(blocked_code, "locked");
  EXPECT_FALSE(holder_etag.empty());

  // Unlock, then anyone writes again.
  bool unlocked = false;
  w.owner_client->unlock("/shared/doc", token,
                         [&](util::Status s) { unlocked = s.ok(); });
  w.sim.run_until(8 * kSecond);
  ASSERT_TRUE(unlocked);
  bool wrote = false;
  w.owner_client->put("/shared/doc", http::Body("free again"),
                      [&](util::Result<std::string> r) { wrote = r.ok(); });
  w.sim.run_until(10 * kSecond);
  EXPECT_TRUE(wrote);
}

TEST(WebDav, LockExpires) {
  AtticWorld w;
  ASSERT_TRUE(w.attic->store().put("/shared/doc", http::Body("base"), 0).ok());
  std::string token;
  w.owner_client->lock("/shared/doc", [&](util::Result<std::string> r) {
    token = r.value();
  });
  w.sim.run_until(2 * kSecond);
  ASSERT_FALSE(token.empty());
  w.sim.run_until(w.sim.now() + 6 * util::kMinute);  // past the 5 min lease
  bool wrote = false;
  w.owner_client->put("/shared/doc", http::Body("late"),
                      [&](util::Result<std::string> r) { wrote = r.ok(); });
  w.sim.run_until(w.sim.now() + 5 * kSecond);
  EXPECT_TRUE(wrote);
}

TEST(WebDav, ConditionalPutDetectsConflict) {
  AtticWorld w;
  std::string etag1;
  w.owner_client->put("/doc", http::Body("v1"),
                      [&](util::Result<std::string> r) {
                        etag1 = r.value();
                      });
  w.sim.run_until(2 * kSecond);
  // Someone else updates it.
  bool updated = false;
  w.owner_client->put("/doc", http::Body("v2"),
                      [&](util::Result<std::string> r) { updated = r.ok(); });
  w.sim.run_until(4 * kSecond);
  ASSERT_TRUE(updated);
  // A write conditioned on the stale etag must fail.
  std::string code;
  w.owner_client->put("/doc", http::Body("stale-based"),
                      [&](util::Result<std::string> r) {
                        code = r.error().code;
                      },
                      etag1);
  w.sim.run_until(6 * kSecond);
  EXPECT_EQ(code, "conflict");
}

TEST(WebDav, RangeGet) {
  AtticWorld w;
  ASSERT_TRUE(
      w.attic->store().put("/media/song", http::Body("abcdefghij"), 0).ok());
  std::string part;
  w.owner_client->get_range("/media/song", 3, 4,
                            [&](util::Result<AtticClient::File> r) {
                              ASSERT_TRUE(r.ok());
                              part = r.value().content.text();
                            });
  w.sim.run_until(5 * kSecond);
  EXPECT_EQ(part, "defg");
}

TEST(WebDav, PropfindListsDirectory) {
  AtticWorld w;
  ASSERT_TRUE(
      w.attic->store().put("/records/clinic/a", http::Body("1"), 0).ok());
  ASSERT_TRUE(w.attic->store().put("/records/lab/b", http::Body("2"), 0).ok());
  std::vector<std::string> entries;
  w.owner_client->list("/records",
                       [&](util::Result<std::vector<std::string>> r) {
                         ASSERT_TRUE(r.ok());
                         entries = r.value();
                       });
  w.sim.run_until(5 * kSecond);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], "/records/clinic");
  EXPECT_EQ(entries[1], "/records/lab");
}

// ------------------------------------------------------------ WrapDriver

TEST(WrapDriver, OpenEditCloseWritesBack) {
  AtticWorld w;
  ASSERT_TRUE(
      w.attic->store().put("/docs/report.txt", http::Body("draft"), 0).ok());
  WrapDriver driver(*w.owner_client);

  std::optional<WrapDriver::Fd> fd;
  driver.open("/docs/report.txt", [&](util::Result<WrapDriver::Fd> r) {
    ASSERT_TRUE(r.ok());
    fd = r.value();
  });
  w.sim.run_until(3 * kSecond);
  ASSERT_TRUE(fd.has_value());

  const auto content = driver.read(*fd);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value().text(), "draft");

  ASSERT_TRUE(driver.write(*fd, http::Body("final")).ok());
  bool closed = false;
  driver.close(*fd, [&](util::Status s) { closed = s.ok(); });
  w.sim.run_until(6 * kSecond);
  ASSERT_TRUE(closed);
  EXPECT_EQ(w.attic->store().get("/docs/report.txt").value().content.text(),
            "final");
  EXPECT_EQ(driver.open_files(), 0u);
}

TEST(WrapDriver, CleanCloseSkipsWriteback) {
  AtticWorld w;
  ASSERT_TRUE(w.attic->store().put("/docs/a", http::Body("x"), 0).ok());
  WrapDriver driver(*w.owner_client);
  std::optional<WrapDriver::Fd> fd;
  driver.open("/docs/a", [&](util::Result<WrapDriver::Fd> r) {
    fd = r.value();
  });
  w.sim.run_until(3 * kSecond);
  const auto puts_before = w.attic->stats().puts;
  driver.close(*fd);
  w.sim.run_until(6 * kSecond);
  EXPECT_EQ(w.attic->stats().puts, puts_before);
}

TEST(WrapDriver, OfflineEditsReconcile) {
  AtticWorld w;
  ASSERT_TRUE(w.attic->store().put("/docs/notes", http::Body("v1"), 0).ok());
  WrapDriver driver(*w.owner_client);

  // Prime the cache while online.
  std::optional<WrapDriver::Fd> fd;
  driver.open("/docs/notes", [&](util::Result<WrapDriver::Fd> r) {
    fd = r.value();
  });
  w.sim.run_until(3 * kSecond);
  driver.close(*fd);
  w.sim.run_until(5 * kSecond);

  // Go offline; edit from the cached copy.
  driver.set_offline(true);
  fd.reset();
  driver.open("/docs/notes", [&](util::Result<WrapDriver::Fd> r) {
    fd = r.value();
  });
  w.sim.run_until(6 * kSecond);
  ASSERT_TRUE(fd.has_value());
  ASSERT_TRUE(driver.write(*fd, http::Body("offline edit")).ok());
  driver.close(*fd);
  EXPECT_EQ(driver.pending_sync(), 1u);

  // Reconnect and reconcile.
  driver.set_offline(false);
  int pushed = -1, conflicts = -1;
  driver.reconcile([&](int p, int c) {
    pushed = p;
    conflicts = c;
  });
  w.sim.run_until(12 * kSecond);
  EXPECT_EQ(pushed, 1);
  EXPECT_EQ(conflicts, 0);
  EXPECT_EQ(w.attic->store().get("/docs/notes").value().content.text(),
            "offline edit");
}

TEST(WrapDriver, ConcurrentRemoteEditBecomesConflictCopy) {
  AtticWorld w;
  ASSERT_TRUE(w.attic->store().put("/docs/shared", http::Body("v1"), 0).ok());
  WrapDriver driver(*w.owner_client);
  std::optional<WrapDriver::Fd> fd;
  driver.open("/docs/shared", [&](util::Result<WrapDriver::Fd> r) {
    fd = r.value();
  });
  w.sim.run_until(3 * kSecond);
  driver.close(*fd);
  w.sim.run_until(4 * kSecond);

  driver.set_offline(true);
  fd.reset();
  driver.open("/docs/shared", [&](util::Result<WrapDriver::Fd> r) {
    fd = r.value();
  });
  w.sim.run_until(5 * kSecond);
  ASSERT_TRUE(driver.write(*fd, http::Body("my offline version")).ok());
  driver.close(*fd);

  // Meanwhile the file changes remotely (another device).
  const http::Body theirs("their version");
  ASSERT_TRUE(w.attic->store().put("/docs/shared", theirs, w.sim.now()).ok());

  driver.set_offline(false);
  int pushed = -1, conflicts = -1;
  driver.reconcile([&](int p, int c) {
    pushed = p;
    conflicts = c;
  });
  w.sim.run_until(15 * kSecond);
  EXPECT_EQ(pushed, 0);
  EXPECT_EQ(conflicts, 1);
  // Remote version preserved; ours parked as a conflict copy.
  EXPECT_EQ(w.attic->store().get("/docs/shared").value().content.text(),
            "their version");
  EXPECT_EQ(
      w.attic->store().get("/docs/shared.conflict").value().content.text(),
      "my offline version");
}

TEST(WrapDriver, OfflineMissFailsWithoutCache) {
  AtticWorld w;
  WrapDriver driver(*w.owner_client);
  driver.set_offline(true);
  std::string code;
  driver.open("/never/seen", [&](util::Result<WrapDriver::Fd> r) {
    code = r.error().code;
  });
  w.sim.run_until(kSecond);
  EXPECT_EQ(code, "offline_miss");
}

// ------------------------------------------------- Grants + health records

TEST(Grants, QrRoundTrip) {
  AtticWorld w;
  const ProviderGrant grant = issue_provider_grant(*w.attic, "mercy-clinic");
  const auto decoded = ProviderGrant::decode(grant.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().directory, "/records/mercy-clinic");
  EXPECT_EQ(decoded.value().capability, grant.capability);
  EXPECT_FALSE(ProviderGrant::decode("garbage!").ok());
}

TEST(Health, ProviderWritesDuplicateToAttic) {
  AtticWorld w;
  const ProviderGrant grant = issue_provider_grant(*w.attic, "mercy-clinic");
  // Grant carries the endpoint from the advertisement; in this two-host
  // world the HPoP is directly addressable.
  HealthProviderSystem provider("mercy-clinic", *w.http_client, w.sim);
  ASSERT_TRUE(provider.link_patient("alice", grant.encode()).ok());

  HealthRecord record;
  record.patient = "alice";
  record.record_id = "2026-07-labs";
  record.kind = "lab";
  record.content = http::Body("cholesterol: fine");
  bool synced = false;
  provider.add_record(record, [&](util::Status s) { synced = s.ok(); });
  w.sim.run_until(5 * kSecond);
  EXPECT_TRUE(synced);
  // Local regulatory copy AND the attic copy both exist.
  EXPECT_EQ(provider.local_records("alice").size(), 1u);
  EXPECT_EQ(w.attic->store()
                .get("/records/mercy-clinic/2026-07-labs")
                .value()
                .content.text(),
            "cholesterol: fine");
}

TEST(Health, PatientAggregatesAcrossProviders) {
  AtticWorld w;
  for (const std::string name : {"clinic-a", "clinic-b", "clinic-c"}) {
    const ProviderGrant grant = issue_provider_grant(*w.attic, name);
    HealthProviderSystem provider(name, *w.http_client, w.sim);
    ASSERT_TRUE(provider.link_patient("alice", grant.encode()).ok());
    for (int i = 0; i < 2; ++i) {
      HealthRecord record;
      record.patient = "alice";
      record.record_id = "rec" + std::to_string(i);
      record.content = http::Body(name + " record " + std::to_string(i));
      provider.add_record(record);
    }
  }
  w.sim.run_until(10 * kSecond);

  PatientHealthView view(*w.owner_client);
  std::optional<PatientHealthView::Aggregated> aggregated;
  view.aggregate([&](util::Result<PatientHealthView::Aggregated> r) {
    ASSERT_TRUE(r.ok());
    aggregated = r.value();
  });
  w.sim.run_until(20 * kSecond);
  ASSERT_TRUE(aggregated.has_value());
  EXPECT_EQ(aggregated->by_provider.size(), 3u);
  EXPECT_EQ(aggregated->total, 6u);
}

TEST(Health, UnlinkedPatientStaysLocalOnly) {
  AtticWorld w;
  HealthProviderSystem provider("clinic", *w.http_client, w.sim);
  HealthRecord record;
  record.patient = "bob";
  record.record_id = "r1";
  record.content = http::Body("x");
  provider.add_record(record);
  w.sim.run_until(2 * kSecond);
  EXPECT_EQ(provider.local_records("bob").size(), 1u);
  EXPECT_EQ(provider.attic_writes(), 0u);
}

// ------------------------------------------------------------ Encryption

TEST(Seal, RoundTripAndTamperDetection) {
  const util::Bytes key = util::to_bytes("household-key");
  const util::Bytes plaintext = util::to_bytes("medical history");
  Sealed box = seal(key, plaintext, 7);
  EXPECT_NE(box.ciphertext, plaintext);  // actually encrypted
  const auto back = unseal(key, box);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), plaintext);

  Sealed tampered = box;
  tampered.ciphertext[0] ^= 1;
  EXPECT_FALSE(unseal(key, tampered).ok());

  // A flipped MAC bit, a substituted nonce, and a wrong key all fail
  // closed — every field of the sealed box is integrity-bound.
  Sealed bad_mac = box;
  bad_mac.mac[0] ^= 1;
  EXPECT_FALSE(unseal(key, bad_mac).ok());
  Sealed bad_nonce = box;
  bad_nonce.nonce ^= 1;
  EXPECT_FALSE(unseal(key, bad_nonce).ok());

  EXPECT_FALSE(unseal(util::to_bytes("wrong-key"), box).ok());
}

TEST(Seal, NoncesSeparateStreams) {
  const util::Bytes key = util::to_bytes("k");
  const util::Bytes plaintext = util::to_bytes("same plaintext");
  EXPECT_NE(seal(key, plaintext, 1).ciphertext,
            seal(key, plaintext, 2).ciphertext);
}

// ---------------------------------------------------------------- Backup

/// A star of peer attics around a backup owner.
struct BackupWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(59)};
  net::Router* core;
  net::Host* owner_host;
  std::unique_ptr<transport::TransportMux> owner_mux;
  std::unique_ptr<http::HttpClient> owner_http;
  std::unique_ptr<BackupManager> backup;
  struct PeerAttic {
    std::unique_ptr<core::Hpop> hpop;
    std::unique_ptr<AtticService> attic;
  };
  std::vector<PeerAttic> peers;

  explicit BackupWorld(int n_peers) {
    core = &net.add_router("core");
    owner_host = &net.add_host("owner", net.next_public_address());
    net.connect(*owner_host, owner_host->address(), *core, net::IpAddr{},
                net::LinkParams{1 * util::kGbps, 5 * util::kMillisecond});
    owner_mux = std::make_unique<transport::TransportMux>(*owner_host);
    owner_http = std::make_unique<http::HttpClient>(*owner_mux);
    backup = std::make_unique<BackupManager>(
        "owner", *owner_http, util::to_bytes("backup-key"));

    for (int i = 0; i < n_peers; ++i) {
      net::Host& host = net.add_host("peer" + std::to_string(i),
                                     net.next_public_address());
      net.connect(host, host.address(), *core, net::IpAddr{},
                  net::LinkParams{1 * util::kGbps, 10 * util::kMillisecond});
      PeerAttic peer;
      core::HpopConfig config;
      config.household = "peer" + std::to_string(i);
      peer.hpop = std::make_unique<core::Hpop>(host, config);
      peer.attic = std::make_unique<AtticService>(*peer.hpop);
      backup->add_peer({host.address(), 443}, peer.attic->owner_token());
      peers.push_back(std::move(peer));
    }
    net.auto_route();
  }

  /// Simulates peer failure by zeroing its attic service routes — we just
  /// disconnect its link instead: set 100% loss both ways.
  void kill_peer(int i) {
    // Peer links are created after the owner's (index 0).
    net.links()[static_cast<std::size_t>(1 + i)]->set_loss(1.0);
  }
};

TEST(Backup, ErasureRestoresWithPeersDown) {
  BackupWorld w(5);
  const http::Body content(std::string(3000, 'm'));
  bool stored = false;
  w.backup->backup("medical", content, BackupManager::Strategy::kErasure, 3,
                   2, [&](util::Status s) { stored = s.ok(); });
  w.sim.run_until(10 * kSecond);
  ASSERT_TRUE(stored);

  // Two of five peers go dark; k=3 shards remain reachable.
  w.kill_peer(0);
  w.kill_peer(3);
  std::optional<http::Body> restored;
  w.backup->restore("medical", [&](util::Result<http::Body> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    restored = r.value();
  });
  w.sim.run_until(120 * kSecond);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->text(), content.text());
}

TEST(Backup, ErasureFailsBelowThreshold) {
  BackupWorld w(5);
  const http::Body content(std::string(2000, 'q'));
  bool stored = false;
  w.backup->backup("medical", content, BackupManager::Strategy::kErasure, 3,
                   2, [&](util::Status s) { stored = s.ok(); });
  w.sim.run_until(10 * kSecond);
  ASSERT_TRUE(stored);
  for (int i = 0; i < 3; ++i) w.kill_peer(i);
  std::string code;
  w.backup->restore("medical", [&](util::Result<http::Body> r) {
    code = r.error().code;
  });
  w.sim.run_until(200 * kSecond);
  EXPECT_EQ(code, "insufficient_shards");
}

TEST(Backup, ReplicationSurvivesAllButOne) {
  BackupWorld w(3);
  const http::Body content(std::string(1500, 'r'));
  bool stored = false;
  w.backup->backup("photos", content,
                   BackupManager::Strategy::kReplication, 1, 2,
                   [&](util::Status s) { stored = s.ok(); });
  w.sim.run_until(10 * kSecond);
  ASSERT_TRUE(stored);
  w.kill_peer(0);
  w.kill_peer(1);
  std::optional<http::Body> restored;
  w.backup->restore("photos", [&](util::Result<http::Body> r) {
    ASSERT_TRUE(r.ok());
    restored = r.value();
  });
  w.sim.run_until(120 * kSecond);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->text(), content.text());
}

TEST(Backup, RefusesWithTooFewPeers) {
  BackupWorld w(2);
  std::string code;
  w.backup->backup("x", http::Body("data"),
                   BackupManager::Strategy::kErasure, 3, 2,
                   [&](util::Status s) { code = s.error().code; });
  w.sim.run_until(kSecond);
  EXPECT_EQ(code, "not_enough_peers");
}

TEST(Backup, PeersHoldOnlyCiphertext) {
  BackupWorld w(3);
  const std::string secret = "deeply private medical data";
  bool stored = false;
  w.backup->backup("medical", http::Body(secret),
                   BackupManager::Strategy::kReplication, 1, 2,
                   [&](util::Status s) { stored = s.ok(); });
  w.sim.run_until(10 * kSecond);
  ASSERT_TRUE(stored);
  // Inspect what peer 0 stores: it must not contain the plaintext.
  const auto shard =
      w.peers[0].attic->store().get("/backup/owner/medical/shard-0");
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ(shard.value().content.text().find(secret), std::string::npos);
}

/// Flips one byte of the shard held by peer `i`.
void corrupt_shard(BackupWorld& w, int peer, int shard_index) {
  auto& store = w.peers[static_cast<std::size_t>(peer)].attic->store();
  const std::string path =
      "/backup/owner/medical/shard-" + std::to_string(shard_index);
  const auto shard = store.get(path);
  ASSERT_TRUE(shard.ok());
  std::string bytes = shard.value().content.text();
  bytes[0] = static_cast<char>(bytes[0] ^ 1);
  ASSERT_TRUE(store.put(path, http::Body(bytes), w.sim.now()).ok());
}

TEST(Backup, RestoreReconstructsAroundCorruptedShard) {
  BackupWorld w(5);
  const http::Body content(std::string(3000, 't'));
  bool stored = false;
  w.backup->backup("medical", content, BackupManager::Strategy::kErasure, 3,
                   2, [&](util::Status s) { stored = s.ok(); });
  w.sim.run_until(10 * kSecond);
  ASSERT_TRUE(stored);

  // A malicious peer flips one byte of the shard it holds. The per-shard
  // manifest digest catches it at fetch time: the corrupted shard is
  // treated as missing and RS reconstruction rebuilds the data from the
  // surviving k, instead of the bad bytes poisoning the decode.
  corrupt_shard(w, 0, 0);
  std::optional<http::Body> restored;
  w.backup->restore("medical", [&](util::Result<http::Body> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    restored = r.value();
  });
  w.sim.run_until(200 * kSecond);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->text(), content.text());
}

TEST(Backup, CorruptedShardPlusDeadParityIsInsufficient) {
  BackupWorld w(5);
  const http::Body content(std::string(3000, 't'));
  bool stored = false;
  w.backup->backup("medical", content, BackupManager::Strategy::kErasure, 3,
                   2, [&](util::Status s) { stored = s.ok(); });
  w.sim.run_until(10 * kSecond);
  ASSERT_TRUE(stored);

  // With both parity holders dark, a corrupted data shard leaves only
  // k-1 = 2 usable shards: the restore fails loudly rather than decoding
  // garbage.
  corrupt_shard(w, 0, 0);
  w.kill_peer(3);
  w.kill_peer(4);
  std::string code;
  w.backup->restore("medical", [&](util::Result<http::Body> r) {
    ASSERT_FALSE(r.ok());
    code = r.error().code;
  });
  w.sim.run_until(200 * kSecond);
  EXPECT_EQ(code, "insufficient_shards");
}

TEST(Backup, RepairRewritesCorruptedShardInPlace) {
  BackupWorld w(5);
  const http::Body content(std::string(3000, 'c'));
  bool stored = false;
  w.backup->backup("medical", content, BackupManager::Strategy::kErasure, 3,
                   2, [&](util::Status s) { stored = s.ok(); });
  w.sim.run_until(10 * kSecond);
  ASSERT_TRUE(stored);

  corrupt_shard(w, 1, 1);
  std::optional<BackupManager::RepairReport> report;
  w.backup->check_and_repair(
      "medical", [&](util::Result<BackupManager::RepairReport> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        report = r.value();
      });
  w.sim.run_until(200 * kSecond);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->shards_missing, 1);
  EXPECT_EQ(report->shards_repaired, 1);
  // The peer is alive — the shard is rewritten where it lives, not moved.
  EXPECT_EQ(report->placements_moved, 0);

  // The repaired backup again tolerates m=2 failures including the
  // once-corrupted shard's peer staying up.
  w.kill_peer(3);
  w.kill_peer(4);
  std::optional<http::Body> restored;
  w.backup->restore("medical", [&](util::Result<http::Body> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    restored = r.value();
  });
  w.sim.run_until(500 * kSecond);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->text(), content.text());
}

TEST(Backup, RepairRehomesShardsFromDeadPeer) {
  BackupWorld w(5);
  const http::Body content(std::string(3000, 'p'));
  bool stored = false;
  w.backup->backup("medical", content, BackupManager::Strategy::kErasure, 3,
                   2, [&](util::Status s) { stored = s.ok(); });
  w.sim.run_until(10 * kSecond);
  ASSERT_TRUE(stored);

  w.kill_peer(4);  // holder of shard-4
  std::optional<BackupManager::RepairReport> report;
  w.backup->check_and_repair(
      "medical", [&](util::Result<BackupManager::RepairReport> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        report = r.value();
      });
  w.sim.run_until(200 * kSecond);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->shards_checked, 5);
  EXPECT_EQ(report->shards_missing, 1);
  EXPECT_EQ(report->shards_repaired, 1);
  EXPECT_EQ(report->placements_moved, 1);
  EXPECT_EQ(w.backup->stats().shards_repaired, 1u);

  // The rebuilt shard was re-homed to a live peer, so the backup again
  // tolerates m=2 further failures: kill two MORE peers and restore.
  w.kill_peer(1);
  w.kill_peer(2);
  std::optional<http::Body> restored;
  w.backup->restore("medical", [&](util::Result<http::Body> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    restored = r.value();
  });
  w.sim.run_until(500 * kSecond);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->text(), content.text());
}

TEST(Backup, ProbePeersReportsLiveness) {
  BackupWorld w(3);
  w.kill_peer(1);
  std::optional<std::vector<bool>> alive;
  w.backup->probe_peers(
      [&](std::vector<bool> a) { alive = std::move(a); });
  w.sim.run_until(120 * kSecond);
  ASSERT_TRUE(alive.has_value());
  EXPECT_EQ(*alive, (std::vector<bool>{true, false, true}));
}

}  // namespace
}  // namespace hpop::attic
