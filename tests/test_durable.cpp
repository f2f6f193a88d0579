#include <gtest/gtest.h>

#include <set>

#include "attic/backup.hpp"
#include "attic/grant.hpp"
#include "attic/health.hpp"
#include "attic/webdav.hpp"
#include "durable/device.hpp"
#include "durable/wal.hpp"
#include "fault/fault.hpp"
#include "hpop/appliance.hpp"
#include "net/topology.hpp"
#include "nocdn/peer.hpp"
#include "telemetry/metrics.hpp"

namespace hpop {
namespace {

using util::kMillisecond;
using util::kSecond;

// ----------------------------------------------------------------- Device

TEST(StorageDevice, UnflushedBytesDieInCrash) {
  durable::StorageDevice dev("d", util::Rng(1));
  dev.append("f", util::to_bytes("hello "));
  ASSERT_TRUE(dev.fsync("f"));
  dev.append("f", util::to_bytes("world"));
  EXPECT_EQ(dev.size("f"), 11u);
  EXPECT_EQ(dev.durable_size("f"), 6u);

  dev.crash();
  EXPECT_EQ(dev.size("f"), 6u);
  EXPECT_EQ(util::to_string(dev.read("f")), "hello ");
  EXPECT_EQ(dev.stats().bytes_lost_in_crash, 5u);
}

TEST(StorageDevice, FsyncIsTheDurabilityBarrier) {
  durable::StorageDevice dev("d", util::Rng(1));
  dev.append("f", util::to_bytes("abc"));
  ASSERT_TRUE(dev.fsync("f"));
  dev.crash();
  EXPECT_EQ(util::to_string(dev.read("f")), "abc");
}

TEST(StorageDevice, TornCrashKeepsSeededPrefix) {
  // Same seed, same cut point: the torn prefix is reproducible.
  auto run = [] {
    durable::StorageDevice dev("d", util::Rng(42));
    dev.append("f", util::to_bytes("durable."));
    dev.fsync("f");
    dev.append("f", util::to_bytes("this tail is unflushed and long"));
    dev.arm_torn_write();
    dev.crash();
    return dev.read("f");
  };
  const util::Bytes a = run();
  const util::Bytes b = run();
  EXPECT_EQ(a, b);
  // The durable prefix always survives; the tail is a strict prefix of
  // what was buffered (never the whole thing — it is genuinely torn).
  ASSERT_GE(a.size(), 8u);
  EXPECT_LT(a.size(), 8u + 31u);
  EXPECT_EQ(util::to_string(util::Bytes(a.begin(), a.begin() + 8)),
            "durable.");
}

TEST(StorageDevice, PartialFlushPersistsPrefixAndFails) {
  durable::StorageDevice dev("d", util::Rng(7));
  dev.append("f", util::to_bytes("0123456789"));
  dev.arm_partial_flush();
  EXPECT_FALSE(dev.fsync("f"));
  EXPECT_EQ(dev.stats().partial_flushes, 1u);
  EXPECT_LT(dev.durable_size("f"), 10u);  // strict prefix on the platter
  // A clean retry completes the flush; nothing was lost in memory.
  EXPECT_TRUE(dev.fsync("f"));
  EXPECT_EQ(dev.durable_size("f"), 10u);
  dev.crash();
  EXPECT_EQ(util::to_string(dev.read("f")), "0123456789");
}

TEST(StorageDevice, RenameIsAtomicAndDurable) {
  durable::StorageDevice dev("d", util::Rng(1));
  dev.append("old", util::to_bytes("aaaa"));
  dev.fsync("old");
  dev.append("new", util::to_bytes("bbbbbb"));  // not even flushed
  ASSERT_TRUE(dev.rename("new", "old"));
  EXPECT_FALSE(dev.exists("new"));
  dev.crash();  // the renamed image survives wholesale
  EXPECT_EQ(util::to_string(dev.read("old")), "bbbbbb");
  EXPECT_FALSE(dev.rename("missing", "old"));
}

// -------------------------------------------------------------------- WAL

TEST(Wal, AppendSyncRecoverReplays) {
  durable::StorageDevice dev("d", util::Rng(1));
  {
    durable::Wal wal(dev, "svc.wal");
    wal.append(1, util::to_bytes("one"));
    wal.append(2, util::to_bytes("two"));
    ASSERT_TRUE(wal.sync());
    wal.advance_epoch();
    wal.append(1, util::to_bytes("three"));
    ASSERT_TRUE(wal.sync());
  }
  dev.crash();

  durable::Wal wal(dev, "svc.wal");
  std::vector<std::pair<std::uint8_t, std::string>> seen;
  std::vector<std::uint64_t> epochs;
  const auto stats = wal.recover([&](const durable::WalRecord& rec) {
    seen.emplace_back(rec.type, util::to_string(rec.payload));
    epochs.push_back(rec.epoch);
  });
  EXPECT_EQ(stats.records, 3u);
  EXPECT_FALSE(stats.torn_tail);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::uint8_t, std::string>{1, "one"}));
  EXPECT_EQ(seen[2], (std::pair<std::uint8_t, std::string>{1, "three"}));
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{1, 1, 2}));
  // The log resumes past the highest replayed epoch.
  EXPECT_EQ(wal.epoch(), 3u);
  EXPECT_EQ(wal.durable_epoch(), 2u);
}

TEST(Wal, ScanStopsAtFirstCorruptRecord) {
  util::Bytes image;
  durable::encode_record(image, 1, 1, util::to_bytes("good"));
  const std::size_t second_start = image.size();
  durable::encode_record(image, 1, 1, util::to_bytes("evil"));
  durable::encode_record(image, 1, 1, util::to_bytes("unreachable"));
  image[second_start + durable::kWalHeaderSize] ^= 0x01;  // flip one payload bit

  std::vector<std::string> seen;
  const auto stats = durable::scan_records(
      image,
      [&](const durable::WalRecord& r) { seen.push_back(util::to_string(r.payload)); });
  // Only the first record is delivered: the corrupt one fails its crc, and
  // scanning never resumes past it (a later intact record is unreachable —
  // the limestone dblog rule).
  EXPECT_EQ(seen, std::vector<std::string>{"good"});
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.bytes_scanned, second_start);
  EXPECT_EQ(stats.torn_bytes, image.size() - second_start);
}

TEST(Wal, TornCrashTailIsTruncatedByRecovery) {
  durable::StorageDevice dev("d", util::Rng(21));
  {
    durable::Wal wal(dev, "svc.wal");
    wal.append(1, util::to_bytes("durable record"));
    ASSERT_TRUE(wal.sync());
    wal.append(1, util::to_bytes("unsynced record that the crash tears"));
    dev.arm_torn_write();
  }
  dev.crash();
  ASSERT_GT(dev.size("svc.wal"), 0u);

  durable::Wal wal(dev, "svc.wal");
  std::vector<std::string> seen;
  const auto stats = wal.recover(
      [&](const durable::WalRecord& r) { seen.push_back(util::to_string(r.payload)); });
  EXPECT_EQ(seen, std::vector<std::string>{"durable record"});
  EXPECT_EQ(stats.records, 1u);
  EXPECT_GT(stats.wall_records_truncated, 0u);
  // The torn tail was physically removed, so the log appends cleanly.
  wal.append(1, util::to_bytes("after recovery"));
  ASSERT_TRUE(wal.sync());
  durable::Wal again(dev, "svc.wal");
  std::vector<std::string> seen2;
  again.recover(
      [&](const durable::WalRecord& r) { seen2.push_back(util::to_string(r.payload)); });
  EXPECT_EQ(seen2,
            (std::vector<std::string>{"durable record", "after recovery"}));
}

TEST(Wal, CompactionReplacesPrefixWithSnapshot) {
  durable::StorageDevice dev("d", util::Rng(1));
  durable::Wal wal(dev, "svc.wal");
  for (int i = 0; i < 100; ++i) {
    wal.append(1, util::to_bytes("record " + std::to_string(i)));
  }
  ASSERT_TRUE(wal.sync());
  const std::size_t before = dev.size("svc.wal");
  ASSERT_TRUE(wal.compact(util::to_bytes("SNAPSHOT")));
  EXPECT_LT(dev.size("svc.wal"), before);
  EXPECT_FALSE(dev.exists("svc.wal.compact"));

  wal.append(2, util::to_bytes("post-compaction"));
  ASSERT_TRUE(wal.sync());
  dev.crash();

  durable::Wal recovered(dev, "svc.wal");
  std::vector<std::pair<std::uint8_t, std::string>> seen;
  const auto stats = recovered.recover([&](const durable::WalRecord& r) {
    seen.emplace_back(r.type, util::to_string(r.payload));
  });
  EXPECT_EQ(stats.snapshot_records, 1u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, durable::kSnapshotRecordType);
  EXPECT_EQ(seen[0].second, "SNAPSHOT");
  EXPECT_EQ(seen[1].second, "post-compaction");
}

TEST(Wal, CrashMidCompactionDiscardsTemp) {
  durable::StorageDevice dev("d", util::Rng(1));
  {
    durable::Wal wal(dev, "svc.wal");
    wal.append(1, util::to_bytes("kept"));
    ASSERT_TRUE(wal.sync());
  }
  // A crash between writing the temp and the rename commit point leaves a
  // stale .compact file; recovery must throw it away and trust the log.
  dev.append("svc.wal.compact", util::to_bytes("half-written snapshot"));
  dev.fsync("svc.wal.compact");
  dev.crash();

  durable::Wal wal(dev, "svc.wal");
  std::vector<std::string> seen;
  const auto stats = wal.recover(
      [&](const durable::WalRecord& r) { seen.push_back(util::to_string(r.payload)); });
  EXPECT_TRUE(stats.compaction_discarded);
  EXPECT_FALSE(dev.exists("svc.wal.compact"));
  EXPECT_EQ(seen, std::vector<std::string>{"kept"});
}

TEST(Wal, CollectSinceFiltersByEpochAndDemandsFullAfterCompaction) {
  durable::StorageDevice dev("d", util::Rng(1));
  durable::Wal wal(dev, "svc.wal");
  wal.append(1, util::to_bytes("epoch1"));
  ASSERT_TRUE(wal.sync());
  const std::uint64_t boundary = wal.epoch();
  wal.advance_epoch();
  wal.append(1, util::to_bytes("epoch2"));
  ASSERT_TRUE(wal.sync());

  util::Bytes delta;
  ASSERT_TRUE(wal.collect_since(boundary, delta));
  std::vector<std::string> seen;
  durable::scan_records(delta, [&](const durable::WalRecord& r) {
    seen.push_back(util::to_string(r.payload));
  });
  EXPECT_EQ(seen, std::vector<std::string>{"epoch2"});

  // Compaction folds every epoch into a snapshot newer than `boundary`:
  // the delta chain is gone, a full image is required.
  ASSERT_TRUE(wal.compact(util::to_bytes("SNAP")));
  EXPECT_FALSE(wal.collect_since(boundary, delta));
  EXPECT_TRUE(delta.empty());
}

// ------------------------------------------------------ AtticStore replay

TEST(StoreDurability, ReplayCountsRecordsItCannotApply) {
  durable::StorageDevice dev("disk", util::Rng(5));
  durable::Wal wal(dev, "attic.wal");
  attic::AtticStore store(1 << 20);
  store.attach_wal(&wal);
  ASSERT_TRUE(store.put("/a", http::Body::synthetic(3000, 1), 0).ok());
  ASSERT_TRUE(store.put("/b", http::Body::synthetic(3000, 2), kSecond).ok());
  ASSERT_TRUE(store.remove("/b").ok());

  dev.crash();
  durable::Wal wal2(dev, "attic.wal");
  attic::AtticStore small(4000);  // room for /a, not for /b as well
  const auto stats = small.recover_from_wal(wal2);
  EXPECT_EQ(stats.records, 3u);
  // The put of /b is refused on quota, so the remove of /b finds nothing.
  EXPECT_EQ(stats.records_failed, 2u);
  EXPECT_TRUE(small.exists("/a"));
  EXPECT_FALSE(small.exists("/b"));
}

TEST(StoreDurability, RecoveryReproducesStateByteForByte) {
  durable::StorageDevice dev("disk", util::Rng(5));
  durable::Wal wal(dev, "attic.wal");
  attic::AtticStore store(1 << 20);
  store.attach_wal(&wal);
  ASSERT_TRUE(store.put("/docs/a", http::Body("v1"), 0).ok());
  ASSERT_TRUE(store.put("/docs/a", http::Body("v2"), kSecond).ok());
  ASSERT_TRUE(store.put("/photos/p", http::Body::synthetic(5000, 0xAB),
                        2 * kSecond)
                  .ok());
  store.mkdir("/empty");
  ASSERT_TRUE(store.remove("/photos/p").ok());
  const std::uint64_t fp = store.fingerprint();

  dev.crash();  // every mutation synced, so nothing is lost
  durable::Wal wal2(dev, "attic.wal");
  attic::AtticStore recovered(1 << 20);
  const auto stats = recovered.recover_from_wal(wal2);
  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(stats.records_failed, 0u);
  EXPECT_EQ(recovered.fingerprint(), fp);
  EXPECT_EQ(recovered.used_bytes(), store.used_bytes());
  EXPECT_TRUE(recovered.dir_exists("/empty"));
  EXPECT_FALSE(recovered.exists("/photos/p"));
  const auto a = recovered.get("/docs/a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().content.text(), "v2");
  EXPECT_EQ(a.value().etag, store.get("/docs/a").value().etag);

  // Replay continues the etag counter: the next write on either store
  // mints the same etag — recovery is re-execution, not approximation.
  const auto e1 = store.put("/docs/b", http::Body("x"), 3 * kSecond);
  const auto e2 = recovered.put("/docs/b", http::Body("x"), 3 * kSecond);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e1.value(), e2.value());
}

TEST(StoreDurability, VersionPruningReplaysExactly) {
  durable::StorageDevice dev("disk", util::Rng(5));
  durable::Wal wal(dev, "attic.wal");
  attic::AtticStore store(1 << 20);
  store.attach_wal(&wal);
  const std::size_t total = attic::AtticStore::kMaxVersions + 6;
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_TRUE(store
                    .put("/f", http::Body::synthetic(100 + i, i),
                         static_cast<util::TimePoint>(i) * kSecond)
                    .ok());
  }
  EXPECT_EQ(store.versions_pruned(), 6u);
  EXPECT_EQ(store.history("/f").value().size(),
            attic::AtticStore::kMaxVersions);

  dev.crash();
  durable::Wal wal2(dev, "attic.wal");
  attic::AtticStore recovered(1 << 20);
  recovered.recover_from_wal(wal2);
  EXPECT_EQ(recovered.fingerprint(), store.fingerprint());
  EXPECT_EQ(recovered.versions_pruned(), 6u);
  EXPECT_EQ(recovered.used_bytes(), store.used_bytes());
}

TEST(StoreDurability, FailedBarrierMeansNotDurable) {
  durable::StorageDevice dev("disk", util::Rng(5));
  durable::Wal wal(dev, "attic.wal");
  attic::AtticStore store(1 << 20);
  store.attach_wal(&wal);
  ASSERT_TRUE(store.put("/a", http::Body("safe"), 0).ok());

  dev.arm_partial_flush();
  const auto r = store.put("/b", http::Body("doomed"), kSecond);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "not_durable");
  // In-memory state ran ahead of the platter — exactly what recovery
  // replays away after the crash.
  EXPECT_TRUE(store.exists("/b"));

  dev.crash();
  durable::Wal wal2(dev, "attic.wal");
  attic::AtticStore recovered(1 << 20);
  const auto stats = recovered.recover_from_wal(wal2);
  EXPECT_TRUE(recovered.exists("/a"));
  EXPECT_FALSE(recovered.exists("/b"));
  EXPECT_GT(stats.wall_records_truncated, 0u);  // the torn half-record
}

TEST(StoreDurability, CompactionBoundsRecoveryReplay) {
  durable::StorageDevice dev("disk", util::Rng(5));
  durable::Wal wal(dev, "attic.wal");
  attic::AtticStore store(4u << 20);
  store.attach_wal(&wal);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store
                    .put("/f" + std::to_string(i % 10), http::Body("v"),
                         static_cast<util::TimePoint>(i))
                    .ok());
  }
  ASSERT_TRUE(store.compact_wal());
  ASSERT_TRUE(store.put("/after", http::Body("x"), 999).ok());

  dev.crash();
  durable::Wal wal2(dev, "attic.wal");
  attic::AtticStore recovered(4u << 20);
  const auto stats = recovered.recover_from_wal(wal2);
  // One snapshot + one post-compaction record — not 201 replayed puts.
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.snapshot_records, 1u);
  EXPECT_EQ(recovered.fingerprint(), store.fingerprint());
}

// ---------------------------------------- Health provider pending queue

TEST(HealthDurability, PendingQueueSurvivesProviderCrash) {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(53)};
  auto path = net::make_two_host_path(net, net::PathParams{},
                                      net::PathParams{});
  core::HpopConfig config;
  config.household = "patient";
  auto hpop = std::make_unique<core::Hpop>(*path.a, config);
  auto attic = std::make_unique<attic::AtticService>(*hpop);
  auto mux = std::make_unique<transport::TransportMux>(*path.b);
  auto http = std::make_unique<http::HttpClient>(*mux);

  durable::StorageDevice disk("provider-disk", util::Rng(9));
  auto wal = std::make_unique<durable::Wal>(disk, "health.wal");
  auto provider = std::make_unique<attic::HealthProviderSystem>(
      "clinic", *http, sim);
  provider->attach_wal(wal.get());
  const attic::ProviderGrant grant =
      attic::issue_provider_grant(*attic, "clinic");
  ASSERT_TRUE(provider->link_patient("alice", grant.encode()).ok());

  // Enqueue 5 records, then kill the provider process before any attic
  // response can arrive: the queue exists only in the WAL.
  sim.schedule(kSecond, [&] {
    for (int i = 0; i < 5; ++i) {
      attic::HealthRecord rec;
      rec.patient = "alice";
      rec.record_id = "rec-" + std::to_string(i);
      rec.kind = "lab";
      rec.content = http::Body("result " + std::to_string(i));
      provider->add_record(rec);
    }
  });
  std::uint64_t fp_before = 0;
  sim.schedule(kSecond + 1, [&] {
    ASSERT_EQ(provider->pending_writes(), 5u);
    fp_before = provider->fingerprint();
    disk.crash();
    provider.reset();  // in-flight callbacks die with the process
  });
  sim.run_until(2 * kSecond);

  auto wal2 = std::make_unique<durable::Wal>(disk, "health.wal");
  provider = std::make_unique<attic::HealthProviderSystem>("clinic", *http,
                                                           sim);
  const auto stats = provider->recover_from_wal(*wal2);
  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(provider->pending_writes(), 5u);
  EXPECT_EQ(provider->fingerprint(), fp_before);
  // Soft state (the patient link) is re-established by the driver, then
  // every recovered write is delivered.
  ASSERT_TRUE(provider->link_patient("alice", grant.encode()).ok());
  provider->flush_pending();
  sim.run_until(120 * kSecond);
  EXPECT_EQ(provider->pending_writes(), 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(attic->store().exists("/records/clinic/rec-" +
                                      std::to_string(i)))
        << i;
  }
}

// --------------------------------------------------- NoCDN usage records

struct PeerWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(61)};
  net::TwoHostPath path;  // a = origin/client side, b = the peer
  durable::StorageDevice disk{"peer-disk", util::Rng(17)};
  std::unique_ptr<durable::Wal> wal;
  std::unique_ptr<transport::TransportMux> mux_peer;
  std::unique_ptr<nocdn::PeerProxy> peer;
  std::unique_ptr<transport::TransportMux> mux_client;
  std::unique_ptr<http::HttpClient> client;

  PeerWorld() {
    path = net::make_two_host_path(net, net::PathParams{}, net::PathParams{});
    build();
    mux_client = std::make_unique<transport::TransportMux>(*path.a);
    client = std::make_unique<http::HttpClient>(*mux_client);
  }
  void build() {
    mux_peer = std::make_unique<transport::TransportMux>(*path.b);
    peer = std::make_unique<nocdn::PeerProxy>(*mux_peer, 8080,
                                              util::Rng(1000));
    wal = std::make_unique<durable::Wal>(disk, "usage.wal");
    peer->recover_from_wal(*wal);
    peer->signup(nocdn::ProviderSignup{
        "nytimes", 1, net::Endpoint{path.a->address(), 80}});
  }
  void teardown() {
    peer.reset();
    mux_peer.reset();
    wal.reset();
  }

  /// POSTs one signed usage record; returns via out-params.
  void post_usage(std::uint64_t nonce, std::function<void(int)> on_status) {
    nocdn::UsageRecord record;
    record.provider = "nytimes";
    record.peer_id = 1;
    record.key_id = 1;
    record.nonce = nonce;
    record.bytes_served = 1000 + nonce;
    record.sign(util::to_bytes("whatever"));
    http::Request req;
    req.method = http::Method::kPost;
    req.path = "/nocdn/usage";
    req.headers.set("Host", "nytimes");
    req.body = http::Body(nocdn::serialize_usage_line(record));
    client->fetch(peer->endpoint(), std::move(req),
                  [on_status](util::Result<http::Response> r) {
                    on_status(r.ok() ? r.value().status : -1);
                  });
  }
};

TEST(PeerDurability, AckedUsageRecordsSurviveCrash) {
  PeerWorld w;
  std::uint64_t acked = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    w.post_usage(i, [&](int status) {
      if (status == 204) ++acked;
    });
  }
  w.sim.run_until(30 * kSecond);
  ASSERT_EQ(acked, 8u);
  ASSERT_EQ(w.peer->pending_usage_count(), 8u);
  const std::uint64_t fp = w.peer->fingerprint();

  w.disk.crash();
  w.teardown();
  w.build();
  EXPECT_EQ(w.peer->pending_usage_count(), 8u);
  EXPECT_EQ(w.peer->fingerprint(), fp);
}

TEST(PeerDurability, BarrierFailureAnswers503SoClientRetries) {
  PeerWorld w;
  int first_status = 0;
  w.sim.schedule(kSecond, [&] { w.disk.arm_partial_flush(); });
  w.sim.schedule(kSecond + 1, [&] {
    w.post_usage(1, [&](int status) { first_status = status; });
  });
  w.sim.run_until(10 * kSecond);
  EXPECT_EQ(first_status, 503);
  EXPECT_EQ(w.disk.stats().partial_flushes, 1u);

  // The client retries the same claim; this time the barrier holds.
  int second_status = 0;
  w.post_usage(1, [&](int status) { second_status = status; });
  w.sim.run_until(20 * kSecond);
  EXPECT_EQ(second_status, 204);

  // After a crash + recovery only cleanly-synced records remain — the
  // 503'd copy either tore off or re-synced with the retry, never forked.
  w.disk.crash();
  w.teardown();
  w.build();
  EXPECT_GE(w.peer->pending_usage_count(), 1u);
}

// ----------------------------------------------------- HPoP directory

TEST(DirectoryDurability, RegistrationsSurviveDirectoryCrash) {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(47)};
  net::Router& core_r = net.add_router("core");
  net::Host& infra = net.add_host("infra", net.next_public_address());
  net.connect(infra, infra.address(), core_r, net::IpAddr{},
              net::LinkParams{10 * util::kGbps, 5 * kMillisecond});
  net::Host& device = net.add_host("device", net.next_public_address());
  net.connect(device, device.address(), core_r, net::IpAddr{},
              net::LinkParams{100 * util::kMbps, 15 * kMillisecond});
  // The directory runs on its own host: a crash tears down its whole
  // process image (mux included) while STUN/TURN/reflector stay up.
  net::Host& dir_host = net.add_host("dir", net.next_public_address());
  net.connect(dir_host, dir_host.address(), core_r, net::IpAddr{},
              net::LinkParams{10 * util::kGbps, 5 * kMillisecond});
  net::Home home = net::make_home(net, "home", core_r, 1,
                                  net::NatConfig::full_cone(),
                                  net::PathParams{});
  net.auto_route();

  auto mux_infra = std::make_unique<transport::TransportMux>(infra);
  auto mux_device = std::make_unique<transport::TransportMux>(device);
  traversal::StunServer stun(*mux_infra, 3478);
  traversal::TurnServer turn(*mux_infra, 3479);
  traversal::Reflector reflector(*mux_infra, 7100);
  durable::StorageDevice disk("dir-disk", util::Rng(3));
  auto wal = std::make_unique<durable::Wal>(disk, "dir.wal");
  auto mux_dir = std::make_unique<transport::TransportMux>(dir_host);
  auto directory = std::make_unique<core::DirectoryServer>(*mux_dir, 5300);
  directory->attach_wal(wal.get());

  core::HpopConfig config;
  config.household = "smith-family";
  config.reachability.home_gateway = home.nat;
  config.reachability.stun_server = net::Endpoint{infra.address(), 3478};
  config.reachability.turn_server = net::Endpoint{infra.address(), 3479};
  config.reachability.reflector = net::Endpoint{infra.address(), 7100};
  config.directory = net::Endpoint{dir_host.address(), 5300};
  core::Hpop hpop(*home.hosts[0], config);
  hpop.boot();
  sim.run_until(30 * kSecond);
  ASSERT_EQ(directory->registered(), 1u);
  const std::uint64_t fp = directory->fingerprint();

  // Directory process dies; its device crashes with it.
  disk.crash();
  directory.reset();
  wal.reset();
  mux_dir.reset();

  wal = std::make_unique<durable::Wal>(disk, "dir.wal");
  mux_dir = std::make_unique<transport::TransportMux>(dir_host);
  directory = std::make_unique<core::DirectoryServer>(*mux_dir, 5300);
  const auto stats = directory->recover_from_wal(*wal);
  EXPECT_GE(stats.records, 1u);
  EXPECT_EQ(directory->registered(), 1u);
  EXPECT_EQ(directory->fingerprint(), fp);

  // Lookups answer from the recovered advertisement immediately, before
  // the HPoP's persistent connection is re-established.
  const core::HashRing ring(1);
  core::DirectoryClient client(*mux_device, &ring,
                               {{dir_host.address(), 5300}},
                               core::DirClientConfig{}, util::Rng(1));
  std::optional<traversal::Advertisement> adv;
  client.lookup("smith-family",
                [&](util::Result<traversal::Advertisement> r) {
                  ASSERT_TRUE(r.ok()) << r.error().message;
                  adv = r.value();
                });
  sim.run_until(40 * kSecond);
  ASSERT_TRUE(adv.has_value());
  EXPECT_EQ(adv->endpoint.ip, home.nat->public_ip());
}

// ------------------------------------------- Incremental backup sessions

struct SessionWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(59)};
  net::Router* core_r;
  net::Host* owner_host;
  std::unique_ptr<transport::TransportMux> owner_mux;
  std::unique_ptr<http::HttpClient> owner_http;
  std::unique_ptr<attic::BackupManager> backup;
  struct PeerAttic {
    std::unique_ptr<core::Hpop> hpop;
    std::unique_ptr<attic::AtticService> attic;
  };
  std::vector<PeerAttic> peers;

  explicit SessionWorld(int n_peers) {
    core_r = &net.add_router("core");
    owner_host = &net.add_host("owner", net.next_public_address());
    net.connect(*owner_host, owner_host->address(), *core_r, net::IpAddr{},
                net::LinkParams{1 * util::kGbps, 5 * kMillisecond});
    owner_mux = std::make_unique<transport::TransportMux>(*owner_host);
    owner_http = std::make_unique<http::HttpClient>(*owner_mux);
    backup = std::make_unique<attic::BackupManager>(
        "owner", *owner_http, util::to_bytes("backup-key"));
    for (int i = 0; i < n_peers; ++i) {
      net::Host& host = net.add_host("peer" + std::to_string(i),
                                     net.next_public_address());
      net.connect(host, host.address(), *core_r, net::IpAddr{},
                  net::LinkParams{1 * util::kGbps, 10 * kMillisecond});
      PeerAttic peer;
      core::HpopConfig config;
      config.household = "peer" + std::to_string(i);
      peer.hpop = std::make_unique<core::Hpop>(host, config);
      peer.attic = std::make_unique<attic::AtticService>(*peer.hpop);
      backup->add_peer({host.address(), 443}, peer.attic->owner_token());
      peers.push_back(std::move(peer));
    }
    net.auto_route();
  }

  attic::BackupManager::SessionInfo run_session(durable::Wal& wal) {
    std::optional<attic::BackupManager::SessionInfo> info;
    attic::BackupManager::SessionConfig cfg;
    backup->backup_session(
        "attic", wal, cfg,
        [&](util::Result<attic::BackupManager::SessionInfo> r) {
          ASSERT_TRUE(r.ok()) << r.error().message;
          info = r.value();
        });
    sim.run_until(sim.now() + 60 * kSecond);
    EXPECT_TRUE(info.has_value());
    return info.value_or(attic::BackupManager::SessionInfo{});
  }
};

TEST(BackupSession, DeltasShipOnlyNewRecordsAndRestoreReplays) {
  SessionWorld w(3);
  durable::StorageDevice disk("owner-disk", util::Rng(13));
  durable::Wal wal(disk, "attic.wal");
  attic::AtticStore store(4u << 20);
  store.attach_wal(&wal);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store
                    .put("/f" + std::to_string(i),
                         http::Body::synthetic(2000, i),
                         static_cast<util::TimePoint>(i))
                    .ok());
  }

  // Session 0 is always a full image.
  const auto s0 = w.run_session(wal);
  EXPECT_TRUE(s0.full);
  EXPECT_GT(s0.payload_bytes, 0u);

  // Small churn, then a delta session: far fewer bytes than the full.
  ASSERT_TRUE(store.put("/f3", http::Body::synthetic(2000, 99), 100).ok());
  const auto s1 = w.run_session(wal);
  EXPECT_FALSE(s1.full);
  EXPECT_GT(s1.payload_bytes, 0u);
  EXPECT_LT(s1.payload_bytes, s0.payload_bytes / 5);
  EXPECT_EQ(w.backup->session_stats().full_sessions, 1u);
  EXPECT_EQ(w.backup->session_stats().delta_sessions, 1u);

  // An idle interval records an empty session without shipping anything.
  const auto s2 = w.run_session(wal);
  EXPECT_FALSE(s2.full);
  EXPECT_EQ(s2.payload_bytes, 0u);

  // Restore: full + deltas reassemble into one WAL image that recovery
  // replays into an identical store.
  std::optional<util::Bytes> image;
  w.backup->restore_session("attic", [&](util::Result<util::Bytes> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    image = r.value();
  });
  w.sim.run_until(w.sim.now() + 120 * kSecond);
  ASSERT_TRUE(image.has_value());

  durable::StorageDevice disk2("restored-disk", util::Rng(14));
  disk2.append("attic.wal", *image);
  disk2.fsync("attic.wal");
  durable::Wal wal2(disk2, "attic.wal");
  attic::AtticStore restored(4u << 20);
  restored.recover_from_wal(wal2);
  EXPECT_EQ(restored.fingerprint(), store.fingerprint());
}

TEST(BackupSession, CompactionForcesNextSessionFull) {
  SessionWorld w(3);
  durable::StorageDevice disk("owner-disk", util::Rng(13));
  durable::Wal wal(disk, "attic.wal");
  attic::AtticStore store(4u << 20);
  store.attach_wal(&wal);
  ASSERT_TRUE(store.put("/a", http::Body("one"), 0).ok());
  EXPECT_TRUE(w.run_session(wal).full);

  ASSERT_TRUE(store.put("/b", http::Body("two"), 1).ok());
  ASSERT_TRUE(store.compact_wal());  // the delta chain no longer exists
  ASSERT_TRUE(store.put("/c", http::Body("three"), 2).ok());
  const auto s1 = w.run_session(wal);
  EXPECT_TRUE(s1.full);  // forced, even though 1 % full_every != 0

  std::optional<util::Bytes> image;
  w.backup->restore_session("attic", [&](util::Result<util::Bytes> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    image = r.value();
  });
  w.sim.run_until(w.sim.now() + 120 * kSecond);
  ASSERT_TRUE(image.has_value());
  durable::StorageDevice disk2("restored-disk", util::Rng(14));
  disk2.append("attic.wal", *image);
  disk2.fsync("attic.wal");
  durable::Wal wal2(disk2, "attic.wal");
  attic::AtticStore restored(4u << 20);
  restored.recover_from_wal(wal2);
  EXPECT_EQ(restored.fingerprint(), store.fingerprint());
}

// ------------------------------- Seeded crash + torn-write chaos scenario

/// A patient HPoP whose attic state lives on a StorageDevice behind a WAL.
/// Crash teardown destroys the process image; rebuild recovers from the
/// device — never from a saved in-memory copy.
struct DurablePatientWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(53)};
  net::TwoHostPath path;
  durable::StorageDevice disk{"patient-disk", util::Rng(71)};
  std::unique_ptr<durable::Wal> wal;
  std::unique_ptr<core::Hpop> hpop;
  std::unique_ptr<attic::AtticService> attic;
  std::unique_ptr<transport::TransportMux> mux_provider;
  std::unique_ptr<http::HttpClient> http_provider;
  std::uint64_t torn_recoveries = 0;
  std::uint64_t recoveries = 0;

  DurablePatientWorld() {
    path = net::make_two_host_path(net, net::PathParams{},
                                   net::PathParams{});
    build();
    mux_provider = std::make_unique<transport::TransportMux>(*path.b);
    http_provider = std::make_unique<http::HttpClient>(*mux_provider);
  }
  void build() {
    core::HpopConfig config;
    config.household = "patient";
    hpop = std::make_unique<core::Hpop>(*path.a, config);
    attic = std::make_unique<attic::AtticService>(*hpop);
    wal = std::make_unique<durable::Wal>(disk, "attic.wal");
    const auto stats = attic->store().recover_from_wal(*wal);
    ++recoveries;
    if (stats.torn_tail) ++torn_recoveries;
  }
  void teardown() {
    attic.reset();
    hpop.reset();
    wal.reset();
  }
};

struct ChaosOutcome {
  std::size_t acked = 0;
  std::size_t missing_after_ack = 0;
  std::uint64_t store_fp = 0;
  std::uint64_t write_failures = 0;
  std::uint64_t device_crashes = 0;
  std::uint64_t partial_flushes = 0;
  std::uint64_t bytes_lost = 0;
  std::uint64_t torn_recoveries = 0;
  std::string telemetry_jsonl;
};

ChaosOutcome run_durable_chaos() {
  const telemetry::Snapshot before = telemetry::registry().snapshot();
  DurablePatientWorld w;
  fault::ChaosController chaos(w.sim, util::Rng(11));
  chaos.register_node("patient", w.path.a, [&] { w.teardown(); },
                      [&] { w.build(); });
  chaos.attach_device("patient", &w.disk);

  const attic::ProviderGrant grant =
      attic::issue_provider_grant(*w.attic, "clinic");
  attic::HealthProviderSystem provider("clinic", *w.http_provider, w.sim);
  EXPECT_TRUE(provider.link_patient("alice", grant.encode()).ok());

  std::set<std::string> acked;
  const int kRecords = 30;
  for (int i = 0; i < kRecords; ++i) {
    w.sim.schedule((1 + 2 * i) * kSecond, [&, i] {
      attic::HealthRecord rec;
      rec.patient = "alice";
      rec.record_id = "rec-" + std::to_string(i);
      rec.kind = "visit-note";
      rec.content = http::Body("visit " + std::to_string(i));
      provider.add_record(rec, [&acked, i](util::Status s) {
        if (s.ok()) acked.insert("rec-" + std::to_string(i));
      });
    });
  }

  // Two crash episodes, each preceded by an armed partial flush (the put
  // in flight fails its barrier and is NOT acked) and an armed torn write
  // (the crash keeps a ragged prefix of the unflushed tail).
  fault::FaultPlan plan;
  plan.partial_flush(&w.disk, 6900 * kMillisecond)
      .torn_write(&w.disk, 6950 * kMillisecond)
      .crash("patient", 7150 * kMillisecond, 15 * kSecond)
      .partial_flush(&w.disk, 38900 * kMillisecond)
      .torn_write(&w.disk, 38950 * kMillisecond)
      .crash("patient", 39150 * kMillisecond, 12 * kSecond);
  chaos.execute(plan);
  // The provider re-drives parked writes once the patient HPoP is back.
  for (const util::TimePoint at :
       {30 * kSecond, 60 * kSecond, 90 * kSecond, 120 * kSecond}) {
    w.sim.schedule(at, [&] { provider.flush_pending(); });
  }
  w.sim.run_until(300 * kSecond);

  ChaosOutcome out;
  out.acked = acked.size();
  for (const std::string& id : acked) {
    if (!w.attic->store().exists("/records/clinic/" + id)) {
      ++out.missing_after_ack;
    }
  }
  out.store_fp = w.attic->store().fingerprint();
  out.write_failures = provider.attic_write_failures();
  out.device_crashes = chaos.stats().device_crashes;
  out.partial_flushes = w.disk.stats().partial_flushes;
  out.bytes_lost = w.disk.stats().bytes_lost_in_crash;
  out.torn_recoveries = w.torn_recoveries;
  out.telemetry_jsonl = telemetry::to_jsonl(telemetry::MetricsRegistry::delta(
      before, telemetry::registry().snapshot()));
  return out;
}

TEST(DurableChaos, AckedWritesSurviveTornCrashes) {
  const ChaosOutcome out = run_durable_chaos();
  // Zero acknowledged-write loss: every acked record is in the recovered
  // attic. Un-fsynced tail loss happened (and is allowed) — the device
  // genuinely dropped bytes, and at least one recovery saw a torn tail.
  EXPECT_EQ(out.acked, 30u);
  EXPECT_EQ(out.missing_after_ack, 0u);
  EXPECT_GT(out.write_failures, 0u);
  EXPECT_EQ(out.device_crashes, 2u);
  EXPECT_EQ(out.partial_flushes, 2u);
  EXPECT_GT(out.bytes_lost, 0u);
  EXPECT_GE(out.torn_recoveries, 1u);
}

TEST(DurableChaos, SameSeedRunsAreByteIdentical) {
  const ChaosOutcome a = run_durable_chaos();
  const ChaosOutcome b = run_durable_chaos();
  EXPECT_EQ(a.store_fp, b.store_fp);
  EXPECT_EQ(a.acked, b.acked);
  EXPECT_EQ(a.torn_recoveries, b.torn_recoveries);
  EXPECT_EQ(a.telemetry_jsonl, b.telemetry_jsonl);
  EXPECT_FALSE(a.telemetry_jsonl.empty());
}

}  // namespace
}  // namespace hpop
