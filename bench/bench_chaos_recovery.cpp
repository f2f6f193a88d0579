// E13 — §IV-A "Data Availability": "home networks are generally less
// reliable than large cloud data centers, and are more prone to hardware
// failures and outages."
//
// The HPoP answer is not to pretend homes are reliable but to recover:
// retried writes, erasure-coded repair, and failover. This bench drives the
// fault-injection subsystem (src/fault) through three seeded recovery
// scenarios against the real service stacks and reports the recovery
// numbers straight out of the telemetry registry:
//
//   A. an HPoP crash in the middle of a health-record write stream
//      (durable-ack invariant: zero acked-then-lost records),
//   B. a backup peer lost for good, with the audit rehoming its shard
//      (repair latency + a restore that still has only k live peers),
//   C. HTTP fetches through a flapping link, retry policy on vs off.

#include "attic/backup.hpp"
#include "attic/grant.hpp"
#include "attic/health.hpp"
#include "attic/webdav.hpp"
#include "bench/common.hpp"
#include "durable/device.hpp"
#include "durable/wal.hpp"
#include "fault/fault.hpp"
#include "net/topology.hpp"
#include "sweep/worlds.hpp"
#include "telemetry/metrics.hpp"

#include <optional>
#include <set>

using namespace hpop;
using namespace hpop::bench;
using util::kGbps;
using util::kMillisecond;
using util::kSecond;

namespace {

// ------------------------------------ A: health records across an HPoP crash

/// Patient HPoP whose attic lives on a simulated StorageDevice behind a
/// WAL: the device survives the crash (minus its unflushed tail), while the
/// Hpop/AtticService objects model the process image and are rebuilt by
/// recovering from the device.
struct PatientWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(53)};
  net::TwoHostPath path;
  durable::StorageDevice disk{"patient-disk", util::Rng(71)};
  std::unique_ptr<durable::Wal> wal;
  std::unique_ptr<core::Hpop> hpop;
  std::unique_ptr<attic::AtticService> attic;
  std::unique_ptr<transport::TransportMux> mux_provider;
  std::unique_ptr<http::HttpClient> http_provider;

  PatientWorld() {
    path = net::make_two_host_path(net, net::PathParams{}, net::PathParams{});
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
    attic->store().recover_from_wal(*wal);
  }
  void teardown() {
    attic.reset();
    hpop.reset();
    wal.reset();
  }
};

struct HealthOutcome {
  std::size_t acked = 0;
  std::size_t lost = 0;  // acked but absent from the attic after recovery
  std::uint64_t write_failures = 0;
  double downtime_s = 0;
};

HealthOutcome run_health_crash() {
  PatientWorld w;
  fault::ChaosController chaos(w.sim, util::Rng(11));
  util::TimePoint crashed_at = 0, restarted_at = 0;
  chaos.register_node("patient", w.path.a,
                      [&] {
                        crashed_at = w.sim.now();
                        w.teardown();
                      },
                      [&] {
                        restarted_at = w.sim.now();
                        w.build();
                      });
  chaos.attach_device("patient", &w.disk);

  const attic::ProviderGrant grant =
      attic::issue_provider_grant(*w.attic, "clinic");
  attic::HealthProviderSystem provider("clinic", *w.http_provider, w.sim);
  if (!provider.link_patient("alice", grant.encode()).ok()) return {};
  std::set<std::string> acked;
  for (int i = 0; i < 20; ++i) {
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
  chaos.crash_at("patient", 8 * kSecond, 15 * kSecond);
  w.sim.run_until(300 * kSecond);

  HealthOutcome out;
  out.acked = acked.size();
  for (const std::string& id : acked) {
    if (!w.attic->store().exists("/records/clinic/" + id)) ++out.lost;
  }
  out.write_failures = provider.attic_write_failures();
  out.downtime_s = static_cast<double>(restarted_at - crashed_at) / kSecond;
  return out;
}

// --------------------------------- B: shard repair after a peer dies for good

struct RepairWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(59)};
  net::Router* core;
  net::Host* owner_host;
  std::unique_ptr<transport::TransportMux> owner_mux;
  std::unique_ptr<http::HttpClient> owner_http;
  std::unique_ptr<attic::BackupManager> backup;
  struct PeerAttic {
    std::unique_ptr<core::Hpop> hpop;
    std::unique_ptr<attic::AtticService> attic;
  };
  std::vector<PeerAttic> peers;
  std::vector<net::Link*> peer_links;

  explicit RepairWorld(int n_peers) {
    core = &net.add_router("core");
    owner_host = &net.add_host("owner", net.next_public_address());
    net.connect(*owner_host, owner_host->address(), *core, net::IpAddr{},
                net::LinkParams{1 * kGbps, 5 * kMillisecond});
    owner_mux = std::make_unique<transport::TransportMux>(*owner_host);
    owner_http = std::make_unique<http::HttpClient>(*owner_mux);
    backup = std::make_unique<attic::BackupManager>(
        "owner", *owner_http, util::to_bytes("backup-key"));
    for (int i = 0; i < n_peers; ++i) {
      net::Host& host = net.add_host("peer" + std::to_string(i),
                                     net.next_public_address());
      peer_links.push_back(&net.connect(
          host, host.address(), *core, net::IpAddr{},
          net::LinkParams{1 * kGbps, 10 * kMillisecond}));
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
};

struct RepairOutcome {
  int shards_missing = 0;
  int shards_repaired = 0;
  double repair_latency_s = 0;  // audit start -> repaired placement acked
  bool degraded_restore_ok = false;
  std::uint64_t shards_repaired_metric = 0;
};

RepairOutcome run_shard_repair() {
  RepairWorld w(5);
  fault::ChaosController chaos(w.sim, util::Rng(13));
  const auto before = telemetry::registry().snapshot();
  const http::Body content(std::string(3000, 'c'));
  w.backup->backup("medical", content,
                   attic::BackupManager::Strategy::kErasure, 3, 2,
                   [](util::Status) {});
  w.sim.run_until(10 * kSecond);

  // Peer 4's home drops off the network and never comes back (within the
  // horizon). The audit at t=30s must notice and rehome its shard.
  chaos.link_down_at(w.peer_links[4], 15 * kSecond, 10'000 * kSecond);
  RepairOutcome out;
  util::TimePoint repaired_at = 0;
  w.sim.schedule(30 * kSecond, [&] {
    w.backup->check_and_repair(
        "medical", [&](util::Result<attic::BackupManager::RepairReport> r) {
          if (!r.ok()) return;
          out.shards_missing = r.value().shards_missing;
          out.shards_repaired = r.value().shards_repaired;
          repaired_at = w.sim.now();
        });
  });
  w.sim.run_until(200 * kSecond);
  if (repaired_at > 0) {
    out.repair_latency_s =
        static_cast<double>(repaired_at - 30 * kSecond) / kSecond;
  }

  // Two more homes go dark; with the rehomed shard exactly k=3 shards are
  // still reachable, so the restore must still decode.
  chaos.link_down_at(w.peer_links[1], 210 * kSecond, 10'000 * kSecond);
  chaos.link_down_at(w.peer_links[2], 210 * kSecond, 10'000 * kSecond);
  w.sim.schedule(220 * kSecond, [&] {
    w.backup->restore("medical", [&](util::Result<http::Body> r) {
      out.degraded_restore_ok = r.ok() && r.value().text() == content.text();
    });
  });
  w.sim.run_until(600 * kSecond);
  const auto delta = telemetry::MetricsRegistry::delta(
      before, telemetry::registry().snapshot());
  out.shards_repaired_metric =
      static_cast<std::uint64_t>(delta.value("attic.backup.shards_repaired"));
  return out;
}

}  // namespace

int main() {
  header("E13", "fault injection & recovery across the HPoP services",
         "home networks are generally less reliable than large cloud data "
         "centers, and are more prone to hardware failures and outages");

  const auto run_start = telemetry::registry().snapshot();
  const HealthOutcome health = run_health_crash();
  const RepairOutcome repair = run_shard_repair();
  // Scenario C is the sweeper's chaos world, at this bench's fixed seeds.
  const sweep::FlapResult plain = sweep::run_flap_fetches(
      {.net_seed = 71, .client_seed = 17, .chaos_seed = 19, .retry = false});
  const sweep::FlapResult retried = sweep::run_flap_fetches(
      {.net_seed = 71, .client_seed = 17, .chaos_seed = 19, .retry = true});
  const auto faults = telemetry::MetricsRegistry::delta(
      run_start, telemetry::registry().snapshot());

  std::printf("scenario A: HPoP crash (15s) mid-stream, 20 provider writes\n");
  std::printf("scenario B: backup peer lost for good, audit rehomes shard\n");
  std::printf("scenario C: 10 fetches through a link flapping 2x5s down\n\n");

  util::Table table({"scenario", "fault injected", "recovery result",
                     "recovery effort"});
  table.add_row({"A health writes",
                 "node crash, " + fmt(health.downtime_s, 0) + "s down",
                 std::to_string(health.acked) + "/20 acked, " +
                     std::to_string(health.lost) + " acked-then-lost",
                 std::to_string(health.write_failures) + " failed writes retried"});
  table.add_row({"B shard repair", "peer link down (permanent)",
                 std::to_string(repair.shards_repaired) + " shard rehomed, " +
                     "k-of-n restore " +
                     (repair.degraded_restore_ok ? "ok" : "FAILED"),
                 fmt(repair.repair_latency_s, 2) + "s audit-to-repair"});
  table.add_row({"C fetch, no retry", "link flap 2x5s",
                 std::to_string(plain.ok) + "/10 fetches ok",
                 std::to_string(plain.retries) + " retries"});
  table.add_row({"C fetch, retry on", "link flap 2x5s",
                 std::to_string(retried.ok) + "/10 fetches ok",
                 std::to_string(retried.retries) + " retries"});
  std::printf("%s", table.render().c_str());

  std::printf("\nfault-injection counters for the whole run:\n");
  util::Table fault_table({"metric", "value"});
  for (const char* name :
       {"fault.node_crashes", "fault.node_restarts", "fault.link_downs",
        "fault.link_ups", "attic.backup.shards_repaired"}) {
    fault_table.add_row({name, fmt(faults.value(name), 0)});
  }
  if (const auto* h = faults.find("fault.node_downtime_s")) {
    // Downtime lands in the fault histogram; report the occupied bins.
    std::string occupied;
    const double width = (h->hi - h->lo) / static_cast<double>(h->bins.size());
    for (std::size_t i = 0; i < h->bins.size(); ++i) {
      if (h->bins[i] == 0) continue;
      if (!occupied.empty()) occupied += ", ";
      occupied += std::to_string(h->bins[i]) + " in [" +
                  fmt(h->lo + width * i, 0) + "," +
                  fmt(h->lo + width * (i + 1), 0) + ")s";
    }
    fault_table.add_row({"fault.node_downtime_s", occupied});
  }
  std::printf("%s\n", fault_table.render().c_str());

  verdict("acked-then-lost health records", "0",
          std::to_string(health.lost), health.lost == 0 && health.acked == 20);
  verdict("lost shard rehomed by audit", "1 shard",
          std::to_string(repair.shards_repaired) + " shard(s)",
          repair.shards_repaired == 1 && repair.shards_repaired_metric >= 1);
  verdict("restore with exactly k live peers", "decodes",
          repair.degraded_restore_ok ? "decodes" : "fails",
          repair.degraded_restore_ok);
  verdict("retry beats no-retry under flaps",
          "more fetches survive",
          std::to_string(retried.ok) + "/10 vs " + std::to_string(plain.ok) +
              "/10",
          retried.ok > plain.ok && retried.ok == 10);
  return exit_status();
}
