// E18 — §IV-A "Data Availability": the attic is the durable home for user
// data, so durability has to be a measured property, not an asserted one.
// This bench drives the durable subsystem (StorageDevice + WAL + attic
// store, see DESIGN.md §13) through the three E18 questions:
//
//   1. recovery time vs log length: a ladder of WAL sizes, each crashed
//      and replayed into a fresh store, fingerprint-checked against the
//      pre-crash state;
//   2. snapshot compaction effectiveness: the same history crashed before
//      and after an epoch-snapshot compaction — recovery must replay only
//      the snapshot + tail, never the folded-away prefix;
//   3. incremental-backup bytes: a 1%-churn day shipped as an epoch-delta
//      session vs the whole-object image.
//
// Self-gating: exits non-zero unless recovery replays >= 100k records
// (>= 20k under --smoke) with every fingerprint intact, compaction bounds
// replay to tail+1 records, and the churn-day delta ships < 10% of the
// whole-object bytes. All stdout is deterministic (CI diffs two runs);
// wall timings go to stderr.
//
// Flags: --smoke (small sizes for CI).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/durability_workloads.hpp"

using namespace hpop;
using namespace hpop::bench;

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  header("E18", "durability: WAL recovery, compaction, incremental backup",
         "the home attic provides a data availability service for the "
         "user's personal data (survives crashes, not just outages)");

  const std::vector<std::size_t> ladder =
      smoke ? std::vector<std::size_t>{5'000, 10'000, 20'000}
            : std::vector<std::size_t>{10'000, 30'000, 100'000};
  const std::size_t files = 1'024;
  constexpr std::uint64_t kSeed = 18;

  // --- 1: recovery time vs log length -----------------------------------
  std::vector<benchdur::RecoveryPoint> points;
  std::uint64_t replayed_total = 0;
  bool recovery_ok = true;
  for (const std::size_t n : ladder) {
    std::fprintf(stderr, "[bench_durability] recovery ladder: %zu records...\n",
                 n);
    benchdur::RecoveryPoint p = benchdur::run_recovery(n, files, kSeed);
    std::fprintf(stderr,
                 "[bench_durability]   recovered in %.3fs (%.2fM records/s)\n",
                 p.recover_s, p.records_per_sec() / 1e6);
    replayed_total += p.replayed;
    recovery_ok = recovery_ok && p.fingerprint_ok &&
                  p.replayed == static_cast<std::uint64_t>(p.log_records);
    points.push_back(p);
  }

  util::Table recovery_table(
      {"log records", "log bytes", "replayed", "state match"});
  for (const auto& p : points) {
    recovery_table.add_row({std::to_string(p.log_records),
                            fmt_bytes(static_cast<double>(p.log_bytes)),
                            std::to_string(p.replayed),
                            p.fingerprint_ok ? "byte-identical" : "DIVERGED"});
  }
  std::printf("recovery: crash at each log length, replay into a fresh "
              "store\n%s\n", recovery_table.render().c_str());

  // --- 2: snapshot compaction bounds recovery ---------------------------
  const std::size_t history = smoke ? 20'000 : 50'000;
  const std::size_t tail = 500;
  std::fprintf(stderr,
               "[bench_durability] compaction: %zu records + %zu tail...\n",
               history, tail);
  const benchdur::CompactionResult comp =
      benchdur::run_compaction(history, tail, files, kSeed);
  std::fprintf(stderr,
               "[bench_durability]   recover %.3fs before vs %.3fs after\n",
               comp.recover_before_s, comp.recover_after_s);
  util::Table comp_table({"crash point", "log bytes", "records replayed"});
  comp_table.add_row({"before compaction",
                      fmt_bytes(static_cast<double>(comp.log_bytes_before)),
                      std::to_string(comp.replayed_before)});
  comp_table.add_row({"after compaction +" + std::to_string(tail) + " tail",
                      fmt_bytes(static_cast<double>(comp.log_bytes_after)),
                      std::to_string(comp.replayed_after)});
  std::printf("compaction: same %zu-record history, epoch snapshot folds "
              "the prefix\n%s\n", history, comp_table.render().c_str());

  // --- 3: incremental backup for a 1%-churn day -------------------------
  const std::size_t day_files = smoke ? 500 : 2'000;
  std::fprintf(stderr, "[bench_durability] churn day: %zu files, 1%%...\n",
               day_files);
  const benchdur::IncrementalResult inc =
      benchdur::run_incremental(day_files, 0.01, kSeed);
  util::Table inc_table({"session", "ships", "bytes", "restore"});
  inc_table.add_row({"full (whole object)", "snapshot image",
                     fmt_bytes(static_cast<double>(inc.full_bytes)), "-"});
  inc_table.add_row({"incremental (1% day)",
                     std::to_string(inc.churned) + " changed files",
                     fmt_bytes(static_cast<double>(inc.delta_bytes)),
                     inc.fingerprint_ok ? "byte-identical" : "DIVERGED"});
  std::printf("incremental backup: %zu-file attic, one day at 1%% churn\n%s\n",
              day_files, inc_table.render().c_str());

  const std::uint64_t replay_min = smoke ? 20'000 : 100'000;
  verdict("recovery replay, states match",
          ">= " + std::to_string(replay_min) + " records",
          std::to_string(replayed_total) + " records",
          replayed_total >= replay_min && recovery_ok);
  verdict("compaction bounds recovery",
          "<= tail+1 = " + std::to_string(tail + 1),
          std::to_string(comp.replayed_after) + " replayed",
          comp.bounded() && comp.fingerprint_ok);
  verdict("incremental ships < 10% of full", "< 10%",
          fmt(inc.ratio() * 100, 1) + "%",
          inc.ratio() < 0.10 && inc.fingerprint_ok);
  return exit_status();
}
