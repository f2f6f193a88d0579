#pragma once

// Shared reporting helpers for the experiment harness. Every bench binary
// regenerates one table/figure/claim from the paper (see DESIGN.md §3) and
// prints:
//   - a header naming the experiment and the paper's claim,
//   - a uniform table of measured rows,
//   - a PAPER-vs-MEASURED verdict line per headline number.
// A bench that prints verdicts returns exit_status() from main, so one
// failed verdict fails the run.

#include <cstdio>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace hpop::bench {

inline void header(const std::string& id, const std::string& title,
                   const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("paper: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

/// Verdicts that have failed so far in this process.
inline int failed_verdicts = 0;

inline void verdict(const std::string& what, const std::string& paper,
                    const std::string& measured, bool holds) {
  if (!holds) ++failed_verdicts;
  std::printf("[%s] %-38s paper: %-18s measured: %-18s\n",
              holds ? "OK" : "!!", what.c_str(), paper.c_str(),
              measured.c_str());
}

/// main's return value for a verdict bench: 1 once any verdict failed.
inline int exit_status() { return failed_verdicts == 0 ? 0 : 1; }

inline std::string fmt(double v, int precision = 2) {
  return util::Table::fmt(v, precision);
}

inline std::string fmt_bytes(double bytes) {
  char buf[32];
  if (bytes >= 1 << 20) {
    std::snprintf(buf, sizeof buf, "%.1fMB", bytes / (1 << 20));
  } else if (bytes >= 1 << 10) {
    std::snprintf(buf, sizeof buf, "%.1fKB", bytes / (1 << 10));
  } else {
    std::snprintf(buf, sizeof buf, "%.0fB", bytes);
  }
  return buf;
}

}  // namespace hpop::bench
