#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/time.hpp"

namespace hpop::telemetry {

/// Labeled metric handles. Components resolve a handle once (a map lookup
/// at construction) and bump it on the hot path through one pointer
/// indirection — no string hashing per event. All instruments live in a
/// MetricsRegistry and are observed through snapshot()/delta(), so benches
/// report intervals instead of process-lifetime totals.

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bin histogram instrument (util::Histogram backend).
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t bins)
      : histogram_(lo, hi, bins) {}
  void observe(double x) { histogram_.add(x); }
  const util::Histogram& histogram() const { return histogram_; }

 private:
  util::Histogram histogram_;
};

/// Sample-accumulating instrument (util::Summary backend). Snapshots keep
/// the raw samples so delta() can compute quantiles over just the interval.
class SummaryMetric {
 public:
  void observe(double x) { summary_.add(x); }
  const util::Summary& summary() const { return summary_; }

 private:
  util::Summary summary_;
};

enum class MetricKind { kCounter, kGauge, kHistogram, kSummary };

const char* metric_kind_name(MetricKind kind);

/// Point-in-time view of every registered instrument. Produced by
/// MetricsRegistry::snapshot(); two snapshots subtract via delta().
struct Snapshot {
  struct Sample {
    std::string name;
    std::string labels;  // "key=value key=value"
    MetricKind kind = MetricKind::kCounter;
    double value = 0;          // counter total / gauge level
    std::uint64_t count = 0;   // summary & histogram sample count
    double sum = 0, min = 0, max = 0, p50 = 0, p95 = 0, p99 = 0;  // summary
    double lo = 0, hi = 0;                 // histogram range
    std::vector<std::uint64_t> bins;       // histogram bin counts
    std::vector<double> raw;  // summary samples (delta-internal, not exported)
  };

  std::vector<Sample> samples;

  const Sample* find(const std::string& name,
                     const std::string& labels = "") const;
  /// Counter total / gauge level / summary mean; 0 when absent.
  double value(const std::string& name, const std::string& labels = "") const;
  /// Summary sample count (or counter value rounded); 0 when absent.
  std::uint64_t count(const std::string& name,
                      const std::string& labels = "") const;
};

/// Registry of labeled instruments. Register-once, then handle-based access:
/// the returned pointers stay valid for the registry's lifetime (deque
/// storage). Single-threaded by design, like the simulator it observes.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name, const std::string& labels = "");
  Gauge* gauge(const std::string& name, const std::string& labels = "");
  HistogramMetric* histogram(const std::string& name, double lo, double hi,
                             std::size_t bins, const std::string& labels = "");
  SummaryMetric* summary(const std::string& name,
                         const std::string& labels = "");

  std::size_t size() const { return index_.size(); }

  Snapshot snapshot() const;
  /// Interval view: counters, histogram bins and summary windows are
  /// `after - before`; gauges keep their `after` level. Instruments that
  /// appear only in `after` (registered mid-interval) are included whole.
  static Snapshot delta(const Snapshot& before, const Snapshot& after);

 private:
  struct Slot {
    std::string name;
    std::string labels;
    MetricKind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    HistogramMetric* histogram = nullptr;
    SummaryMetric* summary = nullptr;
  };
  Slot* find_slot(const std::string& name, const std::string& labels,
                  MetricKind kind);

  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<HistogramMetric> histograms_;
  std::deque<SummaryMetric> summaries_;
  std::deque<Slot> slots_;  // registration order (stable export order)
  std::map<std::pair<std::string, std::string>, Slot*> index_;
};

/// The process-wide registry every instrumented component reports into.
/// Benches and tests isolate runs with snapshot()/delta(), not by resetting.
extern thread_local MetricsRegistry g_registry;
inline MetricsRegistry& registry() { return g_registry; }

// --- Exporter ------------------------------------------------------------
/// One JSON object per metric per line, in snapshot order, with doubles
/// printed round-trippably: equal snapshots give equal text, which is what
/// the determinism tests diff. Summary raw samples are not exported — only
/// the derived stats.
std::string to_jsonl(const Snapshot& snap);

}  // namespace hpop::telemetry
