#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace hpop::telemetry {

thread_local MetricsRegistry g_registry;

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
    case MetricKind::kSummary:
      return "summary";
  }
  return "?";
}

MetricsRegistry::Slot* MetricsRegistry::find_slot(const std::string& name,
                                                  const std::string& labels,
                                                  MetricKind kind) {
  const auto it = index_.find({name, labels});
  if (it == index_.end()) return nullptr;
  assert(it->second->kind == kind && "metric re-registered as another kind");
  (void)kind;
  return it->second;
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const std::string& labels) {
  if (Slot* slot = find_slot(name, labels, MetricKind::kCounter)) {
    return slot->counter;
  }
  counters_.emplace_back();
  slots_.push_back(Slot{name, labels, MetricKind::kCounter, &counters_.back(),
                        nullptr, nullptr, nullptr});
  index_[{name, labels}] = &slots_.back();
  return &counters_.back();
}

Gauge* MetricsRegistry::gauge(const std::string& name,
                              const std::string& labels) {
  if (Slot* slot = find_slot(name, labels, MetricKind::kGauge)) {
    return slot->gauge;
  }
  gauges_.emplace_back();
  slots_.push_back(Slot{name, labels, MetricKind::kGauge, nullptr,
                        &gauges_.back(), nullptr, nullptr});
  index_[{name, labels}] = &slots_.back();
  return &gauges_.back();
}

HistogramMetric* MetricsRegistry::histogram(const std::string& name, double lo,
                                            double hi, std::size_t bins,
                                            const std::string& labels) {
  if (Slot* slot = find_slot(name, labels, MetricKind::kHistogram)) {
    return slot->histogram;
  }
  histograms_.emplace_back(lo, hi, bins);
  slots_.push_back(Slot{name, labels, MetricKind::kHistogram, nullptr, nullptr,
                        &histograms_.back(), nullptr});
  index_[{name, labels}] = &slots_.back();
  return &histograms_.back();
}

SummaryMetric* MetricsRegistry::summary(const std::string& name,
                                        const std::string& labels) {
  if (Slot* slot = find_slot(name, labels, MetricKind::kSummary)) {
    return slot->summary;
  }
  summaries_.emplace_back();
  slots_.push_back(Slot{name, labels, MetricKind::kSummary, nullptr, nullptr,
                        nullptr, &summaries_.back()});
  index_[{name, labels}] = &slots_.back();
  return &summaries_.back();
}

namespace {

void fill_summary_stats(Snapshot::Sample& sample,
                        const std::vector<double>& window) {
  util::Summary s;
  for (const double x : window) s.add(x);
  sample.count = s.count();
  sample.sum = s.sum();
  sample.min = s.min();
  sample.max = s.max();
  sample.p50 = s.percentile(0.5);
  sample.p95 = s.percentile(0.95);
  sample.p99 = s.percentile(0.99);
}

}  // namespace

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  snap.samples.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    Snapshot::Sample sample;
    sample.name = slot.name;
    sample.labels = slot.labels;
    sample.kind = slot.kind;
    switch (slot.kind) {
      case MetricKind::kCounter:
        sample.value = static_cast<double>(slot.counter->value());
        break;
      case MetricKind::kGauge:
        sample.value = slot.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const util::Histogram& h = slot.histogram->histogram();
        sample.lo = h.bin_lo(0);
        sample.hi = h.bin_hi(h.bins() - 1);
        sample.count = h.total();
        sample.bins.reserve(h.bins());
        for (std::size_t i = 0; i < h.bins(); ++i) {
          sample.bins.push_back(h.bin_count(i));
        }
        break;
      }
      case MetricKind::kSummary:
        sample.raw = slot.summary->summary().samples();
        fill_summary_stats(sample, sample.raw);
        break;
    }
    snap.samples.push_back(std::move(sample));
  }
  return snap;
}

Snapshot MetricsRegistry::delta(const Snapshot& before, const Snapshot& after) {
  Snapshot out;
  out.samples.reserve(after.samples.size());
  for (const Snapshot::Sample& now : after.samples) {
    const Snapshot::Sample* then = before.find(now.name, now.labels);
    Snapshot::Sample d = now;
    if (then != nullptr) {
      switch (now.kind) {
        case MetricKind::kCounter:
          d.value = now.value - then->value;
          break;
        case MetricKind::kGauge:
          break;  // gauges are levels; the interval view is "where it ended"
        case MetricKind::kHistogram:
          d.count = now.count - then->count;
          for (std::size_t i = 0;
               i < d.bins.size() && i < then->bins.size(); ++i) {
            d.bins[i] = now.bins[i] - then->bins[i];
          }
          break;
        case MetricKind::kSummary: {
          // Summaries append; the interval's samples are the new tail.
          std::vector<double> window(
              now.raw.begin() +
                  static_cast<std::ptrdiff_t>(
                      std::min(then->raw.size(), now.raw.size())),
              now.raw.end());
          d.raw = std::move(window);
          fill_summary_stats(d, d.raw);
          break;
        }
      }
    }
    out.samples.push_back(std::move(d));
  }
  return out;
}

const Snapshot::Sample* Snapshot::find(const std::string& name,
                                       const std::string& labels) const {
  for (const Sample& sample : samples) {
    if (sample.name == name && sample.labels == labels) return &sample;
  }
  return nullptr;
}

double Snapshot::value(const std::string& name,
                       const std::string& labels) const {
  const Sample* sample = find(name, labels);
  if (sample == nullptr) return 0;
  if (sample->kind == MetricKind::kSummary) {
    return sample->count > 0 ? sample->sum / static_cast<double>(sample->count)
                             : 0;
  }
  return sample->value;
}

std::uint64_t Snapshot::count(const std::string& name,
                              const std::string& labels) const {
  const Sample* sample = find(name, labels);
  if (sample == nullptr) return 0;
  if (sample->kind == MetricKind::kCounter ||
      sample->kind == MetricKind::kGauge) {
    return static_cast<std::uint64_t>(sample->value);
  }
  return sample->count;
}

// --- Exporter ------------------------------------------------------------

namespace {

/// Doubles print round-trippably (%.17g) but trailing-zero-free.
std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string join_bins(const std::vector<std::uint64_t>& bins) {
  std::ostringstream os;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (i > 0) os << ',';
    os << bins[i];
  }
  return os.str();
}

}  // namespace

std::string to_jsonl(const Snapshot& snap) {
  std::ostringstream os;
  for (const Snapshot::Sample& s : snap.samples) {
    os << "{\"name\":\"" << s.name << "\",\"labels\":\"" << s.labels
       << "\",\"kind\":\"" << metric_kind_name(s.kind) << "\"";
    switch (s.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        os << ",\"value\":" << fmt_double(s.value);
        break;
      case MetricKind::kHistogram:
        os << ",\"lo\":" << fmt_double(s.lo) << ",\"hi\":" << fmt_double(s.hi)
           << ",\"count\":" << s.count << ",\"bins\":["
           << join_bins(s.bins) << "]";
        break;
      case MetricKind::kSummary:
        os << ",\"count\":" << s.count << ",\"sum\":" << fmt_double(s.sum)
           << ",\"min\":" << fmt_double(s.min)
           << ",\"max\":" << fmt_double(s.max)
           << ",\"p50\":" << fmt_double(s.p50)
           << ",\"p95\":" << fmt_double(s.p95)
           << ",\"p99\":" << fmt_double(s.p99);
        break;
    }
    os << "}\n";
  }
  return os.str();
}

}  // namespace hpop::telemetry
