#include "metro/workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/hash.hpp"

namespace hpop::metro {

namespace {

/// splitmix64-style bijective mixer: deterministic per-rank attributes
/// without consuming Rng draws.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// --- DiurnalCurve --------------------------------------------------------

DiurnalCurve DiurnalCurve::residential(util::Duration day) {
  DiurnalCurve c;
  c.hourly = {0.30, 0.22, 0.16, 0.12, 0.10, 0.12, 0.20, 0.35,
              0.45, 0.42, 0.40, 0.45, 0.50, 0.48, 0.45, 0.50,
              0.60, 0.72, 0.85, 1.00, 0.95, 0.82, 0.62, 0.42};
  c.day_length = day;
  return c;
}

DiurnalCurve DiurnalCurve::flat(util::Duration day) {
  DiurnalCurve c;
  c.hourly.fill(1.0);
  c.day_length = day;
  return c;
}

double DiurnalCurve::at(util::TimePoint t) const {
  const util::Duration day = day_length > 0 ? day_length : util::kDay;
  util::TimePoint in_day = t % day;
  if (in_day < 0) in_day += day;
  const double hour_f =
      static_cast<double>(in_day) / static_cast<double>(day) * 24.0;
  const std::size_t h0 = static_cast<std::size_t>(hour_f) % 24;
  const std::size_t h1 = (h0 + 1) % 24;
  const double frac = hour_f - std::floor(hour_f);
  return hourly[h0] + (hourly[h1] - hourly[h0]) * frac;
}

double DiurnalCurve::peak() const {
  return *std::max_element(hourly.begin(), hourly.end());
}

// --- ZipfCatalog ---------------------------------------------------------

ZipfCatalog::ZipfCatalog(std::size_t objects, double skew)
    : n_(objects == 0 ? 1 : objects),
      skew_(skew),
      sampler_(n_, skew) {}

std::size_t ZipfCatalog::draw(util::Rng& rng) const {
  return static_cast<std::size_t>(sampler_.sample(rng));
}

std::string ZipfCatalog::url_of(std::size_t rank) const {
  return "/o/" + std::to_string(rank);
}

std::string ZipfCatalog::page_of(std::size_t rank) const {
  return "/p/" + std::to_string(rank);
}

std::size_t ZipfCatalog::bytes_of(std::size_t rank) const {
  // 4 KiB floor + a hash-spread body up to ~100 KiB. Popularity and size
  // are independent, as in web workloads.
  return 4096 + static_cast<std::size_t>(mix64(rank) % (96 * 1024));
}

// --- EventSpec / EventPlan ----------------------------------------------

bool EventSpec::covers(const MetroTopology& topo, std::size_t home) const {
  return scope == Scope::kDslam ? topo.dslam_of_home(home) == target
                                : topo.pop_of_home(home) == target;
}

EventPlan EventPlan::generate(const MetroTopology& topo,
                              const ZipfCatalog& catalog,
                              util::TimePoint horizon,
                              std::size_t flash_crowds, std::size_t outages,
                              util::Rng& rng, std::size_t partitions) {
  EventPlan plan;
  plan.events.reserve(flash_crowds + outages + partitions);
  const auto draw_common = [&](EventSpec& e) {
    e.scope = rng.bernoulli(0.5) ? EventSpec::Scope::kDslam
                                 : EventSpec::Scope::kPop;
    const std::size_t subtrees = e.scope == EventSpec::Scope::kDslam
                                     ? topo.dslams.size()
                                     : topo.pops.size();
    e.target = static_cast<std::size_t>(
        rng.uniform_index(subtrees == 0 ? 1 : subtrees));
    e.start = static_cast<util::TimePoint>(
        rng.uniform(0.15, 0.85) * static_cast<double>(horizon));
    e.duration = static_cast<util::Duration>(
        rng.uniform(0.05, 0.15) * static_cast<double>(horizon));
  };
  for (std::size_t i = 0; i < flash_crowds; ++i) {
    EventSpec e;
    e.kind = EventSpec::Kind::kFlashCrowd;
    draw_common(e);
    e.intensity = rng.uniform(4.0, 12.0);
    e.hot_object = catalog.draw(rng);
    plan.events.push_back(e);
  }
  for (std::size_t i = 0; i < outages; ++i) {
    EventSpec e;
    e.kind = EventSpec::Kind::kOutage;
    draw_common(e);
    plan.events.push_back(e);
  }
  // Partitions draw LAST so plans generated with partitions == 0 consume
  // exactly the pre-existing draw sequence.
  for (std::size_t i = 0; i < partitions; ++i) {
    EventSpec e;
    e.kind = EventSpec::Kind::kPartition;
    draw_common(e);
    plan.events.push_back(e);
  }
  return plan;
}

fault::FaultPlan EventPlan::to_fault_plan(const MetroTopology& topo) const {
  fault::FaultPlan plan;
  for (const EventSpec& e : events) {
    if (e.kind == EventSpec::Kind::kOutage) {
      net::Link* uplink = e.scope == EventSpec::Scope::kDslam
                              ? topo.dslam_uplinks[e.target]
                              : topo.pop_uplinks[e.target];
      plan.link_down(uplink, e.start, e.duration);
    } else if (e.kind == EventSpec::Kind::kPartition) {
      // Isolate the subtree's homes from everyone outside it (empty far
      // side = complement cut). Intra-subtree traffic keeps flowing,
      // which is exactly what distinguishes a partition from an outage.
      auto [lo, hi] = e.scope == EventSpec::Scope::kDslam
                          ? topo.homes_of_dslam(e.target)
                          : topo.homes_of_pop(e.target);
      std::vector<net::Node*> side;
      side.reserve(hi - lo);
      for (std::size_t h = lo; h < hi; ++h) side.push_back(topo.homes[h]);
      plan.partition(std::move(side), {}, e.start, e.duration);
    }
  }
  return plan;
}

double EventPlan::crowd_multiplier(const MetroTopology& topo,
                                   std::size_t home,
                                   util::TimePoint t) const {
  double m = 1.0;
  for (const EventSpec& e : events) {
    if (e.kind != EventSpec::Kind::kFlashCrowd) continue;
    if (e.active_at(t) && e.covers(topo, home)) m *= e.intensity;
  }
  return m;
}

const EventSpec* EventPlan::active_crowd(const MetroTopology& topo,
                                         std::size_t home,
                                         util::TimePoint t) const {
  for (const EventSpec& e : events) {
    if (e.kind != EventSpec::Kind::kFlashCrowd) continue;
    if (e.active_at(t) && e.covers(topo, home)) return &e;
  }
  return nullptr;
}

std::size_t EventPlan::flash_crowd_count() const {
  std::size_t n = 0;
  for (const EventSpec& e : events) {
    if (e.kind == EventSpec::Kind::kFlashCrowd) ++n;
  }
  return n;
}

std::size_t EventPlan::outage_count() const {
  std::size_t n = 0;
  for (const EventSpec& e : events) {
    if (e.kind == EventSpec::Kind::kOutage) ++n;
  }
  return n;
}

std::size_t EventPlan::partition_count() const {
  std::size_t n = 0;
  for (const EventSpec& e : events) {
    if (e.kind == EventSpec::Kind::kPartition) ++n;
  }
  return n;
}

double EventPlan::max_crowd_intensity() const {
  double m = 1.0;
  for (const EventSpec& e : events) {
    if (e.kind == EventSpec::Kind::kFlashCrowd) m = std::max(m, e.intensity);
  }
  return m;
}

std::uint64_t EventPlan::fingerprint() const {
  util::Fnv1a fnv{util::Fnv1a::kLegacyBasis};
  fnv.u64(events.size());
  for (const EventSpec& e : events) {
    fnv.u64(static_cast<std::uint64_t>(e.kind));
    fnv.u64(static_cast<std::uint64_t>(e.scope));
    fnv.u64(e.target);
    fnv.u64(static_cast<std::uint64_t>(e.start));
    fnv.u64(static_cast<std::uint64_t>(e.duration));
    fnv.f64(e.intensity);
    fnv.u64(e.hot_object);
    fnv.f64(e.hot_fraction);
  }
  return fnv.h;
}

// --- WorkloadModel -------------------------------------------------------

WorkloadModel::WorkloadModel(DiurnalCurve curve, ZipfCatalog catalog,
                             EventPlan plan, double base_rate_per_home)
    : curve_(curve),
      catalog_(std::move(catalog)),
      plan_(std::move(plan)),
      base_rate_(base_rate_per_home) {}

double WorkloadModel::rate_at(const MetroTopology& topo, std::size_t home,
                              util::TimePoint t) const {
  return base_rate_ * curve_.at(t) * plan_.crowd_multiplier(topo, home, t);
}

double WorkloadModel::max_rate() const {
  return base_rate_ * curve_.peak() * plan_.max_crowd_intensity();
}

util::TimePoint WorkloadModel::next_arrival(const MetroTopology& topo,
                                            std::size_t home,
                                            util::TimePoint after,
                                            util::Rng& rng) const {
  // Lewis–Shedler thinning: candidate arrivals at the envelope rate,
  // accepted with probability rate(t)/envelope. Bounded so a degenerate
  // curve (all zeros) cannot spin forever.
  const double envelope = max_rate();
  if (envelope <= 0) return after + 3650 * util::kDay;
  util::TimePoint t = after;
  for (int i = 0; i < 100'000; ++i) {
    t += std::max<util::Duration>(
        1, util::seconds(rng.exponential(1.0 / envelope)));
    if (rng.uniform() * envelope <= rate_at(topo, home, t)) return t;
  }
  return t;
}

std::size_t WorkloadModel::draw_object(const MetroTopology& topo,
                                       std::size_t home, util::TimePoint t,
                                       util::Rng& rng) const {
  if (const EventSpec* crowd = plan_.active_crowd(topo, home, t)) {
    if (rng.uniform() < crowd->hot_fraction) return crowd->hot_object;
  }
  return catalog_.draw(rng);
}

}  // namespace hpop::metro
