#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/time.hpp"

namespace hpop::telemetry {
namespace {

// ---------------------------------------------------------------- Registry

TEST(Registry, CounterCountsAndDefaultsToZero) {
  MetricsRegistry reg;
  Counter* c = reg.counter("tx");
  EXPECT_EQ(c->value(), 0u);
  c->inc();
  c->inc(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(Registry, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge* g = reg.gauge("depth");
  g->set(10.0);
  g->add(-3.5);
  EXPECT_DOUBLE_EQ(g->value(), 6.5);
}

TEST(Registry, HistogramObserves) {
  MetricsRegistry reg;
  HistogramMetric* h = reg.histogram("lat", 0, 10, 10);
  h->observe(0.5);
  h->observe(5.5);
  h->observe(5.6);
  EXPECT_EQ(h->histogram().total(), 3u);
  EXPECT_EQ(h->histogram().bin_count(0), 1u);
  EXPECT_EQ(h->histogram().bin_count(5), 2u);
}

TEST(Registry, SummaryObserves) {
  MetricsRegistry reg;
  SummaryMetric* s = reg.summary("rtt");
  s->observe(1);
  s->observe(3);
  EXPECT_EQ(s->summary().count(), 2u);
  EXPECT_DOUBLE_EQ(s->summary().mean(), 2.0);
}

TEST(Registry, SameNameSameHandle) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.counter("x"), reg.counter("x"));
  EXPECT_EQ(reg.gauge("g"), reg.gauge("g"));
  EXPECT_EQ(reg.summary("s"), reg.summary("s"));
  EXPECT_EQ(reg.histogram("h", 0, 1, 4), reg.histogram("h", 0, 1, 4));
  EXPECT_EQ(reg.size(), 4u);
}

TEST(Registry, LabelsDistinguishHandles) {
  MetricsRegistry reg;
  Counter* vpn = reg.counter("tunnels", "kind=vpn");
  Counter* nat = reg.counter("tunnels", "kind=nat");
  EXPECT_NE(vpn, nat);
  EXPECT_EQ(vpn, reg.counter("tunnels", "kind=vpn"));
  vpn->inc(2);
  nat->inc(5);
  const Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("tunnels", "kind=vpn"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("tunnels", "kind=nat"), 5.0);
}

TEST(Registry, HandlesStableAcrossManyRegistrations) {
  // Deque storage: later registrations must not invalidate earlier handles.
  MetricsRegistry reg;
  Counter* first = reg.counter("first");
  first->inc();
  for (int i = 0; i < 1000; ++i) {
    reg.counter("c" + std::to_string(i))->inc();
  }
  EXPECT_EQ(first, reg.counter("first"));
  EXPECT_EQ(first->value(), 1u);
}

// ---------------------------------------------------------------- Snapshot

TEST(Snapshot, CapturesAllKinds) {
  MetricsRegistry reg;
  reg.counter("c")->inc(7);
  reg.gauge("g")->set(2.5);
  HistogramMetric* h = reg.histogram("h", 0, 100, 10);
  h->observe(5);
  h->observe(95);
  SummaryMetric* s = reg.summary("s");
  for (int i = 1; i <= 100; ++i) s->observe(i);

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 4u);

  const Snapshot::Sample* c = snap.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(c->value, 7.0);

  const Snapshot::Sample* g = snap.find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(g->value, 2.5);

  const Snapshot::Sample* hs = snap.find("h");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->kind, MetricKind::kHistogram);
  EXPECT_EQ(hs->count, 2u);
  EXPECT_DOUBLE_EQ(hs->lo, 0.0);
  EXPECT_DOUBLE_EQ(hs->hi, 100.0);
  ASSERT_EQ(hs->bins.size(), 10u);
  EXPECT_EQ(hs->bins[0], 1u);
  EXPECT_EQ(hs->bins[9], 1u);

  const Snapshot::Sample* ss = snap.find("s");
  ASSERT_NE(ss, nullptr);
  EXPECT_EQ(ss->kind, MetricKind::kSummary);
  EXPECT_EQ(ss->count, 100u);
  EXPECT_DOUBLE_EQ(ss->min, 1.0);
  EXPECT_DOUBLE_EQ(ss->max, 100.0);
  EXPECT_NEAR(ss->p50, 50.5, 1.0);
  EXPECT_NEAR(ss->p95, 95.0, 1.5);
}

TEST(Snapshot, FindMissesReturnNullAndZero) {
  MetricsRegistry reg;
  reg.counter("present")->inc();
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("absent"), nullptr);
  EXPECT_EQ(snap.find("present", "no=such_label"), nullptr);
  EXPECT_DOUBLE_EQ(snap.value("absent"), 0.0);
  EXPECT_EQ(snap.count("absent"), 0u);
}

TEST(Snapshot, IsAPointInTimeCopy) {
  MetricsRegistry reg;
  Counter* c = reg.counter("c");
  c->inc(3);
  const Snapshot snap = reg.snapshot();
  c->inc(100);
  EXPECT_DOUBLE_EQ(snap.value("c"), 3.0);
}

TEST(Delta, CountersAndBinsSubtractGaugesKeepLevel) {
  MetricsRegistry reg;
  Counter* c = reg.counter("c");
  Gauge* g = reg.gauge("g");
  HistogramMetric* h = reg.histogram("h", 0, 10, 10);
  c->inc(10);
  g->set(50);
  h->observe(1);

  const Snapshot before = reg.snapshot();
  c->inc(5);
  g->set(20);
  h->observe(1);
  h->observe(9);
  const Snapshot after = reg.snapshot();

  const Snapshot d = MetricsRegistry::delta(before, after);
  EXPECT_DOUBLE_EQ(d.value("c"), 5.0);
  EXPECT_DOUBLE_EQ(d.value("g"), 20.0);  // gauges keep the after level
  const Snapshot::Sample* hd = d.find("h");
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->count, 2u);
  EXPECT_EQ(hd->bins[1], 1u);
  EXPECT_EQ(hd->bins[9], 1u);
  EXPECT_EQ(hd->bins[0], 0u);  // pre-interval observation subtracted out
}

TEST(Delta, SummaryQuantilesCoverOnlyTheInterval) {
  MetricsRegistry reg;
  SummaryMetric* s = reg.summary("lat");
  // Pre-interval: large values that would dominate quantiles if retained.
  for (int i = 0; i < 50; ++i) s->observe(1000);
  const Snapshot before = reg.snapshot();
  for (int i = 1; i <= 10; ++i) s->observe(i);
  const Snapshot after = reg.snapshot();

  const Snapshot d = MetricsRegistry::delta(before, after);
  const Snapshot::Sample* sd = d.find("lat");
  ASSERT_NE(sd, nullptr);
  EXPECT_EQ(sd->count, 10u);
  EXPECT_DOUBLE_EQ(sd->min, 1.0);
  EXPECT_DOUBLE_EQ(sd->max, 10.0);
  EXPECT_DOUBLE_EQ(sd->sum, 55.0);
  EXPECT_LT(sd->p95, 11.0);  // not contaminated by the 1000s
}

TEST(Delta, MidIntervalRegistrationIncludedWhole) {
  MetricsRegistry reg;
  reg.counter("old")->inc();
  const Snapshot before = reg.snapshot();
  reg.counter("fresh")->inc(9);
  const Snapshot after = reg.snapshot();
  const Snapshot d = MetricsRegistry::delta(before, after);
  EXPECT_DOUBLE_EQ(d.value("old"), 0.0);
  EXPECT_DOUBLE_EQ(d.value("fresh"), 9.0);
}

// ---------------------------------------------------------------- Exporters

Snapshot make_rich_snapshot() {
  MetricsRegistry reg;
  reg.counter("c", "site=a")->inc(12);
  reg.gauge("g")->set(-1.25);
  HistogramMetric* h = reg.histogram("h", 0, 10, 5);
  h->observe(2);
  h->observe(7);
  SummaryMetric* s = reg.summary("s");
  for (int i = 1; i <= 20; ++i) s->observe(i * 0.5);
  return reg.snapshot();
}

TEST(Exporters, JsonlRoundTrip) {
  // The determinism tests diff this text, so pin it: one flat object per
  // sample in snapshot order, doubles printed round-trippably (17
  // significant digits, no trailing zeros). Summary quantiles interpolate
  // between ranks: p95 of 0.5..10 in steps of 0.5 is 9.5 + 0.05 * 0.5.
  EXPECT_EQ(
      to_jsonl(make_rich_snapshot()),
      R"({"name":"c","labels":"site=a","kind":"counter","value":12}
{"name":"g","labels":"","kind":"gauge","value":-1.25}
{"name":"h","labels":"","kind":"histogram","lo":0,"hi":10,"count":2,"bins":[0,1,0,1,0]}
{"name":"s","labels":"","kind":"summary","count":20,"sum":105,"min":0.5,"max":10,"p50":5.25,"p95":9.5250000000000004,"p99":9.9049999999999994}
)");
}

TEST(Exporters, EmptySnapshot) {
  EXPECT_EQ(to_jsonl(Snapshot{}), "");
}

TEST(Exporters, KindNames) {
  EXPECT_STREQ(metric_kind_name(MetricKind::kCounter), "counter");
  EXPECT_STREQ(metric_kind_name(MetricKind::kGauge), "gauge");
  EXPECT_STREQ(metric_kind_name(MetricKind::kHistogram), "histogram");
  EXPECT_STREQ(metric_kind_name(MetricKind::kSummary), "summary");
}

// ---------------------------------------------------------------- Tracer

TEST(Tracer, DisabledByDefault) {
  Tracer t(8);
  t.emit(TraceEvent::kCacheHit, 100);
  EXPECT_EQ(t.held(), 0u);
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_FALSE(t.enabled(TraceCategory::kCache));
}

TEST(Tracer, CategoryFiltering) {
  Tracer t(8);
  t.enable(TraceCategory::kTcp);
  t.emit(TraceEvent::kTcpRetransmit, 1, 2);  // kept
  t.emit(TraceEvent::kCacheHit);             // dropped: category off
  t.emit(TraceEvent::kPacketDrop);           // dropped: category off
  ASSERT_EQ(t.held(), 1u);
  EXPECT_EQ(t.records()[0].event, TraceEvent::kTcpRetransmit);

  t.enable(TraceCategory::kCache);
  t.emit(TraceEvent::kCacheMiss);
  EXPECT_EQ(t.held(), 2u);

  t.disable(TraceCategory::kTcp);
  t.emit(TraceEvent::kTcpTimeout);  // dropped again
  EXPECT_EQ(t.held(), 2u);
  EXPECT_TRUE(t.enabled(TraceCategory::kCache));
  EXPECT_FALSE(t.enabled(TraceCategory::kTcp));

  t.disable_all();
  t.emit(TraceEvent::kCacheMiss);
  EXPECT_EQ(t.held(), 2u);
}

TEST(Tracer, RecordsPayloadAndDetail) {
  Tracer t(8);
  t.enable(TraceCategory::kAll);
  t.emit(TraceEvent::kPacketDrop, 1500, 1, "channel_loss");
  const auto recs = t.records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_DOUBLE_EQ(recs[0].a, 1500.0);
  EXPECT_DOUBLE_EQ(recs[0].b, 1.0);
  EXPECT_STREQ(recs[0].detail, "channel_loss");
}

TEST(Tracer, RingWrapsOldestFirst) {
  Tracer t(4);
  t.enable(TraceCategory::kCache);
  for (int i = 0; i < 10; ++i) {
    t.emit(TraceEvent::kCacheHit, i);
  }
  EXPECT_EQ(t.capacity(), 4u);
  EXPECT_EQ(t.held(), 4u);
  EXPECT_EQ(t.emitted(), 10u);
  EXPECT_EQ(t.overwritten(), 6u);
  const auto recs = t.records();
  ASSERT_EQ(recs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(recs[static_cast<std::size_t>(i)].a,
                     static_cast<double>(6 + i));
  }
}

TEST(Tracer, SetCapacityReplacesAndClears) {
  Tracer t(4);
  t.enable(TraceCategory::kAll);
  t.emit(TraceEvent::kCacheHit);
  t.set_capacity(16);
  EXPECT_EQ(t.capacity(), 16u);
  EXPECT_EQ(t.held(), 0u);
}

TEST(Tracer, EventFilterAndClear) {
  Tracer t(16);
  t.enable(TraceCategory::kAll);
  t.emit(TraceEvent::kCacheHit, 1);
  t.emit(TraceEvent::kCacheMiss);
  t.emit(TraceEvent::kCacheHit, 2);
  const auto hits = t.records(TraceEvent::kCacheHit);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_DOUBLE_EQ(hits[0].a, 1.0);
  EXPECT_DOUBLE_EQ(hits[1].a, 2.0);
  t.clear();
  EXPECT_EQ(t.held(), 0u);
  EXPECT_TRUE(t.records().empty());
}

TEST(Tracer, ClockStampsRecords) {
  Tracer t(8);
  t.enable(TraceCategory::kAll);
  util::TimePoint now = 5 * util::kSecond;
  t.set_clock(&now);
  t.emit(TraceEvent::kCacheHit);
  now = 7 * util::kSecond;
  t.emit(TraceEvent::kCacheMiss);
  t.set_clock(nullptr);
  t.emit(TraceEvent::kCacheMiss);  // unclocked: stamps 0
  const auto recs = t.records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].at, 5 * util::kSecond);
  EXPECT_EQ(recs[1].at, 7 * util::kSecond);
  EXPECT_EQ(recs[2].at, 0);
}

TEST(Tracer, JsonlNamesEvents) {
  Tracer t(8);
  t.enable(TraceCategory::kAll);
  t.emit(TraceEvent::kTcpRetransmit, 1000, 1448);
  const std::string text = t.to_jsonl();
  EXPECT_NE(text.find(trace_event_name(TraceEvent::kTcpRetransmit)),
            std::string::npos);
}

TEST(Tracer, EveryEventMapsToItsCategory) {
  EXPECT_EQ(trace_event_category(TraceEvent::kPacketDrop),
            TraceCategory::kPacket);
  EXPECT_EQ(trace_event_category(TraceEvent::kTcpCwndChange),
            TraceCategory::kTcp);
  EXPECT_EQ(trace_event_category(TraceEvent::kMptcpSubflowSwitch),
            TraceCategory::kMptcp);
  EXPECT_EQ(trace_event_category(TraceEvent::kCacheEviction),
            TraceCategory::kCache);
  EXPECT_EQ(trace_event_category(TraceEvent::kNatMappingRejected),
            TraceCategory::kNat);
  EXPECT_EQ(trace_event_category(TraceEvent::kAtticErasureRepair),
            TraceCategory::kAttic);
  EXPECT_EQ(trace_event_category(TraceEvent::kDetourWithdrawn),
            TraceCategory::kDcol);
  EXPECT_EQ(trace_event_category(TraceEvent::kUsageRecordRejected),
            TraceCategory::kNocdn);
  EXPECT_EQ(trace_event_category(TraceEvent::kPrefetchIssued),
            TraceCategory::kIathome);
}

// Global singletons exist and are distinct per process-wide role.
TEST(Globals, RegistryAndTracerAreSingletons) {
  EXPECT_EQ(&registry(), &g_registry);
  EXPECT_EQ(&tracer(), &g_tracer);
}

}  // namespace
}  // namespace hpop::telemetry
