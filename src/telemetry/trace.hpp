#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace hpop::telemetry {

/// Trace categories gate emission: each is one bit of the tracer's enable
/// mask, so a disabled category costs one load+test+branch per emit call
/// (the guarded fast path the benches verify).
enum class TraceCategory : std::uint32_t {
  kPacket = 1u << 0,   // link-level drops
  kTcp = 1u << 1,      // retransmits, timeouts, cwnd changes
  kMptcp = 1u << 2,    // scheduler subflow switches
  kCache = 1u << 3,    // HTTP cache hits/misses/evictions
  kNat = 1u << 4,      // rejected inbound mappings
  kAttic = 1u << 5,    // grants issued/denied, erasure repairs
  kDcol = 1u << 6,     // detours chosen/withdrawn
  kNocdn = 1u << 7,    // usage records verified/rejected
  kIathome = 1u << 8,  // prefetch issues
  kFault = 1u << 9,    // injected faults: crashes, flaps, flushes
  kAll = 0xffffffffu,
};

enum class TraceEvent : std::uint8_t {
  kPacketDrop,          // a: wire bytes, b: 0 queue drop / 1 loss drop
  kTcpRetransmit,       // a: seq, b: len
  kTcpTimeout,          // a: backoff count
  kTcpCwndChange,       // a: new cwnd, b: ssthresh
  kMptcpSubflowSwitch,  // a: new subflow index, b: previous index
  kCacheHit,            // a: body bytes
  kCacheMiss,
  kCacheEviction,       // a: evicted bytes
  kNatMappingRejected,  // a: 0 filtered / 1 unmatched
  kAtticGrantIssued,
  kAtticGrantDenied,
  kAtticErasureRepair,    // a: shards lost, b: k
  kDetourChosen,          // a: waypoint member id
  kDetourWithdrawn,       // a: waypoint member id, b: 1 if misbehaving
  kUsageRecordVerified,   // a: bytes credited
  kUsageRecordRejected,   // a: verdict code
  kPrefetchIssued,
  kNodeCrash,    // a: scheduled downtime (s)
  kNodeRestart,  // a: actual downtime (s)
  kLinkDown,     // a: 1 if flap episode, 0 if one-shot
  kLinkUp,
  kLinkDegraded,  // a: new rate (bps), b: new loss
  kNatFlush,      // a: mappings dropped
  kBurstLoss,     // a: 1 entering bad state, 0 leaving; b: bad-state loss
};

const char* trace_event_name(TraceEvent event);

constexpr TraceCategory trace_event_category(TraceEvent event) {
  switch (event) {
    case TraceEvent::kPacketDrop:
      return TraceCategory::kPacket;
    case TraceEvent::kTcpRetransmit:
    case TraceEvent::kTcpTimeout:
    case TraceEvent::kTcpCwndChange:
      return TraceCategory::kTcp;
    case TraceEvent::kMptcpSubflowSwitch:
      return TraceCategory::kMptcp;
    case TraceEvent::kCacheHit:
    case TraceEvent::kCacheMiss:
    case TraceEvent::kCacheEviction:
      return TraceCategory::kCache;
    case TraceEvent::kNatMappingRejected:
      return TraceCategory::kNat;
    case TraceEvent::kAtticGrantIssued:
    case TraceEvent::kAtticGrantDenied:
    case TraceEvent::kAtticErasureRepair:
      return TraceCategory::kAttic;
    case TraceEvent::kDetourChosen:
    case TraceEvent::kDetourWithdrawn:
      return TraceCategory::kDcol;
    case TraceEvent::kUsageRecordVerified:
    case TraceEvent::kUsageRecordRejected:
      return TraceCategory::kNocdn;
    case TraceEvent::kPrefetchIssued:
      return TraceCategory::kIathome;
    case TraceEvent::kNodeCrash:
    case TraceEvent::kNodeRestart:
    case TraceEvent::kLinkDown:
    case TraceEvent::kLinkUp:
    case TraceEvent::kLinkDegraded:
    case TraceEvent::kNatFlush:
    case TraceEvent::kBurstLoss:
      return TraceCategory::kFault;
  }
  return TraceCategory::kAll;
}

/// One structured trace record. `detail` must point at a string with static
/// storage duration (event sites pass literals) so records stay POD-cheap.
struct TraceRecord {
  util::TimePoint at = 0;
  TraceEvent event = TraceEvent::kPacketDrop;
  double a = 0;
  double b = 0;
  const char* detail = "";
};

/// Flight-recorder tracer: typed records into a fixed ring buffer stamped
/// with simulated time (a running Simulator installs its clock, mirroring
/// util::set_log_clock). Disabled categories short-circuit in emit().
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 4096);

  /// Returns the clock it replaces.
  const util::TimePoint* set_clock(const util::TimePoint* now) {
    return std::exchange(clock_, now);
  }
  /// Replaces the buffer (and clears it); capacity must be > 0.
  void set_capacity(std::size_t capacity);

  void enable(TraceCategory categories) {
    mask_ |= static_cast<std::uint32_t>(categories);
  }
  void disable(TraceCategory categories) {
    mask_ &= ~static_cast<std::uint32_t>(categories);
  }
  void disable_all() { mask_ = 0; }
  bool enabled(TraceCategory category) const {
    return (mask_ & static_cast<std::uint32_t>(category)) != 0;
  }

  void emit(TraceEvent event, double a = 0, double b = 0,
            const char* detail = "") {
    if ((mask_ & static_cast<std::uint32_t>(trace_event_category(event))) ==
        0) {
      return;
    }
    record(event, a, b, detail);
  }

  /// Records currently held, oldest first (at most `capacity()`).
  std::vector<TraceRecord> records() const;
  /// Records of one event type, oldest first.
  std::vector<TraceRecord> records(TraceEvent event) const;
  std::size_t capacity() const { return ring_.size(); }
  std::size_t held() const;
  /// Total records ever emitted while enabled (wraps never reset this).
  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t overwritten() const {
    return emitted_ > ring_.size() ? emitted_ - ring_.size() : 0;
  }
  void clear();

  /// JSON-lines dump of the held records, oldest first.
  std::string to_jsonl() const;

 private:
  void record(TraceEvent event, double a, double b, const char* detail);

  std::uint32_t mask_ = 0;  // all categories off: zero-cost by default
  const util::TimePoint* clock_ = nullptr;
  std::vector<TraceRecord> ring_;
  std::size_t next_ = 0;
  std::uint64_t emitted_ = 0;
};

/// The process-wide tracer the instrumented components emit into.
extern thread_local Tracer g_tracer;
inline Tracer& tracer() { return g_tracer; }

}  // namespace hpop::telemetry
