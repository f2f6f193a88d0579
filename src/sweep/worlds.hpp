#pragma once

#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace hpop::sweep {

// The small worlds a verdict bench reports on and the sweeper runs per
// seed. Each is defined once, here: the bench passes its fixed seeds and
// sizes, the sweeper passes seed-derived ones. Every params field is one
// those callers set differently; what they share is fixed inside.

/// E13, scenario C: ten fetches of a 1 KiB object, one every 2 s, through a
/// last-hop link that is down over [5, 10) s and [15, 20) s.
struct FlapParams {
  std::uint64_t net_seed = 0;
  std::uint64_t client_seed = 0;
  std::uint64_t chaos_seed = 0;
  /// Retry with jittered exponential backoff (6 attempts) or not at all.
  bool retry = true;
};

struct FlapResult {
  int ok = 0;  // of 10
  std::uint64_t retries = 0;
  std::uint64_t bytes = 0;
  util::TimePoint last_ok = 0;  // when the last successful fetch ended
};

FlapResult run_flap_fetches(const FlapParams& p);

/// E14: an open-loop crowd stampedes one warmed NoCDN peer for a hot
/// object. Every client retries, honours Retry-After and runs circuit
/// breakers; the peer sheds with admission control (10 req/s, burst 4) or
/// accepts everything.
struct StampedeParams {
  std::uint64_t net_seed = 0;
  std::uint64_t origin_seed = 0;
  std::uint64_t peer_seed = 0;
  std::uint64_t client_seed = 0;  // client i draws from client_seed + i
  int clients = 24;
  util::Duration issue_every = 500 * util::kMillisecond;  // per client
  /// The measurement window: fetches issued from `warmup` and done by
  /// `horizon` count.
  util::Duration warmup = 5 * util::kSecond;
  util::Duration horizon = 40 * util::kSecond;
  std::size_t object_kb = 300;
  util::BitRate peer_uplink = 30 * util::kMbps;
  bool admission = true;
};

struct StampedeResult {
  /// The warming fetch filled the peer's cache. When it did not, the crowd
  /// never runs and every other field stays zero.
  bool warmed = false;
  int issued = 0;
  int ok = 0;  // 200s inside the window
  std::uint64_t goodput_bytes = 0;
  std::uint64_t sheds = 0;
  std::uint64_t client_fast_fails = 0;
  std::uint64_t client_retries = 0;
  std::vector<double> latencies_s;  // successful fetches, sorted

  /// Nearest-rank quantile of the latencies (0 when there are none).
  double percentile(double q) const;
};

StampedeResult run_stampede(const StampedeParams& p);

/// E2: one bulk TCP flow on an empty two-hop path with a 64 MiB queue;
/// counts goodput per RTT until a window reaches 90% of the link rate.
struct RampParams {
  std::uint64_t seed = 0;
  util::BitRate rate = 1 * util::kGbps;
  util::Duration rtt = 50 * util::kMillisecond;
};

struct RampResult {
  int rtts_to_saturation = -1;  // -1: not within 40 RTTs
  std::uint64_t bytes_at_saturation = 0;
};

RampResult measure_ramp(const RampParams& p);

}  // namespace hpop::sweep
