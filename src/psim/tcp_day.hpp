#pragma once

#include <cstdint>

#include "psim/day.hpp"

namespace hpop::psim {

/// A sharded metro day over real transport: the day of run_day, with
/// per-home TCP (and a deterministic slice of MPTCP) request/response
/// transfers instead of raw UDP trains. Every piece of endpoint state —
/// cwnd, SACK scoreboard, RTO timers, reassembly maps — lives in the
/// connection objects of a TransportMux bound to the home's shard, so
/// nothing but fully-serialized packets ever crosses a shard boundary.
/// The conservative-lookahead barrier bounds those packets by the
/// pop-uplink delay exactly as in the UDP day, which is why the report
/// stays byte-identical for any worker count. Both chaos faults land
/// mid-transfer, so recovery exercises RTO backoff and SACK
/// retransmission across the sharded run.
struct TcpDayConfig : DayConfig {
  /// Every Nth home fetches over MPTCP with one extra subflow (0 disables).
  /// The slice is a function of the home index alone, so it is identical
  /// across worker counts.
  std::size_t mptcp_every = 16;
};

struct TcpDayResult : ShardedDayResult {
  std::uint64_t conns = 0;      // connections initiated by homes
  std::uint64_t completed = 0;  // closed cleanly with the full response
  std::uint64_t failed = 0;     // reset / timed out
  std::uint64_t mptcp_sessions = 0;
  std::uint64_t origin_served = 0;    // requests answered by the origin
  std::uint64_t origin_tx_bytes = 0;  // response bytes queued by the origin
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
};

TcpDayResult run_tcp_day(const TcpDayConfig& cfg);

}  // namespace hpop::psim
