#pragma once

#include <cstdint>
#include <vector>

#include "metro/topology.hpp"
#include "util/time.hpp"

namespace hpop::metro {

/// Logical shard plan for the parallel engine: the metro tree cut along
/// its natural seams. Partition p (p < pop_count) owns PoP p's entire
/// subtree — the PoP router, its DSLAMs, their homes, and every link
/// strictly inside that subtree. The last partition (`core_partition`)
/// owns the core router, the origins, and the core↔origin links. The only
/// links crossing the cut are the pop uplinks, which carry the largest
/// propagation delays in the tree — that minimum delay is the engine's
/// conservative lookahead.
///
/// The plan is a function of the topology alone, never of the worker
/// count: an engine with W workers multiplexes the same partitions onto W
/// threads, so the event structure (and therefore telemetry) is identical
/// for every W.
struct ShardPlan {
  std::size_t partitions = 0;
  std::size_t core_partition = 0;
  /// Minimum one-way delay over all boundary (pop uplink) links: events a
  /// shard schedules at or after the epoch floor T cannot affect another
  /// shard before T + lookahead.
  util::Duration lookahead = 0;

  std::size_t of_home(const MetroTopology& topo, std::size_t h) const {
    return topo.pop_of_home(h);
  }
  std::size_t of_dslam(const MetroTopology& topo, std::size_t d) const {
    return topo.pop_of_dslam(d);
  }

  /// FNV-1a per partition over (partition id, member node ids, boundary
  /// link params), so shard-plan drift shows up in sweep fingerprints the
  /// same way topology drift does.
  std::vector<std::uint64_t> fingerprints;
};

/// Plans one partition per PoP subtree plus one for the core+origins.
/// Fails loudly (assert) on a topology with no pops.
ShardPlan plan_shards(const MetroTopology& topo);

}  // namespace hpop::metro
