#include "metro/partition.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/hash.hpp"

namespace hpop::metro {

namespace {

void hash_link_params(util::Fnv1a& fnv, const net::Link* link) {
  const net::LinkParams& lp = link->params();
  fnv.f64(lp.rate);
  fnv.u64(static_cast<std::uint64_t>(lp.delay));
  fnv.f64(lp.loss);
  fnv.u64(lp.queue_bytes);
}

}  // namespace

ShardPlan plan_shards(const MetroTopology& topo) {
  const std::size_t pops = topo.pops.size();
  assert(pops > 0 && "plan_shards needs a built metro");
  ShardPlan plan;
  plan.partitions = pops + 1;
  plan.core_partition = pops;

  plan.lookahead = std::numeric_limits<util::Duration>::max();
  for (const net::Link* up : topo.pop_uplinks) {
    plan.lookahead = std::min(plan.lookahead, up->params().delay);
  }

  plan.fingerprints.resize(plan.partitions);
  for (std::size_t p = 0; p < pops; ++p) {
    util::Fnv1a fnv;
    fnv.u64(p);
    const auto [first, last] = topo.homes_of_pop(p);
    fnv.u64(first);
    fnv.u64(last);
    for (std::size_t hh = first; hh < last; ++hh) {
      // The address's four bytes only, in host order.
      const std::uint32_t addr = topo.home_address(hh).value;
      fnv.bytes(&addr, sizeof addr);
    }
    hash_link_params(fnv, topo.pop_uplinks[p]);
    plan.fingerprints[p] = fnv.h;
  }
  util::Fnv1a fnv;
  fnv.u64(plan.core_partition);
  fnv.u64(topo.origins.size());
  for (const net::Link* ol : topo.origin_links) hash_link_params(fnv, ol);
  plan.fingerprints[plan.core_partition] = fnv.h;
  return plan;
}

}  // namespace hpop::metro
