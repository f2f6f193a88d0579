#include "metro/topology.hpp"

#include <algorithm>
#include <string>

#include "util/hash.hpp"

namespace hpop::metro {

namespace {

constexpr std::uint32_t kMetroBase = (40u << 24);  // 40.0.0.0

std::uint32_t pow2ceil(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

int prefix_bits(std::uint32_t block) {
  int bits = 32;
  while (block > 1) {
    block >>= 1;
    --bits;
  }
  return bits;
}

}  // namespace

std::pair<std::size_t, std::size_t> MetroTopology::homes_of_dslam(
    std::size_t d) const {
  const std::size_t first = d * params.homes_per_dslam;
  const std::size_t last =
      std::min(first + params.homes_per_dslam, homes.size());
  return {first, last};
}

std::pair<std::size_t, std::size_t> MetroTopology::homes_of_pop(
    std::size_t p) const {
  const std::size_t first_dslam = p * params.dslams_per_pop;
  const std::size_t last_dslam =
      std::min(first_dslam + params.dslams_per_pop, dslams.size());
  return {first_dslam * params.homes_per_dslam,
          std::min(last_dslam * params.homes_per_dslam, homes.size())};
}

std::uint32_t MetroTopology::dslam_base(std::size_t d) const {
  // Pop-strided, not dense: DSLAM d sits at slot (d mod dslams_per_pop)
  // inside its pop's pow2-aligned block. With a non-power-of-two fanout a
  // dense layout would leak a pop's later DSLAMs into the next pop's
  // aggregated prefix and the core would misroute the whole subtree.
  const std::size_t p = pop_of_dslam(d);
  const std::size_t slot = d - p * params.dslams_per_pop;
  return metro_base.value + static_cast<std::uint32_t>(p) * pop_block +
         static_cast<std::uint32_t>(slot) * dslam_block;
}

net::IpAddr MetroTopology::home_address(std::size_t h) const {
  const std::size_t d = dslam_of_home(h);
  const std::size_t i = h - d * params.homes_per_dslam;
  return net::IpAddr(dslam_base(d) + static_cast<std::uint32_t>(i));
}

net::Prefix MetroTopology::dslam_prefix(std::size_t d) const {
  return {net::IpAddr(dslam_base(d)), prefix_bits(dslam_block)};
}

net::Prefix MetroTopology::pop_prefix(std::size_t p) const {
  return {net::IpAddr(metro_base.value +
                      static_cast<std::uint32_t>(p) * pop_block),
          prefix_bits(pop_block)};
}

std::uint64_t MetroTopology::fingerprint() const {
  util::Fnv1a fnv{util::Fnv1a::kLegacyBasis};
  fnv.u64(homes.size());
  fnv.u64(dslams.size());
  fnv.u64(pops.size());
  fnv.u64(origins.size());
  fnv.u64(metro_base.value);
  fnv.u64(dslam_block);
  fnv.u64(pop_block);
  for (std::size_t h = 0; h < homes.size(); ++h) {
    fnv.u64(homes[h]->address().value);
  }
  auto mix_link = [&fnv](const net::Link* l) {
    fnv.f64(l->params().rate);
    fnv.u64(static_cast<std::uint64_t>(l->params().delay));
    fnv.u64(l->params().queue_bytes);
  };
  for (const net::Link* l : access_links) mix_link(l);
  for (const net::Link* l : dslam_uplinks) mix_link(l);
  for (const net::Link* l : pop_uplinks) mix_link(l);
  for (const net::Link* l : origin_links) mix_link(l);
  for (const net::Host* o : origins) fnv.u64(o->address().value);
  return fnv.h;
}

MetroTopology build_metro(net::Network& net, const MetroParams& params,
                          util::Rng& rng) {
  MetroTopology topo;
  topo.params = params;
  topo.metro_base = net::IpAddr(kMetroBase);
  topo.dslam_block =
      pow2ceil(static_cast<std::uint32_t>(params.homes_per_dslam));
  topo.pop_block = topo.dslam_block *
                   pow2ceil(static_cast<std::uint32_t>(params.dslams_per_pop));

  const std::size_t n_dslams = params.dslam_count();
  const std::size_t n_pops = params.pop_count();
  topo.homes.reserve(params.homes);
  topo.dslams.reserve(n_dslams);
  topo.pops.reserve(n_pops);
  topo.access_links.reserve(params.homes);
  topo.dslam_uplinks.reserve(n_dslams);
  topo.pop_uplinks.reserve(n_pops);

  // Core and PoP/DSLAM skeleton, top-down so uplink interfaces exist when
  // the downstream tier routes toward them.
  topo.core = &net.add_router("core");
  for (std::size_t p = 0; p < n_pops; ++p) {
    net::Router& pop = net.add_router("pop" + std::to_string(p));
    topo.pops.push_back(&pop);
    net::Link& up = net.connect(pop, net::IpAddr{}, *topo.core, net::IpAddr{},
                                params.pop_uplink.link());
    topo.pop_uplinks.push_back(&up);
    // Core routes the PoP's whole aggregated block down one interface.
    topo.core->add_route(topo.pop_prefix(p), &up.end_b());
    // PoP default: everything not in a child DSLAM block goes up.
    pop.set_default_route(&up.end_a());
  }
  for (std::size_t d = 0; d < n_dslams; ++d) {
    net::Router& dslam = net.add_router("ds" + std::to_string(d));
    topo.dslams.push_back(&dslam);
    net::Router& pop = *topo.pops[topo.pop_of_dslam(d)];
    net::Link& up = net.connect(dslam, net::IpAddr{}, pop, net::IpAddr{},
                                params.dslam_uplink.link());
    topo.dslam_uplinks.push_back(&up);
    pop.add_route(topo.dslam_prefix(d), &up.end_b());
    dslam.set_default_route(&up.end_a());
  }

  // Homes: a publicly addressed host per home, one /32 on its DSLAM.
  std::string name;
  for (std::size_t h = 0; h < params.homes; ++h) {
    name.assign("h");
    name += std::to_string(h);
    const net::IpAddr addr = topo.home_address(h);
    net::Host& home = net.add_host(name, addr);
    topo.homes.push_back(&home);
    net::Router& dslam = *topo.dslams[topo.dslam_of_home(h)];
    net::LinkParams access = params.access.link();
    if (params.access_rate_jitter > 0) {
      access.rate *= rng.uniform(1.0 - params.access_rate_jitter,
                                 1.0 + params.access_rate_jitter);
    }
    net::Link& lm = net.connect(home, addr, dslam, net::IpAddr{}, access);
    topo.access_links.push_back(&lm);
    dslam.add_route({addr, 32}, &lm.end_b());
    home.set_default_route(&lm.end_a());
  }

  // Origins attach to the core with addresses from the public pool.
  topo.origins.reserve(params.origins);
  topo.origin_links.reserve(params.origins);
  for (std::size_t o = 0; o < params.origins; ++o) {
    const net::IpAddr addr = net.next_public_address();
    net::Host& origin = net.add_host("origin" + std::to_string(o), addr);
    topo.origins.push_back(&origin);
    net::Link& l = net.connect(origin, addr, *topo.core, net::IpAddr{},
                               params.origin_path.link());
    topo.origin_links.push_back(&l);
    topo.core->add_route({addr, 32}, &l.end_b());
    origin.set_default_route(&l.end_a());
  }

  return topo;
}

}  // namespace hpop::metro
