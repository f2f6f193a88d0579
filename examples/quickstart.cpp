// Quickstart: boot a home point of presence behind a home NAT, publish it
// through the directory, and reach its data attic from a laptop on an
// outside network — the "center your digital life on your residence"
// loop of §II-III in one program.

#include <cstdio>

#include "attic/client.hpp"
#include "attic/webdav.hpp"
#include "hpop/appliance.hpp"
#include "net/topology.hpp"
#include "util/logging.hpp"

using namespace hpop;

int main() {
  util::set_log_level(util::LogLevel::kInfo);
  sim::Simulator sim;
  net::Network net(sim, util::Rng(2026));

  // --- The world: a public core, infrastructure services, one home. ---
  net::Router& core = net.add_router("core");
  net::Host& infra = net.add_host("infra", net.next_public_address());
  net.connect(infra, infra.address(), core, net::IpAddr{},
              net::LinkParams{10 * util::kGbps, 5 * util::kMillisecond});
  net::Host& laptop = net.add_host("laptop-at-cafe",
                                   net.next_public_address());
  net.connect(laptop, laptop.address(), core, net::IpAddr{},
              net::LinkParams{50 * util::kMbps, 15 * util::kMillisecond});
  // An ultrabroadband home: gigabit FTTH behind an ordinary home NAT.
  const net::Home home =
      net::make_home(net, "home", core, 1, net::NatConfig::full_cone(),
                    net::PathParams{1 * util::kGbps, 2 * util::kMillisecond});
  net.auto_route();

  transport::TransportMux mux_infra(infra);
  transport::TransportMux mux_laptop(laptop);
  traversal::StunServer stun(mux_infra, 3478);
  traversal::TurnServer turn(mux_infra, 3479);
  traversal::Reflector reflector(mux_infra, 7100);
  core::DirectoryServer directory(mux_infra, 5300);

  // --- The appliance. ---
  core::HpopConfig config;
  config.household = "smith-family";
  config.reachability.home_gateway = home.nat;
  config.reachability.stun_server = net::Endpoint{infra.address(), 3478};
  config.reachability.turn_server = net::Endpoint{infra.address(), 3479};
  config.reachability.reflector = net::Endpoint{infra.address(), 7100};
  config.directory = net::Endpoint{infra.address(), 5300};
  core::Hpop hpop(*home.hosts[0], config);
  attic::AtticService attic_service(hpop);

  hpop.boot([&](const traversal::Advertisement& adv) {
    std::printf("[boot] HPoP online via %s at %s\n",
                traversal::to_string(adv.method).c_str(),
                adv.endpoint.to_string().c_str());
  });
  sim.run_until(10 * util::kSecond);

  // --- A household device (inside) drops a file into the attic. ---
  const std::string token = attic_service.owner_token();
  http::HttpClient laptop_http(mux_laptop);
  // (Inside the home the device would talk to the HPoP directly; for the
  // demo the laptop does everything from outside.)

  // One directory server is a one-shard ring.
  const core::HashRing ring(1);
  core::DirectoryClient resolver(mux_laptop, &ring,
                                 {net::Endpoint{infra.address(), 5300}},
                                 core::DirClientConfig{}, util::Rng(1));
  resolver.lookup("smith-family", [&](util::Result<traversal::Advertisement>
                                          adv) {
    if (!adv.ok()) {
      std::printf("[laptop] lookup failed: %s\n", adv.error().message.c_str());
      return;
    }
    std::printf("[laptop] found smith-family at %s (%s)\n",
                adv.value().endpoint.to_string().c_str(),
                traversal::to_string(adv.value().method).c_str());
    auto attic_client = std::make_shared<attic::AtticClient>(
        laptop_http, adv.value().endpoint, token);
    attic_client->put(
        "/photos/vacation/beach.jpg",
        http::Body("pretend this is a JPEG of a beach"),
        [&, attic_client](util::Result<std::string> etag) {
          if (!etag.ok()) {
            std::printf("[laptop] PUT failed: %s\n",
                        etag.error().message.c_str());
            return;
          }
          std::printf("[laptop] stored beach.jpg in the home attic, etag %s\n",
                      etag.value().c_str());
          attic_client->list("/photos/vacation", [&, attic_client](
              util::Result<std::vector<std::string>> entries) {
            if (entries.ok()) {
              std::printf("[laptop] attic listing of /photos/vacation:\n");
              for (const auto& e : entries.value()) {
                std::printf("  %s\n", e.c_str());
              }
            }
            attic_client->get(
                "/photos/vacation/beach.jpg",
                [](util::Result<attic::AtticClient::File> file) {
                  if (file.ok()) {
                    std::printf(
                        "[laptop] fetched it back: \"%s\"\n",
                        file.value().content.text().c_str());
                  }
                });
          });
        });
  });

  sim.run_until(30 * util::kSecond);
  std::printf("\n[done] simulated %.1f s; attic now holds %zu file(s), "
              "%zu bytes\n",
              util::to_seconds(sim.now()),
              attic_service.store().file_count(),
              attic_service.store().used_bytes());
  return 0;
}
