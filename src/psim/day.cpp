#include "psim/day.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "metro/partition.hpp"
#include "metro/topology.hpp"
#include "metro/workload.hpp"
#include "net/network.hpp"
#include "psim/engine.hpp"
#include "psim/tcp_day.hpp"
#include "transport/mux.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace hpop::psim {

namespace {

/// What a request asks for. It rides the request as its (immutable)
/// message — the UDP day's datagram, the TCP day's stream, where it is a
/// 16-byte framed payload — so the origin needs no per-request state.
struct RequestInfo : net::Payload {
  std::uint32_t home = 0;
  std::uint32_t rank = 0;
  std::uint64_t bytes = 0;
  RequestInfo(std::uint32_t h, std::uint32_t r, std::uint64_t b)
      : home(h), rank(r), bytes(b) {}
  std::size_t wire_size() const override { return 16; }
};

/// Appends one printf-formatted line to a day report.
[[gnu::format(printf, 2, 3)]] void append_line(std::string& report,
                                               const char* fmt, ...) {
  char line[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(line, sizeof(line), fmt, args);
  va_end(args);
  report += line;
}

/// The sharded-day scaffold: one metro day on the partitioned engine,
/// whatever carries its requests. It owns the world, binds every link and
/// endpoint to its shard, scripts the two faults, schedules each home's
/// arrivals, runs the day and writes the report frame. `Transport` derives
/// from it (CRTP) and supplies only what differs:
///   - `Home`, its per-home state, with an `rng` and `rx_bytes`;
///   - its constructor, which sets up the per-home endpoints and the
///     origin service once the world is built;
///   - `request(h, rank, bytes)`, which sends one request from home h;
///   - `Result`, `kTitle` (the report's first word) and `kPopCount` (the
///     per-home counter the per-PoP hash mixes beside rx_bytes);
///   - `finish(r)`, which fills its own result fields and report lines.
///
/// Member order is teardown order reversed, and it matters twice: `eng`
/// precedes `net`, because when the day ends mid-traffic, link queues
/// still hold PooledPackets whose pools live in the engine's shard
/// simulators; and the transport's own members, its muxes, are destroyed
/// before anything here.
template <class Transport, class Home>
struct ShardedDay {
  const DayConfig& cfg;
  sim::Simulator build_sim;
  util::Rng rng;
  std::unique_ptr<Engine> eng;
  net::Network net;
  metro::MetroTopology topo;
  metro::ShardPlan plan;
  std::unique_ptr<metro::WorkloadModel> model;
  std::vector<Home> homes;
  std::vector<std::unique_ptr<fault::ChaosController>> chaos;

  /// Builds the world. The day's RNG forks for the network, the topology
  /// and the event plan here, in that order, and once per chaos controller
  /// in run(); each home's RNG depends on the seed and its index alone.
  explicit ShardedDay(const DayConfig& c)
      : cfg(c), rng(c.seed), net(build_sim, rng.fork()) {
    metro::MetroParams mp;
    mp.homes = cfg.homes;
    mp.origins = 1;
    util::Rng topo_rng = rng.fork();
    topo = metro::build_metro(net, mp, topo_rng);
    plan = metro::plan_shards(topo);

    Engine::Config ec;
    ec.workers = cfg.workers;
    ec.lookahead = plan.lookahead;
    eng = std::make_unique<Engine>(ec);
    for (std::size_t p = 0; p < plan.partitions; ++p) {
      eng->add_partition();
    }

    for (const auto& link : net.links()) {
      link->set_burst_limit(cfg.burst_limit);
    }
    for (std::size_t h = 0; h < topo.homes.size(); ++h) {
      eng->bind_local(topo.access_links[h], plan.of_home(topo, h));
    }
    for (std::size_t d = 0; d < topo.dslams.size(); ++d) {
      eng->bind_local(topo.dslam_uplinks[d], plan.of_dslam(topo, d));
    }
    const std::size_t core_p = plan.core_partition;
    for (std::size_t p = 0; p < topo.pops.size(); ++p) {
      net::Link* up = topo.pop_uplinks[p];
      eng->bind_boundary(up, 0, p, core_p);  // pop -> core
      eng->bind_boundary(up, 1, core_p, p);  // core -> pop
    }
    for (net::Link* ol : topo.origin_links) {
      eng->bind_local(ol, core_p);
    }

    // Re-home the endpoints into their shards BEFORE any transport state
    // exists: a host (and a TransportMux on it) resolves its simulator and
    // packet pool dynamically, so once the host is bound, every packet,
    // connection and timer it creates belongs to the owning shard.
    for (std::size_t h = 0; h < topo.homes.size(); ++h) {
      topo.homes[h]->bind_shard(eng->sim(plan.of_home(topo, h)));
    }
    topo.origins[0]->bind_shard(eng->sim(core_p));

    metro::DiurnalCurve curve = metro::DiurnalCurve::residential(cfg.day);
    metro::ZipfCatalog catalog(cfg.catalog_objects, cfg.zipf_skew);
    util::Rng plan_rng = rng.fork();
    metro::EventPlan eplan = metro::EventPlan::generate(
        topo, catalog, cfg.day, cfg.flash_crowds, /*outages=*/0, plan_rng);
    model = std::make_unique<metro::WorkloadModel>(curve, catalog, eplan,
                                                   cfg.base_rate_per_home);

    homes.resize(topo.homes.size());
    for (std::size_t h = 0; h < homes.size(); ++h) {
      homes[h].rng = util::Rng(cfg.seed ^ (0x9E3779B97F4A7C15ull *
                                           static_cast<std::uint64_t>(h + 1)));
    }
  }

  // Event closures and handlers hold `this`.
  ShardedDay(const ShardedDay&) = delete;
  ShardedDay& operator=(const ShardedDay&) = delete;

  Transport& transport() { return static_cast<Transport&>(*this); }

  void schedule_arrival(std::size_t h, util::TimePoint after) {
    util::TimePoint t = model->next_arrival(topo, h, after, homes[h].rng);
    if (t >= cfg.day) return;
    const std::size_t p = plan.of_home(topo, h);
    eng->sim(p).schedule_at(t, [this, h] { fire_request(h); });
  }

  void fire_request(std::size_t h) {
    sim::Simulator& sim = eng->sim(plan.of_home(topo, h));
    const std::size_t rank =
        model->draw_object(topo, h, sim.now(), homes[h].rng);
    transport().request(h, rank, model->catalog().bytes_of(rank));
    schedule_arrival(h, sim.now());
  }

  /// Chaos, routed to the owning shard: each controller schedules on its
  /// shard's simulator, so the fault fires on the worker that owns the
  /// targeted subtree. Boundary links are never touched (see Engine).
  void script_faults() {
    if (!cfg.chaos || topo.pops.size() < 3) return;
    const std::size_t d1 = 1 * topo.params.dslams_per_pop;  // inside PoP 1
    auto c1 = std::make_unique<fault::ChaosController>(eng->sim(1), rng.fork());
    c1->register_node(topo.dslams[d1]->name(), topo.dslams[d1]);
    c1->crash_at(topo.dslams[d1]->name(), cfg.day * 3 / 10, cfg.day / 10);
    chaos.push_back(std::move(c1));

    const std::size_t d2 = 2 * topo.params.dslams_per_pop;  // inside PoP 2
    auto c2 = std::make_unique<fault::ChaosController>(eng->sim(2), rng.fork());
    const auto [first, last] = topo.homes_of_dslam(d2);
    std::vector<net::Node*> cut_homes;
    for (std::size_t h = first; h < last; ++h) {
      cut_homes.push_back(topo.homes[h]);
    }
    c2->partition_at(std::move(cut_homes), {}, cfg.day * 45 / 100,
                     cfg.day * 15 / 100);
    chaos.push_back(std::move(c2));
  }

  /// Scripts the faults, schedules the first arrivals, runs the day and
  /// returns its result, the report frame written around the transport's
  /// own lines.
  auto run() {
    script_faults();
    for (std::size_t h = 0; h < homes.size(); ++h) {
      schedule_arrival(h, 0);
    }

    const auto wall0 = std::chrono::steady_clock::now();
    eng->run_until(cfg.day);
    const auto wall1 = std::chrono::steady_clock::now();

    typename Transport::Result r;
    r.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
    for (const Home& hs : homes) {
      r.rx_bytes += hs.rx_bytes;
    }
    r.events = eng->events_executed();
    r.epochs = eng->stats().epochs;
    r.crossings = eng->stats().crossings;
    for (const auto& c : chaos) {
      r.chaos_crashes += c->stats().crashes;
      r.chaos_restarts += c->stats().restarts;
      r.partition_drops += c->stats().partition_drops;
    }

    // Per-PoP aggregate hash: catches any reordering that shifts traffic
    // between subtrees without changing the global totals.
    std::vector<std::uint64_t> pop_count(topo.pops.size(), 0);
    std::vector<std::uint64_t> pop_bytes(topo.pops.size(), 0);
    for (std::size_t h = 0; h < homes.size(); ++h) {
      const std::size_t p = topo.pop_of_home(h);
      pop_count[p] += homes[h].*Transport::kPopCount;
      pop_bytes[p] += homes[h].rx_bytes;
    }
    util::Fnv1a pop_hash;
    for (std::size_t p = 0; p < pop_count.size(); ++p) {
      pop_hash.u64(pop_count[p]);
      pop_hash.u64(pop_bytes[p]);
    }
    util::Fnv1a shard_hash;
    for (std::uint64_t f : plan.fingerprints) {
      shard_hash.u64(f);
    }

    append_line(r.report,
                "%s homes=%zu pops=%zu partitions=%zu day_ms=%" PRId64
                " seed=%" PRIu64 "\n",
                Transport::kTitle, topo.homes.size(), topo.pops.size(),
                plan.partitions, cfg.day / util::kMillisecond, cfg.seed);
    append_line(r.report,
                "topology fp=%016" PRIx64 " shards fp=%016" PRIx64
                " lookahead_us=%" PRId64 "\n",
                topo.fingerprint(), shard_hash.h,
                plan.lookahead / util::kMicrosecond);
    transport().finish(r);
    append_line(r.report, "per-pop hash=%016" PRIx64 "\n", pop_hash.h);
    append_line(r.report,
                "chaos crashes=%" PRIu64 " restarts=%" PRIu64
                " partition_drops=%" PRIu64 "\n",
                r.chaos_crashes, r.chaos_restarts, r.partition_drops);
    append_line(r.report,
                "events=%" PRIu64 " epochs=%" PRIu64 " crossings=%" PRIu64
                " spilled=%" PRIu64 "\n",
                r.events, r.epochs, r.crossings, r.spilled);
    return r;
  }
};

// --- UDP transport: a request datagram answered by a train of chunks ---

constexpr std::uint16_t kReqPort = 7100;
constexpr std::uint16_t kRespPort = 7200;
constexpr std::size_t kReqWire = 64;
constexpr std::size_t kChunkBytes = 1200;

struct UdpHome {
  util::Rng rng{0};
  std::uint64_t requests = 0;
  std::uint64_t rx_pkts = 0;
  std::uint64_t rx_bytes = 0;
};

struct UdpDay : ShardedDay<UdpDay, UdpHome> {
  using Result = DayResult;
  static constexpr const char* kTitle = "psim-day";
  static constexpr auto kPopCount = &UdpHome::rx_pkts;

  std::uint64_t origin_requests = 0;
  std::uint64_t origin_chunks = 0;

  explicit UdpDay(const DayConfig& c) : ShardedDay(c) {
    for (std::size_t h = 0; h < homes.size(); ++h) {
      topo.homes[h]->set_transport_handler(
          [this, h](net::PooledPacket pkt, net::Interface&) {
            if (pkt->udp.dst_port != kRespPort) return;
            ++homes[h].rx_pkts;
            homes[h].rx_bytes += pkt->payload_len;
          });
    }
    topo.origins[0]->set_transport_handler(
        [this](net::PooledPacket pkt, net::Interface&) {
          if (pkt->udp.dst_port != kReqPort) return;
          serve(*pkt);
        });
  }

  void request(std::size_t h, std::size_t rank, std::uint64_t bytes) {
    net::Host* home = topo.homes[h];
    net::PooledPacket q = home->packet_pool().acquire();
    q->src = topo.home_address(h);
    q->dst = topo.origins[0]->address();
    q->proto = net::Proto::kUdp;
    q->udp.src_port = kReqPort;
    q->udp.dst_port = kReqPort;
    q->payload_len = kReqWire;
    q->messages.push_back(
        {kReqWire, std::make_shared<RequestInfo>(
                       static_cast<std::uint32_t>(h),
                       static_cast<std::uint32_t>(rank), bytes)});
    home->send_packet(std::move(q));
    ++homes[h].requests;
  }

  void serve(const net::Packet& req) {
    if (req.messages.empty()) return;
    const auto* info =
        static_cast<const RequestInfo*>(req.messages[0].message.get());
    ++origin_requests;
    net::Host* origin = topo.origins[0];
    const net::IpAddr dst = req.src;
    std::uint64_t remaining = info->bytes;
    while (remaining > 0) {
      const std::size_t chunk =
          std::min<std::uint64_t>(remaining, kChunkBytes);
      net::PooledPacket q = origin->packet_pool().acquire();
      q->src = origin->address();
      q->dst = dst;
      q->proto = net::Proto::kUdp;
      q->udp.src_port = kRespPort;
      q->udp.dst_port = kRespPort;
      q->payload_len = chunk;
      origin->send_packet(std::move(q));
      ++origin_chunks;
      remaining -= chunk;
    }
  }

  void finish(DayResult& r) const {
    for (const UdpHome& hs : homes) {
      r.requests += hs.requests;
      r.rx_pkts += hs.rx_pkts;
    }
    r.chunks = origin_chunks;
    append_line(r.report,
                "requests=%" PRIu64 " served=%" PRIu64 " chunks=%" PRIu64
                " rx_pkts=%" PRIu64 " rx_bytes=%" PRIu64 "\n",
                r.requests, origin_requests, r.chunks, r.rx_pkts,
                r.rx_bytes);
  }
};

// --- TCP transport: one TCP or MPTCP connection per request ---

constexpr std::uint16_t kTcpPort = 80;

using MptcpSessions = std::vector<std::shared_ptr<transport::MptcpConnection>>;

struct TcpHome {
  util::Rng rng{0};
  std::uint64_t conns = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t mptcp_sessions = 0;
  /// The mux only holds MPTCP sessions weakly, so the client keeps its
  /// live sessions here (owned by the home's shard; erased — deferred one
  /// event — when the session closes).
  MptcpSessions mp_live;
};

struct TcpDay : ShardedDay<TcpDay, TcpHome> {
  using Result = TcpDayResult;
  static constexpr const char* kTitle = "psim-tcp-day";
  static constexpr auto kPopCount = &TcpHome::completed;

  std::size_t mptcp_every;
  std::uint64_t origin_served = 0;
  std::uint64_t origin_tx_bytes = 0;
  /// Accepted MPTCP sessions, owned by the core shard (same weak-mux
  /// reasoning as TcpHome::mp_live).
  MptcpSessions origin_mp_live;
  /// Declared last so they are destroyed first: ~TransportMux detaches
  /// every connection, which cancels RTO/delayed-ack timers on shard
  /// simulators that must still be alive, and leaves the connection
  /// objects inert before anything that might still reference them is
  /// torn down.
  std::vector<std::unique_ptr<transport::TransportMux>> home_muxes;
  std::unique_ptr<transport::TransportMux> origin_mux;

  explicit TcpDay(const TcpDayConfig& c)
      : ShardedDay(c), mptcp_every(c.mptcp_every) {
    home_muxes.resize(homes.size());
    for (std::size_t h = 0; h < homes.size(); ++h) {
      home_muxes[h] =
          std::make_unique<transport::TransportMux>(*topo.homes[h]);
    }
    origin_mux = std::make_unique<transport::TransportMux>(*topo.origins[0]);
    transport::TcpOptions lopts;
    lopts.mp_capable = true;  // accepts both MPTCP sessions and plain TCP
    auto listener = origin_mux->tcp_listen(kTcpPort, lopts);
    listener->set_on_accept(
        [this](std::shared_ptr<transport::TcpConnection> conn) {
          transport::TcpConnection* c = conn.get();
          c->set_on_message([this, c](net::PayloadPtr msg) { serve(c, *msg); });
        });
    listener->set_on_accept_mptcp(
        [this](std::shared_ptr<transport::MptcpConnection> session) {
          transport::MptcpConnection* c = session.get();
          origin_mp_live.push_back(std::move(session));
          c->set_on_message([this, c](net::PayloadPtr msg) { serve(c, *msg); });
          const auto release = [this, c] {
            release_mptcp(origin_mp_live, plan.core_partition, c);
          };
          c->set_on_closed(release);
          c->set_on_reset(release);
        });
  }

  void request(std::size_t h, std::size_t rank, std::uint64_t bytes) {
    TcpHome& hs = homes[h];
    auto request = std::make_shared<RequestInfo>(
        static_cast<std::uint32_t>(h), static_cast<std::uint32_t>(rank),
        bytes);
    transport::TransportMux& mux = *home_muxes[h];
    const net::Endpoint origin{topo.origins[0]->address(), kTcpPort};
    const auto on_bytes = [this, h](std::size_t n) {
      homes[h].rx_bytes += n;
    };
    if (mptcp_every != 0 && h % mptcp_every == 0) {
      auto conn = mux.mptcp_connect(origin);
      transport::MptcpConnection* c = conn.get();
      hs.mp_live.push_back(conn);
      ++hs.mptcp_sessions;
      conn->set_on_established([c, request] {
        c->add_subflow({});
        c->send(request);
        c->close();
      });
      conn->set_on_bytes(on_bytes);
      const auto done = [this, h, c] {
        std::uint64_t rexmit = 0;
        std::uint64_t tmo = 0;
        for (const auto& sf : c->subflows()) {
          rexmit += sf.conn->retransmits();
          tmo += sf.conn->timeouts();
        }
        account_close(h, c->last_error(), rexmit, tmo);
        release_mptcp(homes[h].mp_live, plan.of_home(topo, h), c);
      };
      conn->set_on_closed(done);
      conn->set_on_reset(done);
    } else {
      auto conn = mux.tcp_connect(origin);
      transport::TcpConnection* c = conn.get();
      conn->set_on_established([c, request] {
        c->send(request);
        c->close();
      });
      conn->set_on_bytes(on_bytes);
      conn->set_on_closed([this, h, c] {
        account_close(h, c->last_error(), c->retransmits(), c->timeouts());
      });
    }
    ++hs.conns;
  }

  void account_close(std::size_t h, const char* error, std::uint64_t rexmit,
                     std::uint64_t tmo) {
    TcpHome& hs = homes[h];
    hs.retransmits += rexmit;
    hs.timeouts += tmo;
    if (error == nullptr) {
      ++hs.completed;
    } else {
      ++hs.failed;
    }
  }

  /// Drops the owning reference one event later, on partition p: the
  /// session is mid-way through its own close callback, so erasing the
  /// shared_ptr here would destroy it under its own feet.
  void release_mptcp(MptcpSessions& live, std::size_t p,
                     transport::MptcpConnection* c) {
    eng->sim(p).schedule(0, [&live, c] {
      for (auto it = live.begin(); it != live.end(); ++it) {
        if (it->get() == c) {
          live.erase(it);
          return;
        }
      }
    });
  }

  /// Answers a request on an accepted TCP connection or MPTCP session.
  template <class Conn>
  void serve(Conn* c, const net::Payload& msg) {
    const auto& info = static_cast<const RequestInfo&>(msg);
    ++origin_served;
    origin_tx_bytes += info.bytes;
    c->send_bytes(info.bytes);
    c->close();
  }

  void finish(TcpDayResult& r) const {
    for (const TcpHome& hs : homes) {
      r.conns += hs.conns;
      r.completed += hs.completed;
      r.failed += hs.failed;
      r.retransmits += hs.retransmits;
      r.timeouts += hs.timeouts;
      r.mptcp_sessions += hs.mptcp_sessions;
    }
    r.origin_served = origin_served;
    r.origin_tx_bytes = origin_tx_bytes;
    append_line(r.report,
                "conns=%" PRIu64 " completed=%" PRIu64 " failed=%" PRIu64
                " mptcp=%" PRIu64 " rx_bytes=%" PRIu64 "\n",
                r.conns, r.completed, r.failed, r.mptcp_sessions, r.rx_bytes);
    append_line(r.report,
                "origin served=%" PRIu64 " tx_bytes=%" PRIu64 "\n",
                r.origin_served, r.origin_tx_bytes);
    append_line(r.report,
                "tcp retransmits=%" PRIu64 " timeouts=%" PRIu64 "\n",
                r.retransmits, r.timeouts);
  }
};

}  // namespace

DayResult run_day(const DayConfig& cfg) {
  UdpDay day(cfg);
  return day.run();
}

TcpDayResult run_tcp_day(const TcpDayConfig& cfg) {
  TcpDay day(cfg);
  return day.run();
}

}  // namespace hpop::psim
