#pragma once

#include <functional>
#include <map>
#include <memory>

#include "transport/mux.hpp"
#include "util/result.hpp"

namespace hpop::traversal {

// --- Control/relay frames on the allocation connection ---

struct TurnAllocateRequest : net::Payload {
  std::size_t wire_size() const override { return 36; }
};

struct TurnAllocateResponse : net::Payload {
  net::Endpoint relay;  // where external peers connect
  std::size_t wire_size() const override { return 40; }
};

/// Peer connection lifecycle + data, multiplexed by connection id.
struct TurnConnectionEvent : net::Payload {
  std::uint64_t conn_id = 0;
  bool open = true;  // false: peer connection closed
  std::size_t wire_size() const override { return 24; }
};

struct TurnData : net::Payload {
  std::uint64_t conn_id = 0;
  net::PayloadPtr inner;       // the relayed application message
  std::size_t filler = 0;      // relayed synthetic bytes
  std::size_t wire_size() const override {
    return 12 + (inner ? inner->wire_size() : filler);
  }
};

/// TURN-style relay (§III fallback): clients that cannot be reached behind
/// hostile NATs allocate a public relay endpoint here. Every inbound TCP
/// connection to the relay endpoint is bridged over the allocation
/// connection — all traffic pays the extra relay round trip and the relay's
/// bandwidth, the "limited functionality" cost the paper notes.
class TurnServer {
 public:
  TurnServer(transport::TransportMux& mux, std::uint16_t control_port = 3478);

  std::uint16_t control_port() const { return control_port_; }
  std::uint64_t allocations() const { return allocations_; }
  std::uint64_t bytes_relayed() const { return bytes_relayed_; }

 private:
  struct Allocation;
  void handle_allocate(
      const std::shared_ptr<transport::TcpConnection>& control);

  transport::TransportMux& mux_;
  std::uint16_t control_port_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::map<std::uint16_t, std::shared_ptr<Allocation>> allocations_by_port_;
  std::uint16_t next_relay_port_ = 49000;
  std::uint64_t allocations_ = 0;
  std::uint64_t bytes_relayed_ = 0;
};

/// Client side: allocates a relay endpoint and bridges each relayed peer
/// connection to a *local* TCP service (the HPoP's own HTTP server), so
/// unmodified servers work through the relay.
class TurnAllocation {
 public:
  TurnAllocation(transport::TransportMux& mux, net::Endpoint turn_server,
                 std::uint16_t local_service_port);

  using ReadyCallback = std::function<void(util::Result<net::Endpoint>)>;
  void allocate(ReadyCallback cb);

  bool active() const { return relay_.has_value(); }

 private:
  struct Bridge {
    std::shared_ptr<transport::TcpConnection> local;
    bool local_ready = false;
    std::vector<std::shared_ptr<const TurnData>> pending;  // pre-connect
  };
  void on_control_message(net::PayloadPtr msg);

  transport::TransportMux& mux_;
  net::Endpoint server_;
  std::uint16_t local_service_port_;
  std::shared_ptr<transport::TcpConnection> control_;
  std::optional<net::Endpoint> relay_;
  ReadyCallback ready_cb_;
  std::map<std::uint64_t, Bridge> bridges_;
};

}  // namespace hpop::traversal
