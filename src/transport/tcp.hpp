#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "util/time.hpp"

namespace hpop::transport {

class TransportMux;

struct TcpOptions {
  std::size_t mss = 1460;
  /// RFC 6928 initial window (segments); the paper's §IV-D ramp-up math
  /// ("a few segments in the first RTT ... 10 RTTs and over 14 MB")
  /// corresponds to IW10 with per-ACK doubling, which this TCP reproduces.
  std::uint32_t initial_window_segments = 10;
  std::uint64_t receive_window = 64ull << 20;  // large enough for gigabit BDPs
  util::Duration min_rto = 200 * util::kMillisecond;
  util::Duration initial_rto = 1 * util::kSecond;
  util::Duration max_rto = 60 * util::kSecond;

  /// MPTCP signalling: mp_capable SYN (first subflow) carries `mptcp_token`;
  /// a join SYN (additional subflow) carries `join_token`.
  bool mp_capable = false;
  std::uint64_t mptcp_token = 0;
  std::optional<std::uint64_t> join_token;

  /// Receiver-side deliberate ACK delay. DCol's custom client scheduler
  /// (§IV-C) delays subflow-level acknowledgements to inflate the RTT the
  /// server's min-RTT scheduler sees on an undesirable detour.
  util::Duration ack_delay = 0;

  /// Source address override; defaults to the host's primary address.
  /// DCol VPN subflows bind their waypoint-assigned virtual address.
  std::optional<net::IpAddr> bind_ip;

  /// Source port override (SO_REUSEADDR-style). NAT traversal binds
  /// outbound discovery/punch connections to the service port so the NAT
  /// mapping it creates is the one the service is reachable through.
  std::optional<std::uint16_t> local_port;
};

/// One endpoint of a simulated TCP connection: Reno congestion control with
/// NewReno partial-ack recovery, slow start (IW10), fast retransmit on three
/// duplicate ACKs, Jacobson/Karn RTO with exponential backoff.
///
/// Applications exchange framed messages: each Payload occupies
/// `wire_size()` bytes of the stream and is delivered when the receiver's
/// stream is contiguous through its final byte — message framing over a
/// byte stream without materializing the bytes.
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  enum class State {
    kSynSent,
    kSynReceived,
    kEstablished,
    kClosing,  // FIN sent and/or received, not yet fully closed
    kClosed,
  };

  /// Use TransportMux::connect / TcpListener; not directly constructible.
  TcpConnection(TransportMux& mux, net::Endpoint local, net::Endpoint remote,
                TcpOptions opts, bool passive);
  ~TcpConnection() = default;

  // --- Application interface ---
  void send(net::PayloadPtr message);
  void send_bytes(std::size_t n);
  /// Graceful close: FIN after all queued data.
  void close();
  /// Abortive close (RST).
  void abort();

  using MessageHandler = std::function<void(net::PayloadPtr)>;
  using PlainHandler = std::function<void()>;
  using BytesHandler = std::function<void(std::size_t)>;
  void set_on_established(PlainHandler h) { on_established_ = std::move(h); }
  void set_on_message(MessageHandler h) { on_message_ = std::move(h); }
  /// Called as stream bytes become contiguous (progress reporting).
  void set_on_bytes(BytesHandler h) { on_bytes_ = std::move(h); }
  void set_on_closed(PlainHandler h) { on_closed_ = std::move(h); }
  void set_on_reset(PlainHandler h) { on_reset_ = std::move(h); }
  /// Fires once when the peer's FIN is received (peer finished sending).
  /// Typical servers/clients respond by close()-ing their own side once
  /// their remaining data is queued.
  void set_on_remote_close(PlainHandler h) { on_remote_close_ = std::move(h); }
  /// Fires when acked data opens send window (MPTCP pump hook).
  void set_on_send_space(PlainHandler h) { on_send_space_ = std::move(h); }
  /// Fires for each fully-acknowledged queued payload (MPTCP data-ack).
  void set_on_payload_acked(MessageHandler h) {
    on_payload_acked_ = std::move(h);
  }

  // --- Introspection ---
  State state() const { return state_; }
  net::Endpoint local() const { return local_; }
  net::Endpoint remote() const { return remote_; }
  const TcpOptions& options() const { return opts_; }
  double cwnd() const { return cwnd_; }
  std::uint64_t bytes_acked() const { return snd_una_; }
  std::uint64_t bytes_received() const { return rcv_nxt_; }
  util::Duration srtt() const { return srtt_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }
  /// Why the connection failed ("connection reset by peer", "too many
  /// timeouts", "local abort"); nullptr after a graceful close or while
  /// open. Lets on_closed-only callers distinguish failure from completion
  /// instead of stalling on a connection that silently died.
  const char* last_error() const { return last_error_; }
  /// Window space available for new data right now.
  std::uint64_t available_window() const;
  std::uint64_t unsent_bytes() const { return snd_buf_end_ - snd_nxt_; }

  /// Receiver knob for DCol steering; takes effect for subsequent ACKs.
  void set_ack_delay(util::Duration d) { opts_.ack_delay = d; }

  // --- Wiring (mux-internal) ---
  void start_active_open();
  void on_packet(const net::Packet& pkt);
  /// Called by ~TransportMux: the mux is going away while the application
  /// may still hold the connection (a peer's connection map). Cancels all
  /// pending timers and drops the handlers without invoking any callback —
  /// the owner tearing down the mux (a crashed host) has usually destroyed
  /// the application already, so firing on_reset here would call into
  /// freed objects. Leaves the object inert and kClosed.
  void detach();

 private:
  struct Item {
    std::uint64_t end_offset;
    net::PayloadPtr payload;  // null => synthetic filler
  };

  void enqueue(std::uint64_t len, net::PayloadPtr payload);
  void try_send();
  void emit_segment(std::uint64_t seq, std::uint64_t len, bool retransmit);
  void send_ack_now();
  void schedule_delayed_ack();
  void process_ack(const net::Packet& pkt);
  void process_data(const net::Packet& pkt);
  void on_new_ack(std::uint64_t acked);
  void update_sack_scoreboard(const net::Packet& pkt);
  std::uint64_t sacked_bytes_in_flight() const;
  /// First unsacked gap at/after `from` (clamped to [snd_una_, snd_nxt_));
  /// returns {start, end} or start==end when none.
  std::pair<std::uint64_t, std::uint64_t> next_hole(std::uint64_t from) const;
  void enter_recovery();
  void send_in_recovery();
  void on_rto();
  void arm_rto();
  void disarm_rto();
  void update_rtt(util::Duration sample);
  void maybe_send_fin();
  void maybe_finish_close();
  void deliver_ready();
  void prune_acked_items();
  void fail(const char* reason);
  /// Runs one handler. Once the connection has closed, the outermost
  /// handler to return drops them all (a handler may abort its own
  /// connection, so none is destroyed while it runs).
  template <class Handler, class... Args>
  void fire(Handler& handler, Args&&... args);
  void drop_handlers();
  /// Fills the message refs ending in (seq, seq+len] straight into the
  /// packet's body. The CowVec is only touched when at least one message
  /// actually ends in the range — bulk filler segments (the hot path) ship
  /// with the pool slot's empty default instead of materializing a vector.
  void collect_refs_in_range(std::uint64_t seq, std::uint64_t len,
                             net::Packet& pkt) const;
  net::PooledPacket base_packet() const;
  void transmit(net::PooledPacket pkt);

  TransportMux& mux_;
  net::Endpoint local_;
  net::Endpoint remote_;
  TcpOptions opts_;
  State state_;

  // Sender.
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t high_water_ = 0;   // highest sequence ever transmitted
  std::uint64_t snd_buf_end_ = 0;  // stream bytes queued by the app
  std::deque<Item> send_items_;
  double cwnd_ = 0;
  double ssthresh_ = 0;
  std::uint64_t peer_rwnd_;
  int dupacks_ = 0;
  bool in_fast_recovery_ = false;
  std::uint64_t recover_ = 0;
  /// Sender scoreboard / receiver reassembly maps share one node shape so
  /// extracted nodes are interchangeable between them.
  using RangeMap = std::map<std::uint64_t, std::uint64_t>;
  /// SACK scoreboard: peer-confirmed out-of-order ranges above snd_una_.
  RangeMap sacked_;
  /// Hole-scan cursor during SACK-based recovery (monotone per episode).
  std::uint64_t rexmit_scan_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  int firing_ = 0;  // this connection's handlers on the stack (fire())
  const char* last_error_ = nullptr;

  // RTT estimation (Karn: time one un-retransmitted segment at a time).
  util::Duration srtt_ = 0;
  util::Duration rttvar_ = 0;
  util::Duration rto_;
  int rto_backoff_ = 0;
  std::optional<std::uint64_t> timed_seq_;
  util::TimePoint timed_at_ = 0;
  std::optional<sim::TimerId> rto_timer_;

  // Receiver.
  std::uint64_t rcv_nxt_ = 0;
  RangeMap ooo_ranges_;  // start -> end
  /// Spare map nodes shared by every RangeMap operation on the segment hot
  /// path (SACK scoreboard merges, out-of-order reassembly, frontier
  /// advance). Ranges churn one node per segment in bulk transfer and one
  /// per merged range per ACK during loss recovery; recycling extracted
  /// nodes here turns that into zero allocator round-trips in steady state.
  static constexpr std::size_t kMaxRangeSpares = 256;
  std::vector<RangeMap::node_type> range_spares_;
  void stash_range_node(RangeMap::node_type&& node);
  /// Inserts [lo, hi) into `m`, re-using `reuse` (or a cached spare) for
  /// the node so the insert does not allocate.
  void insert_range(RangeMap& m, std::uint64_t lo, std::uint64_t hi,
                    RangeMap::node_type&& reuse);
  /// SACK generation state (RFC 2018 block selection): sequence inside the
  /// most recently received out-of-order segment, and the rotation cursor
  /// cycling the remaining ranges through the capped block slots. Mutable:
  /// advancing the cursor is part of building an (otherwise const) ACK.
  std::uint64_t last_ooo_seq_ = UINT64_MAX;
  mutable std::uint64_t sack_rotate_ = 0;
  std::map<std::uint64_t, net::PayloadPtr> pending_refs_;  // end_offset -> msg
  std::optional<std::uint64_t> fin_seq_;  // peer FIN position
  bool fin_received_ = false;
  std::optional<sim::TimerId> delayed_ack_timer_;

  // Callbacks. A closed connection holds none, so handlers may capture
  // the connection itself.
  PlainHandler internal_established_;  // mux accept/MPTCP-attach; fires once
  PlainHandler on_established_;
  MessageHandler on_message_;
  BytesHandler on_bytes_;
  PlainHandler on_closed_;
  PlainHandler on_reset_;
  PlainHandler on_remote_close_;
  PlainHandler on_send_space_;
  MessageHandler on_payload_acked_;

  // Registry handles (aggregated across all connections).
  telemetry::Counter* m_retransmits_;
  telemetry::Counter* m_timeouts_;
  telemetry::SummaryMetric* m_rtt_ms_;

  friend class TransportMux;
};

class MptcpConnection;

/// Passive endpoint: accepts connections on a port. A listener whose
/// options set `mp_capable` accepts MPTCP sessions: mp_capable SYNs produce
/// an MptcpConnection via set_on_accept_mptcp, plain SYNs still produce
/// ordinary connections via set_on_accept.
class TcpListener {
 public:
  TcpListener(TransportMux& mux, std::uint16_t port, TcpOptions opts)
      : mux_(mux), port_(port), opts_(opts) {}

  using AcceptHandler =
      std::function<void(std::shared_ptr<TcpConnection>)>;
  using MptcpAcceptHandler =
      std::function<void(std::shared_ptr<MptcpConnection>)>;
  void set_on_accept(AcceptHandler h) { on_accept_ = std::move(h); }
  void set_on_accept_mptcp(MptcpAcceptHandler h) {
    on_accept_mptcp_ = std::move(h);
  }

  std::uint16_t port() const { return port_; }
  const TcpOptions& options() const { return opts_; }

 private:
  TransportMux& mux_;
  std::uint16_t port_;
  TcpOptions opts_;
  AcceptHandler on_accept_;
  MptcpAcceptHandler on_accept_mptcp_;

  friend class TransportMux;
};

}  // namespace hpop::transport
