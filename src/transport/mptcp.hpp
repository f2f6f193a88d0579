#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "transport/tcp.hpp"

namespace hpop::transport {

/// One MPTCP data-level chunk, carried as the payload of subflow segments.
/// A chunk maps a run of data-sequence bytes onto a subflow and carries the
/// application message boundaries that end inside it (DSS mapping in spirit;
/// see DESIGN.md for the simplification: data-level ACKs are inferred from
/// subflow-level ACKs).
class ChunkPayload : public net::Payload {
 public:
  ChunkPayload(std::uint64_t data_offset, std::uint64_t length,
               std::vector<net::MessageRef> refs)
      : data_offset_(data_offset), length_(length), refs_(std::move(refs)) {}

  std::size_t wire_size() const override { return length_; }
  std::uint64_t data_offset() const { return data_offset_; }
  std::uint64_t length() const { return length_; }
  std::uint64_t data_end() const { return data_offset_ + length_; }
  const std::vector<net::MessageRef>& refs() const { return refs_; }

 private:
  std::uint64_t data_offset_;
  std::uint64_t length_;
  std::vector<net::MessageRef> refs_;
};

enum class SchedulerKind {
  kMinRtt,      // default MPTCP behaviour: lowest-SRTT subflow with space
  kRoundRobin,  // ablation baseline
  kWeighted,    // proportional to configured weights
};

struct MptcpOptions {
  TcpOptions subflow;
  SchedulerKind scheduler = SchedulerKind::kMinRtt;
};

/// Multipath TCP connection: one data-sequence stream striped over one or
/// more TCP subflows (§IV-C, Fig. 3). Subflows may traverse entirely
/// different network paths — in DCol, waypoint tunnels — while the
/// application sees the same framed-message API as TcpConnection.
class MptcpConnection : public std::enable_shared_from_this<MptcpConnection> {
 public:
  MptcpConnection(TransportMux& mux, std::uint64_t token, MptcpOptions opts,
                  bool server_role);
  ~MptcpConnection();

  // --- Application interface (mirrors TcpConnection) ---
  void send(net::PayloadPtr message);
  void send_bytes(std::size_t n);
  void close();

  using MessageHandler = std::function<void(net::PayloadPtr)>;
  using PlainHandler = std::function<void()>;
  using BytesHandler = std::function<void(std::size_t)>;
  void set_on_established(PlainHandler h) { on_established_ = std::move(h); }
  void set_on_message(MessageHandler h) { on_message_ = std::move(h); }
  void set_on_bytes(BytesHandler h) { on_bytes_ = std::move(h); }
  void set_on_closed(PlainHandler h) { on_closed_ = std::move(h); }
  /// Fires instead of on_closed when the session dies abnormally (every
  /// subflow reset/lost before the data stream drained). Without it the
  /// failure is still visible through last_error() in on_closed.
  void set_on_reset(PlainHandler h) { on_reset_ = std::move(h); }
  /// Failure reason when the session ended abnormally; nullptr otherwise.
  const char* last_error() const { return last_error_; }

  // --- Subflow management (DCol's detour engine drives these) ---
  /// Opens an additional subflow to the peer. `bind_ip` lets a VPN tunnel
  /// source the subflow from its virtual address; `remote` defaults to the
  /// primary subflow's remote endpoint.
  std::shared_ptr<TcpConnection> add_subflow(TcpOptions subflow_opts);
  /// Removes a subflow; its in-flight data is reinjected on the others.
  void remove_subflow(const std::shared_ptr<TcpConnection>& subflow);
  /// Attaches an accepted join subflow (mux-internal, server side).
  void attach_subflow(std::shared_ptr<TcpConnection> subflow, bool primary);

  struct SubflowInfo {
    std::shared_ptr<TcpConnection> conn;
    std::uint64_t bytes_scheduled = 0;
    double weight = 1.0;
    bool dead = false;
  };
  const std::vector<SubflowInfo>& subflows() const { return subflows_; }
  std::uint64_t token() const { return token_; }
  bool established() const { return established_; }
  net::Endpoint remote() const { return remote_; }
  void set_remote(net::Endpoint remote) { remote_ = remote; }
  void set_scheduler(SchedulerKind k) { opts_.scheduler = k; }
  void set_subflow_weight(const std::shared_ptr<TcpConnection>& sf, double w);

 private:
  struct OutChunk {
    std::uint64_t data_offset;
    std::uint64_t length;
    TcpConnection* subflow;
    bool acked = false;
  };

  void wire_subflow(SubflowInfo& info, bool primary);
  void pump();
  int pick_subflow();
  void on_chunk_received(const ChunkPayload& chunk);
  void on_chunk_acked(const ChunkPayload& chunk, TcpConnection* subflow);
  void handle_subflow_death(TcpConnection* subflow);
  void deliver_ready();
  void advance_data_una();
  std::vector<net::MessageRef> refs_in_range(std::uint64_t off,
                                             std::uint64_t len) const;
  void maybe_finish_close();
  /// Same contract as TcpConnection's: once the session has closed, the
  /// outermost handler to return drops them all.
  template <class Handler, class... Args>
  void fire(Handler& handler, Args&&... args);
  /// Called by ~TransportMux: closes the session without invoking any
  /// callback and drops its handlers.
  void detach();

  TransportMux& mux_;
  std::uint64_t token_;
  MptcpOptions opts_;
  bool server_role_;
  bool established_ = false;
  bool close_requested_ = false;
  bool closed_ = false;
  int firing_ = 0;  // this session's handlers on the stack (fire())
  net::Endpoint remote_;

  std::vector<SubflowInfo> subflows_;
  std::size_t rr_next_ = 0;  // round-robin cursor
  int last_subflow_ = -1;    // scheduler's previous pick (switch detection)

  // Data-level sender state.
  std::uint64_t data_end_ = 0;       // bytes queued by the app
  std::uint64_t data_next_ = 0;      // next never-sent offset
  std::uint64_t data_una_ = 0;       // lowest unacked data offset
  struct Item {
    std::uint64_t end_offset;
    net::PayloadPtr payload;
  };
  std::deque<Item> send_items_;
  std::vector<OutChunk> outstanding_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> reinject_;  // off,len

  // Data-level receiver state.
  std::uint64_t data_rcv_nxt_ = 0;
  std::map<std::uint64_t, std::uint64_t> ooo_ranges_;
  std::map<std::uint64_t, net::PayloadPtr> pending_refs_;

  PlainHandler on_established_;
  MessageHandler on_message_;
  BytesHandler on_bytes_;
  PlainHandler on_closed_;
  PlainHandler on_reset_;
  const char* last_error_ = nullptr;

  // Registry handles (aggregated across all MPTCP connections).
  telemetry::Counter* m_sched_bytes_;
  telemetry::Counter* m_subflow_switches_;

  friend class TransportMux;
};

}  // namespace hpop::transport
