#include "transport/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "telemetry/trace.hpp"
#include "transport/mux.hpp"
#include "util/logging.hpp"

namespace hpop::transport {

TcpConnection::TcpConnection(TransportMux& mux, net::Endpoint local,
                             net::Endpoint remote, TcpOptions opts,
                             bool passive)
    : mux_(mux),
      local_(local),
      remote_(remote),
      opts_(opts),
      state_(passive ? State::kSynReceived : State::kSynSent),
      peer_rwnd_(UINT64_MAX),
      rto_(opts.initial_rto) {
  cwnd_ = static_cast<double>(opts_.initial_window_segments) *
          static_cast<double>(opts_.mss);
  ssthresh_ = 1e18;  // effectively infinite until the first loss
  auto& reg = telemetry::registry();
  reg.counter("tcp.connections")->inc();
  m_retransmits_ = reg.counter("tcp.retransmits");
  m_timeouts_ = reg.counter("tcp.timeouts");
  m_rtt_ms_ = reg.summary("tcp.rtt_ms");
}

net::PooledPacket TcpConnection::base_packet() const {
  net::PooledPacket pkt = mux_.make_packet();
  pkt->src = local_.ip;
  pkt->dst = remote_.ip;
  pkt->proto = net::Proto::kTcp;
  pkt->tcp.src_port = local_.port;
  pkt->tcp.dst_port = remote_.port;
  pkt->tcp.ack = rcv_nxt_;
  pkt->tcp.ack_flag = true;
  pkt->tcp.wnd = opts_.receive_window;
  // Advertise the out-of-order ranges, capped at what real TCP options fit
  // (kMaxSackBlocks), in RFC 2018 shape: the block containing the most
  // recently received segment goes first, and the remaining slots cycle
  // through the other ranges across successive ACKs. The rotation is what
  // lets a sender rebuild the full scoreboard of a large loss burst a few
  // blocks at a time — a static pick of the same 3-4 ranges starves
  // recovery down to one retransmission per RTT.
  if (!ooo_ranges_.empty()) {
    auto& sack = pkt->tcp.sack.mutate();
    const std::size_t cap = net::TcpHeader::kMaxSackBlocks;
    sack.reserve(std::min(ooo_ranges_.size(), cap));
    std::uint64_t first_lo = UINT64_MAX;
    const auto recent = ooo_ranges_.upper_bound(last_ooo_seq_);
    if (recent != ooo_ranges_.begin()) {
      const auto r = std::prev(recent);
      if (r->first <= last_ooo_seq_ && last_ooo_seq_ < r->second) {
        sack.emplace_back(r->first, r->second);
        first_lo = r->first;
      }
    }
    auto it = ooo_ranges_.lower_bound(sack_rotate_);
    std::size_t scanned = 0;
    for (; sack.size() < cap && scanned < ooo_ranges_.size(); ++scanned) {
      if (it == ooo_ranges_.end()) it = ooo_ranges_.begin();
      if (it->first != first_lo) sack.emplace_back(it->first, it->second);
      ++it;
    }
    sack_rotate_ = it == ooo_ranges_.end() ? 0 : it->first;
  }
  return pkt;
}

void TcpConnection::transmit(net::PooledPacket pkt) {
  mux_.send_packet(std::move(pkt));
}

void TcpConnection::start_active_open() {
  net::PooledPacket syn = base_packet();
  syn->tcp.syn = true;
  syn->tcp.ack_flag = false;
  if (opts_.mp_capable) syn->tcp.mp_capable = opts_.mptcp_token;
  if (opts_.join_token) syn->tcp.mp_join = opts_.join_token;
  transmit(std::move(syn));
  arm_rto();
}

void TcpConnection::enqueue(std::uint64_t len, net::PayloadPtr payload) {
  assert(!fin_queued_ && "send after close");
  if (len == 0 && payload == nullptr) return;
  snd_buf_end_ += len;
  send_items_.push_back(Item{snd_buf_end_, std::move(payload)});
  try_send();
}

void TcpConnection::send(net::PayloadPtr message) {
  assert(message != nullptr);
  const std::uint64_t len = message->wire_size();
  enqueue(len, std::move(message));
}

void TcpConnection::send_bytes(std::size_t n) {
  if (n == 0) return;
  enqueue(n, nullptr);
}

void TcpConnection::close() {
  if (fin_queued_ || state_ == State::kClosed) return;
  fin_queued_ = true;
  if (state_ == State::kEstablished || state_ == State::kClosing) {
    try_send();
  }
}

void TcpConnection::abort() {
  if (state_ == State::kClosed) return;
  net::PooledPacket rst = base_packet();
  rst->tcp.rst = true;
  transmit(std::move(rst));
  fail("local abort");
}

void TcpConnection::detach() {
  disarm_rto();
  if (delayed_ack_timer_) {
    mux_.simulator().cancel(*delayed_ack_timer_);
    delayed_ack_timer_.reset();
  }
  if (state_ != State::kClosed) {
    last_error_ = "transport destroyed";
    state_ = State::kClosed;
  }
  drop_handlers();
}

template <class Handler, class... Args>
void TcpConnection::fire(Handler& handler, Args&&... args) {
  ++firing_;
  if (handler) handler(std::forward<Args>(args)...);
  if (--firing_ == 0 && state_ == State::kClosed) drop_handlers();
}

void TcpConnection::drop_handlers() {
  internal_established_ = nullptr;
  on_established_ = nullptr;
  on_message_ = nullptr;
  on_bytes_ = nullptr;
  on_closed_ = nullptr;
  on_reset_ = nullptr;
  on_remote_close_ = nullptr;
  on_send_space_ = nullptr;
  on_payload_acked_ = nullptr;
}

void TcpConnection::fail(const char* reason) {
  HPOP_LOG(kDebug, "tcp") << local_.to_string() << "->" << remote_.to_string()
                          << " failed: " << reason;
  const auto self = shared_from_this();  // keep alive through unregister
  last_error_ = reason;
  disarm_rto();
  if (delayed_ack_timer_) {
    mux_.simulator().cancel(*delayed_ack_timer_);
    delayed_ack_timer_.reset();
  }
  state_ = State::kClosed;
  mux_.tcp_unregister(local_, remote_);
  // Apps that only watch for closure still learn of it.
  fire(on_reset_ ? on_reset_ : on_closed_);
}

std::uint64_t TcpConnection::available_window() const {
  const auto wnd = static_cast<std::uint64_t>(
      std::min(cwnd_, static_cast<double>(peer_rwnd_)));
  const std::uint64_t flight = snd_nxt_ - snd_una_;
  return flight >= wnd ? 0 : wnd - flight;
}

void TcpConnection::collect_refs_in_range(std::uint64_t seq,
                                          std::uint64_t len,
                                          net::Packet& pkt) const {
  // Items are sorted by end_offset; collect those ending in (seq, seq+len].
  const auto it = std::lower_bound(
      send_items_.begin(), send_items_.end(), seq + 1,
      [](const Item& item, std::uint64_t v) { return item.end_offset < v; });
  if (it == send_items_.end() || it->end_offset > seq + len) return;
  auto& out = pkt.messages.mutate();
  for (auto i = it; i != send_items_.end() && i->end_offset <= seq + len;
       ++i) {
    out.push_back(net::MessageRef{i->end_offset, i->payload});
  }
}

void TcpConnection::emit_segment(std::uint64_t seq, std::uint64_t len,
                                 bool retransmit) {
  net::PooledPacket pkt = base_packet();
  pkt->tcp.seq = seq;
  pkt->payload_len = len;
  collect_refs_in_range(seq, len, *pkt);
  if (retransmit) {
    ++retransmits_;
    m_retransmits_->inc();
    telemetry::tracer().emit(telemetry::TraceEvent::kTcpRetransmit,
                             static_cast<double>(seq),
                             static_cast<double>(len));
    // Karn's algorithm: never time a retransmitted sequence range.
    if (timed_seq_ && *timed_seq_ > seq && *timed_seq_ <= seq + len) {
      timed_seq_.reset();
    }
  } else if (!timed_seq_) {
    timed_seq_ = seq + len;
    timed_at_ = mux_.simulator().now();
  }
  transmit(std::move(pkt));
  arm_rto();
}

void TcpConnection::try_send() {
  if (state_ != State::kEstablished && state_ != State::kClosing) return;
  if (in_fast_recovery_) {
    send_in_recovery();
    return;
  }
  const std::uint64_t mss = opts_.mss;
  while (snd_nxt_ < snd_buf_end_) {
    const std::uint64_t space = available_window();
    if (space == 0) break;
    const std::uint64_t len =
        std::min({mss, snd_buf_end_ - snd_nxt_, space});
    emit_segment(snd_nxt_, len, snd_nxt_ < high_water_ ? true : false);
    if (snd_nxt_ + len > high_water_) high_water_ = snd_nxt_ + len;
    snd_nxt_ += len;
  }
  maybe_send_fin();
}

void TcpConnection::stash_range_node(RangeMap::node_type&& node) {
  if (range_spares_.size() < kMaxRangeSpares) {
    range_spares_.push_back(std::move(node));
  }
}

void TcpConnection::insert_range(RangeMap& m, std::uint64_t lo,
                                 std::uint64_t hi,
                                 RangeMap::node_type&& reuse) {
  if (!reuse && !range_spares_.empty()) {
    reuse = std::move(range_spares_.back());
    range_spares_.pop_back();
  }
  if (reuse) {
    reuse.key() = lo;
    reuse.mapped() = hi;
    m.insert(std::move(reuse));
  } else {
    m.emplace(lo, hi);
  }
}

void TcpConnection::update_sack_scoreboard(const net::Packet& pkt) {
  for (const auto& [lo_in, hi_in] : pkt.tcp.sack) {
    std::uint64_t lo = std::max(lo_in, snd_una_);
    std::uint64_t hi = hi_in;
    if (hi <= lo) continue;
    auto it = sacked_.lower_bound(lo);
    RangeMap::iterator host = sacked_.end();
    if (it != sacked_.begin()) {
      const auto prev = std::prev(it);
      if (prev->second >= lo) {
        if (prev->second >= hi) continue;  // block already fully covered
        host = prev;  // extend in place: the range start (the key) survives
      }
    }
    // Absorb every range the block overlaps. Nodes come out via extract,
    // not erase: one is re-used for the insert below, the rest feed the
    // spare cache — scoreboard maintenance runs per ACK during recovery
    // and must not pay an allocator round-trip per merged range.
    RangeMap::node_type reuse;
    while (it != sacked_.end() && it->first <= hi) {
      hi = std::max(hi, it->second);
      auto node = sacked_.extract(it++);
      if (reuse) {
        stash_range_node(std::move(node));
      } else {
        reuse = std::move(node);
      }
    }
    if (host != sacked_.end()) {
      host->second = hi;
      if (reuse) stash_range_node(std::move(reuse));
    } else {
      insert_range(sacked_, lo, hi, std::move(reuse));
    }
  }
  // Prune everything at or below the cumulative-ack frontier.
  while (!sacked_.empty() && sacked_.begin()->second <= snd_una_) {
    stash_range_node(sacked_.extract(sacked_.begin()));
  }
  if (!sacked_.empty() && sacked_.begin()->first < snd_una_) {
    auto node = sacked_.extract(sacked_.begin());
    if (node.mapped() > snd_una_) {
      node.key() = snd_una_;
      sacked_.insert(std::move(node));
    } else {
      stash_range_node(std::move(node));
    }
  }
}

std::uint64_t TcpConnection::sacked_bytes_in_flight() const {
  std::uint64_t total = 0;
  for (const auto& [lo, hi] : sacked_) {
    const std::uint64_t clipped_lo = std::max(lo, snd_una_);
    const std::uint64_t clipped_hi = std::min(hi, snd_nxt_);
    if (clipped_hi > clipped_lo) total += clipped_hi - clipped_lo;
  }
  return total;
}

std::pair<std::uint64_t, std::uint64_t> TcpConnection::next_hole(
    std::uint64_t from) const {
  std::uint64_t start = std::max(from, snd_una_);
  // The scoreboard is kept merged and disjoint, so at most one range can
  // contain `start`; skip past it. (A burst loss leaves thousands of
  // ranges, and this runs per retransmission — it must stay O(log n).)
  const auto it = sacked_.upper_bound(start);
  if (it != sacked_.begin()) {
    const auto prev = std::prev(it);
    if (prev->second > start) start = prev->second;
  }
  if (start >= snd_nxt_) return {start, start};
  // Hole ends at the next sacked range (or the send frontier). Ranges
  // never touch, so `it` is still the first range past the skipped one.
  std::uint64_t end = snd_nxt_;
  if (it != sacked_.end()) end = std::min(end, it->first);
  return {start, end};
}

void TcpConnection::enter_recovery() {
  const double flight = static_cast<double>(snd_nxt_ - snd_una_);
  ssthresh_ = std::max(flight / 2, 2.0 * static_cast<double>(opts_.mss));
  cwnd_ = ssthresh_;
  telemetry::tracer().emit(telemetry::TraceEvent::kTcpCwndChange, cwnd_,
                           ssthresh_, "fast_recovery");
  in_fast_recovery_ = true;
  recover_ = snd_nxt_;
  rexmit_scan_ = snd_una_;
  // Fast retransmit of the first hole, then fill as the pipe allows.
  const auto [start, end] = next_hole(snd_una_);
  if (end > start) {
    const std::uint64_t len = std::min<std::uint64_t>(opts_.mss, end - start);
    emit_segment(start, len, true);
    rexmit_scan_ = start + len;
  }
  send_in_recovery();
}

void TcpConnection::send_in_recovery() {
  // SACK-based recovery (RFC 6675 in spirit): keep the estimated pipe full
  // of hole retransmissions first, then new data. The pipe excludes both
  // SACKed bytes and bytes deemed lost (holes below the highest SACK that
  // we have not retransmitted yet — the IsLost() approximation).
  const std::uint64_t mss = opts_.mss;
  // `lost` in one ordered pass over the scoreboard (the holes below
  // `highest` not yet rescanned). A burst loss leaves thousands of holes,
  // and summing them hole-by-hole via next_hole() made recovery quadratic
  // in the scoreboard size (minutes of wall time per simulated RTT).
  const auto compute_lost = [this](std::uint64_t highest) {
    std::uint64_t lost = 0;
    if (!sacked_.empty()) {
      std::uint64_t cursor = std::max(snd_una_, rexmit_scan_);
      auto it = sacked_.upper_bound(cursor);
      if (it != sacked_.begin()) {
        const auto prev = std::prev(it);
        if (prev->second > cursor) cursor = prev->second;
      }
      while (cursor < highest) {
        const std::uint64_t gap_end =
            it == sacked_.end() ? highest : std::min(it->first, highest);
        if (gap_end > cursor) lost += gap_end - cursor;
        if (it == sacked_.end()) break;
        cursor = std::max(cursor, it->second);
        ++it;
      }
    }
    return lost;
  };
  // Pipe accounting is computed once, then kept current incrementally as
  // segments go out. That is exact while every SACKed byte sits at or
  // below the send frontier — always, except briefly after an RTO rewound
  // snd_nxt_ below survivors of the old flight; there the frontier clips
  // the sums, so fall back to recomputing per emitted segment.
  const bool incremental =
      sacked_.empty() || sacked_.rbegin()->second <= snd_nxt_;
  std::uint64_t sacked = sacked_bytes_in_flight();
  std::uint64_t highest =
      sacked_.empty() ? 0 : std::min(sacked_.rbegin()->second, snd_nxt_);
  std::uint64_t lost = compute_lost(highest);
  std::uint64_t flight = snd_nxt_ - snd_una_;
  while (true) {
    if (!incremental) {
      sacked = sacked_bytes_in_flight();
      highest = sacked_.empty() ? 0
                                : std::min(sacked_.rbegin()->second, snd_nxt_);
      lost = compute_lost(highest);
      flight = snd_nxt_ - snd_una_;
    }
    const std::uint64_t out = sacked + lost;
    const std::uint64_t pipe = flight > out ? flight - out : 0;
    const auto wnd = static_cast<std::uint64_t>(
        std::min(cwnd_, static_cast<double>(peer_rwnd_)));
    if (pipe + mss > wnd) break;

    const auto [start, end] = next_hole(rexmit_scan_);
    if (end > start && start < recover_) {
      const std::uint64_t len =
          std::min({mss, end - start, recover_ - start});
      emit_segment(start, len, true);
      rexmit_scan_ = start + len;
      // The retransmitted bytes leave the lost estimate (they are back in
      // the pipe); only the part below `highest` was ever counted.
      if (start < highest) lost -= std::min(start + len, highest) - start;
      continue;
    }
    if (snd_nxt_ < snd_buf_end_) {
      const std::uint64_t len = std::min(mss, snd_buf_end_ - snd_nxt_);
      emit_segment(snd_nxt_, len, snd_nxt_ < high_water_);
      if (snd_nxt_ + len > high_water_) high_water_ = snd_nxt_ + len;
      snd_nxt_ += len;
      flight += len;
      continue;
    }
    break;
  }
  maybe_send_fin();
}

void TcpConnection::maybe_send_fin() {
  if (!fin_queued_ || snd_nxt_ != snd_buf_end_) return;
  if (available_window() == 0 && snd_nxt_ > snd_una_) {
    // Window exhausted; FIN goes out once acks open space.
    return;
  }
  net::PooledPacket fin = base_packet();
  fin->tcp.fin = true;
  fin->tcp.seq = snd_nxt_;
  transmit(std::move(fin));
  snd_nxt_ += 1;  // FIN consumes one sequence number
  if (snd_nxt_ > high_water_) high_water_ = snd_nxt_;
  fin_sent_ = true;
  if (state_ == State::kEstablished) state_ = State::kClosing;
  arm_rto();
}

void TcpConnection::send_ack_now() {
  if (delayed_ack_timer_) {
    mux_.simulator().cancel(*delayed_ack_timer_);
    delayed_ack_timer_.reset();
  }
  transmit(base_packet());
}

void TcpConnection::schedule_delayed_ack() {
  if (opts_.ack_delay <= 0) {
    send_ack_now();
    return;
  }
  if (delayed_ack_timer_) return;  // pending ack will carry latest rcv_nxt
  const auto self = weak_from_this();
  delayed_ack_timer_ = mux_.simulator().schedule(opts_.ack_delay, [self] {
    if (const auto conn = self.lock()) {
      conn->delayed_ack_timer_.reset();
      conn->transmit(conn->base_packet());
    }
  });
}

void TcpConnection::update_rtt(util::Duration sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const util::Duration err =
        sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = srtt_ + std::max<util::Duration>(4 * rttvar_, util::kMillisecond);
  rto_ = std::clamp(rto_, opts_.min_rto, opts_.max_rto);
  m_rtt_ms_->observe(static_cast<double>(sample) / util::kMillisecond);
}

void TcpConnection::arm_rto() {
  util::Duration effective = rto_;
  for (int i = 0; i < rto_backoff_; ++i) {
    effective = std::min(effective * 2, opts_.max_rto);
  }
  auto& sim = mux_.simulator();
  // One persistent timer per connection: every re-arm while the timer is
  // still pending is an in-place rearm (no cancel, no fresh closure); a
  // fresh schedule happens only on the first arm or after the timer fired.
  if (rto_timer_ && sim.reschedule(*rto_timer_, effective)) return;
  const auto self = weak_from_this();
  rto_timer_ = sim.schedule(effective, [self] {
    if (const auto conn = self.lock()) {
      conn->rto_timer_.reset();
      conn->on_rto();
    }
  });
}

void TcpConnection::disarm_rto() {
  if (rto_timer_) {
    mux_.simulator().cancel(*rto_timer_);
    rto_timer_.reset();
  }
}

void TcpConnection::on_rto() {
  ++timeouts_;
  m_timeouts_->inc();
  telemetry::tracer().emit(telemetry::TraceEvent::kTcpTimeout,
                           static_cast<double>(snd_una_),
                           static_cast<double>(rto_backoff_));
  if (rto_backoff_ > 10) {
    fail("too many timeouts");
    return;
  }
  ++rto_backoff_;

  if (state_ == State::kSynSent) {
    start_active_open();
    return;
  }
  if (state_ == State::kSynReceived) {
    net::PooledPacket synack = base_packet();
    synack->tcp.syn = true;
    transmit(std::move(synack));
    arm_rto();
    return;
  }

  if (snd_una_ == snd_nxt_ && !fin_queued_) return;  // nothing outstanding
  // Loss recovery by timeout: collapse to one segment, go-back-N.
  ssthresh_ = std::max(static_cast<double>(snd_nxt_ - snd_una_) / 2,
                       2.0 * static_cast<double>(opts_.mss));
  cwnd_ = static_cast<double>(opts_.mss);
  telemetry::tracer().emit(telemetry::TraceEvent::kTcpCwndChange, cwnd_,
                           ssthresh_, "rto_collapse");
  in_fast_recovery_ = false;
  dupacks_ = 0;
  timed_seq_.reset();
  // Distrust the scoreboard after a timeout (RFC 6675 §5.1); the nodes go
  // to the spare cache for the recovery traffic that follows.
  while (!sacked_.empty()) {
    stash_range_node(sacked_.extract(sacked_.begin()));
  }
  rexmit_scan_ = 0;
  snd_nxt_ = snd_una_;
  // If the FIN was outstanding it needs re-emitting once data is resent.
  fin_sent_ = fin_sent_ && snd_una_ > snd_buf_end_;
  try_send();
  arm_rto();
  // The rollback may have reopened window space (e.g. a jammed flight
  // estimate); let layered senders (MPTCP) refill.
  fire(on_send_space_);
}

void TcpConnection::prune_acked_items() {
  while (!send_items_.empty() && send_items_.front().end_offset <= snd_una_) {
    if (send_items_.front().payload) {
      fire(on_payload_acked_, send_items_.front().payload);
    }
    send_items_.pop_front();
  }
}

void TcpConnection::on_new_ack(std::uint64_t acked) {
  const double mss = static_cast<double>(opts_.mss);
  if (cwnd_ < ssthresh_) {
    // Slow start: appropriate byte counting capped at one MSS per ACK.
    cwnd_ += std::min(static_cast<double>(acked), mss);
  } else {
    cwnd_ += mss * mss / cwnd_;
  }
}

void TcpConnection::process_ack(const net::Packet& pkt) {
  peer_rwnd_ = pkt.tcp.wnd;
  const std::uint64_t ack = pkt.tcp.ack;
  if (ack > snd_una_) {
    const std::uint64_t newly = ack - snd_una_;
    if (timed_seq_ && ack >= *timed_seq_) {
      update_rtt(mux_.simulator().now() - timed_at_);
      timed_seq_.reset();
    }
    rto_backoff_ = 0;
    snd_una_ = ack;
    // A late ack can cover data beyond snd_nxt_ after an RTO rollback
    // (the timeout was spurious). Advance the send cursor, or the flight
    // computation underflows and the window jams shut.
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    update_sack_scoreboard(pkt);
    if (in_fast_recovery_) {
      if (ack >= recover_) {
        // Full ack: recovery episode over.
        in_fast_recovery_ = false;
        dupacks_ = 0;
        cwnd_ = ssthresh_;
        telemetry::tracer().emit(telemetry::TraceEvent::kTcpCwndChange, cwnd_,
                                 ssthresh_, "recovery_exit");
      } else {
        // Partial ack: the byte at `ack` is a further hole. Retransmit it
        // even if the scan cursor already passed (that copy was lost too).
        const auto [start, end] = next_hole(snd_una_);
        if (end > start && start < recover_) {
          const std::uint64_t len =
              std::min<std::uint64_t>(opts_.mss, end - start);
          emit_segment(start, len, true);
          rexmit_scan_ = std::max(rexmit_scan_, start + len);
        }
      }
    } else {
      dupacks_ = 0;
      on_new_ack(newly);
    }
    prune_acked_items();
    if (fin_sent_ && ack >= snd_buf_end_ + 1) fin_acked_ = true;
    if (snd_una_ == snd_nxt_) {
      disarm_rto();
    } else {
      arm_rto();
    }
    try_send();
    fire(on_send_space_);
    maybe_finish_close();
  } else if (ack == snd_una_ && snd_nxt_ > snd_una_ && pkt.payload_len == 0 &&
             !pkt.tcp.syn && !pkt.tcp.fin) {
    update_sack_scoreboard(pkt);
    ++dupacks_;
    if (in_fast_recovery_) {
      send_in_recovery();  // newly sacked bytes shrink the pipe
    } else if (dupacks_ >= 3) {
      enter_recovery();
    }
  }
}

void TcpConnection::deliver_ready() {
  // Hand over every message whose final byte is now contiguous.
  while (!pending_refs_.empty() &&
         pending_refs_.begin()->first <= rcv_nxt_) {
    net::PayloadPtr msg = pending_refs_.begin()->second;
    pending_refs_.erase(pending_refs_.begin());
    if (msg) fire(on_message_, msg);
  }
}

void TcpConnection::process_data(const net::Packet& pkt) {
  const std::uint64_t seq = pkt.tcp.seq;
  const std::uint64_t len = pkt.payload_len;
  for (const auto& ref : pkt.messages) {
    if (ref.end_offset > rcv_nxt_ && ref.message) {
      pending_refs_.emplace(ref.end_offset, ref.message);
    }
  }
  const std::uint64_t old_rcv_nxt = rcv_nxt_;
  if (seq + len > rcv_nxt_) {
    // Remember where this segment landed: its (merged) range leads the
    // next ACK's SACK blocks per RFC 2018.
    last_ooo_seq_ = std::max(seq, rcv_nxt_);
    // Merge [seq, seq+len) into the out-of-order set. Same node-recycling
    // discipline as the sender's scoreboard: a left neighbour that already
    // covers the start extends in place, absorbed ranges are extracted and
    // re-used, and the insert draws from the spare cache.
    std::uint64_t lo = seq;
    std::uint64_t hi = seq + len;
    auto it = ooo_ranges_.lower_bound(lo);
    RangeMap::iterator host = ooo_ranges_.end();
    if (it != ooo_ranges_.begin()) {
      const auto prev = std::prev(it);
      if (prev->second >= lo) {
        lo = prev->first;
        hi = std::max(hi, prev->second);
        host = prev;
      }
    }
    RangeMap::node_type reuse;
    while (it != ooo_ranges_.end() && it->first <= hi) {
      hi = std::max(hi, it->second);
      auto node = ooo_ranges_.extract(it++);
      if (reuse) {
        stash_range_node(std::move(node));
      } else {
        reuse = std::move(node);
      }
    }
    if (host != ooo_ranges_.end()) {
      host->second = hi;
      if (reuse) stash_range_node(std::move(reuse));
    } else {
      insert_range(ooo_ranges_, lo, hi, std::move(reuse));
    }
    // Advance the contiguous frontier. Extracting (not erasing) the node
    // hands it to the spare cache for the next segment's insert.
    auto front = ooo_ranges_.begin();
    if (front != ooo_ranges_.end() && front->first <= rcv_nxt_) {
      rcv_nxt_ = std::max(rcv_nxt_, front->second);
      stash_range_node(ooo_ranges_.extract(front));
    }
  }
  if (rcv_nxt_ > old_rcv_nxt) {
    fire(on_bytes_, rcv_nxt_ - old_rcv_nxt);
    deliver_ready();
  }
  // FIN handling: the peer's FIN sits right after its last data byte.
  bool remote_closed_now = false;
  if (fin_seq_ && !fin_received_ && rcv_nxt_ == *fin_seq_) {
    rcv_nxt_ += 1;
    fin_received_ = true;
    remote_closed_now = true;
    if (state_ == State::kEstablished) state_ = State::kClosing;
  }
  schedule_delayed_ack();
  if (remote_closed_now) fire(on_remote_close_);
  maybe_finish_close();
}

void TcpConnection::maybe_finish_close() {
  if (state_ == State::kClosed) return;
  if (fin_received_ && !fin_queued_) {
    // Passive close: once the peer finished sending, close our side after
    // the application had its chance to respond. Applications that want to
    // keep sending call close() themselves later; default echoes the close.
    // We do not auto-close: half-open connections are legal. (HTTP keeps
    // the connection open for the response.)
  }
  if (fin_received_ && fin_acked_) {
    const auto self = shared_from_this();
    disarm_rto();
    state_ = State::kClosed;
    mux_.tcp_unregister(local_, remote_);
    fire(on_closed_);
  }
}

void TcpConnection::on_packet(const net::Packet& pkt) {
  if (pkt.tcp.rst) {
    fail("connection reset by peer");
    return;
  }

  switch (state_) {
    case State::kSynSent:
      if (pkt.tcp.syn && pkt.tcp.ack_flag) {
        state_ = State::kEstablished;
        peer_rwnd_ = pkt.tcp.wnd;
        rto_backoff_ = 0;
        disarm_rto();
        send_ack_now();
        fire(on_established_);
        try_send();
      }
      return;
    case State::kSynReceived:
      if (pkt.tcp.syn && !pkt.tcp.ack_flag) {
        // Initial or retransmitted SYN: (re-)send SYN-ACK.
        peer_rwnd_ = pkt.tcp.wnd;
        net::PooledPacket synack = base_packet();
        synack->tcp.syn = true;
        transmit(std::move(synack));
        arm_rto();
        return;
      }
      if (pkt.tcp.ack_flag) {
        state_ = State::kEstablished;
        rto_backoff_ = 0;
        disarm_rto();
        if (const auto hook = std::exchange(internal_established_, {})) {
          hook();  // the mux's accept hook fires once
        }
        fire(on_established_);
        // Fall through to process any piggybacked data below.
      } else {
        return;
      }
      break;
    case State::kEstablished:
    case State::kClosing:
      break;
    case State::kClosed:
      return;
  }

  if (pkt.tcp.fin) {
    fin_seq_ = pkt.tcp.seq + pkt.payload_len;
  }
  if (pkt.tcp.ack_flag) process_ack(pkt);
  if (pkt.payload_len > 0 || pkt.tcp.fin) process_data(pkt);
}

}  // namespace hpop::transport
