#include "transport/mptcp.hpp"

#include <algorithm>
#include <cassert>

#include "telemetry/trace.hpp"
#include "transport/mux.hpp"
#include "util/logging.hpp"

namespace hpop::transport {

MptcpConnection::MptcpConnection(TransportMux& mux, std::uint64_t token,
                                 MptcpOptions opts, bool server_role)
    : mux_(mux), token_(token), opts_(opts), server_role_(server_role) {
  auto& reg = telemetry::registry();
  m_sched_bytes_ = reg.counter("mptcp.sched_bytes");
  m_subflow_switches_ = reg.counter("mptcp.subflow_switches");
}

MptcpConnection::~MptcpConnection() = default;

template <class Handler, class... Args>
void MptcpConnection::fire(Handler& handler, Args&&... args) {
  ++firing_;
  if (handler) handler(std::forward<Args>(args)...);
  if (--firing_ == 0 && closed_) detach();
}

void MptcpConnection::detach() {
  closed_ = true;
  on_established_ = nullptr;
  on_message_ = nullptr;
  on_bytes_ = nullptr;
  on_closed_ = nullptr;
  on_reset_ = nullptr;
}

void MptcpConnection::send(net::PayloadPtr message) {
  assert(message != nullptr);
  const std::uint64_t len = message->wire_size();
  data_end_ += len;
  send_items_.push_back(Item{data_end_, std::move(message)});
  pump();
}

void MptcpConnection::send_bytes(std::size_t n) {
  if (n == 0) return;
  data_end_ += n;
  send_items_.push_back(Item{data_end_, nullptr});
  pump();
}

void MptcpConnection::close() {
  close_requested_ = true;
  maybe_finish_close();
}

std::shared_ptr<TcpConnection> MptcpConnection::add_subflow(
    TcpOptions subflow_opts) {
  subflow_opts.join_token = token_;
  subflow_opts.mp_capable = false;
  auto conn = mux_.open_subflow(remote_, subflow_opts);
  attach_subflow(conn, /*primary=*/false);
  return conn;
}

void MptcpConnection::remove_subflow(
    const std::shared_ptr<TcpConnection>& subflow) {
  for (auto& info : subflows_) {
    if (info.conn == subflow && !info.dead) {
      info.conn->close();
      handle_subflow_death(info.conn.get());
      return;
    }
  }
}

void MptcpConnection::set_subflow_weight(
    const std::shared_ptr<TcpConnection>& sf, double w) {
  for (auto& info : subflows_) {
    if (info.conn == sf) info.weight = w;
  }
}

void MptcpConnection::attach_subflow(std::shared_ptr<TcpConnection> subflow,
                                     bool primary) {
  subflows_.push_back(SubflowInfo{subflow});
  wire_subflow(subflows_.back(), primary);
}

void MptcpConnection::wire_subflow(SubflowInfo& info, bool primary) {
  (void)primary;
  TcpConnection* raw = info.conn.get();
  const auto self = weak_from_this();

  auto mark_established = [self] {
    if (const auto s = self.lock()) {
      if (!s->established_) {
        s->established_ = true;
        s->fire(s->on_established_);
      }
      s->pump();
    }
  };
  if (info.conn->state() == TcpConnection::State::kEstablished) {
    // Server-side subflows attach after the handshake completed.
    const bool was_established = established_;
    established_ = true;
    if (!was_established) fire(on_established_);
  } else {
    info.conn->set_on_established(mark_established);
  }

  info.conn->set_on_message([self](net::PayloadPtr msg) {
    const auto s = self.lock();
    if (!s) return;
    if (const auto chunk =
            std::dynamic_pointer_cast<const ChunkPayload>(msg)) {
      s->on_chunk_received(*chunk);
    }
  });
  info.conn->set_on_payload_acked([self, raw](net::PayloadPtr msg) {
    const auto s = self.lock();
    if (!s) return;
    if (const auto chunk =
            std::dynamic_pointer_cast<const ChunkPayload>(msg)) {
      s->on_chunk_acked(*chunk, raw);
    }
  });
  info.conn->set_on_send_space([self] {
    if (const auto s = self.lock()) s->pump();
  });
  info.conn->set_on_remote_close([self, raw] {
    // Echo the close so the subflow's FIN handshake completes; any data we
    // still owe the subflow was already queued ahead of the FIN.
    if (const auto s = self.lock()) {
      for (auto& i : s->subflows_) {
        if (i.conn.get() == raw && !i.dead) i.conn->close();
      }
    }
  });
  info.conn->set_on_closed([self, raw] {
    if (const auto s = self.lock()) s->handle_subflow_death(raw);
  });
  info.conn->set_on_reset([self, raw] {
    if (const auto s = self.lock()) s->handle_subflow_death(raw);
  });
}

int MptcpConnection::pick_subflow() {
  // A subflow is eligible when it could put a fresh chunk on the wire now:
  // established, alive, window space beyond what it already buffers.
  auto eligible = [](const SubflowInfo& info) {
    return !info.dead &&
           info.conn->state() == TcpConnection::State::kEstablished &&
           info.conn->available_window() > info.conn->unsent_bytes();
  };

  switch (opts_.scheduler) {
    case SchedulerKind::kMinRtt: {
      int best = -1;
      util::Duration best_rtt = 0;
      for (std::size_t i = 0; i < subflows_.size(); ++i) {
        if (!eligible(subflows_[i])) continue;
        const util::Duration rtt = subflows_[i].conn->srtt();
        if (best < 0 || rtt < best_rtt) {
          best = static_cast<int>(i);
          best_rtt = rtt;
        }
      }
      return best;
    }
    case SchedulerKind::kRoundRobin: {
      for (std::size_t step = 0; step < subflows_.size(); ++step) {
        const std::size_t i = (rr_next_ + step) % subflows_.size();
        if (eligible(subflows_[i])) {
          rr_next_ = i + 1;
          return static_cast<int>(i);
        }
      }
      return -1;
    }
    case SchedulerKind::kWeighted: {
      // Deficit-style: pick the eligible subflow furthest behind its
      // weighted share of scheduled bytes.
      int best = -1;
      double best_score = 0;
      for (std::size_t i = 0; i < subflows_.size(); ++i) {
        if (!eligible(subflows_[i]) || subflows_[i].weight <= 0) continue;
        const double score =
            static_cast<double>(subflows_[i].bytes_scheduled + 1) /
            subflows_[i].weight;
        if (best < 0 || score < best_score) {
          best = static_cast<int>(i);
          best_score = score;
        }
      }
      return best;
    }
  }
  return -1;
}

std::vector<net::MessageRef> MptcpConnection::refs_in_range(
    std::uint64_t off, std::uint64_t len) const {
  std::vector<net::MessageRef> refs;
  const auto it = std::lower_bound(
      send_items_.begin(), send_items_.end(), off + 1,
      [](const Item& item, std::uint64_t v) { return item.end_offset < v; });
  for (auto i = it; i != send_items_.end() && i->end_offset <= off + len;
       ++i) {
    refs.push_back(net::MessageRef{i->end_offset, i->payload});
  }
  return refs;
}

void MptcpConnection::pump() {
  if (!established_ || closed_) return;
  const std::uint64_t mss = opts_.subflow.mss;
  while (!reinject_.empty() || data_next_ < data_end_) {
    const int idx = pick_subflow();
    if (idx < 0) return;
    if (idx != last_subflow_) {
      if (last_subflow_ >= 0) {
        m_subflow_switches_->inc();
        telemetry::tracer().emit(telemetry::TraceEvent::kMptcpSubflowSwitch,
                                 last_subflow_, idx);
      }
      last_subflow_ = idx;
    }
    SubflowInfo& sf = subflows_[static_cast<std::size_t>(idx)];

    std::uint64_t off = 0;
    std::uint64_t len = 0;
    if (!reinject_.empty()) {
      auto& [roff, rlen] = reinject_.front();
      off = roff;
      len = std::min(rlen, mss);
      if (len == rlen) {
        reinject_.pop_front();
      } else {
        roff += len;
        rlen -= len;
      }
    } else {
      off = data_next_;
      len = std::min(mss, data_end_ - data_next_);
      data_next_ += len;
    }

    auto chunk =
        std::make_shared<ChunkPayload>(off, len, refs_in_range(off, len));
    outstanding_.push_back(OutChunk{off, len, sf.conn.get(), false});
    sf.bytes_scheduled += len;
    m_sched_bytes_->inc(len);
    sf.conn->send(std::move(chunk));
  }
  maybe_finish_close();
}

void MptcpConnection::on_chunk_acked(const ChunkPayload& chunk,
                                     TcpConnection* subflow) {
  for (auto& out : outstanding_) {
    if (out.subflow == subflow && out.data_offset == chunk.data_offset() &&
        out.length == chunk.length() && !out.acked) {
      out.acked = true;
      break;
    }
  }
  advance_data_una();
  maybe_finish_close();
}

void MptcpConnection::advance_data_una() {
  std::uint64_t una = data_next_;
  for (const auto& out : outstanding_) {
    if (!out.acked) una = std::min(una, out.data_offset);
  }
  for (const auto& [off, len] : reinject_) {
    (void)len;
    una = std::min(una, off);
  }
  if (una <= data_una_) return;
  data_una_ = una;
  // Drop bookkeeping that is entirely below the acked frontier.
  std::erase_if(outstanding_, [this](const OutChunk& out) {
    return out.acked && out.data_offset + out.length <= data_una_;
  });
  while (!send_items_.empty() &&
         send_items_.front().end_offset <= data_una_) {
    send_items_.pop_front();
  }
}

void MptcpConnection::on_chunk_received(const ChunkPayload& chunk) {
  for (const auto& ref : chunk.refs()) {
    if (ref.end_offset > data_rcv_nxt_ && ref.message) {
      pending_refs_.emplace(ref.end_offset, ref.message);
    }
  }
  const std::uint64_t old = data_rcv_nxt_;
  std::uint64_t lo = chunk.data_offset();
  std::uint64_t hi = chunk.data_end();
  if (hi > data_rcv_nxt_) {
    auto it = ooo_ranges_.lower_bound(lo);
    if (it != ooo_ranges_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= lo) {
        lo = prev->first;
        hi = std::max(hi, prev->second);
        ooo_ranges_.erase(prev);
      }
    }
    it = ooo_ranges_.lower_bound(lo);
    while (it != ooo_ranges_.end() && it->first <= hi) {
      hi = std::max(hi, it->second);
      it = ooo_ranges_.erase(it);
    }
    ooo_ranges_[lo] = hi;
    auto front = ooo_ranges_.begin();
    if (front != ooo_ranges_.end() && front->first <= data_rcv_nxt_) {
      data_rcv_nxt_ = std::max(data_rcv_nxt_, front->second);
      ooo_ranges_.erase(front);
    }
  }
  if (data_rcv_nxt_ > old) {
    fire(on_bytes_, data_rcv_nxt_ - old);
    deliver_ready();
  }
}

void MptcpConnection::deliver_ready() {
  while (!pending_refs_.empty() &&
         pending_refs_.begin()->first <= data_rcv_nxt_) {
    net::PayloadPtr msg = pending_refs_.begin()->second;
    pending_refs_.erase(pending_refs_.begin());
    if (msg) fire(on_message_, msg);
  }
}

void MptcpConnection::handle_subflow_death(TcpConnection* subflow) {
  bool found = false;
  for (auto& info : subflows_) {
    if (info.conn.get() == subflow && !info.dead) {
      info.dead = true;
      found = true;
    }
  }
  if (!found) {
    maybe_finish_close();
    return;
  }
  // Reinject this subflow's unacked chunks onto the survivors (§IV-C:
  // "transparently recovering the affected packets over the remaining
  // subflows").
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    if (it->subflow == subflow && !it->acked) {
      reinject_.emplace_back(it->data_offset, it->length);
      it = outstanding_.erase(it);
    } else {
      ++it;
    }
  }
  HPOP_LOG(kDebug, "mptcp") << "subflow death; reinjecting "
                            << reinject_.size() << " chunks";
  pump();
  maybe_finish_close();
}

void MptcpConnection::maybe_finish_close() {
  if (closed_) return;
  // All subflows dead => session over regardless of intent.
  bool all_dead = !subflows_.empty();
  for (const auto& info : subflows_) {
    if (!info.dead) all_dead = false;
  }
  const bool data_drained = close_requested_ && data_una_ == data_end_ &&
                            data_next_ == data_end_ && reinject_.empty();
  if (data_drained) {
    for (auto& info : subflows_) {
      if (!info.dead) info.conn->close();
    }
  }
  if (all_dead || (data_drained && subflows_.empty())) {
    const auto self = shared_from_this();  // the mux drops its reference
    closed_ = true;
    mux_.mptcp_unregister(token_);
    // Clean only if the app asked to close and every queued byte was
    // data-acked; anything else (a waypoint crash killing all subflows)
    // is a failure the caller must hear about.
    const bool clean = close_requested_ && data_una_ == data_end_;
    if (!clean) last_error_ = "all subflows lost";
    fire(!clean && on_reset_ ? on_reset_ : on_closed_);
  }
}

}  // namespace hpop::transport
