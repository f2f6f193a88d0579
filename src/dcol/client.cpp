#include "dcol/client.hpp"

#include <limits>

#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"

namespace hpop::dcol {

void serve_tls(const std::shared_ptr<transport::MptcpConnection>& conn,
               transport::MptcpConnection::MessageHandler app_handler) {
  // The handler is the session's own, so the raw pointer outlives it.
  conn->set_on_message(
      [conn = conn.get(), app_handler](net::PayloadPtr msg) {
        if (std::dynamic_pointer_cast<const TlsClientHello>(msg)) {
          conn->send(std::make_shared<TlsServerHello>());
          return;
        }
        if (std::dynamic_pointer_cast<const TlsFinished>(msg)) {
          return;  // handshake complete
        }
        if (app_handler) app_handler(std::move(msg));
      });
}

int DcolSession::active_detours() const {
  int n = 0;
  for (const auto& detour : detours_) {
    if (!detour->withdrawn) ++n;
  }
  return n;
}

void DcolSession::steer_away(
    const std::shared_ptr<transport::TcpConnection>& subflow,
    util::Duration ack_delay) {
  subflow->set_ack_delay(ack_delay);
}

DcolClient::DcolClient(transport::TransportMux& mux, Collective& collective,
                       std::uint64_t self_id, DcolOptions options,
                       util::Rng rng)
    : mux_(mux),
      collective_(collective),
      self_id_(self_id),
      options_(options),
      rng_(rng) {}

std::uint64_t DcolClient::subflow_progress(
    const std::shared_ptr<transport::TcpConnection>& subflow) {
  // Bytes moved in either direction: covers downloads, uploads and mixes.
  return subflow->bytes_received() + subflow->bytes_acked();
}

void DcolClient::connect(net::Endpoint server, ConnectCallback cb) {
  auto session = std::shared_ptr<DcolSession>(new DcolSession());
  transport::MptcpOptions mopts;
  mopts.scheduler = options_.scheduler;
  session->conn_ = mux_.mptcp_connect(server, mopts);

  // Route messages: TLS control first, app data after.
  session->conn_->set_on_message(
      [session_wp = std::weak_ptr<DcolSession>(session)](net::PayloadPtr msg) {
        const auto session = session_wp.lock();
        if (!session) return;
        if (std::dynamic_pointer_cast<const TlsServerHello>(msg)) {
          session->secure_ = true;
          session->conn_->send(std::make_shared<TlsFinished>());
          return;
        }
        if (session->app_handler_) session->app_handler_(std::move(msg));
      });

  session->conn_->set_on_established(
      [this, session, server, cb] {
        if (options_.require_tls) {
          // §IV-C: complete the handshake over the direct path before any
          // detours exist, so detoured subflows carry only ciphertext.
          session->conn_->send(std::make_shared<TlsClientHello>());
        }
        start_exploration(session, server);
        cb(session);
      });
}

void DcolClient::start_exploration(
    const std::shared_ptr<DcolSession>& session, net::Endpoint server) {
  mux_.simulator().schedule(
      options_.evaluate_every,
      [this, session_wp = std::weak_ptr<DcolSession>(session), server] {
        const auto session = session_wp.lock();
        if (!session || !session->conn_->established()) return;
        evaluate(session, server);
        if (session->active_detours() < options_.max_detours) {
          try_next_waypoint(session, server);
        }
        start_exploration(session, server);
      });
}

void DcolClient::try_next_waypoint(
    const std::shared_ptr<DcolSession>& session, net::Endpoint server) {
  if (options_.require_tls && !session->secure_) return;

  // Pick the best untried (or cooled-down) waypoint by reputation.
  const util::TimePoint now = mux_.simulator().now();
  std::optional<Collective::Member> chosen;
  for (const auto& member : collective_.waypoints_for(self_id_)) {
    const auto tried = tried_members_.find(member.id);
    if (tried != tried_members_.end() && tried->second > now) continue;
    if (options_.enable_breakers) {
      // Non-mutating preview: only the eventually-chosen member should
      // consume a half-open probe slot.
      const auto breaker_it = waypoint_breakers_.find(member.id);
      if (breaker_it != waypoint_breakers_.end() &&
          !breaker_it->second.would_allow(now)) {
        ++stats_.breaker_skips;
        continue;
      }
    }
    if (!chosen || member.reputation > chosen->reputation) {
      chosen = member;
    }
  }
  if (!chosen) return;
  if (options_.enable_breakers) breaker_for(chosen->id)->allow(now);
  // Provisionally never again; failure paths shorten this to a cooldown.
  tried_members_[chosen->id] = std::numeric_limits<util::TimePoint>::max();
  ++stats_.detours_tried;
  telemetry::registry().counter("dcol.detours_tried")->inc();
  telemetry::tracer().emit(telemetry::TraceEvent::kDetourChosen,
                           static_cast<double>(chosen->id),
                           chosen->reputation);

  auto detour = std::make_unique<DcolSession::Detour>();
  detour->member_id = chosen->id;
  DcolSession::Detour& ref = *detour;
  session->detours_.push_back(std::move(detour));

  if (options_.tunnel == TunnelKind::kVpn) {
    ref.vpn = std::make_unique<VpnTunnel>(mux_, chosen->vpn_endpoint);
    ref.vpn->join([this, session_wp = std::weak_ptr<DcolSession>(session),
                   &ref](util::Result<net::IpAddr> vip) {
      const auto session = session_wp.lock();
      if (!session) return;
      if (!vip.ok()) {
        fail_detour(ref);
        return;
      }
      add_detour_subflow(session, ref, ref.vpn->subflow_options());
    });
  } else {
    ref.nat = std::make_unique<NatTunnel>(mux_, chosen->nat_endpoint);
    ref.nat->open(server, [this,
                           session_wp = std::weak_ptr<DcolSession>(session),
                           &ref](util::Status status) {
      const auto session = session_wp.lock();
      if (!session) return;
      if (!status.ok()) {
        fail_detour(ref);
        return;
      }
      const std::uint16_t local_port = mux_.host().allocate_port();
      ref.nat->attach_local_port(local_port);
      add_detour_subflow(session, ref,
                         ref.nat->subflow_options(local_port));
    });
  }
}

void DcolClient::add_detour_subflow(
    const std::shared_ptr<DcolSession>& session, DcolSession::Detour& detour,
    transport::TcpOptions opts) {
  if (options_.enable_breakers) {
    breaker_for(detour.member_id)->record_success(mux_.simulator().now());
  }
  detour.subflow = session->conn_->add_subflow(opts);
  detour.last_bytes = 0;
  detour.trial = true;
}

overload::CircuitBreaker* DcolClient::breaker_for(std::uint64_t member) {
  auto it = waypoint_breakers_.find(member);
  if (it == waypoint_breakers_.end()) {
    it = waypoint_breakers_
             .emplace(std::piecewise_construct,
                      std::forward_as_tuple(member),
                      std::forward_as_tuple(options_.waypoint_breaker, &rng_))
             .first;
  }
  return &it->second;
}

bool DcolClient::subflow_dead(
    const std::shared_ptr<DcolSession>& session,
    const std::shared_ptr<transport::TcpConnection>& subflow) {
  for (const auto& info : session->conn_->subflows()) {
    if (info.conn == subflow) return info.dead;
  }
  return true;  // no longer tracked: gone
}

void DcolClient::fail_detour(DcolSession::Detour& detour) {
  if (detour.withdrawn) return;
  detour.withdrawn = true;
  if (detour.vpn) detour.vpn->leave();
  if (detour.nat) detour.nat->close();
  // Crash, not underperformance: allow a rejoin once the waypoint has had
  // a chance to come back.
  tried_members_[detour.member_id] =
      mux_.simulator().now() + options_.waypoint_retry_cooldown;
  if (options_.enable_breakers) {
    breaker_for(detour.member_id)->record_failure(mux_.simulator().now());
  }
  ++stats_.detour_failures;
  telemetry::registry().counter("dcol.detour_failures")->inc();
  telemetry::tracer().emit(telemetry::TraceEvent::kDetourWithdrawn,
                           static_cast<double>(detour.member_id), 0.0,
                           "failed");
}

void DcolClient::evaluate(const std::shared_ptr<DcolSession>& session,
                          net::Endpoint server) {
  (void)server;
  // Reap detours whose subflow collapsed (waypoint crash resets it, or the
  // restarted waypoint RSTs unknown segments). MPTCP already reinjected
  // their in-flight data; here we free the exploration slot and make the
  // member retryable after its cooldown.
  for (auto& detour : session->detours_) {
    if (detour->withdrawn || !detour->subflow) continue;
    if (subflow_dead(session, detour->subflow)) {
      session->conn_->remove_subflow(detour->subflow);
      fail_detour(*detour);
    }
  }
  // Total progress this window, across primary + detours.
  std::uint64_t total_delta = 0;
  const auto& subflows = session->conn_->subflows();
  if (!subflows.empty()) {
    const std::uint64_t primary_now = subflow_progress(subflows[0].conn);
    total_delta += primary_now - session->primary_last_bytes_;
    session->primary_last_bytes_ = primary_now;
  }
  struct Sample {
    DcolSession::Detour* detour;
    std::uint64_t delta;
    double retx_ratio;
  };
  std::vector<Sample> samples;
  for (auto& detour : session->detours_) {
    if (detour->withdrawn || !detour->subflow) continue;
    const std::uint64_t now_bytes = subflow_progress(detour->subflow);
    const std::uint64_t delta = now_bytes - detour->last_bytes;
    detour->last_bytes = now_bytes;
    total_delta += delta;
    const std::uint64_t segments_acked =
        detour->subflow->bytes_acked() / detour->subflow->options().mss + 1;
    samples.push_back(
        {detour.get(), delta,
         static_cast<double>(detour->subflow->retransmits()) /
             static_cast<double>(segments_acked)});
  }
  if (total_delta == 0) return;  // idle window: nothing to judge

  for (const Sample& sample : samples) {
    const double share = static_cast<double>(sample.delta) /
                         static_cast<double>(total_delta);
    const bool useless = share < options_.withdraw_share;
    const bool harmful = sample.retx_ratio > options_.misbehavior_retx_ratio;
    if (sample.detour->trial) {
      sample.detour->trial = false;
      if (!useless && !harmful) ++stats_.detours_kept;
    }
    // A detour that moves essentially nothing despite an established
    // subflow is indistinguishable (from here) between a bad path and a
    // packet-mangling waypoint; either way it is a poor experience worth
    // a low-severity report — repeated reports across members expel the
    // waypoint (§IV-C).
    const bool dead_weight = share < options_.withdraw_share * 0.5;
    if (useless || harmful) {
      // Withdraw: close the subflow; MPTCP reinjects its in-flight data
      // on the remaining paths.
      session->conn_->remove_subflow(sample.detour->subflow);
      if (sample.detour->vpn) sample.detour->vpn->leave();
      if (sample.detour->nat) sample.detour->nat->close();
      sample.detour->withdrawn = true;
      ++stats_.detours_withdrawn;
      telemetry::registry().counter("dcol.detours_withdrawn")->inc();
      telemetry::tracer().emit(telemetry::TraceEvent::kDetourWithdrawn,
                               static_cast<double>(sample.detour->member_id),
                               sample.retx_ratio,
                               harmful ? "harmful" : "useless");
      if (harmful) {
        ++stats_.misbehavior_reports;
        collective_.report_misbehavior(sample.detour->member_id, 0.5);
      } else if (dead_weight) {
        ++stats_.misbehavior_reports;
        collective_.report_misbehavior(sample.detour->member_id, 0.2);
      }
    }
  }
}

}  // namespace hpop::dcol
