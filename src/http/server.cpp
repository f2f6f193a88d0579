#include "http/server.hpp"

#include "transport/payloads.hpp"
#include "util/logging.hpp"

namespace hpop::http {

/// One queued response slot; responses flush strictly in request order.
struct ResponseWriter::Slot {
  std::optional<Response> response;
  /// Set when the handler deferred; fires a flush once filled.
  std::function<void()> on_complete;
  /// Set when admission control admitted this request; releases the
  /// occupancy permit once the response is written.
  std::function<void()> on_finished;
  /// Keeps a deferring handler's writer alive until it responds. Cleared in
  /// respond(), or when the connection closes first, to break the
  /// slot<->writer reference cycle.
  std::shared_ptr<ResponseWriter> writer_keepalive;
};

struct HttpServer::Connection {
  std::shared_ptr<transport::TcpConnection> tcp;
  std::deque<std::shared_ptr<ResponseWriter::Slot>> slots;
};

HttpServer::HttpServer(transport::TransportMux& mux, std::uint16_t port,
                       transport::TcpOptions opts)
    : mux_(mux), listener_(mux.tcp_listen(port, opts)) {
  listener_->set_on_accept(
      [this](std::shared_ptr<transport::TcpConnection> conn) {
        on_accept(std::move(conn));
      });
  default_handler_ = [](const Request&, ResponseWriter& writer) {
    Response resp;
    resp.status = 404;
    writer.respond(std::move(resp));
  };
}

void HttpServer::route(Method method, const std::string& path_prefix,
                       RequestHandler handler) {
  vhost_route("", method, path_prefix, std::move(handler));
}

void HttpServer::vhost_route(const std::string& host, Method method,
                             const std::string& path_prefix,
                             RequestHandler handler) {
  vhosts_[host].push_back(RouteEntry{method, path_prefix, std::move(handler)});
}

void HttpServer::set_default_handler(RequestHandler handler) {
  default_handler_ = std::move(handler);
}

void HttpServer::set_admission(overload::AdmissionController* admission,
                               Classifier classifier) {
  admission_ = admission;
  classifier_ = std::move(classifier);
}

void HttpServer::on_accept(std::shared_ptr<transport::TcpConnection> conn) {
  auto state = std::make_shared<Connection>();
  state->tcp = std::move(conn);
  connections_.push_back(state);

  std::weak_ptr<Connection> weak = state;
  state->tcp->set_on_message([this, weak](net::PayloadPtr msg) {
    const auto state = weak.lock();
    if (!state) return;
    if (const auto req =
            std::dynamic_pointer_cast<const RequestPayload>(msg)) {
      on_request(state, req->request);
      return;
    }
    if (const auto raw =
            std::dynamic_pointer_cast<const transport::BytesPayload>(msg)) {
      // Raw wire text from an untyped (possibly hostile) client: parse
      // under strict limits. Malformed input earns a 400 and the
      // connection is dropped — never a crash, never a hang.
      auto parsed = parse_request(raw->text());
      if (parsed.ok()) {
        on_request(state, parsed.value());
        return;
      }
      ++stats_.parse_errors;
      auto slot = std::make_shared<ResponseWriter::Slot>();
      state->slots.push_back(slot);
      Response resp;
      resp.status = 400;
      resp.headers.set("Connection", "close");
      resp.body = Body(std::string_view(parsed.error().code));
      slot->response = std::move(resp);
      flush(state);
      state->tcp->close();
    }
  });
  state->tcp->set_on_remote_close([weak] {
    if (const auto state = weak.lock()) state->tcp->close();
  });
  state->tcp->set_on_closed([this, weak] {
    if (const auto state = weak.lock()) {
      // A handler that never responds must not keep its slot alive.
      for (const auto& slot : state->slots) slot->writer_keepalive.reset();
      std::erase(connections_, state);
    }
  });
}

const RequestHandler* HttpServer::find_handler(const Request& request) const {
  const std::string host = request.headers.get("host").value_or("");
  // Try the named virtual host, then the default host.
  for (const std::string& candidate :
       host.empty() ? std::vector<std::string>{""}
                    : std::vector<std::string>{host, ""}) {
    const auto it = vhosts_.find(candidate);
    if (it == vhosts_.end()) continue;
    const RouteEntry* best = nullptr;
    for (const RouteEntry& entry : it->second) {
      if (entry.method != request.method) continue;
      if (request.path.rfind(entry.prefix, 0) != 0) continue;
      if (best == nullptr || entry.prefix.size() > best->prefix.size()) {
        best = &entry;
      }
    }
    if (best != nullptr) return &best->handler;
  }
  return nullptr;
}

void HttpServer::run_handler(const Request& request,
                             const std::shared_ptr<ResponseWriter>& writer) {
  const RequestHandler* handler = find_handler(request);
  (handler != nullptr ? *handler : default_handler_)(request, *writer);
}

void HttpServer::on_request(const std::shared_ptr<Connection>& state,
                            const Request& request) {
  ++stats_.requests;
  stats_.bytes_in += request.wire_size();

  auto slot = std::make_shared<ResponseWriter::Slot>();
  state->slots.push_back(slot);

  // The writer owns what it needs to complete later; flushing happens when
  // its turn in the pipeline arrives.
  auto writer = std::make_shared<ResponseWriter>();
  writer->slot_ = slot;
  writer->peer_ = state->tcp->remote();

  std::weak_ptr<Connection> weak = state;
  if (admission_ == nullptr) {
    run_handler(request, writer);
    // The handler may have responded through `*writer` or through any copy
    // of it (both share the slot), or deferred entirely. The slot is the
    // source of truth.
    if (slot->response) {
      flush(state);
    } else {
      // Deferred: flush when the handler's (copied) writer responds.
      slot->on_complete = [this, weak] {
        if (const auto s = weak.lock()) flush(s);
      };
      slot->writer_keepalive = writer;
    }
    return;
  }

  // Admission path. The slot already sits in the pipeline, so a queued or
  // shed request still answers in arrival order; the completion callback
  // covers synchronous, queued and shed outcomes alike.
  slot->on_complete = [this, weak] {
    if (const auto s = weak.lock()) flush(s);
  };
  slot->writer_keepalive = writer;

  const overload::Class cls =
      classifier_ ? classifier_(request) : overload::Class::kOwner;
  admission_->submit(
      cls,
      /*run=*/
      [this, request, writer] {
        // Balance this admit when the response is eventually written.
        writer->slot_->on_finished = [this] { admission_->release(); };
        run_handler(request, writer);
      },
      /*shed=*/
      [this, writer](overload::ShedReason reason,
                     util::Duration retry_after) {
        ++stats_.shed;
        Response resp;
        resp.status =
            reason == overload::ShedReason::kRateLimited ? 429 : 503;
        set_retry_after(resp.headers, retry_after);
        writer->respond(std::move(resp));
      });
}

void HttpServer::flush(const std::shared_ptr<Connection>& state) {
  while (!state->slots.empty() && state->slots.front()->response) {
    Response resp = std::move(*state->slots.front()->response);
    state->slots.pop_front();
    ++stats_.responses;
    stats_.bytes_out += resp.wire_size();
    if (state->tcp->state() ==
            transport::TcpConnection::State::kEstablished ||
        state->tcp->state() == transport::TcpConnection::State::kClosing) {
      state->tcp->send(std::make_shared<ResponsePayload>(std::move(resp)));
    }
  }
}

void ResponseWriter::respond(Response response) {
  if (done_) return;
  done_ = true;
  const auto slot = slot_;  // keep alive independent of *this
  slot->response = std::move(response);
  auto complete = std::move(slot->on_complete);
  slot->on_complete = nullptr;
  auto finished = std::move(slot->on_finished);
  slot->on_finished = nullptr;
  slot->writer_keepalive.reset();  // may destroy *this — locals only below
  if (complete) complete();
  if (finished) finished();
}

}  // namespace hpop::http
