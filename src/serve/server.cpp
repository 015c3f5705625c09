#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include "obs/log.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/strings.hpp"

namespace mcb {
namespace {

using Clock = std::chrono::steady_clock;

// epoll user-data tags for the two non-connection fds. Real connections
// carry their Connection* in data.ptr; heap pointers are never 1 or 2.
constexpr std::uint64_t kListenerTag = 1;
constexpr std::uint64_t kWakeTag = 2;

constexpr int kEpollBatch = 256;
constexpr std::size_t kReadChunk = 16 * 1024;
constexpr std::uint64_t kWheelTickMs = 10;
constexpr std::size_t kWheelSlots = 256;
constexpr std::uint64_t kNoDeadline = static_cast<std::uint64_t>(-1);

/// Route labels of the ledger's synthetic slots, in HttpServer::Outcome order.
constexpr std::array<const char*, 7> kOutcomeNames = {
    "(unmatched)", "(shed)", "(timeout)", "(bad_framing)", "(too_large)", "(malformed)",
    "(client_gone)"};
constexpr std::array<const char*, 4> kStatusClasses = {"2xx", "4xx", "5xx", "other"};

/// Index into kStatusClasses. 1xx/3xx count as "other" instead of
/// inflating the 2xx success rate.
std::size_t status_class(int status) {
  if (status >= 500) return 2;
  if (status >= 400) return 1;
  return status >= 200 && status < 300 ? 0 : 3;
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

/// Per-connection state machine, owned and mutated exclusively by the
/// reactor thread (the conns_ table is mutex-guarded only because other
/// threads snapshot its size). `inbuf`/`outbuf` are reused across
/// keep-alive requests: erase/clear keep their capacity, so a warm
/// connection stops allocating.
struct HttpServer::Connection {
  int fd = -1;
  std::uint64_t id = 0;      ///< wheel/completion key; never reused
  std::string inbuf;         ///< unconsumed request bytes
  std::string outbuf;        ///< unflushed response bytes
  std::size_t out_off = 0;   ///< flushed prefix of outbuf
  /// outbuf end-offsets that complete a dispatched response; `handled`
  /// increments when the flush cursor passes a mark, preserving the
  /// "responses fully written" meaning under pipelining.
  std::vector<std::size_t> handled_marks;
  std::size_t marks_done = 0;
  bool receiving = false;        ///< first byte of the current request seen
  bool in_handler = false;       ///< one request running on the pool
  bool peer_half_closed = false; ///< read side saw EOF (client shutdown(WR))
  bool want_close = false;       ///< close once outbuf drains
  bool want_write = false;       ///< EPOLLOUT currently registered
  bool read_paused = false;      ///< drain stopped before EAGAIN (buffer cap)
  bool closed = false;           ///< fd closed; object lingers to batch end
  bool timer_armed = false;      ///< one live wheel entry for this id
  std::uint64_t requests_done = 0;
  std::uint64_t last_activity_ms = 0;  ///< last byte received / response flushed
  std::uint64_t request_start_ms = 0;  ///< first byte of the current request
  std::uint64_t write_stall_ms = 0;    ///< 0 = not write-stalled
  /// Covers receive time of the current request; moved into the
  /// PendingRequest at dispatch so the handler owns it and the
  /// Connection can die while the handler runs.
  std::optional<obs::TraceContext> trace;
};

HttpServer::HttpServer(ServerConfig config)
    : config_(config), wheel_(kWheelTickMs, kWheelSlots) {
  if (config_.worker_threads == 0) config_.worker_threads = 1;
  if (config_.max_connections == 0) config_.max_connections = 1;
  static_assert(kOutcomeNames.size() == kOutcomeCount);
  for (const char* name : kOutcomeNames) ledger_.emplace_back().name = name;
}

// NOLINTNEXTLINE(bugprone-exception-escape) — stop() joins the reactor and
// worker threads and may throw system_error on corrupt thread state;
// terminating there is better than leaking joinable threads.
HttpServer::~HttpServer() { stop(); }

void HttpServer::route(const std::string& method, const std::string& path,
                       HttpHandler handler) {
  const auto [it, added] = routes_.try_emplace({method, path}, ledger_.size());
  if (added) ledger_.emplace_back().name = method + " " + path;
  ledger_[it->second].handler = std::move(handler);
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) const {
  // The socketless path (unit tests, in-process clients) traces and
  // counts the request like run_handler does, so spans and X-Request-Id
  // echo behave identically.
  const auto id_it = request.headers.find("x-request-id");
  obs::TraceContext trace = tracer_.make_trace(
      id_it != request.headers.end() ? std::string_view(id_it->second) : std::string_view{});
  Routed routed;
  {
    obs::TraceScope scope(&trace);
    routed = route_request(request, trace);
  }
  record_outcome(&trace, routed.slot, routed.response.status, routed.handler_ns);
  return std::move(routed.response);
}

HttpServer::Routed HttpServer::route_request(const HttpRequest& request,
                                             obs::TraceContext& trace) const {
  Routed routed;
  decltype(routes_)::const_iterator it;
  {
    obs::Span route_span(&trace, obs::Stage::kRoute);
    it = routes_.find({request.method, request.path});
    if (it == routes_.end()) {
      // Distinguish 404 from 405 for better API ergonomics.
      const bool path_exists = std::any_of(
          routes_.begin(), routes_.end(),
          [&request](const auto& entry) { return entry.first.second == request.path; });
      routed.response = path_exists
                            ? HttpResponse::json(405, R"({"error":"method not allowed"})")
                            : HttpResponse::json(404, R"({"error":"not found"})");
    }
  }
  if (it != routes_.end()) {
    routed.slot = it->second;
    const std::uint64_t started = tracer_.now_ns();
    try {
      routed.response = ledger_[routed.slot].handler(request);
    } catch (const std::exception& e) {
      routed.response = HttpResponse::json(
          500, std::string(R"({"error":")") + json_escape(e.what()) + "\"}");
    }
    const std::uint64_t ended = tracer_.now_ns();
    routed.handler_ns = ended > started ? ended - started : 0;
  }
  routed.response.headers.emplace_back("X-Request-Id", trace.id());
  return routed;
}

void HttpServer::record_outcome(obs::TraceContext* trace, std::size_t slot, int status,
                                std::uint64_t handler_ns) const {
  LedgerSlot& row = ledger_[slot];
  if (trace != nullptr) tracer_.finish(*trace, status, row.name);
  row.by_class[status_class(status)].record(handler_ns);
}

void HttpServer::collect_metrics(std::vector<obs::MetricFamily>& out) const {
  obs::MetricFamily requests;
  requests.name = "mcb_http_requests_total";
  requests.help = "Requests by route and status class.";
  requests.type = obs::MetricType::kCounter;
  obs::MetricFamily durations;
  durations.name = "mcb_http_request_duration_seconds";
  durations.help = "Handler latency by route (0 for outcomes no handler ran).";
  durations.type = obs::MetricType::kHistogram;
  std::vector<std::uint64_t> counts(ledger_.size(), 0);
  for (std::size_t slot = 0; slot < ledger_.size(); ++slot) {
    const LedgerSlot& row = ledger_[slot];
    obs::MetricPoint point;
    point.labels = {{"route", row.name}};
    for (std::size_t cls = 0; cls < kStatusClasses.size(); ++cls) {
      const std::uint64_t n = row.by_class[cls].add_to(point);
      if (n == 0) continue;  // keep the exposition sparse
      requests.points.push_back(obs::scalar_point(
          {{"route", row.name}, {"class", kStatusClasses[cls]}}, static_cast<double>(n)));
    }
    counts[slot] = point.count;
    if (point.count != 0) durations.points.push_back(std::move(point));
  }

  obs::MetricFamily conns;
  conns.name = "mcb_http_connections_total";
  conns.help = "Connection outcomes by event (accepted, handled, rejected, "
               "timed_out, malformed).";
  conns.type = obs::MetricType::kCounter;
  const std::pair<const char*, std::uint64_t> events[] = {
      {"accepted", accepted_.load()},
      {"handled", handled_.load()},
      {"rejected", counts[kShed]},
      {"timed_out", counts[kTimeout]},
      {"malformed",
       counts[kBadFraming] + counts[kTooLarge] + counts[kMalformed] + counts[kClientGone]},
  };
  for (const auto& [event, value] : events) {
    conns.points.push_back(obs::scalar_point({{"event", event}}, static_cast<double>(value)));
  }
  out.push_back(std::move(conns));
  out.push_back(std::move(requests));
  out.push_back(std::move(durations));

  obs::MetricFamily state;
  state.name = "mcb_http_server_state";
  state.help = "Reactor state: open connections, handler-queue depth, effective listen "
               "backlog (configured value clamped to net.core.somaxconn).";
  state.type = obs::MetricType::kGauge;
  const std::pair<const char*, std::size_t> values[] = {
      {"active_connections", active_connections()},
      {"queue_depth", pool_ != nullptr ? pool_->pending() : 0},
      {"listen_backlog", static_cast<std::size_t>(effective_backlog_)},
  };
  for (const auto& [kind, value] : values) {
    state.points.push_back(obs::scalar_point({{"kind", kind}}, static_cast<double>(value)));
  }
  out.push_back(std::move(state));
}

std::size_t HttpServer::active_connections() const {
  MutexLock lock(conn_mutex_);
  return conns_.size();
}

std::uint64_t HttpServer::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - epoch_)
          .count());
}

HttpServer::Connection* HttpServer::find_connection(std::uint64_t id) {
  // Returning the raw pointer after unlock is safe: only the reactor
  // thread destroys connections, and it is the only caller.
  // mcb-lint: suppress(R18: bounded critical section — one hash lookup) mcb-lint: suppress(R19: bounded critical section — one hash lookup)
  MutexLock lock(conn_mutex_);
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void HttpServer::wake_reactor() const {
  const std::uint64_t one = 1;
  if (wake_fd_ >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void HttpServer::consume_wake() const {
  std::uint64_t value = 0;
  [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &value, sizeof(value));
}

bool HttpServer::start(int port) {
  if (running_.load()) return false;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;

  const int opt = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &opt, sizeof(opt));

  const int somax = somaxconn();
  const int backlog = std::max(config_.listen_backlog, 1);
  effective_backlog_ = std::min(backlog, somax);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, backlog) != 0) {
    log::error("serve", "bind/listen failed",
               {log::Field("port", static_cast<std::int64_t>(port)),
                log::Field("errno", static_cast<std::int64_t>(errno))});
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(listen_fd_);
    epoll_fd_ = wake_fd_ = listen_fd_ = -1;
    return false;
  }
  epoll_event lev{};
  lev.events = EPOLLIN | EPOLLET;
  lev.data.u64 = kListenerTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &lev);
  epoll_event wev{};
  wev.events = EPOLLIN;  // level-triggered: consume_wake clears it
  wev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wev);

  epoch_ = Clock::now();
  wheel_ = TimerWheel(kWheelTickMs, kWheelSlots);
  draining_ = false;
  drain_deadline_ms_ = 0;
  {
    MutexLock lock(completion_mutex_);
    completions_.clear();
  }
  pool_ = std::make_unique<ThreadPool>(config_.worker_threads);
  running_.store(true);
  reactor_thread_ = std::thread([this] { reactor_loop(); });
  log::info("serve", "listening",
            {log::Field("port", static_cast<std::int64_t>(port_)),
             log::Field("workers", static_cast<std::int64_t>(config_.worker_threads)),
             log::Field("backlog", static_cast<std::int64_t>(backlog)),
             log::Field("effective_backlog",
                        static_cast<std::int64_t>(effective_backlog_)),
             log::Field("somaxconn", static_cast<std::int64_t>(somax))});
  return true;
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  // The reactor observes running_ == false, stops accepting, closes idle
  // connections and drains the rest within the drain budget; joining it
  // is bounded by that budget plus the longest in-flight handler.
  wake_reactor();
  if (reactor_thread_.joinable()) reactor_thread_.join();
  // Handler workers may still be finishing; their completions are for
  // connections that no longer exist and are simply never read.
  pool_.reset();
  {
    MutexLock lock(completion_mutex_);
    completions_.clear();
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (listen_fd_ >= 0) {  // normally closed by the reactor's drain phase
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  log::info("serve", "stopped",
            {log::Field("handled", static_cast<std::int64_t>(handled_.load()))});
}

void HttpServer::reactor_loop() {
  std::vector<epoll_event> events(kEpollBatch);
  for (;;) {
    if (!running_.load(std::memory_order_acquire) && !draining_) begin_drain();
    if (draining_) {
      std::size_t open = 0;
      {
        MutexLock lock(conn_mutex_);
        open = conns_.size();
      }
      if (open == 0) break;
      if (now_ms() >= drain_deadline_ms_) {
        force_close_all();
        break;
      }
    }
    int timeout_ms = static_cast<int>(wheel_.tick_ms());
    if (!draining_ && wheel_.armed() == 0) {
      std::size_t open = 0;
      {
        MutexLock lock(conn_mutex_);
        open = conns_.size();
      }
      if (open == 0) timeout_ms = 200;  // idle: nothing to expire
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) {
      log::error("serve", "epoll_wait failed",
                 {log::Field("errno", static_cast<std::int64_t>(errno))});
      break;
    }
    reactor_tick(events.data(), n > 0 ? n : 0);
  }
}

// The reactor's per-iteration body: fan events out to the connection
// state machines, absorb handler completions, expire timers. Hot by
// construction — runs once per epoll batch at full load — so it is
// MCB_HOT_PATH: no allocation, locks or blocking calls here; those live
// in the leaf helpers where they are bounded and justified.
MCB_HOT_PATH
void HttpServer::reactor_tick(const epoll_event* events, int n_events) {
  for (int i = 0; i < n_events; ++i) {
    const epoll_event& ev = events[i];
    if (ev.data.u64 == kListenerTag) {
      if (!draining_) handle_accepts();
    } else if (ev.data.u64 == kWakeTag) {
      consume_wake();
    } else {
      handle_event(static_cast<Connection*>(ev.data.ptr), ev.events);
    }
  }
  drain_completions();
  expire_timers();
  destroy_closed();
}

// Per-connection event dispatch: resume writes first (frees buffer
// space), then pump reads through the state machine. Also MCB_HOT_PATH —
// pure control flow over the Connection, no allocation or locking.
MCB_HOT_PATH
void HttpServer::handle_event(Connection* conn, std::uint32_t events) {
  if (conn == nullptr || conn->closed) return;
  if ((events & EPOLLERR) != 0) {
    finish_abandoned(conn);
    close_connection(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) flush_output(conn);
  if (conn->closed) return;
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) pump_input(conn);
}

// Drain-then-process until the socket is dry (edge-triggered epoll will
// not re-notify for bytes we left behind) or a handler has the
// connection and reading is paused.
void HttpServer::pump_input(Connection* conn) {
  do {
    conn->read_paused = false;
    drain_input(conn);
    if (conn->closed) return;
    process_inbuf(conn);
    if (conn->closed) return;
  } while (conn->read_paused && !conn->in_handler);
}

void HttpServer::drain_input(Connection* conn) {
  char buffer[kReadChunk];
  // Cap buffered-but-unprocessed bytes: an abusive client pipelining
  // into a slow handler parks here instead of growing inbuf unboundedly;
  // reading resumes (read_paused) once the state machine catches up.
  const std::size_t cap = config_.max_request_bytes + sizeof(buffer);
  for (;;) {
    if (conn->inbuf.size() >= cap) {
      conn->read_paused = true;
      return;
    }
    // mcb-lint: suppress(R18: non-blocking fd; EAGAIN ends the loop) mcb-lint: suppress(R19: non-blocking fd; EAGAIN ends the loop)
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      finish_abandoned(conn);
      close_connection(conn);
      return;
    }
    if (n == 0) {  // orderly shutdown of the client's write side
      conn->peer_half_closed = true;
      return;
    }
    // mcb-lint: suppress(R18: inbuf is capped at max_request_bytes and reuses capacity across requests)
    conn->inbuf.append(buffer, static_cast<std::size_t>(n));
    conn->last_activity_ms = now_ms();
  }
}

void HttpServer::process_inbuf(Connection* conn) {
  for (;;) {
    if (conn->closed || conn->in_handler || conn->want_close) return;
    if (conn->inbuf.empty()) {
      if (conn->peer_half_closed) {
        // Client finished sending and everything is answered: close
        // (half-close contract: pending responses still go out first).
        conn->want_close = true;
        if (conn->out_off >= conn->outbuf.size()) close_connection(conn);
      }
      return;
    }
    if (!conn->receiving) {
      conn->receiving = true;
      conn->request_start_ms = now_ms();
      conn->last_activity_ms = conn->request_start_ms;
      // The trace covers the whole request lifetime including receive
      // time, so a client that drips bytes shows up as a slow trace,
      // not a fast handler. (The first request's trace is created at
      // accept so a silent connection is traceable too.)
      // mcb-lint: suppress(R18: optional emplace constructs in place — no container involved)
      if (!conn->trace.has_value()) conn->trace.emplace(tracer_.make_trace());
      arm_timer(conn);
    }
    const std::size_t expected = expected_request_length(conn->inbuf);
    if (expected == kInvalidRequestFraming) {
      fail_request(conn,
                   HttpResponse::json(400, R"({"error":"invalid content-length"})"),
                   kBadFraming);
      return;
    }
    if (expected != 0 && conn->inbuf.size() >= expected) {
      if (expected > config_.max_request_bytes) {
        fail_request(conn, HttpResponse::json(413, R"({"error":"request too large"})"),
                     kTooLarge);
        return;
      }
      dispatch_request(conn, expected);
      continue;  // further pipelined requests wait for the completion
    }
    // Request still incomplete.
    if (conn->inbuf.size() > config_.max_request_bytes) {
      fail_request(conn, HttpResponse::json(413, R"({"error":"request too large"})"),
                   kTooLarge);
      return;
    }
    if (conn->peer_half_closed) {  // EOF mid-request: it can never complete
      finish_abandoned(conn);
      close_connection(conn);
      return;
    }
    return;
  }
}

void HttpServer::dispatch_request(Connection* conn, std::size_t wire_len) {
  // mcb-lint: suppress(R18: one pending-record allocation per request — the price of reactor/worker isolation)
  auto pending = std::make_shared<PendingRequest>();
  pending->conn_id = conn->id;
  // mcb-lint: suppress(R18: copies the wire bytes into the worker-owned buffer; bounded by max_request_bytes)
  pending->raw.assign(conn->inbuf, 0, wire_len);
  pending->trace = std::move(*conn->trace);
  conn->trace.reset();
  conn->inbuf.erase(0, wire_len);  // keeps capacity: buffer reuse across requests
  conn->receiving = false;

  if (draining_) {
    record_outcome(&pending->trace, kShed, 503, 0);
    conn->want_close = true;
    enqueue_response(conn,
                     serialize_http_response(
                         HttpResponse::json(503, R"({"error":"server shutting down"})"),
                         false),
                     false);
    return;
  }

  std::function<void()> task = [this, pending] { run_handler(*pending); };
  if (!pool_->try_submit(task, config_.max_pending)) {
    // Handler pool saturated: shed load here instead of queueing without
    // bound. The reactor never blocks on worker progress.
    log::warn("serve", "shedding request: handler pool saturated",
              {log::Field("pending", static_cast<std::int64_t>(pool_->pending()))});
    record_outcome(&pending->trace, kShed, 503, 0);
    conn->want_close = true;
    enqueue_response(conn,
                     serialize_http_response(
                         HttpResponse::json(503, R"({"error":"server overloaded"})"),
                         false),
                     false);
    return;
  }
  conn->in_handler = true;
}

// Runs on a pool worker. Self-contained: owns the raw bytes and the
// trace; talks back to the reactor only through the completion queue.
// Both boundaries below are that fact, spelled for the analyzer:
// try_submit is where work leaves the reactor thread, so nothing from
// here down is reactor- or hot-path-constrained.
MCB_REACTOR_BOUNDARY MCB_HOT_PATH_BOUNDARY
void HttpServer::run_handler(PendingRequest& pending) {
  std::optional<HttpRequest> request;
  {
    obs::Span parse_span(&pending.trace, obs::Stage::kParse);
    request = parse_http_request(pending.raw);
  }
  Completion completion;
  completion.conn_id = pending.conn_id;
  if (request.has_value()) {
    const auto id_it = request->headers.find("x-request-id");
    if (id_it != request->headers.end()) pending.trace.adopt_id(id_it->second);

    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
    // Connection header wins either way.
    bool keep_alive = true;
    const std::size_t line_end = pending.raw.find("\r\n");
    if (line_end != std::string::npos &&
        std::string_view(pending.raw).substr(0, line_end).ends_with("HTTP/1.0")) {
      keep_alive = false;
    }
    const auto conn_it = request->headers.find("connection");
    if (conn_it != request->headers.end()) {
      const std::string value = to_lower(conn_it->second);
      if (value.find("close") != std::string::npos) {
        keep_alive = false;
      } else if (value.find("keep-alive") != std::string::npos) {
        keep_alive = true;
      }
    }

    Routed routed;
    {
      obs::TraceScope scope(&pending.trace);
      routed = route_request(*request, pending.trace);
      obs::Span serialize_span(&pending.trace, obs::Stage::kSerialize);
      completion.wire = serialize_http_response(routed.response, keep_alive);
    }
    completion.keep_alive = keep_alive;
    completion.dispatched = true;
    record_outcome(&pending.trace, routed.slot, routed.response.status, routed.handler_ns);
  } else {
    completion.wire = serialize_http_response(
        HttpResponse::json(400, R"({"error":"malformed request"})"), false);
    completion.keep_alive = false;
    completion.dispatched = false;
    record_outcome(&pending.trace, kMalformed, 400, 0);
  }
  {
    MutexLock lock(completion_mutex_);
    completions_.push_back(std::move(completion));
  }
  wake_reactor();
}

void HttpServer::drain_completions() {
  std::vector<Completion> batch;
  {
    // mcb-lint: suppress(R18: lock covers a vector swap only) mcb-lint: suppress(R19: lock covers a vector swap only)
    MutexLock lock(completion_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    Connection* conn = find_connection(completion.conn_id);
    if (conn == nullptr || conn->closed) continue;  // connection died mid-handler
    conn->in_handler = false;
    ++conn->requests_done;
    if (!completion.keep_alive || draining_) conn->want_close = true;
    enqueue_response(conn, completion.wire, completion.dispatched);
    if (conn->closed || conn->want_close) continue;
    // The next pipelined request may already be buffered, and a paused
    // read must resume now that the state machine caught up.
    if (conn->read_paused) {
      pump_input(conn);
    } else {
      process_inbuf(conn);
    }
    if (!conn->closed) arm_timer(conn);
  }
}

void HttpServer::enqueue_response(Connection* conn, std::string_view wire,
                                  bool count_handled) {
  // mcb-lint: suppress(R18: outbuf retains its capacity once the connection warms up)
  conn->outbuf.append(wire.data(), wire.size());
  // mcb-lint: suppress(R18: handled_marks is bounded by pipelined responses and reuses capacity)
  if (count_handled) conn->handled_marks.push_back(conn->outbuf.size());
  flush_output(conn);
}

void HttpServer::flush_output(Connection* conn) {
  while (conn->out_off < conn->outbuf.size()) {
    // mcb-lint: suppress(R18: non-blocking fd; EAGAIN parks the remainder) mcb-lint: suppress(R19: non-blocking fd; EAGAIN parks the remainder for EPOLLOUT)
    const ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->out_off,
                             conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Partial write: park the rest, resume on EPOLLOUT, and start
        // the write-stall clock (timer wheel replaces SO_SNDTIMEO).
        if (conn->write_stall_ms == 0) conn->write_stall_ms = now_ms();
        update_epoll(conn, true);
        arm_timer(conn);
        return;
      }
      finish_abandoned(conn);
      close_connection(conn);
      return;
    }
    conn->out_off += static_cast<std::size_t>(n);
    while (conn->marks_done < conn->handled_marks.size() &&
           conn->handled_marks[conn->marks_done] <= conn->out_off) {
      handled_.fetch_add(1, std::memory_order_relaxed);  // relaxed: stat counter
      ++conn->marks_done;
    }
  }
  conn->outbuf.clear();  // keeps capacity: buffer reuse across requests
  conn->out_off = 0;
  conn->handled_marks.clear();
  conn->marks_done = 0;
  conn->write_stall_ms = 0;
  if (conn->want_write) update_epoll(conn, false);
  if (conn->want_close) {
    close_connection(conn);
    return;
  }
  conn->last_activity_ms = now_ms();
  if (!conn->receiving && !conn->in_handler) arm_timer(conn);  // idle deadline
}

void HttpServer::fail_request(Connection* conn, const HttpResponse& response,
                              Outcome outcome) {
  record_outcome(conn->trace.has_value() ? &*conn->trace : nullptr, outcome, response.status, 0);
  conn->trace.reset();
  conn->receiving = false;
  conn->inbuf.clear();
  conn->want_close = true;
  enqueue_response(conn, serialize_http_response(response, false), false);
}

// The client vanished (EOF mid-request, reset, or write failure): a
// request whose bytes had arrived counts as 499 (client closed request)
// under "(client_gone)"; a connection with nothing pending closes
// silently.
void HttpServer::finish_abandoned(Connection* conn) {
  if (!conn->trace.has_value()) return;
  if (conn->receiving && !conn->inbuf.empty()) {
    record_outcome(&*conn->trace, kClientGone, 499, 0);
  }
  conn->trace.reset();
}

// Teardown runs once per connection, off the per-request path, so the
// hot-path allocation discipline stops here; the map erase justifies
// its own short wait below.
MCB_HOT_PATH_BOUNDARY
void HttpServer::close_connection(Connection* conn) {
  if (conn->closed) return;
  conn->closed = true;
  if (conn->fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conn->fd = -1;
  }
  // mcb-lint: suppress(R19: bounded critical section — one map erase)
  MutexLock lock(conn_mutex_);
  const auto it = conns_.find(conn->id);
  if (it != conns_.end()) {
    // Deferred free: the current epoll batch may still hold this
    // pointer, so the object lives until destroy_closed().
    closed_scratch_.push_back(std::move(it->second));
    conns_.erase(it);
  }
}

void HttpServer::destroy_closed() { closed_scratch_.clear(); }

void HttpServer::update_epoll(Connection* conn, bool want_write) {
  if (conn->want_write == want_write) return;
  conn->want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP | (want_write ? EPOLLOUT : 0U);
  ev.data.ptr = conn;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

// Connection setup: the socket options, Connection allocation, map
// insert and trace creation here are paid once per connection and
// amortized across its requests, so the hot-path allocation discipline
// stops at this edge. The reactor-thread waits below each justify
// themselves individually — the boundary does not cover R19.
MCB_HOT_PATH_BOUNDARY
void HttpServer::handle_accepts() {
  for (;;) {
    // mcb-lint: suppress(R19: listen_fd_ is SOCK_NONBLOCK; EAGAIN ends the loop)
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        log::warn("serve", "accept failed: out of file descriptors", {});
      }
      return;  // EAGAIN: backlog drained
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);  // relaxed: stat counter
    std::size_t open = 0;
    {
      // mcb-lint: suppress(R19: bounded critical section — a single map size read)
      MutexLock lock(conn_mutex_);
      open = conns_.size();
    }
    if (open >= config_.max_connections) {
      record_outcome(nullptr, kShed, 503, 0);
      // Best effort: a fresh connection's empty send buffer takes the
      // tiny 503 without blocking.
      const std::string wire = serialize_http_response(
          HttpResponse::json(503, R"({"error":"server overloaded"})"), false);
      // mcb-lint: suppress(R19: fresh non-blocking socket; the 503 is fire-and-forget)
      (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = ++next_conn_id_;
    conn->last_activity_ms = now_ms();
    conn->trace.emplace(tracer_.make_trace());
    Connection* raw = conn.get();
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.ptr = raw;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    {
      // mcb-lint: suppress(R19: bounded critical section — one map insert)
      MutexLock lock(conn_mutex_);
      conns_.emplace(raw->id, std::move(conn));
    }
    arm_timer(raw);
  }
}

// ------------------------------------------------------------- timers

std::uint64_t HttpServer::connection_deadline(const Connection* conn) const {
  std::uint64_t deadline = kNoDeadline;
  const auto consider = [&deadline](std::uint64_t candidate) {
    deadline = std::min(deadline, candidate);
  };
  if (conn->receiving) {
    if (config_.recv_timeout_ms > 0) {
      consider(conn->last_activity_ms + static_cast<std::uint64_t>(config_.recv_timeout_ms));
    }
    if (config_.request_deadline_ms > 0) {
      consider(conn->request_start_ms +
               static_cast<std::uint64_t>(config_.request_deadline_ms));
    }
  } else if (!conn->in_handler && conn->out_off >= conn->outbuf.size()) {
    // Idle between requests (or silent since accept).
    if (config_.recv_timeout_ms > 0) {
      consider(conn->last_activity_ms + static_cast<std::uint64_t>(config_.recv_timeout_ms));
    }
  }
  if (conn->write_stall_ms != 0 && config_.send_timeout_ms > 0) {
    consider(conn->write_stall_ms + static_cast<std::uint64_t>(config_.send_timeout_ms));
  }
  return deadline;
}

void HttpServer::arm_timer(Connection* conn) {
  if (conn->timer_armed || conn->closed) return;
  const std::uint64_t deadline = connection_deadline(conn);
  if (deadline == kNoDeadline) return;
  const std::uint64_t now = now_ms();
  conn->timer_armed = true;
  wheel_.schedule(conn->id, deadline > now ? deadline - now : 0);
}

// Lazy cancellation: a wheel fire is only a wake-up. Re-derive the real
// deadline from the connection state; re-arm when it moved, act when it
// passed, drop silently when the connection is gone.
void HttpServer::on_timer(std::uint64_t id) {
  Connection* conn = find_connection(id);
  if (conn == nullptr || conn->closed) return;
  conn->timer_armed = false;
  if (conn->in_handler) return;  // completion path re-arms
  const std::uint64_t deadline = connection_deadline(conn);
  if (deadline == kNoDeadline) return;
  const std::uint64_t now = now_ms();
  if (now < deadline) {
    conn->timer_armed = true;
    wheel_.schedule(conn->id, deadline - now);
    return;
  }
  if (conn->write_stall_ms != 0 && config_.send_timeout_ms > 0 &&
      now >= conn->write_stall_ms + static_cast<std::uint64_t>(config_.send_timeout_ms)) {
    // The client stopped reading its response; nothing we can say to it.
    finish_abandoned(conn);
    close_connection(conn);
    return;
  }
  if (conn->receiving || conn->requests_done == 0) {
    // A request in flight (or a connection that never sent one) hit the
    // idle/deadline budget: 408, matching the blocking server.
    fail_request(conn, HttpResponse::json(408, R"({"error":"request timeout"})"), kTimeout);
    return;
  }
  // Idle keep-alive connection between requests: close silently.
  close_connection(conn);
}

void HttpServer::expire_timers() {
  expired_scratch_.clear();
  wheel_.advance(now_ms(), expired_scratch_);
  for (const std::uint64_t id : expired_scratch_) on_timer(id);
}

// -------------------------------------------------------------- drain

void HttpServer::begin_drain() {
  draining_ = true;
  drain_deadline_ms_ =
      now_ms() + static_cast<std::uint64_t>(std::max(config_.drain_timeout_ms, 0));
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Idle keep-alive connections have nothing to drain; cut them now so
  // the budget is spent on connections with work in flight.
  std::vector<Connection*> open;
  {
    MutexLock lock(conn_mutex_);
    open.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) open.push_back(conn.get());
  }
  for (Connection* conn : open) {
    if (conn->closed) continue;
    if (!conn->in_handler && !conn->receiving && conn->out_off >= conn->outbuf.size()) {
      close_connection(conn);
    }
  }
  destroy_closed();
}

void HttpServer::force_close_all() {
  std::vector<Connection*> open;
  {
    MutexLock lock(conn_mutex_);
    open.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) open.push_back(conn.get());
  }
  for (Connection* conn : open) {
    finish_abandoned(conn);
    close_connection(conn);
  }
  destroy_closed();
}

// ------------------------------------------------------- test client

bool http_request(int port, const std::string& method, const std::string& path,
                  const std::string& body,
                  const std::vector<std::pair<std::string, std::string>>& extra_headers,
                  HttpClientResponse& response_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }

  std::string request = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  request += "Content-Type: application/json\r\n";
  // This client reads until the server closes, so opt out of keep-alive.
  request += "Connection: close\r\n";
  for (const auto& [key, value] : extra_headers) {
    request += key;
    request += ": ";
    request += value;
    request += "\r\n";
  }
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  if (!send_all(fd, request)) {
    ::close(fd);
    return false;
  }

  std::string received;
  char buffer[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    received.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // Parse the status line, headers and body.
  const std::size_t line_end = received.find("\r\n");
  const std::size_t head_end = received.find("\r\n\r\n");
  if (line_end == std::string::npos || head_end == std::string::npos) return false;
  const std::string status_line = received.substr(0, line_end);
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string::npos) return false;
  // atoi() has no error reporting (cert-err34-c); parse the 3-digit code
  // strictly and fail on anything non-numeric.
  std::string_view code = std::string_view(status_line).substr(sp + 1);
  const std::size_t code_end = code.find(' ');
  if (code_end != std::string_view::npos) code = code.substr(0, code_end);
  std::int64_t status = 0;
  if (!parse_i64(code, status) || status < 100 || status > 599) return false;
  response_out.status = static_cast<int>(status);
  response_out.body = received.substr(head_end + 4);

  response_out.headers.clear();
  std::size_t cursor = line_end + 2;
  while (cursor < head_end) {
    std::size_t next = received.find("\r\n", cursor);
    if (next == std::string::npos || next > head_end) next = head_end;
    const std::string_view line = std::string_view(received).substr(cursor, next - cursor);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      response_out.headers.emplace(to_lower(trim(line.substr(0, colon))),
                                   std::string(trim(line.substr(colon + 1))));
    }
    cursor = next + 2;
  }
  return true;
}

bool http_request(int port, const std::string& method, const std::string& path,
                  const std::string& body, int& status_out, std::string& body_out) {
  HttpClientResponse response;
  if (!http_request(port, method, path, body, {}, response)) return false;
  status_out = response.status;
  body_out = std::move(response.body);
  return true;
}

}  // namespace mcb
