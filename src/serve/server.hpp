// Event-driven HTTP server: one epoll reactor thread owns the
// non-blocking listener and every connection; request handlers run on a
// bounded worker pool *behind* the reactor (DESIGN.md §6).
//
// The reactor never blocks on a handler and never performs a blocking
// syscall: sockets are O_NONBLOCK, accepts are drained until EAGAIN,
// reads/writes resume across partial I/O via epoll interest, and
// idle/request/write-stall deadlines live on a timer wheel instead of
// SO_RCVTIMEO. Connections are keep-alive by default (HTTP/1.1) with
// pipelining support — requests on one connection are answered strictly
// in order — and the per-connection read/write buffers are reused
// across requests. When the handler pool is saturated the reactor sheds
// the request with an immediate 503 instead of queueing without bound.
// stop() is graceful: stop accepting, close idle connections, drain
// in-flight requests for a bounded budget, then force-close stragglers.
// Port 0 binds an ephemeral port — tests read the bound port back.
//
// Every request outcome — a handled route, a 404/405, and each way the
// reactor answers without a handler (503 shed, 408, 400, 413, 499) — is
// recorded by one function, record_outcome(): it finishes the request's
// trace and counts the request in a per-route ledger fixed before
// start(), from which /metrics reads the request, latency and outcome
// families (DESIGN.md §6, "Observability").
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/http.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"
#include "util/timer_wheel.hpp"

struct epoll_event;  // <sys/epoll.h> — kept out of this header

namespace mcb {

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Tuning knobs for the reactor + handler pool. The defaults are sized
/// for the test/demo deployments; production front-ends raise
/// worker_threads, max_pending and max_connections together.
struct ServerConfig {
  std::size_t worker_threads = 8;     ///< handler pool size (>= 1)
  std::size_t max_pending = 64;       ///< queued requests beyond busy workers
  int recv_timeout_ms = 5000;         ///< idle timeout between received bytes (<=0: none)
  int send_timeout_ms = 5000;         ///< response write-stall budget (<=0: none)
  int request_deadline_ms = 10000;    ///< whole-request receive budget (<=0: none)
  int drain_timeout_ms = 2000;        ///< stop(): budget to drain in-flight work
  std::size_t max_request_bytes = 16 * 1024 * 1024;  ///< 413 beyond this
  /// listen() backlog. The kernel clamps this to net.core.somaxconn —
  /// start() logs the effective value so a 10k-connection deployment
  /// can see the clamp instead of debugging mysterious SYN drops.
  int listen_backlog = 4096;
  /// Concurrent-connection cap; accepts beyond it are shed with a 503.
  std::size_t max_connections = 32768;

  /// Per-span hardware-counter attribution (DESIGN.md §14). kAuto
  /// attaches counters only when perf_event_open works *and* the
  /// userspace rdpmc fast path is mapped (a group read per span then
  /// costs tens of ns); kOff never probes. Containers without perf
  /// (ENOSYS/EACCES/EPERM/no PMU) degrade from kAuto to latency-only
  /// spans and mcb_perf_available 0 automatically.
  enum class PerfMode : std::uint8_t { kAuto = 0, kOff };
  PerfMode perf_mode = PerfMode::kAuto;
};

class HttpServer : public obs::Collector {
 public:
  explicit HttpServer(ServerConfig config = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Register a handler for (method, exact path). Must be called before
  /// start(); the routing table is read-only while serving.
  void route(const std::string& method, const std::string& path, HttpHandler handler);

  /// Bind + listen + spawn the handler pool and reactor thread. Returns
  /// false on bind failure. Thread-safe to call once per stop() cycle.
  bool start(int port);

  /// Graceful shutdown: stop accepting, close idle keep-alive
  /// connections, drain in-flight requests for up to
  /// config().drain_timeout_ms, force-close stragglers, join the pool.
  /// Bounded: returns within roughly the drain budget plus the longest
  /// in-flight handler even with hung clients attached.
  void stop();

  bool is_running() const noexcept { return running_.load(); }
  int port() const noexcept { return port_; }
  const ServerConfig& config() const noexcept { return config_; }

  /// The backlog listen() actually got: config().listen_backlog clamped
  /// to the kernel's net.core.somaxconn. Valid after start().
  int effective_backlog() const noexcept { return effective_backlog_; }

  /// Request tracer: per-stage latency histograms + flight recorder.
  /// Every socket request gets a trace; dispatch() adopts/echoes
  /// X-Request-Id through it.
  obs::RequestTracer& tracer() noexcept { return tracer_; }
  const obs::RequestTracer& tracer() const noexcept { return tracer_; }

  /// Connections currently open (racy snapshot, for /metrics).
  std::size_t active_connections() const;

  /// Dispatch a request through the routing table without any sockets
  /// (used by unit tests and by in-process clients). Traces and counts
  /// the request exactly like the socket path.
  HttpResponse dispatch(const HttpRequest& request) const;

  /// The ledger's families — mcb_http_connections_total (accepted and
  /// handled from the reactor; rejected, timed_out and malformed summed
  /// from the synthetic routes), mcb_http_requests_total and
  /// mcb_http_request_duration_seconds — plus the mcb_http_server_state
  /// gauges: open connections, handler-queue depth and the effective
  /// listen backlog.
  void collect_metrics(std::vector<obs::MetricFamily>& out) const override;

 private:
  struct Connection;  // per-connection state machine (server.cpp)

  /// Ledger slots of the outcomes no route() names, fixed at
  /// construction; route() appends one slot per (method, path).
  enum Outcome : std::size_t {
    kUnmatched = 0,  ///< 404/405 from the routing table
    kShed,           ///< 503: pool saturated, draining, or over max_connections
    kTimeout,        ///< 408 at the idle/request deadline
    kBadFraming,     ///< 400: unparsable or duplicate Content-Length
    kTooLarge,       ///< 413: over max_request_bytes
    kMalformed,      ///< 400: framed but unparsable request
    kClientGone,     ///< 499: the client closed mid-request
    kOutcomeCount,
  };

  /// One ledger row: the route's handler (none for an Outcome) and a
  /// latency histogram per status class (2xx, 4xx, 5xx, other). A
  /// class's request count is its histogram's sample count, so
  /// mcb_http_requests_total and the route's
  /// mcb_http_request_duration_seconds agree in every scrape.
  struct LedgerSlot {
    std::string name;  ///< "POST /predict", "(shed)", ...
    HttpHandler handler;
    std::array<obs::LatencyHistogram, 4> by_class;
  };

  /// A routed request's response, the ledger slot it counts under and
  /// its handler's run time (0 when no handler ran).
  struct Routed {
    HttpResponse response;
    std::size_t slot = kUnmatched;
    std::uint64_t handler_ns = 0;
  };

  /// A finished handler's output, posted from a pool worker back to the
  /// reactor through the completion queue + eventfd wake.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string wire;          ///< serialized response bytes
    bool keep_alive = false;   ///< connection survives after the response
    bool dispatched = false;   ///< counts toward `handled` once flushed
  };

  /// One request in flight on the handler pool. Self-contained — owns
  /// the raw bytes and the trace — so the reactor may destroy the
  /// Connection while the handler is still running (the completion is
  /// then simply dropped).
  struct PendingRequest {
    std::uint64_t conn_id = 0;
    std::string raw;
    obs::TraceContext trace;
  };

  Routed route_request(const HttpRequest& request, obs::TraceContext& trace) const;
  /// The one place a request outcome is recorded: finishes `trace`
  /// (flight recorder, counter totals) when there is one — an accept
  /// shed never had a connection to trace — and counts the request in
  /// `slot`'s status class with its handler time.
  void record_outcome(obs::TraceContext* trace, std::size_t slot, int status,
                      std::uint64_t handler_ns) const;

  void reactor_loop();
  void reactor_tick(const epoll_event* events, int n_events);
  void handle_event(Connection* conn, std::uint32_t events);
  void handle_accepts();
  void pump_input(Connection* conn);
  void drain_input(Connection* conn);
  void process_inbuf(Connection* conn);
  void dispatch_request(Connection* conn, std::size_t wire_len);
  void run_handler(PendingRequest& pending);
  void wake_reactor() const;
  void consume_wake() const;
  void enqueue_response(Connection* conn, std::string_view wire, bool count_handled);
  void flush_output(Connection* conn);
  void fail_request(Connection* conn, const HttpResponse& response, Outcome outcome);
  void finish_abandoned(Connection* conn);
  void close_connection(Connection* conn);
  void destroy_closed();
  void arm_timer(Connection* conn);
  std::uint64_t connection_deadline(const Connection* conn) const;
  void on_timer(std::uint64_t id);
  void expire_timers();
  void drain_completions();
  void begin_drain();
  void force_close_all();
  void update_epoll(Connection* conn, bool want_write);
  std::uint64_t now_ms() const;
  Connection* find_connection(std::uint64_t id);

  ServerConfig config_;
  std::map<std::pair<std::string, std::string>, std::size_t> routes_;  ///< -> ledger slot
  /// Shape fixed once start() runs (a deque, so slots never move as
  /// route() appends); recording touches only the slots' atomics.
  mutable std::deque<LedgerSlot> ledger_;
  std::atomic<std::uint64_t> accepted_{0};  ///< sockets accept()ed
  std::atomic<std::uint64_t> handled_{0};   ///< dispatched responses fully written
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: completion + stop wake-ups
  int port_ = 0;
  int effective_backlog_ = 0;
  std::chrono::steady_clock::time_point epoch_{};  ///< reactor time base
  std::thread reactor_thread_;
  std::unique_ptr<ThreadPool> pool_;

  // Reactor-private state. Connection *contents* are only ever touched
  // by the reactor thread; the table itself is mutex-guarded because
  // active_connections() snapshots its size from other threads.
  mutable Mutex conn_mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_
      MCB_GUARDED_BY(conn_mutex_);
  std::uint64_t next_conn_id_ = 0;  ///< reactor-only; never reused
  TimerWheel wheel_;                ///< reactor-only
  std::vector<std::uint64_t> expired_scratch_;          ///< reactor-only
  std::vector<std::unique_ptr<Connection>> closed_scratch_;  ///< deferred frees
  bool draining_ = false;           ///< reactor-only: stop() observed
  std::uint64_t drain_deadline_ms_ = 0;  ///< reactor-only

  mutable Mutex completion_mutex_;
  std::vector<Completion> completions_ MCB_GUARDED_BY(completion_mutex_);

  mutable obs::RequestTracer tracer_;
};

/// Blocking loopback HTTP client for tests/examples: send one request
/// (Connection: close) to 127.0.0.1:port and return the parsed response
/// body + status. Returns false on connection failure.
bool http_request(int port, const std::string& method, const std::string& path,
                  const std::string& body, int& status_out, std::string& body_out);

/// Parsed response from the full-fidelity client overload.
struct HttpClientResponse {
  int status = 0;
  std::string body;
  std::map<std::string, std::string> headers;  ///< lower-cased keys
};

/// Like http_request, but sends caller-supplied extra request headers
/// (e.g. X-Request-Id) and returns the response headers — used by the
/// trace-ID adoption/echo tests.
bool http_request(int port, const std::string& method, const std::string& path,
                  const std::string& body,
                  const std::vector<std::pair<std::string, std::string>>& extra_headers,
                  HttpClientResponse& response_out);

}  // namespace mcb
