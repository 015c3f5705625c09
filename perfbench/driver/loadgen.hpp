// Single-threaded HTTP/1.1 load generator for the benchmark driver.
//
// One epoll loop drives every connection. A stream is either open loop
// (requests are due at precomputed times and are written when due,
// pipelined behind whatever the connection still has outstanding) or
// closed loop (each connection sends its next request when the previous
// response arrives). Every request is timed from its due time, so a
// stall in the server charges its wait to every request scheduled
// behind it instead of silently delaying their sends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

/// A blocking TCP_NODELAY connection to 127.0.0.1:port, or -1.
int connect_loopback(int port);

/// CLOCK_MONOTONIC nanoseconds, the clock of every due/sent/done time.
std::int64_t now_ns();

/// One request the generator issued. Times are now_ns() values.
struct Request {
  std::uint32_t stream = 0;   ///< index of the stream that issued it
  std::uint32_t payload = 0;  ///< index into that stream's payloads
  std::int64_t due_ns = 0;    ///< when it was scheduled to be sent
  std::int64_t sent_ns = -1;  ///< when its last byte was handed to the socket
  std::int64_t done_ns = -1;  ///< when its response was complete
  int status = 0;             ///< HTTP status; 0 = dropped or never answered
  std::string body;           ///< response body
};

bool succeeded(const Request& request);

/// Latency from the due time in ms; +infinity when the request failed.
double due_latency_ms(const Request& request);

/// How late the generator wrote the request, in ms (sent - due).
double send_lateness_ms(const Request& request);

/// Evenly spaced offsets: first at `first_s`, then every `period_s`.
std::vector<std::int64_t> periodic_schedule(double first_s, double period_s,
                                            double duration_s);

/// A raw HTTP/1.1 request with a JSON body (empty body: no Content-Type).
std::string http_request(const std::string& method, const std::string& path,
                         const std::string& body);

struct Stream {
  std::string name;                   ///< label in span dumps, e.g. "POST /predict"
  std::vector<std::string> payloads;  ///< raw requests, used in order and cycled
  bool closed_loop = false;
  std::size_t connections = 1;
  /// Open loop: due offsets (ns from the phase start) for this phase.
  std::vector<std::int64_t> schedule;
};

class LoadGenerator {
 public:
  explicit LoadGenerator(int port);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Registers a stream and opens its connections; returns its index.
  std::size_t add_stream(Stream stream);
  Stream& stream(std::size_t index) { return streams_[index].spec; }

  /// Runs every stream for one phase: open-loop requests due in
  /// [start, start + duration) and closed-loop requests sent before
  /// start + duration; then waits up to `drain_ns` for the responses.
  /// Requests still unanswered after that count as failed. Returns the
  /// index of the first request this phase issued.
  std::size_t run_phase(std::int64_t start_ns, std::int64_t duration_ns,
                        std::int64_t drain_ns);

  const std::vector<Request>& requests() const noexcept { return requests_; }
  /// Connections lost while requests were outstanding on them.
  std::size_t drops() const noexcept { return drops_; }

 private:
  struct Pending {
    std::size_t request = 0;
    std::uint64_t end_byte = 0;  ///< cumulative offset of its last byte
  };
  struct Conn {
    int fd = -1;
    std::size_t stream = 0;
    std::string out;
    std::size_t out_off = 0;
    std::uint64_t queued = 0;   ///< bytes ever appended to out
    std::uint64_t written = 0;  ///< bytes ever written to the socket
    std::deque<Pending> inflight;
    std::size_t first_unsent = 0;  ///< index in inflight of the first unsent
    std::string in;
    std::size_t in_off = 0;
    std::uint64_t generation = 0;  ///< bumped each time the socket is replaced
  };
  struct StreamState {
    Stream spec;
    std::vector<std::size_t> conns;
    std::size_t next_payload = 0;
    std::size_t next_due = 0;
    std::size_t round_robin = 0;
  };

  void open_conn(std::size_t conn_index);
  void enqueue(std::size_t conn_index, std::int64_t due_ns);
  void flush(std::size_t conn_index);
  void read_responses(std::size_t conn_index);
  void drop_conn(std::size_t conn_index);
  bool anything_inflight() const;

  int port_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;  ///< wakes the loop at the next due time
  std::vector<Conn> conns_;
  std::vector<StreamState> streams_;
  std::vector<Request> requests_;
  std::int64_t phase_end_ns_ = 0;
  std::size_t drops_ = 0;
};

}  // namespace perfbench
