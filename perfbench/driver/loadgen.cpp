#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace perfbench {

namespace {

constexpr std::uint64_t kTimerTag = ~0ULL;

// Case-insensitive search for a header name at a line start.
std::size_t content_length(std::string_view head) {
  static constexpr std::string_view kName = "\r\ncontent-length:";
  for (std::size_t i = 0; i + kName.size() <= head.size(); ++i) {
    bool match = true;
    for (std::size_t k = 0; k < kName.size() && match; ++k) {
      match = std::tolower(static_cast<unsigned char>(head[i + k])) == kName[k];
    }
    if (match) return std::strtoull(head.data() + i + kName.size(), nullptr, 10);
  }
  return 0;
}

}  // namespace

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

bool succeeded(const Request& request) {
  return request.done_ns >= 0 && request.status >= 200 && request.status < 300;
}

double due_latency_ms(const Request& request) {
  if (!succeeded(request)) return std::numeric_limits<double>::infinity();
  return static_cast<double>(request.done_ns - request.due_ns) * 1e-6;
}

double send_lateness_ms(const Request& request) {
  if (request.sent_ns < 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(request.sent_ns - request.due_ns) * 1e-6;
}

std::vector<std::int64_t> periodic_schedule(double first_s, double period_s,
                                            double duration_s) {
  std::vector<std::int64_t> out;
  for (double t = first_s; t < duration_s; t += period_s) {
    out.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return out;
}

std::string http_request(const std::string& method, const std::string& path,
                         const std::string& body) {
  std::string out = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    out += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

LoadGenerator::LoadGenerator(int port) : port_(port) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0) throw std::runtime_error("epoll/timerfd setup failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTimerTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
}

LoadGenerator::~LoadGenerator() {
  for (const Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  ::close(timer_fd_);
  ::close(epoll_fd_);
}

std::size_t LoadGenerator::add_stream(Stream stream) {
  if (stream.payloads.empty() || stream.connections == 0) {
    throw std::invalid_argument("stream needs payloads and connections");
  }
  StreamState state;
  const std::size_t index = streams_.size();
  for (std::size_t c = 0; c < stream.connections; ++c) {
    conns_.emplace_back();
    conns_.back().stream = index;
    state.conns.push_back(conns_.size() - 1);
  }
  state.spec = std::move(stream);
  streams_.push_back(std::move(state));
  return index;
}

void LoadGenerator::open_conn(std::size_t conn_index) {
  Conn& conn = conns_[conn_index];
  conn.fd = connect_loopback(port_);
  if (conn.fd < 0) throw std::runtime_error("cannot connect to the server");
  ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = conn_index;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev);
}

void LoadGenerator::enqueue(std::size_t conn_index, std::int64_t due_ns) {
  Conn& conn = conns_[conn_index];
  if (conn.fd < 0) open_conn(conn_index);
  StreamState& stream = streams_[conn.stream];
  const std::size_t payload = stream.next_payload++ % stream.spec.payloads.size();
  Request request;
  request.stream = static_cast<std::uint32_t>(conn.stream);
  request.payload = static_cast<std::uint32_t>(payload);
  request.due_ns = due_ns;
  requests_.push_back(std::move(request));
  const std::string& bytes = stream.spec.payloads[payload];
  conn.out.append(bytes);
  conn.queued += bytes.size();
  conn.inflight.push_back({requests_.size() - 1, conn.queued});
  flush(conn_index);
}

void LoadGenerator::flush(std::size_t conn_index) {
  Conn& conn = conns_[conn_index];
  while (conn.fd >= 0 && conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) drop_conn(conn_index);
      break;
    }
    conn.out_off += static_cast<std::size_t>(n);
    conn.written += static_cast<std::uint64_t>(n);
  }
  if (conn.fd < 0) return;
  const std::int64_t now = now_ns();
  while (conn.first_unsent < conn.inflight.size() &&
         conn.inflight[conn.first_unsent].end_byte <= conn.written) {
    requests_[conn.inflight[conn.first_unsent].request].sent_ns = now;
    ++conn.first_unsent;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  } else if (conn.out_off > (1U << 20)) {
    conn.out.erase(0, conn.out_off);
    conn.out_off = 0;
  }
}

void LoadGenerator::read_responses(std::size_t conn_index) {
  Conn& conn = conns_[conn_index];
  const std::uint64_t generation = conn.generation;
  bool closed = false;
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.in.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) closed = true;
    break;
  }
  const std::int64_t now = now_ns();
  StreamState& stream = streams_[conn.stream];
  for (;;) {
    const std::string_view in(conn.in.data() + conn.in_off, conn.in.size() - conn.in_off);
    const std::size_t head_end = in.find("\r\n\r\n");
    if (head_end == std::string_view::npos) break;
    const std::size_t length = content_length(in.substr(0, head_end + 2));
    if (in.size() < head_end + 4 + length) break;
    if (conn.inflight.empty()) {  // an answer nobody asked for: protocol error
      closed = true;
      break;
    }
    Request& request = requests_[conn.inflight.front().request];
    request.status = in.size() > 12 ? std::atoi(std::string(in.substr(9, 3)).c_str()) : 0;
    request.body.assign(in.substr(head_end + 4, length));
    request.done_ns = now;
    conn.inflight.pop_front();
    if (conn.first_unsent > 0) --conn.first_unsent;
    conn.in_off += head_end + 4 + length;
    if (stream.spec.closed_loop && now < phase_end_ns_) {
      enqueue(conn_index, now);
      if (conn.generation != generation) return;  // the send failed; socket replaced
    }
  }
  if (conn.in_off == conn.in.size()) {
    conn.in.clear();
    conn.in_off = 0;
  }
  if (closed) drop_conn(conn_index);
}

void LoadGenerator::drop_conn(std::size_t conn_index) {
  Conn& conn = conns_[conn_index];
  if (conn.fd < 0) return;
  if (!conn.inflight.empty()) ++drops_;
  const std::int64_t now = now_ns();
  for (const Pending& pending : conn.inflight) {
    requests_[pending.request].status = 0;
    requests_[pending.request].done_ns = now;
  }
  conn.inflight.clear();
  conn.first_unsent = 0;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.fd = -1;
  conn.out.clear();
  conn.out_off = 0;
  conn.in.clear();
  conn.in_off = 0;
  conn.queued = conn.written = 0;
  ++conn.generation;
  // The next request reconnects; a closed-loop connection sends it now.
  if (streams_[conn.stream].spec.closed_loop && now < phase_end_ns_) enqueue(conn_index, now);
}

bool LoadGenerator::anything_inflight() const {
  for (const Conn& conn : conns_) {
    if (!conn.inflight.empty()) return true;
  }
  return false;
}

std::size_t LoadGenerator::run_phase(std::int64_t start_ns, std::int64_t duration_ns,
                                     std::int64_t drain_ns) {
  const std::size_t first_request = requests_.size();
  phase_end_ns_ = start_ns + duration_ns;
  const std::int64_t give_up_ns = phase_end_ns_ + drain_ns;
  // Connect the streams this phase uses before it starts. An idle one
  // stays closed: the server would time it out and count a 408.
  for (StreamState& stream : streams_) {
    stream.next_due = 0;
    if (!stream.spec.closed_loop && stream.spec.schedule.empty()) continue;
    for (const std::size_t conn : stream.conns) {
      if (conns_[conn].fd < 0) open_conn(conn);
    }
  }

  bool started = false;
  epoll_event events[64];
  for (;;) {
    const std::int64_t now = now_ns();
    if (!started && now >= start_ns) {
      started = true;
      for (StreamState& stream : streams_) {
        if (!stream.spec.closed_loop) continue;
        for (const std::size_t conn : stream.conns) enqueue(conn, start_ns);
      }
    }
    std::int64_t next_wake = started ? give_up_ns : start_ns;
    for (StreamState& stream : streams_) {
      if (stream.spec.closed_loop) continue;
      const auto& schedule = stream.spec.schedule;
      while (stream.next_due < schedule.size() &&
             start_ns + schedule[stream.next_due] <= now &&
             schedule[stream.next_due] < duration_ns) {
        const std::size_t conn = stream.conns[stream.round_robin++ % stream.conns.size()];
        enqueue(conn, start_ns + schedule[stream.next_due]);
        ++stream.next_due;
      }
      if (stream.next_due < schedule.size() && schedule[stream.next_due] < duration_ns) {
        next_wake = std::min(next_wake, start_ns + schedule[stream.next_due]);
      }
    }
    if (now >= phase_end_ns_ && !anything_inflight()) break;
    if (now >= give_up_ns) break;
    if (now < phase_end_ns_) next_wake = std::min(next_wake, phase_end_ns_);

    // Sleep until the next due time or a socket event. (Busy-polling
    // instead measured far worse server latency on a 4-vCPU VM: the
    // spinning core is taken from the server's threads.)
    itimerspec spec{};
    spec.it_value.tv_sec = next_wake / 1'000'000'000;
    spec.it_value.tv_nsec = next_wake % 1'000'000'000;
    ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
    const int ready = ::epoll_wait(epoll_fd_, events, 64, next_wake <= now ? 0 : -1);
    for (int i = 0; i < ready; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kTimerTag) {
        std::uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t got = ::read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      const auto conn = static_cast<std::size_t>(tag);
      if (conns_[conn].fd < 0) continue;
      if ((events[i].events & EPOLLOUT) != 0) flush(conn);
      if ((events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
        read_responses(conn);
      }
    }
  }
  // Whatever is still outstanding missed the drain budget: it failed.
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if (!conns_[c].inflight.empty()) drop_conn(c);
  }
  return first_request;
}

}  // namespace perfbench
