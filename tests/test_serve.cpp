// Tests for the serve module: HTTP parsing/serialization, the bounded
// connection executor (timeouts, load shedding, graceful shutdown), the
// /metrics surface, and the MCBound JSON API endpoints.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "serve/api.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "util/strings.hpp"
#include "workload/generator.hpp"

namespace mcb {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Raw loopback socket for misbehaving-client tests (http_request always
// sends a complete request, which is exactly what these tests must not do).
int connect_raw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Read until the server closes (or the 5 s client timeout trips).
std::string read_until_closed(int fd) {
  std::string received;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    received.append(buffer, static_cast<std::size_t>(n));
  }
  return received;
}

int parse_status(const std::string& wire) {
  const std::size_t sp = wire.find(' ');
  if (sp == std::string::npos) return -1;
  return std::atoi(wire.c_str() + sp + 1);
}

// ------------------------------------------------- rendered metrics
//
// Metric assertions read the registry families exactly as GET /metrics
// renders them (obs::render_json): {family: {type, help, points: [...]}}.

/// A bare server's families, rendered like the /metrics JSON body.
Json rendered_metrics(const HttpServer& server) {
  std::vector<obs::MetricFamily> families;
  server.collect_metrics(families);
  return obs::render_json(families);
}

/// The point of `family` whose labels are exactly `labels`, or nullptr.
const Json* find_point(const Json& metrics, const std::string& family,
                       const obs::LabelSet& labels) {
  for (const Json& point : metrics[family]["points"].as_array()) {
    const JsonObject& have = point["labels"].as_object();
    bool match = have.size() == labels.size();
    for (const auto& [key, value] : labels) {
      match = match && point["labels"][key].as_string() == value;
    }
    if (match) return &point;
  }
  return nullptr;
}

/// A counter/gauge value; 0 when the series is absent (the request
/// counters omit zero status classes).
double metric_value(const Json& metrics, const std::string& family,
                    const obs::LabelSet& labels = {}) {
  const Json* point = find_point(metrics, family, labels);
  return point != nullptr ? (*point)["value"].as_double() : 0.0;
}

/// Requests a route recorded: its latency histogram's sample count.
std::int64_t route_count(const Json& metrics, const std::string& route) {
  const Json* point = find_point(metrics, "mcb_http_request_duration_seconds", {{"route", route}});
  return point != nullptr ? (*point)["count"].as_int() : 0;
}

/// Requests of one status class on a route.
double route_class(const Json& metrics, const std::string& route, const std::string& cls) {
  return metric_value(metrics, "mcb_http_requests_total", {{"route", route}, {"class", cls}});
}

/// Requests a route counted, summed over its status classes.
double route_requests(const Json& metrics, const std::string& route) {
  double total = 0.0;
  for (const Json& point : metrics["mcb_http_requests_total"]["points"].as_array()) {
    if (point["labels"]["route"].as_string() == route) total += point["value"].as_double();
  }
  return total;
}

double connections(const Json& metrics, const std::string& event) {
  return metric_value(metrics, "mcb_http_connections_total", {{"event", event}});
}

/// One request ended in `outcome`: its route counted one request and one
/// latency sample, and the mcb_http_connections_total `event` behind it
/// agrees.
void expect_one_outcome(const Json& metrics, const std::string& outcome,
                        const std::string& event) {
  EXPECT_EQ(route_requests(metrics, outcome), 1.0) << outcome;
  EXPECT_EQ(route_count(metrics, outcome), 1) << outcome;
  EXPECT_EQ(connections(metrics, event), 1.0) << event;
}

/// A response header's value, or "" when absent.
std::string header(const HttpResponse& response, const std::string& key) {
  for (const auto& [name, value] : response.headers) {
    if (name == key) return value;
  }
  return "";
}

// ------------------------------------------------------------- parsing

TEST(HttpParse, SimpleGet) {
  const auto request = parse_http_request("GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/health");
  EXPECT_EQ(request->headers.at("host"), "x");
  EXPECT_TRUE(request->body.empty());
}

TEST(HttpParse, PostWithBody) {
  const std::string raw =
      "POST /predict HTTP/1.1\r\nContent-Type: application/json\r\n"
      "Content-Length: 11\r\n\r\n{\"a\":\"b\"}xx";
  const auto request = parse_http_request(raw);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->body, "{\"a\":\"b\"}xx");
}

TEST(HttpParse, QueryStringSplit) {
  const auto request = parse_http_request("GET /jobs?from=1&to=2 HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->path, "/jobs");
  EXPECT_EQ(request->query, "from=1&to=2");
}

TEST(HttpParse, HeaderKeysAreLowercased) {
  const auto request =
      parse_http_request("GET / HTTP/1.1\r\nX-CUSTOM-Header:  Value \r\n\r\n");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->headers.at("x-custom-header"), "Value");
}

TEST(HttpParse, RejectsMalformed) {
  EXPECT_FALSE(parse_http_request("").has_value());
  EXPECT_FALSE(parse_http_request("GET\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_request("GET /x\r\n\r\n").has_value());           // no version
  EXPECT_FALSE(parse_http_request("GET /x SMTP/1.0\r\n\r\n").has_value());  // bad proto
  EXPECT_FALSE(parse_http_request("GET /x HTTP/1.1\r\nbadheader\r\n\r\n").has_value());
}

TEST(HttpParse, IncompleteBodyIsRejected) {
  const std::string raw = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
  EXPECT_FALSE(parse_http_request(raw).has_value());
}

TEST(HttpParse, RejectsExtraSpacesInRequestLine) {
  // find/rfind splitting used to accept this with path "/a b".
  EXPECT_FALSE(parse_http_request("GET /a b HTTP/1.1\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_request("GET  /a HTTP/1.1\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_request("GET /a HTTP/1.1 \r\n\r\n").has_value());
  EXPECT_TRUE(parse_http_request("GET /a HTTP/1.1\r\n\r\n").has_value());
}

TEST(HttpParse, RejectsDuplicateContentLength) {
  // emplace used to silently keep the first value (smuggling vector).
  const std::string raw =
      "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nabcd";
  EXPECT_FALSE(parse_http_request(raw).has_value());
  // Other duplicate headers remain first-wins, not fatal.
  const auto ok = parse_http_request("GET / HTTP/1.1\r\nX-A: 1\r\nX-A: 2\r\n\r\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->headers.at("x-a"), "1");
}

TEST(HttpSerialize, ResponseWireFormat) {
  HttpResponse response = HttpResponse::json(404, "{}");
  const std::string wire = serialize_http_response(response);
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{}"), std::string::npos);
}

TEST(HttpSerialize, ExpectedRequestLength) {
  EXPECT_EQ(expected_request_length("GET / HTTP/1.1"), 0U);  // incomplete head
  const std::string head = "GET / HTTP/1.1\r\n\r\n";
  EXPECT_EQ(expected_request_length(head), head.size());
  const std::string with_body = "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n";
  EXPECT_EQ(expected_request_length(with_body), with_body.size() + 5);
}

TEST(HttpSerialize, InvalidContentLengthFramingIsFlagged) {
  // Unparsable Content-Length used to fall through to "no body", silently
  // truncating the request instead of rejecting it.
  EXPECT_EQ(expected_request_length("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
            kInvalidRequestFraming);
  EXPECT_EQ(expected_request_length("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"),
            kInvalidRequestFraming);
  EXPECT_EQ(expected_request_length(
                "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\n"),
            kInvalidRequestFraming);
}

// ------------------------------------------------------------- routing

TEST(HttpServer, DispatchRoutesAndErrors) {
  HttpServer server;
  server.route("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse::json(200, R"({"pong":true})");
  });
  HttpRequest ok{"GET", "/ping", "", {}, ""};
  EXPECT_EQ(server.dispatch(ok).status, 200);
  HttpRequest wrong_method{"POST", "/ping", "", {}, ""};
  EXPECT_EQ(server.dispatch(wrong_method).status, 405);
  HttpRequest missing{"GET", "/nope", "", {}, ""};
  EXPECT_EQ(server.dispatch(missing).status, 404);
}

TEST(HttpServer, HandlerExceptionsBecome500) {
  HttpServer server;
  server.route("GET", "/boom",
               [](const HttpRequest&) -> HttpResponse { throw std::runtime_error("bad"); });
  HttpRequest request{"GET", "/boom", "", {}, ""};
  const auto response = server.dispatch(request);
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("bad"), std::string::npos);
}

TEST(HttpServer, HandlerExceptionMessageIsJsonEscaped) {
  // A what() containing quotes/backslashes used to splice raw into the
  // 500 body and produce malformed JSON.
  HttpServer server;
  server.route("GET", "/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error(R"(bad "quote" and \backslash)");
  });
  HttpRequest request{"GET", "/boom", "", {}, ""};
  const auto response = server.dispatch(request);
  EXPECT_EQ(response.status, 500);
  const auto json = Json::parse(response.body);
  ASSERT_TRUE(json.has_value()) << response.body;
  EXPECT_EQ((*json)["error"].as_string(), R"(bad "quote" and \backslash)");
}

TEST(HttpServer, SocketRoundTrip) {
  HttpServer server;
  server.route("POST", "/echo", [](const HttpRequest& request) {
    return HttpResponse::json(200, request.body);
  });
  ASSERT_TRUE(server.start(0));
  ASSERT_GT(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(http_request(server.port(), "POST", "/echo", R"({"x":1})", status, body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, R"({"x":1})");

  ASSERT_TRUE(http_request(server.port(), "GET", "/missing", "", status, body));
  EXPECT_EQ(status, 404);
  server.stop();
  EXPECT_FALSE(server.is_running());
}

TEST(HttpServer, ConcurrentRequests) {
  HttpServer server;
  server.route("GET", "/n", [](const HttpRequest&) {
    return HttpResponse::json(200, "{}");
  });
  ASSERT_TRUE(server.start(0));
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&server, &ok_count] {
      int status = 0;
      std::string body;
      if (http_request(server.port(), "GET", "/n", "", status, body) && status == 200) {
        ok_count.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok_count.load(), 8);
  server.stop();
}

// ------------------------------------------------- connection executor

TEST(HttpServer, SlowClientTimesOutAndStopIsPrompt) {
  // Regression: a client that connects and sends nothing used to pin a
  // worker in recv() forever and make stop() hang in join().
  ServerConfig config;
  config.worker_threads = 2;
  config.recv_timeout_ms = 100;
  config.request_deadline_ms = 400;
  config.drain_timeout_ms = 1000;
  HttpServer server(config);
  server.route("GET", "/n",
               [](const HttpRequest&) { return HttpResponse::json(200, "{}"); });
  ASSERT_TRUE(server.start(0));

  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  const auto started = Clock::now();
  const std::string wire = read_until_closed(fd);  // send nothing
  ::close(fd);
  EXPECT_EQ(parse_status(wire), 408);
  EXPECT_LT(seconds_since(started), 2.0);
  EXPECT_GE(connections(rendered_metrics(server), "timed_out"), 1.0);

  const auto stop_started = Clock::now();
  server.stop();
  EXPECT_LT(seconds_since(stop_started), 1.5);
  EXPECT_FALSE(server.is_running());
}

TEST(HttpServer, PartialRequestTimesOut) {
  ServerConfig config;
  config.recv_timeout_ms = 100;
  config.request_deadline_ms = 400;
  HttpServer server(config);
  ASSERT_TRUE(server.start(0));
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  const std::string partial = "GET /n";  // no header terminator, ever
  ASSERT_GT(::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL), 0);
  const auto started = Clock::now();
  const std::string wire = read_until_closed(fd);
  ::close(fd);
  EXPECT_EQ(parse_status(wire), 408);
  EXPECT_LT(seconds_since(started), 2.0);
  server.stop();
  expect_one_outcome(rendered_metrics(server), "(timeout)", "timed_out");
}

TEST(HttpServer, InvalidContentLengthIsImmediate400) {
  // Must be rejected as soon as the head arrives — not parsed with a
  // truncated body and not held until a timeout.
  ServerConfig config;
  config.recv_timeout_ms = 2000;  // large: the 400 must not wait for it
  HttpServer server(config);
  server.route("POST", "/n",
               [](const HttpRequest&) { return HttpResponse::json(200, "{}"); });
  ASSERT_TRUE(server.start(0));
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  const std::string raw = "POST /n HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
  ASSERT_GT(::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL), 0);
  const auto started = Clock::now();
  const std::string wire = read_until_closed(fd);
  ::close(fd);
  EXPECT_EQ(parse_status(wire), 400);
  EXPECT_LT(seconds_since(started), 1.0);
  server.stop();
  expect_one_outcome(rendered_metrics(server), "(bad_framing)", "malformed");
}

TEST(HttpServer, QueueFullSheds503) {
  ServerConfig config;
  config.worker_threads = 1;
  config.max_pending = 0;  // admit only when the one worker is idle
  HttpServer server(config);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> entered{false};
  server.route("GET", "/block", [&](const HttpRequest&) {
    entered.store(true);
    released.wait();
    return HttpResponse::json(200, "{}");
  });
  ASSERT_TRUE(server.start(0));

  std::thread blocker([&] {
    int status = 0;
    std::string body;
    http_request(server.port(), "GET", "/block", "", status, body);
    EXPECT_EQ(status, 200);
  });
  while (!entered.load()) std::this_thread::yield();

  // The single worker is pinned and the queue holds nothing: shed.
  int status = 0;
  std::string body;
  ASSERT_TRUE(http_request(server.port(), "GET", "/block", "", status, body));
  EXPECT_EQ(status, 503);

  release.set_value();
  blocker.join();
  server.stop();
  const Json metrics = rendered_metrics(server);
  expect_one_outcome(metrics, "(shed)", "rejected");
  EXPECT_EQ(route_class(metrics, "(shed)", "5xx"), 1.0);
  EXPECT_EQ(route_count(metrics, "GET /block"), 1);
}

TEST(HttpServer, StopUnderLoadCompletesWithinDrainDeadline) {
  ServerConfig config;
  config.worker_threads = 4;
  config.drain_timeout_ms = 1500;
  HttpServer server(config);
  server.route("GET", "/slow", [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return HttpResponse::json(200, "{}");
  });
  ASSERT_TRUE(server.start(0));

  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&server] {
      int status = 0;
      std::string body;
      http_request(server.port(), "GET", "/slow", "", status, body);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // some in flight

  const auto stop_started = Clock::now();
  server.stop();
  EXPECT_LT(seconds_since(stop_started), 3.0);
  EXPECT_FALSE(server.is_running());
  for (auto& c : clients) c.join();
}

TEST(HttpServer, StatsCountersAndMetricsJson) {
  HttpServer server;
  server.route("GET", "/n",
               [](const HttpRequest&) { return HttpResponse::json(200, "{}"); });
  ASSERT_TRUE(server.start(0));
  int status = 0;
  std::string body;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(http_request(server.port(), "GET", "/n", "", status, body));
    EXPECT_EQ(status, 200);
  }
  ASSERT_TRUE(http_request(server.port(), "GET", "/missing", "", status, body));
  EXPECT_EQ(status, 404);
  server.stop();

  const Json metrics = rendered_metrics(server);
  EXPECT_GE(connections(metrics, "accepted"), 4.0);
  EXPECT_GE(connections(metrics, "handled"), 4.0);
  EXPECT_EQ(route_count(metrics, "GET /n"), 3);
  EXPECT_EQ(route_class(metrics, "GET /n", "2xx"), 3.0);
  const Json* latency =
      find_point(metrics, "mcb_http_request_duration_seconds", {{"route", "GET /n"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_GT((*latency)["sum"].as_double(), 0.0);
  EXPECT_EQ(route_count(metrics, "(unmatched)"), 1);
}

TEST(HttpServer, StatusClassesPartitionRouteCounts) {
  // record_route used to fold everything below 400 into 2xx; 1xx/3xx
  // now land in "other" and the classes partition the route count.
  HttpServer server;
  server.route("GET", "/boom",
               [](const HttpRequest&) -> HttpResponse { throw std::runtime_error("x"); });
  server.route("GET", "/redirect",
               [](const HttpRequest&) { return HttpResponse::json(302, "{}"); });
  HttpRequest boom{"GET", "/boom", "", {}, ""};
  EXPECT_EQ(server.dispatch(boom).status, 500);
  HttpRequest redirect{"GET", "/redirect", "", {}, ""};
  EXPECT_EQ(server.dispatch(redirect).status, 302);

  const Json metrics = rendered_metrics(server);
  EXPECT_EQ(route_count(metrics, "GET /boom"), 1);
  EXPECT_EQ(route_class(metrics, "GET /boom", "5xx"), 1.0);
  EXPECT_EQ(route_class(metrics, "GET /boom", "2xx"), 0.0);
  EXPECT_EQ(route_count(metrics, "GET /redirect"), 1);
  EXPECT_EQ(route_class(metrics, "GET /redirect", "other"), 1.0);
  EXPECT_EQ(route_class(metrics, "GET /redirect", "2xx"), 0.0);
  // A handler failure is a dispatched request, not a protocol error.
  EXPECT_EQ(connections(metrics, "malformed"), 0.0);
}

TEST(HttpServer, ThrowingHandlerCountsExactlyOnceOverSocket) {
  HttpServer server;
  server.route("GET", "/boom",
               [](const HttpRequest&) -> HttpResponse { throw std::runtime_error("x"); });
  ASSERT_TRUE(server.start(0));
  int status = 0;
  std::string body;
  ASSERT_TRUE(http_request(server.port(), "GET", "/boom", "", status, body));
  EXPECT_EQ(status, 500);
  server.stop();

  const Json metrics = rendered_metrics(server);
  EXPECT_EQ(connections(metrics, "malformed"), 0.0);
  EXPECT_EQ(connections(metrics, "handled"), 1.0);
  EXPECT_EQ(route_count(metrics, "GET /boom"), 1);
  EXPECT_EQ(route_class(metrics, "GET /boom", "5xx"), 1.0);
}

TEST(HttpServer, OversizedRequestIsMalformedOnlyNotARoute) {
  // The connection-level 413 never reaches dispatch: it must count once
  // under "(too_large)" and `malformed`, and leave its route untouched.
  ServerConfig config;
  config.max_request_bytes = 128;
  HttpServer server(config);
  server.route("POST", "/n",
               [](const HttpRequest&) { return HttpResponse::json(200, "{}"); });
  ASSERT_TRUE(server.start(0));
  int status = 0;
  std::string out;
  ASSERT_TRUE(http_request(server.port(), "POST", "/n", std::string(1024, 'x'), status, out));
  EXPECT_EQ(status, 413);
  server.stop();

  const Json metrics = rendered_metrics(server);
  expect_one_outcome(metrics, "(too_large)", "malformed");
  EXPECT_EQ(find_point(metrics, "mcb_http_request_duration_seconds", {{"route", "POST /n"}}),
            nullptr);
  for (const Json& point : metrics["mcb_http_requests_total"]["points"].as_array()) {
    EXPECT_NE(point["labels"]["route"].as_string(), "POST /n");
  }
}

TEST(HttpServer, MalformedLineAndVanishedClientAreCountedAndTraced) {
  // The two outcomes the reactor records without a handler that the
  // tests above do not reach: a well-framed but unparsable request line
  // (400) and a client that closes mid-request (499, no response).
  HttpServer server;
  server.route("GET", "/n",
               [](const HttpRequest&) { return HttpResponse::json(200, "{}"); });
  ASSERT_TRUE(server.start(0));

  const int bad = connect_raw(server.port());
  ASSERT_GE(bad, 0);
  const std::string line = "GET  /n HTTP/1.1\r\n\r\n";  // two spaces: framed, unparsable
  ASSERT_GT(::send(bad, line.data(), line.size(), MSG_NOSIGNAL), 0);
  EXPECT_EQ(parse_status(read_until_closed(bad)), 400);
  ::close(bad);

  const int gone = connect_raw(server.port());
  ASSERT_GE(gone, 0);
  const std::string partial = "GET /n HTTP/1.1\r\nHost: x";
  ASSERT_GT(::send(gone, partial.data(), partial.size(), MSG_NOSIGNAL), 0);
  ASSERT_EQ(::shutdown(gone, SHUT_WR), 0);
  EXPECT_TRUE(read_until_closed(gone).empty());  // closed without a response
  ::close(gone);
  server.stop();

  const Json metrics = rendered_metrics(server);
  for (const char* outcome : {"(malformed)", "(client_gone)"}) {
    EXPECT_EQ(route_requests(metrics, outcome), 1.0) << outcome;
    EXPECT_EQ(route_count(metrics, outcome), 1) << outcome;
  }
  EXPECT_EQ(route_class(metrics, "(malformed)", "4xx"), 1.0);
  EXPECT_EQ(route_class(metrics, "(client_gone)", "4xx"), 1.0);
  EXPECT_EQ(connections(metrics, "malformed"), 2.0);
  EXPECT_EQ(connections(metrics, "handled"), 0.0);
  // The same function finished both traces: each errored request is in
  // the flight recorder exactly once.
  std::map<std::string, int> traced;
  const Json recorded = server.tracer().debug_requests_json(64);
  for (const Json& entry : recorded["requests"].as_array()) {
    ++traced[entry["route"].as_string() + " " + std::to_string(entry["status"].as_int())];
  }
  EXPECT_EQ(traced["(malformed) 400"], 1);
  EXPECT_EQ(traced["(client_gone) 499"], 1);
}

TEST(HttpServer, RequestCountsMatchLatencyCountsInEveryScrape) {
  // Each route's status-class counters are its latency histogram's
  // sample counts, so a scrape racing live requests still sees the two
  // families agree.
  HttpServer server;
  server.route("GET", "/ok", [](const HttpRequest&) { return HttpResponse::json(200, "{}"); });
  server.route("GET", "/err", [](const HttpRequest&) { return HttpResponse::json(503, "{}"); });
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (const char* path : {"/ok", "/err", "/missing"}) {
    clients.emplace_back([&server, &done, path] {
      HttpRequest request{"GET", path, "", {}, ""};
      while (!done.load()) (void)server.dispatch(request);
    });
  }
  for (int scrape = 0; scrape < 200; ++scrape) {
    const Json metrics = rendered_metrics(server);
    for (const char* route : {"GET /ok", "GET /err", "(unmatched)"}) {
      EXPECT_EQ(route_requests(metrics, route), static_cast<double>(route_count(metrics, route)))
          << route;
    }
  }
  done.store(true);
  for (auto& client : clients) client.join();
}

// --------------------------------------------- reactor-specific behavior

// Read exactly `n` complete HTTP responses off a raw socket (framed via
// Content-Length), for keep-alive tests where the server does not close.
std::vector<std::string> read_responses(int fd, std::size_t n) {
  std::vector<std::string> responses;
  std::string buffer;
  char chunk[4096];
  while (responses.size() < n) {
    const std::size_t head_end = buffer.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      std::size_t body_len = 0;
      const std::string head = buffer.substr(0, head_end);
      const std::size_t cl = to_lower(head).find("content-length:");
      if (cl != std::string::npos) {
        body_len = static_cast<std::size_t>(std::atoi(head.c_str() + cl + 15));
      }
      const std::size_t total = head_end + 4 + body_len;
      if (buffer.size() >= total) {
        responses.push_back(buffer.substr(0, total));
        buffer.erase(0, total);
        continue;
      }
    }
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;  // closed or client timeout: return what we have
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
  return responses;
}

TEST(HttpReactor, SlowLorisRequestCompletesAcrossManyWakeups) {
  // A client dripping one byte per write forces the reactor to resume
  // the same partial request over dozens of epoll wakeups; the request
  // must still parse and dispatch once the last byte lands.
  HttpServer server;
  server.route("GET", "/drip",
               [](const HttpRequest&) { return HttpResponse::json(200, R"({"ok":1})"); });
  ASSERT_TRUE(server.start(0));
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  const std::string request = "GET /drip HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  for (const char byte : request) {
    ASSERT_EQ(::send(fd, &byte, 1, 0), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::string wire = read_until_closed(fd);
  ::close(fd);
  server.stop();
  EXPECT_EQ(parse_status(wire), 200);
  EXPECT_NE(wire.find(R"({"ok":1})"), std::string::npos);
  const Json metrics = rendered_metrics(server);
  EXPECT_EQ(connections(metrics, "handled"), 1.0);
  EXPECT_EQ(connections(metrics, "timed_out"), 0.0);
}

TEST(HttpReactor, KeepAliveSequenceReusesOneConnection) {
  HttpServer server;
  server.route("GET", "/ka",
               [](const HttpRequest&) { return HttpResponse::json(200, R"({"n":1})"); });
  ASSERT_TRUE(server.start(0));
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  const std::string request = "GET /ka HTTP/1.1\r\nHost: x\r\n\r\n";  // 1.1: keep-alive
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    const auto responses = read_responses(fd, 1);
    ASSERT_EQ(responses.size(), 1u) << "request " << i << " got no response";
    EXPECT_EQ(parse_status(responses[0]), 200);
    EXPECT_NE(to_lower(responses[0]).find("connection: keep-alive"), std::string::npos);
  }
  ::close(fd);
  server.stop();
  // All three requests rode one accepted connection and its reused buffers.
  const Json metrics = rendered_metrics(server);
  EXPECT_EQ(connections(metrics, "accepted"), 1.0);
  EXPECT_EQ(connections(metrics, "handled"), 3.0);
}

TEST(HttpReactor, PipelinedBurstIsAnsweredInOrder) {
  HttpServer server;
  for (const std::string path : {"/p0", "/p1", "/p2", "/p3"}) {
    server.route("GET", path, [path](const HttpRequest&) {
      return HttpResponse::json(200, R"({"path":")" + path + R"("})");
    });
  }
  ASSERT_TRUE(server.start(0));
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  // One write carrying four pipelined requests; responses must come back
  // complete and in request order even though handlers run on a pool.
  std::string burst;
  for (int i = 0; i < 4; ++i) {
    burst += "GET /p" + std::to_string(i) + " HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0), static_cast<ssize_t>(burst.size()));
  const auto responses = read_responses(fd, 4);
  ::close(fd);
  server.stop();
  ASSERT_EQ(responses.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(parse_status(responses[i]), 200);
    EXPECT_NE(responses[i].find(R"({"path":"/p)" + std::to_string(i) + R"("})"),
              std::string::npos)
        << "response " << i << " out of order: " << responses[i];
  }
  EXPECT_EQ(connections(rendered_metrics(server), "handled"), 4.0);
}

TEST(HttpReactor, HalfCloseStillReceivesTheResponse) {
  // shutdown(SHUT_WR) after the request is a legal HTTP close handshake:
  // the server sees EOF on its read side but must still send the
  // response before closing.
  HttpServer server;
  server.route("GET", "/hc",
               [](const HttpRequest&) { return HttpResponse::json(200, R"({"hc":1})"); });
  ASSERT_TRUE(server.start(0));
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  const std::string request = "GET /hc HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::string wire = read_until_closed(fd);
  ::close(fd);
  server.stop();
  EXPECT_EQ(parse_status(wire), 200);
  EXPECT_NE(wire.find(R"({"hc":1})"), std::string::npos);
  const Json metrics = rendered_metrics(server);
  EXPECT_EQ(connections(metrics, "handled"), 1.0);
  EXPECT_EQ(connections(metrics, "malformed"), 0.0);
}

TEST(HttpReactor, StopHammerUnderConcurrentConnectionChurn) {
  // TSan-facing: clients connect/request/disconnect at full speed while
  // the main thread stops the server mid-flight. No outcome assertions
  // beyond accounting sanity — the point is that the reactor, the
  // handler pool and stop() race cleanly.
  ServerConfig config;
  config.worker_threads = 4;
  config.drain_timeout_ms = 500;
  HttpServer server(config);
  server.route("GET", "/churn",
               [](const HttpRequest&) { return HttpResponse::json(200, "{}"); });
  ASSERT_TRUE(server.start(0));
  const int port = server.port();
  std::atomic<bool> go{true};
  std::vector<std::thread> clients;
  clients.reserve(4);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([port, &go] {
      while (go.load()) {
        int status = 0;
        std::string body;
        // Failures are expected once stop() lands; just keep churning.
        (void)http_request(port, "GET", "/churn", "", status, body);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  server.stop();
  go.store(false);
  for (auto& t : clients) t.join();
  EXPECT_FALSE(server.is_running());
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST(HttpReactor, BacklogIsConfigurableAndClampReported) {
  ServerConfig config;
  config.listen_backlog = 1 << 20;  // far beyond any somaxconn
  HttpServer server(config);
  ASSERT_TRUE(server.start(0));
  // The effective backlog is the configured value clamped to the
  // kernel's somaxconn — never zero, never above the request.
  EXPECT_GT(server.effective_backlog(), 0);
  EXPECT_LE(server.effective_backlog(), config.listen_backlog);
  const Json metrics = rendered_metrics(server);
  EXPECT_EQ(metric_value(metrics, "mcb_http_server_state", {{"kind", "listen_backlog"}}),
            static_cast<double>(server.effective_backlog()));
  server.stop();
}

// ----------------------------------------------------- job JSON mapping

TEST(JobJson, RoundTrip) {
  JobRecord job;
  job.job_id = 7;
  job.user_name = "u00001";
  job.job_name = "wrf_sim";
  job.environment = "lang/tcsds";
  job.nodes_requested = 4;
  job.cores_requested = 192;
  job.frequency = FrequencyMode::kBoost;
  job.submit_time = 1000;
  job.start_time = 1100;
  job.end_time = 2100;
  job.nodes_allocated = 4;
  job.perf2 = 1e12;
  job.perf3 = 2e12;
  job.perf4 = 3e12;
  job.perf5 = 4e12;

  const auto parsed = job_from_json(job_to_json(job));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->job_id, 7U);
  EXPECT_EQ(parsed->job_name, "wrf_sim");
  EXPECT_EQ(parsed->frequency, FrequencyMode::kBoost);
  EXPECT_DOUBLE_EQ(parsed->perf4, 3e12);
  EXPECT_EQ(parsed->duration(), 1000);
}

TEST(JobJson, DefaultsAndValidation) {
  std::string error;
  // Minimal valid job: just a name.
  const auto minimal = job_from_json(*Json::parse(R"({"job_name":"x"})"), &error);
  ASSERT_TRUE(minimal.has_value()) << error;
  EXPECT_EQ(minimal->nodes_requested, 1U);
  EXPECT_EQ(minimal->frequency, FrequencyMode::kNormal);
  EXPECT_EQ(minimal->nodes_allocated, 1U);

  EXPECT_FALSE(job_from_json(*Json::parse(R"({})"), &error).has_value());
  EXPECT_FALSE(
      job_from_json(*Json::parse(R"({"job_name":"x","nodes_requested":0})"), &error)
          .has_value());
  EXPECT_FALSE(job_from_json(*Json::parse(R"([1,2,3])"), &error).has_value());

  // An integer outside its field's type is rejected, never wrapped or
  // truncated: 2^32 + 48 cores is not a 48-core job.
  for (const char* body : {R"({"job_name":"x","cores_requested":4294967344})",
                           R"({"job_name":"x","nodes_requested":4294967296})",
                           R"({"job_name":"x","nodes_allocated":-1})",
                           R"({"job_name":"x","exit_status":2147483648})",
                           R"({"job_name":"x","job_id":-1})",
                           R"({"job_name":"x","end_time":1e300})"}) {
    EXPECT_FALSE(job_from_json(*Json::parse(body), &error).has_value()) << body;
  }
  EXPECT_EQ(error, "end_time is out of range");
  // The extremes of each type still decode.
  const auto widest = job_from_json(*Json::parse(R"({"job_name":"x","cores_requested":4294967295,)"
                                                  R"("exit_status":-2147483648,)"
                                                  R"("job_id":9007199254740992})"),
                                     &error);
  ASSERT_TRUE(widest.has_value()) << error;
  EXPECT_EQ(widest->cores_requested, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(widest->exit_status, std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(widest->job_id, 9007199254740992U);

  // Integers decode exactly or not at all: 2^53 + 1 up to 2^64 - 1 are
  // kept to the unit (the job_id range the CSV loader accepts too); 2^64
  // and 1e20 have no exact job_id.
  for (const std::uint64_t id : {9007199254740993ULL, 9223372036854775807ULL,
                                 9223372036854775808ULL, 18446744073709551615ULL}) {
    const std::string body = R"({"job_name":"x","job_id":)" + std::to_string(id) + "}";
    const auto exact = job_from_json(*Json::parse(body), &error);
    ASSERT_TRUE(exact.has_value()) << error;
    EXPECT_EQ(exact->job_id, id);
    EXPECT_EQ(job_to_json(*exact)["job_id"].dump(), std::to_string(id));
  }
  for (const char* body : {R"({"job_name":"x","job_id":18446744073709551616})",
                           R"({"job_name":"x","job_id":1e20})"}) {
    error.clear();
    EXPECT_FALSE(job_from_json(*Json::parse(body), &error).has_value()) << body;
    EXPECT_EQ(error, "job_id is out of range") << body;
  }
  // frequency_mhz has no range check, so a value past int64_t reads as
  // its sign says: huge is boost, hugely negative is normal, in both
  // decoders.
  const std::pair<const char*, FrequencyMode> frequencies[] = {
      {R"({"job_name":"x","frequency_mhz":1e19})", FrequencyMode::kBoost},
      {R"({"job_name":"x","frequency_mhz":1e18})", FrequencyMode::kBoost},
      {R"({"job_name":"x","frequency_mhz":2200})", FrequencyMode::kBoost},
      {R"({"job_name":"x","frequency_mhz":-1e19})", FrequencyMode::kNormal},
  };
  for (const auto& [body, mode] : frequencies) {
    const auto dom = job_from_json(*Json::parse(body), &error);
    ASSERT_TRUE(dom.has_value()) << error;
    EXPECT_EQ(dom->frequency, mode) << body;
    const auto pass = decode_job_body(body, &error);
    ASSERT_TRUE(pass.has_value()) << error;
    EXPECT_EQ(pass->frequency, mode) << body;
  }
  // The existing checks keep their messages.
  const std::pair<const char*, const char*> messages[] = {
      {R"({})", "missing job_name"},
      {R"({"job_name":"x","nodes_requested":0})", "nodes/cores must be positive"},
      {R"([1,2,3])", "job must be a JSON object"},
      {R"({"job_name":"x","cores_requested":4294967344})", "cores_requested is out of range"},
      {R"({"job_name":"x","nodes_allocated":-1})", "nodes_allocated is out of range"},
  };
  for (const auto& [body, message] : messages) {
    EXPECT_FALSE(job_from_json(*Json::parse(body), &error).has_value()) << body;
    EXPECT_EQ(error, message) << body;
  }
}

/// Bytes of address space the process maps now (/proc/self/statm).
std::size_t mapped_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  statm >> pages;
  return pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// Runs `work` with the address space capped at what is mapped now plus
/// `headroom`; false if it ran out of memory.
bool fits_in(std::size_t headroom, const std::function<void()>& work) {
  rlimit saved{};
  if (::getrlimit(RLIMIT_AS, &saved) != 0) return false;
  rlimit capped = saved;
  capped.rlim_cur = std::min<rlim_t>(saved.rlim_max, mapped_bytes() + headroom);
  if (::setrlimit(RLIMIT_AS, &capped) != 0) return false;
  bool fits = true;
  try {
    work();
  } catch (const std::bad_alloc&) {
    fits = false;
  }
  ::setrlimit(RLIMIT_AS, &saved);
  return fits;
}

TEST(JobJson, SkippedValuesBuildNothing) {
  // The request decoders keep only the job members they use. What they
  // skip (unknown members, a repeated "jobs" or job member, a member of
  // the wrong type, the jobs after a bad one or past the batch cap) is
  // checked but never built, so a body of the largest accepted size
  // decodes in a fixed memory budget, however much of it is skipped.
  // Built as a Json tree with a member vector reserved per object, each
  // 1 MB pad below would take over 100 MB.
  constexpr std::size_t kBudget = 64 << 20;
  std::string pad;
  while (pad.size() < (1U << 20)) {
    pad += R"({},{},{},{},{},{},{},{},[[]],{"k":"v\u00e9","n":-1.5e3,"t":[true,null]},)";
  }
  pad += "{}";
  const std::string one = R"({"job_name":"x","perf2":[)" + pad + R"(],"u":{"v":[)" + pad +
                          R"(]},"job_name":[)" + pad + "]}";
  std::optional<JobRecord> job;
  EXPECT_TRUE(fits_in(kBudget, [&] { job = decode_job_body(one); }));
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->job_name, "x");

  std::string full_batch;
  for (std::size_t i = 0; i < kMaxClassifyBatch; ++i) full_batch += R"({"job_name":"x"},)";
  const std::string batches[] = {
      R"({"pad":[)" + pad + R"(],"jobs":[{"job_name":"x","extra":[)" + pad +
          R"(],"job_name":[)" + pad + R"(]}],"jobs":[)" + pad + "]}",
      R"({"jobs":[{"job_name":"x","job_id":-1},{"job_name":"y","x":[)" + pad + "]},[" + pad +
          "],[" + pad + "]]}",
      R"({"jobs":[)" + full_batch + pad + "," + pad + "]}",
  };
  const std::pair<int, std::string> answers[] = {
      {200, ""},
      {400, "jobs[0]: job_id is out of range"},
      {413, "batch too large (max 4096 jobs)"},
  };
  for (std::size_t i = 0; i < std::size(batches); ++i) {
    std::vector<JobRecord> jobs;
    int status = 0;
    std::string error;
    bool decoded = false;
    const auto decode = [&] { decoded = decode_batch_body(batches[i], jobs, status, &error); };
    EXPECT_TRUE(fits_in(kBudget, decode)) << i;
    EXPECT_EQ(decoded, status == 200) << i;
    EXPECT_EQ(status, answers[i].first) << i;
    EXPECT_EQ(error, answers[i].second) << i;
  }

  // Json::parse (the /train body) builds what it reads, but an empty
  // object costs only its slot in the array: about 32 MB at the peak for
  // 1 MB of "{},", where a member vector reserved per object would take
  // 400 MB.
  std::string empties = "[{}";
  while (empties.size() < (1U << 20)) empties += ",{}";
  empties += "]";
  std::optional<Json> parsed;
  EXPECT_TRUE(fits_in(2 * kBudget, [&] { parsed = Json::parse(empties); }));
  EXPECT_TRUE(parsed.has_value());
}

TEST(JobJson, OnePassDecodeMatchesTheDom) {
  // The request decoders read the body once, without a Json tree; they
  // must agree with Json::parse + job_from_json on every job and error.
  const char* bodies[] = {
      R"({"job_name":"a","job_name":"b","nodes_requested":2,"nodes_requested":0})",
      R"({"job_name":5,"job_name":"late"})",
      R"({"extra":{"deep":[1,{"x":null}]},"job_name":"j\u00e9\n","perf2":1e3,"frequency_mhz":2200})",
      R"({"job_name":"x","job_id":9007199254740993,"exit_status":-1,"avg_power_watts":7})",
      R"({"job_name":"x","nodes_requested":"3","cores_requested":2.6})",
      R"({"job_name":"x","end_time":1e300})",
      R"({"job_name":"x",})",
      R"([{"job_name":"x"}])",
      R"({"job_name":"x"} trailing)",
  };
  for (const char* body : bodies) {
    std::string dom_error;
    std::string pass_error;
    const auto json = Json::parse(body, &dom_error);
    std::optional<JobRecord> dom;
    if (json.has_value()) {
      dom = job_from_json(*json, &dom_error);
    } else {
      dom_error = "invalid JSON: " + dom_error;
    }
    const auto pass = decode_job_body(body, &pass_error);
    ASSERT_EQ(dom.has_value(), pass.has_value()) << body;
    if (!dom.has_value()) {
      EXPECT_EQ(pass_error, dom_error) << body;
      continue;
    }
    EXPECT_EQ(job_to_json(*pass), job_to_json(*dom)) << body;
    EXPECT_EQ(pass->job_id, dom->job_id) << body;
  }

  // A batch answers in the same order as before: syntax, shape, empty,
  // size (413), then the first bad job by index.
  std::vector<JobRecord> jobs;
  int status = 0;
  std::string error;
  const std::string big = [] {
    std::string body = R"({"jobs":[)";
    for (std::size_t i = 0; i <= kMaxClassifyBatch; ++i) body += i > 0 ? ",{}" : "{}";
    return body + "]}";
  }();
  const std::tuple<std::string, int, std::string> cases[] = {
      {R"({"jobs":[{"user_name":"u"},[)", 400, "invalid JSON: unexpected end of input at offset 28"},
      {R"({"jobs":"x","jobs":[{"job_name":"a"}]})", 400, R"(body must be {"jobs": [...]})"},
      {R"([{"job_name":"a"}])", 400, R"(body must be {"jobs": [...]})"},
      {R"({"jobs":[],"jobs":[{"job_name":"a"}]})", 400, "jobs must be non-empty"},
      {big, 413, "batch too large (max 4096 jobs)"},
      {R"({"jobs":[{"job_name":"a"},{"job_name":"b","job_id":-1},7]})", 400,
       "jobs[1]: job_id is out of range"},
      {R"({"jobs":[{"job_name":"a"},7],"more":true})", 400, "jobs[1]: job must be a JSON object"},
  };
  for (const auto& [body, code, message] : cases) {
    EXPECT_FALSE(decode_batch_body(body, jobs, status, &error)) << body;
    EXPECT_EQ(status, code) << body;
    EXPECT_EQ(error, message) << body;
  }
  ASSERT_TRUE(decode_batch_body(
      R"({"more":[1],"jobs":[{"job_name":"a"},{"job_name":"b","job_id":7}],"jobs":5})", jobs,
      status, &error))
      << error;
  EXPECT_EQ(status, 200);
  ASSERT_EQ(jobs.size(), 2U);
  EXPECT_EQ(jobs[1].job_name, "b");
  EXPECT_EQ(jobs[1].job_id, 7U);
}

// ---------------------------------------------------------------- API

class ApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_dir_ = (fs::temp_directory_path() / "mcb_api_test").string();
    fs::remove_all(registry_dir_);

    const TimePoint base = timepoint_from_ymd(2024, 1, 10);
    last_end_ = base;
    std::vector<JobRecord> jobs;
    for (std::uint64_t i = 0; i < 60; ++i) {
      const bool compute = i % 2 == 1;
      JobRecord job;
      job.job_id = i;
      job.user_name = compute ? "u2" : "u1";
      job.job_name = compute ? "dgemm_app" : "stream_app";
      job.environment = "env";
      job.nodes_requested = job.nodes_allocated = 2;
      job.cores_requested = 96;
      job.submit_time = base + static_cast<TimePoint>(i) * 3600;
      job.start_time = job.submit_time + 100;
      job.end_time = job.start_time + 900;
      if (compute) {
        job.perf2 = 1e15;
        job.perf4 = job.perf5 = 1e6;
      } else {
        job.perf2 = 1e6;
        job.perf4 = job.perf5 = 1e12;
      }
      last_end_ = std::max(last_end_, job.end_time);
      jobs.push_back(std::move(job));
    }
    store_.insert_all(std::move(jobs));

    config_.registry_dir = registry_dir_;
    config_.model = ModelKind::kKnn;
    config_.alpha_days = 40;
    framework_ = std::make_unique<Framework>(config_, store_);
    api_ = std::make_unique<ApiServer>(*framework_);
  }

  void TearDown() override { fs::remove_all(registry_dir_); }

  HttpResponse call(const std::string& method, const std::string& path,
                    const std::string& body = "") {
    HttpRequest request;
    request.method = method;
    request.path = path;
    request.body = body;
    return api_->dispatch(request);
  }

  std::string registry_dir_;
  JobStore store_;
  FrameworkConfig config_;
  std::unique_ptr<Framework> framework_;
  std::unique_ptr<ApiServer> api_;
  TimePoint last_end_ = 0;
};

TEST_F(ApiTest, HealthBeforeTraining) {
  const auto response = call("GET", "/health");
  EXPECT_EQ(response.status, 200);
  const auto json = Json::parse(response.body);
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ((*json)["status"].as_string(), "ok");
  EXPECT_FALSE((*json)["trained"].as_bool(true));
}

TEST_F(ApiTest, PredictWithoutModelIs503) {
  const auto response = call("POST", "/predict", R"({"job_name":"stream_app"})");
  EXPECT_EQ(response.status, 503);
}

TEST_F(ApiTest, TrainThenPredictFlow) {
  const auto train_response =
      call("POST", "/train", "{\"now\": " + std::to_string(last_end_ + 10) + "}");
  EXPECT_EQ(train_response.status, 201);
  const auto train_json = Json::parse(train_response.body);
  EXPECT_EQ((*train_json)["jobs_used"].as_int(), 60);
  EXPECT_EQ((*train_json)["version"].as_int(), 1);

  const auto predict_response = call(
      "POST", "/predict",
      R"({"job_name":"stream_app","user_name":"u1","nodes_requested":2,"cores_requested":96,"environment":"env"})");
  EXPECT_EQ(predict_response.status, 200);
  const auto predict_json = Json::parse(predict_response.body);
  EXPECT_EQ((*predict_json)["label"].as_string(), "memory-bound");
  EXPECT_EQ(header(predict_response, "X-Model-Version"), "1");

  const std::string dgemm =
      R"({"job_name":"dgemm_app","user_name":"u2","nodes_requested":2,"cores_requested":96,"environment":"env"})";
  const auto predict2 = call("POST", "/predict", dgemm);
  EXPECT_EQ((*Json::parse(predict2.body))["label"].as_string(), "compute-bound");
  // The same request answers the same body (this time from the cache).
  EXPECT_EQ(call("POST", "/predict", dgemm).body, predict2.body);

  const auto health = Json::parse(call("GET", "/health").body);
  EXPECT_TRUE((*health)["trained"].as_bool());
  EXPECT_EQ((*health)["version"].as_int(), 1);
  EXPECT_EQ(metric_value(*Json::parse(call("GET", "/metrics").body), "mcb_model_version"), 1.0);
}

TEST_F(ApiTest, ClassifyBatchWithoutModelIs503) {
  const auto response = call("POST", "/classify_batch", R"({"jobs":[{"job_name":"x"}]})");
  EXPECT_EQ(response.status, 503);
}

TEST_F(ApiTest, ClassifyBatchValidation) {
  EXPECT_EQ(call("POST", "/classify_batch", "{not json").status, 400);
  EXPECT_EQ(call("POST", "/classify_batch", R"({"no_jobs":1})").status, 400);
  EXPECT_EQ(call("POST", "/classify_batch", R"({"jobs":"x"})").status, 400);
  EXPECT_EQ(call("POST", "/classify_batch", R"({"jobs":[]})").status, 400);
  // A bad element is reported with its index.
  const auto response =
      call("POST", "/classify_batch", R"({"jobs":[{"job_name":"ok"},{"user_name":"no-name"}]})");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(Json::parse(response.body)->operator[]("error").as_string().find("jobs[1]"),
            std::string::npos);
  // An out-of-range integer is a 400 naming the field, not a wrapped value.
  const auto overflow = call("POST", "/classify_batch",
                             R"({"jobs":[{"job_name":"x","cores_requested":4294967344}]})");
  EXPECT_EQ(overflow.status, 400);
  EXPECT_EQ((*Json::parse(overflow.body))["error"].as_string(),
            "jobs[0]: cores_requested is out of range");
}

TEST_F(ApiTest, ClassifyBatchFlow) {
  ASSERT_EQ(call("POST", "/train", "{\"now\": " + std::to_string(last_end_ + 10) + "}").status,
            201);
  const std::string batch =
      R"({"jobs":[
           {"job_name":"stream_app","user_name":"u1","nodes_requested":2,"cores_requested":96,"environment":"env"},
           {"job_name":"dgemm_app","user_name":"u2","nodes_requested":2,"cores_requested":96,"environment":"env"},
           {"job_name":"stream_app","user_name":"u1","nodes_requested":2,"cores_requested":96,"environment":"env"}]})";
  const auto response = call("POST", "/classify_batch", batch);
  ASSERT_EQ(response.status, 200);
  const auto json = Json::parse(response.body);
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ((*json)["count"].as_int(), 3);
  const auto& labels = (*json)["labels"].as_array();
  ASSERT_EQ(labels.size(), 3U);
  EXPECT_EQ(labels[0].as_string(), "memory-bound");
  EXPECT_EQ(labels[1].as_string(), "compute-bound");
  EXPECT_EQ(labels[2].as_string(), "memory-bound");

  // /train encodes through the same cache, one lookup per distinct
  // feature string: the store's 60 jobs share two strings, both missed
  // on the empty cache and were cached. Each batch then looks its two
  // distinct strings up once, so both batches are pure embedding-cache
  // hits (2 + 2); the app metrics section must reflect that.
  std::set<std::string> trained;
  for (const JobRecord& job : store_.all()) {
    trained.insert(framework_->encoder().feature_string(job));
  }
  ASSERT_EQ(trained.size(), 2U);
  EXPECT_EQ(call("POST", "/classify_batch", batch).status, 200);
  const auto metrics = Json::parse(call("GET", "/metrics").body);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metric_value(*metrics, "mcb_embedding_cache_ops_total", {{"op", "hit"}}), 4.0);
  EXPECT_EQ(metric_value(*metrics, "mcb_embedding_cache_ops_total", {{"op", "miss"}}),
            static_cast<double>(trained.size()));
  EXPECT_EQ(metric_value(*metrics, "mcb_embedding_cache_entries", {{"kind", "current"}}), 2.0);
  EXPECT_EQ(route_class(*metrics, "POST /classify_batch", "2xx"), 2.0);
  EXPECT_EQ(metric_value(*metrics, "mcb_classify_batch_jobs_total"), 6.0);
}

TEST_F(ApiTest, PredictSharesEmbeddingCacheWithBatch) {
  ASSERT_EQ(call("POST", "/train", "{\"now\": " + std::to_string(last_end_ + 10) + "}").status,
            201);
  const auto cache_ops = [this](const char* op) {
    const auto metrics = Json::parse(call("GET", "/metrics").body);
    return metric_value(*metrics, "mcb_embedding_cache_ops_total", {{"op", op}});
  };
  const double hits = cache_ops("hit");
  const double misses = cache_ops("miss");
  // A job whose string /train cached hits; a new one misses once, then hits.
  const std::string known =
      R"({"job_name":"stream_app","user_name":"u1","nodes_requested":2,"cores_requested":96,"environment":"env"})";
  const std::string unseen =
      R"({"job_name":"stream_app","user_name":"u1","nodes_requested":4,"cores_requested":192,"environment":"env"})";
  EXPECT_EQ(call("POST", "/predict", known).status, 200);
  EXPECT_EQ(call("POST", "/predict", unseen).status, 200);
  EXPECT_EQ(call("POST", "/predict", unseen).status, 200);
  EXPECT_EQ(cache_ops("hit"), hits + 2.0);
  EXPECT_EQ(cache_ops("miss"), misses + 1.0);
}

TEST_F(ApiTest, TrainEmptyWindowIs409) {
  const auto response = call("POST", "/train", R"({"now": 1000})");  // before any data
  EXPECT_EQ(response.status, 409);
}

TEST_F(ApiTest, UnsavedModelIsNotServed) {
  // A registry path that is a regular file: every save fails, so the
  // trained model must not be published without a version.
  const std::string file = registry_dir_ + "-file";
  { std::ofstream(file) << "not a directory"; }
  FrameworkConfig config = config_;
  config.registry_dir = file;
  Framework framework(config, store_);
  ApiServer api(framework);
  HttpRequest train;
  train.method = "POST";
  train.path = "/train";
  train.body = "{\"now\": " + std::to_string(last_end_ + 10) + "}";
  const auto response = api.dispatch(train);
  EXPECT_EQ(response.status, 500);
  EXPECT_FALSE(Json::parse(response.body)->contains("version"));
  HttpRequest ready;
  ready.method = "GET";
  ready.path = "/readyz";
  EXPECT_EQ(api.dispatch(ready).status, 503);
  EXPECT_FALSE(framework.has_model());
  fs::remove(file);
}

TEST_F(ApiTest, CharacterizeEndpoint) {
  const auto response = call(
      "POST", "/characterize",
      R"({"job_name":"x","nodes_allocated":1,"start_time":0,"end_time":1000,"perf2":1e15,"perf3":0,"perf4":1,"perf5":1})");
  EXPECT_EQ(response.status, 200);
  const auto json = Json::parse(response.body);
  EXPECT_EQ((*json)["label"].as_string(), "compute-bound");
  EXPECT_GT((*json)["metrics"]["operational_intensity"].as_double(), 3.3);
}

TEST_F(ApiTest, CharacterizeRejectsZeroDuration) {
  const auto response =
      call("POST", "/characterize", R"({"job_name":"x","start_time":5,"end_time":5})");
  EXPECT_EQ(response.status, 400);
}

TEST_F(ApiTest, MalformedJsonIs400) {
  EXPECT_EQ(call("POST", "/predict", "{not json").status, 400);
  EXPECT_EQ(call("POST", "/train", "[[[").status, 400);
}

TEST_F(ApiTest, TrainRejectsANowItCannotUse) {
  // train_now computes now - alpha_days * 86400, which must not overflow;
  // and a "now" that is no number names no time to train at.
  for (const char* body : {R"({"now": -9223372036854775808})", R"({"now": 1e300})"}) {
    const auto response = call("POST", "/train", body);
    EXPECT_EQ(response.status, 400) << body;
    EXPECT_EQ((*Json::parse(response.body))["error"].as_string(), "now is out of range");
  }
  for (const char* body : {R"({"now": "tomorrow"})", R"({"now": null})"}) {
    const auto response = call("POST", "/train", body);
    EXPECT_EQ(response.status, 400) << body;
    EXPECT_EQ((*Json::parse(response.body))["error"].as_string(),
              "now must be an integer (epoch seconds)");
  }
  EXPECT_FALSE(framework_->has_model());
  EXPECT_EQ(call("POST", "/train", "{\"now\": " + std::to_string(last_end_ + 10) + "}").status,
            201);
}

TEST_F(ApiTest, PredictEchoesAnExactJobId) {
  ASSERT_EQ(call("POST", "/train", "{\"now\": " + std::to_string(last_end_ + 10) + "}").status,
            201);
  const auto response =
      call("POST", "/predict", R"({"job_name":"stream_app","job_id":9007199254740993})");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find(R"("job_id":9007199254740993)"), std::string::npos)
      << response.body;
}

TEST_F(ApiTest, DeeplyNestedBodyIs400AndTheServerLives) {
  // 1 MB of '[' nests far past JsonReader::kMaxDepth; each parse stops at
  // the cap instead of recursing down the handler thread's stack.
  ASSERT_TRUE(api_->start(0));
  const std::string nested(1 << 20, '[');
  for (const char* path : {"/classify_batch", "/train", "/predict"}) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(http_request(api_->port(), "POST", path, nested, status, body)) << path;
    EXPECT_EQ(status, 400) << path;
    EXPECT_EQ((*Json::parse(body))["error"].as_string(),
              "invalid JSON: nesting too deep at offset 64")
        << path;
  }
  int status = 0;
  std::string body;
  ASSERT_TRUE(http_request(api_->port(), "GET", "/healthz", "", status, body));
  EXPECT_EQ(status, 200);
  api_->stop();
}

TEST_F(ApiTest, ModelInfoListsFeatures) {
  const auto response = call("GET", "/model/info");
  EXPECT_EQ(response.status, 200);
  const auto json = Json::parse(response.body);
  EXPECT_EQ((*json)["encoder_dim"].as_int(), 384);
  EXPECT_EQ((*json)["features"].size(), 6U);
  EXPECT_NEAR((*json)["ridge_point_flops_per_byte"].as_double(), 3.3, 0.05);
}

TEST_F(ApiTest, ModelInfoReportsKnnIndexState) {
  // Every fitted KNN model reports its store: this deployment's 60
  // training rows get the bounding-box tree over their distinct rows.
  ASSERT_EQ(call("POST", "/train", "{\"now\": " + std::to_string(last_end_ + 10) + "}").status,
            201);
  const auto tree_info = Json::parse(call("GET", "/model/info").body);
  ASSERT_TRUE(tree_info->contains("knn_index"));
  EXPECT_EQ((*tree_info)["knn_index"]["mode"].as_string(), "tree");
  EXPECT_EQ((*tree_info)["knn_index"]["rows"].as_int(), 60);
  EXPECT_GE((*tree_info)["knn_index"]["unique_rows"].as_int(), 1);
  EXPECT_LE((*tree_info)["knn_index"]["unique_rows"].as_int(), 60);

  // The same state reaches the metrics endpoint as mcb_knn_index_*.
  HttpRequest metrics;
  metrics.method = "GET";
  metrics.path = "/metrics";
  metrics.query = "format=prometheus";
  const std::string exposition = api_->dispatch(metrics).body;
  EXPECT_NE(exposition.find("mcb_knn_index_info{mode=\"tree\""), std::string::npos);
  EXPECT_NE(exposition.find("mcb_knn_index_rows{kind=\"unique\"}"), std::string::npos);

  // A scan-only deployment (mode none) still reports the store's rows.
  FrameworkConfig scan_config = config_;
  scan_config.knn.index.mode = KnnIndexMode::kNone;
  Framework scan_framework(scan_config, store_);
  ApiServer scan_api(scan_framework);
  HttpRequest train;
  train.method = "POST";
  train.path = "/train";
  train.body = "{\"now\": " + std::to_string(last_end_ + 10) + "}";
  ASSERT_EQ(scan_api.dispatch(train).status, 201);
  HttpRequest info;
  info.method = "GET";
  info.path = "/model/info";
  const auto scan_info = Json::parse(scan_api.dispatch(info).body);
  EXPECT_EQ((*scan_info)["knn_index"]["mode"].as_string(), "none");
  EXPECT_EQ((*scan_info)["knn_index"]["rows"].as_int(), 60);
  EXPECT_EQ((*scan_info)["knn_index"]["unique_rows"].as_int(),
            (*tree_info)["knn_index"]["unique_rows"].as_int());
}

TEST_F(ApiTest, EncodeEndpointReturnsNormalizedEmbedding) {
  const auto response =
      call("POST", "/encode", R"({"job_name":"stream_app","user_name":"u1"})");
  EXPECT_EQ(response.status, 200);
  const auto json = Json::parse(response.body);
  ASSERT_TRUE(json.has_value());
  const auto& embedding = (*json)["embedding"].as_array();
  EXPECT_EQ(embedding.size(), 384U);
  double norm = 0.0;
  for (const Json& v : embedding) norm += v.as_double() * v.as_double();
  EXPECT_NEAR(norm, 1.0, 1e-4);
  EXPECT_FALSE((*json)["feature_string"].as_string().empty());
}

TEST_F(ApiTest, JobsRangeEndpoint) {
  HttpRequest request;
  request.method = "GET";
  request.path = "/jobs";
  request.query = "from=0&to=99999999999&field=end&limit=5";
  const auto response = api_->dispatch(request);
  EXPECT_EQ(response.status, 200);
  const auto json = Json::parse(response.body);
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ((*json)["count"].as_int(), 60);
  EXPECT_EQ((*json)["jobs"].size(), 5U);  // limit applied

  request.query = "from=5&to=2";
  EXPECT_EQ(api_->dispatch(request).status, 400);
  request.query = "from=0&to=1&field=bogus";
  EXPECT_EQ(api_->dispatch(request).status, 400);
}

TEST_F(ApiTest, JobsRejectsMalformedNumbers) {
  // An unparsable or negative number is a 400, not a silent default:
  // from=abc used to query from epoch 0 and limit=-1 to return every job.
  HttpRequest request;
  request.method = "GET";
  request.path = "/jobs";
  for (const char* query :
       {"from=abc&to=99999999999", "from=0&to=9x", "from=0&to=99999999999&limit=-1",
        "from=-5&to=99999999999", "from=0&to=99999999999&limit=", "from=0&to=99999999999&limit=ten"}) {
    request.query = query;
    const auto response = api_->dispatch(request);
    EXPECT_EQ(response.status, 400) << query;
    EXPECT_NE(response.body.find("non-negative integer"), std::string::npos) << query;
  }
  request.query = "from=0&to=99999999999&limit=0";
  const auto response = api_->dispatch(request);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ((*Json::parse(response.body))["jobs"].size(), 0U);
}

TEST_F(ApiTest, MetricsEndpointCountsRequests) {
  const auto before = call("GET", "/metrics");
  EXPECT_EQ(before.status, 200);
  const auto before_json = Json::parse(before.body);
  ASSERT_TRUE(before_json.has_value());
  EXPECT_EQ((*before_json)["mcb_http_connections_total"]["type"].as_string(), "counter");

  call("GET", "/health");
  call("GET", "/health");
  call("POST", "/predict", "{not json");

  const auto after_json = Json::parse(call("GET", "/metrics").body);
  ASSERT_TRUE(after_json.has_value());
  EXPECT_EQ(route_count(*after_json, "GET /health"), 2);
  EXPECT_EQ(route_class(*after_json, "GET /health", "2xx"), 2.0);
  const Json* latency = find_point(*after_json, "mcb_http_request_duration_seconds",
                                   {{"route", "GET /health"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_GE((*latency)["sum"].as_double(), 0.0);
  EXPECT_EQ(route_class(*after_json, "POST /predict", "4xx"), 1.0);
  // The metrics route observes itself too.
  EXPECT_GE(route_count(*after_json, "GET /metrics"), 1);
}

TEST_F(ApiTest, JsonAndPrometheusRenderOneSurface) {
  // One server scraped in both formats: the JSON body and the text
  // exposition carry the same families, and each route's request
  // counter (summed over status classes) agrees with its latency
  // histogram's count in both.
  call("GET", "/health");
  call("GET", "/healthz");
  call("POST", "/predict", "{not json");
  call("GET", "/no-such-endpoint");
  const auto json = Json::parse(call("GET", "/metrics").body);
  ASSERT_TRUE(json.has_value());
  HttpRequest request;
  request.method = "GET";
  request.path = "/metrics";
  request.query = "format=prometheus";
  const std::string text = api_->dispatch(request).body;

  std::vector<std::string> json_names;
  for (const auto& [name, family] : json->as_object()) json_names.push_back(name);
  std::vector<std::string> prom_names;
  std::map<std::string, double> prom_requests;
  std::map<std::string, double> prom_counts;
  const auto route_of = [](const std::string& line) {
    const std::size_t at = line.find("route=\"") + 7;
    return line.substr(at, line.find('"', at) - at);
  };
  for (const std::string& line : split(text, '\n')) {
    if (starts_with(line, "# TYPE ")) {
      prom_names.push_back(line.substr(7, line.find(' ', 7) - 7));
    } else if (starts_with(line, "mcb_http_requests_total{")) {
      prom_requests[route_of(line)] += std::stod(line.substr(line.rfind(' ') + 1));
    } else if (starts_with(line, "mcb_http_request_duration_seconds_count{")) {
      prom_counts[route_of(line)] = std::stod(line.substr(line.rfind(' ') + 1));
    }
  }
  std::sort(prom_names.begin(), prom_names.end());
  EXPECT_EQ(json_names, prom_names);

  std::map<std::string, double> json_requests;
  for (const Json& point : (*json)["mcb_http_requests_total"]["points"].as_array()) {
    json_requests[point["labels"]["route"].as_string()] += point["value"].as_double();
  }
  std::map<std::string, double> json_counts;
  for (const Json& point : (*json)["mcb_http_request_duration_seconds"]["points"].as_array()) {
    json_counts[point["labels"]["route"].as_string()] = point["count"].as_double();
  }
  EXPECT_EQ(json_requests, json_counts);
  EXPECT_EQ(prom_requests, prom_counts);
  // Both snapshots saw every route driven above.
  for (const char* route : {"GET /health", "GET /healthz", "POST /predict", "(unmatched)"}) {
    EXPECT_EQ(json_counts[route], 1.0) << route;
    EXPECT_EQ(prom_counts[route], 1.0) << route;
  }
}

TEST_F(ApiTest, RequestTraceAndStageCountsAgree) {
  // Every request starts one trace, runs one route span and is counted
  // once in the ledger. Over a socket every request is also parsed, and a
  // stage records one sample per request that touched it, however many
  // spans the request opened there (/classify_batch's body decode and the
  // HTTP parse are both parse time). Read the registry directly, after
  // the server stopped, so no /metrics request is in flight.
  ASSERT_TRUE(api_->start(0));
  const std::pair<const char*, const char*> calls[] = {
      {"GET", "/health"},          {"GET", "/healthz"}, {"POST", "/predict"},
      {"GET", "/no-such-endpoint"}, {"DELETE", "/health"}, {"POST", "/classify_batch"}};
  for (const auto& [method, path] : calls) {
    int status = 0;
    std::string body;
    const std::string request_body =
        std::string(path) == "/predict" ? "{not json" : R"({"jobs":[{"job_name":"x"}]})";
    ASSERT_TRUE(http_request(api_->port(), method, path,
                             std::string(method) == "POST" ? request_body : "", status, body));
  }
  api_->stop();
  const Json metrics = obs::render_json(api_->registry().gather());
  double requests = 0.0;
  for (const Json& point : metrics["mcb_http_requests_total"]["points"].as_array()) {
    requests += point["value"].as_double();
  }
  EXPECT_EQ(requests, 6.0);
  EXPECT_EQ(static_cast<double>(api_->tracer().traces_started()), requests);
  for (const char* stage : {"route", "parse"}) {
    const Json* point = find_point(metrics, "mcb_stage_duration_seconds", {{"stage", stage}});
    ASSERT_NE(point, nullptr) << stage;
    EXPECT_EQ((*point)["count"].as_double(), requests) << stage;
  }
}

TEST_F(ApiTest, OversizedBatchIs413CountedOnce) {
  // The handler-level 413 (batch above kMaxBatch) is a dispatched
  // request: one 4xx on its route, nothing under `malformed`.
  std::string body = R"({"jobs":[)";
  for (int i = 0; i < 4097; ++i) {
    if (i > 0) body += ',';
    body += R"({"job_name":"x"})";
  }
  body += "]}";
  const auto response = call("POST", "/classify_batch", body);
  EXPECT_EQ(response.status, 413);

  const auto metrics = Json::parse(call("GET", "/metrics").body);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(route_count(*metrics, "POST /classify_batch"), 1);
  EXPECT_EQ(route_class(*metrics, "POST /classify_batch", "4xx"), 1.0);
  EXPECT_EQ(connections(*metrics, "malformed"), 0.0);
}

TEST_F(ApiTest, HealthzReadyzLifecycle) {
  EXPECT_EQ(call("GET", "/healthz").status, 200);
  const auto not_ready = call("GET", "/readyz");
  EXPECT_EQ(not_ready.status, 503);
  const auto not_ready_json = Json::parse(not_ready.body);
  ASSERT_TRUE(not_ready_json.has_value());
  EXPECT_FALSE((*not_ready_json)["ready"].as_bool(true));

  ASSERT_EQ(call("POST", "/train", "{\"now\": " + std::to_string(last_end_ + 10) + "}").status,
            201);
  const auto ready = call("GET", "/readyz");
  EXPECT_EQ(ready.status, 200);
  EXPECT_TRUE((*Json::parse(ready.body))["ready"].as_bool());
}

TEST_F(ApiTest, MetricsReportsUptimeAndBuildInfo) {
  const auto metrics = Json::parse(call("GET", "/metrics").body);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ((*metrics)["mcb_uptime_seconds"]["type"].as_string(), "gauge");
  EXPECT_GE(metric_value(*metrics, "mcb_uptime_seconds"), 0.0);
  const JsonArray& build = (*metrics)["mcb_build_info"]["points"].as_array();
  ASSERT_EQ(build.size(), 1U);
  EXPECT_FALSE(build[0]["labels"]["version"].as_string().empty());
  const Json& stages = (*metrics)["mcb_stage_duration_seconds"];
  EXPECT_EQ(stages["type"].as_string(), "histogram");
  EXPECT_EQ(stages["points"].size(), obs::kStageCount);
}

TEST_F(ApiTest, DebugRequestsRetainsErrors) {
  EXPECT_EQ(call("GET", "/no-such-endpoint").status, 404);
  const auto response = call("GET", "/debug/requests");
  EXPECT_EQ(response.status, 200);
  const auto json = Json::parse(response.body);
  ASSERT_TRUE(json.has_value());
  ASSERT_GE((*json)["count"].as_int(), 1);
  bool found = false;
  for (const Json& entry : (*json)["requests"].as_array()) {
    if (entry["route"].as_string() == "(unmatched)" && entry["status"].as_int() == 404) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ApiTest, PrometheusExposition) {
  call("GET", "/healthz");  // ensure at least one dispatched request
  HttpRequest request;
  request.method = "GET";
  request.path = "/metrics";
  request.query = "format=prometheus";
  const auto response = api_->dispatch(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(response.body.find("# TYPE mcb_http_requests_total counter"),
            std::string::npos);
  EXPECT_NE(response.body.find("# TYPE mcb_stage_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(response.body.find("mcb_build_info{"), std::string::npos);
  EXPECT_NE(response.body.find("mcb_ready 0"), std::string::npos);
  EXPECT_NE(response.body.find("mcb_model_version 0"), std::string::npos);
  EXPECT_NE(response.body.find("mcb_train_in_progress 0"), std::string::npos);
  EXPECT_NE(response.body.find("le=\"+Inf\""), std::string::npos);
}

TEST_F(ApiTest, PrometheusExposesSelfCharacterizationFamilies) {
  // Whatever this machine's perf support, the scrape contract holds:
  // mcb_perf_available is present (0 in the degraded path) and the
  // counter + roofline families exist (possibly with no points yet).
  HttpRequest request;
  request.method = "GET";
  request.path = "/metrics";
  request.query = "format=prometheus";
  const auto response = api_->dispatch(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("# TYPE mcb_perf_available gauge"),
            std::string::npos);
  EXPECT_NE(response.body.find("mcb_perf_available "), std::string::npos);
  EXPECT_NE(response.body.find("# TYPE mcb_stage_cycles_total counter"),
            std::string::npos);
  EXPECT_NE(response.body.find("# TYPE mcb_stage_llc_miss_bytes_total counter"),
            std::string::npos);
  EXPECT_NE(response.body.find("# TYPE mcb_stage_arith_intensity gauge"),
            std::string::npos);
  EXPECT_NE(response.body.find("# TYPE mcb_stage_boundedness gauge"),
            std::string::npos);
}

TEST_F(ApiTest, FakeCountersFlowThroughToRooflineFamilies) {
  // Inject a counter source through the same seam the server uses, then
  // drive requests through the normal dispatch path: the raw totals and
  // the derived intensity/boundedness must all reach /metrics.
  class TickingSource final : public obs::perf::CounterSource {
   public:
    bool read_counters(obs::perf::CounterSample& out) noexcept override {
      // relaxed: any unique monotonic value works; no ordering needed
      const std::uint64_t tick = tick_.fetch_add(11, std::memory_order_relaxed);
      for (std::size_t i = 0; i < obs::perf::kCounterCount; ++i) {
        out.value[i] = tick * (i + 1);
      }
      return true;
    }
    bool available() const noexcept override { return true; }
    int error() const noexcept override { return 0; }
    bool hot_path_capable() const noexcept override { return true; }

   private:
    std::atomic<std::uint64_t> tick_{1};
  };
  TickingSource source;
  api_->tracer().set_counter_source(&source);
  ASSERT_TRUE(api_->tracer().counters_attached());

  for (int i = 0; i < 3; ++i) call("GET", "/healthz");

  HttpRequest request;
  request.method = "GET";
  request.path = "/metrics";
  request.query = "format=prometheus";
  const std::string exposition = api_->dispatch(request).body;
  EXPECT_NE(exposition.find("mcb_perf_available 1"), std::string::npos);
  // Every dispatch runs the route span, so the route stage accumulated
  // cycles and classifies against the ridge point.
  EXPECT_NE(exposition.find("mcb_stage_cycles_total{stage=\"route\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find("mcb_stage_arith_intensity{stage=\"route\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find("mcb_stage_boundedness{stage=\"route\""),
            std::string::npos);
  api_->tracer().set_counter_source(nullptr);
}

TEST_F(ApiTest, DebugProfileReturnsCollapsedStacks) {
  HttpRequest request;
  request.method = "GET";
  request.path = "/debug/profile";
  request.query = "seconds=1&hz=397";
  const auto response = api_->dispatch(request);
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.content_type.find("text/plain"), std::string::npos);
  ASSERT_FALSE(response.body.empty());
  EXPECT_EQ(response.body.back(), '\n');
  // First line is "frame;frame;... count".
  const std::string first_line =
      response.body.substr(0, response.body.find('\n'));
  const std::size_t space = first_line.rfind(' ');
  ASSERT_NE(space, std::string::npos);
  EXPECT_FALSE(first_line.substr(0, space).empty());
  bool header_found = false;
  for (const auto& [key, value] : response.headers) {
    if (key == "X-Profile-Samples") {
      header_found = true;
      EXPECT_NE(value, "0");
    }
  }
  EXPECT_TRUE(header_found);
}

TEST_F(ApiTest, EndToEndOverSockets) {
  ASSERT_TRUE(api_->start(0));
  int status = 0;
  std::string body;
  ASSERT_TRUE(http_request(api_->port(), "GET", "/health", "", status, body));
  EXPECT_EQ(status, 200);
  ASSERT_TRUE(http_request(api_->port(), "POST", "/train",
                           "{\"now\": " + std::to_string(last_end_ + 10) + "}", status,
                           body));
  EXPECT_EQ(status, 201);
  ASSERT_TRUE(http_request(api_->port(), "POST", "/predict",
                           R"({"job_name":"stream_app","user_name":"u1"})", status, body));
  EXPECT_EQ(status, 200);
  ASSERT_TRUE(http_request(api_->port(), "GET", "/metrics", "", status, body));
  EXPECT_EQ(status, 200);
  const auto metrics = Json::parse(body);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_GE(connections(*metrics, "accepted"), 4.0);
  EXPECT_GE(connections(*metrics, "handled"), 3.0);
  api_->stop();
}

// ------------------------------------------------ model snapshots

TEST_F(ApiTest, ClassifyIsServedWhileTrainIsInFlight) {
  ASSERT_TRUE(api_->start(0));
  const int port = api_->port();
  const std::string train_body = "{\"now\": " + std::to_string(last_end_ + 10) + "}";
  int status = 0;
  std::string body;
  ASSERT_TRUE(http_request(port, "POST", "/train", train_body, status, body));
  ASSERT_EQ(status, 201);
  const auto train_gauge = [this] {
    return metric_value(*Json::parse(call("GET", "/metrics").body), "mcb_train_in_progress");
  };
  EXPECT_EQ(train_gauge(), 0.0);

  // A FIFO where version 2's file goes parks the next /train inside its
  // registry save until the reader below drains it. The registry lists
  // regular files only, so the save picks that path.
  const std::string fifo = registry_dir_ + "/knn-v2.mcbm";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::promise<void> release;
  std::atomic<bool> released{false};
  std::string saved;
  // Drains the FIFO when the test releases it, or after 30 s, so a server
  // whose answers wait for the retrain fails this test instead of hanging
  // it. Removing the FIFO sends any later save to a regular file.
  std::thread reader([&, go = release.get_future()] {
    go.wait_for(std::chrono::seconds(30));
    released.store(true);
    std::ifstream in(fifo, std::ios::binary);
    saved.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    fs::remove(fifo);
  });
  int held_status = 0;
  std::string held_body;
  std::thread trainer(
      [&] { http_request(port, "POST", "/train", train_body, held_status, held_body); });
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (train_gauge() != 1.0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(train_gauge(), 1.0);

  // The retrain is parked mid-save: classification answers from version
  // 1 and a second /train is turned away, both before the save resumes.
  HttpClientResponse classified;
  EXPECT_TRUE(http_request(port, "POST", "/classify_batch",
                           R"({"jobs":[{"job_name":"dgemm_app","user_name":"u2"}]})", {},
                           classified));
  HttpClientResponse second;
  EXPECT_TRUE(http_request(port, "POST", "/train", train_body, {}, second));
  EXPECT_FALSE(released.load()) << "the answers waited for the retrain";
  EXPECT_EQ(train_gauge(), 1.0);
  release.set_value();
  reader.join();
  trainer.join();

  EXPECT_EQ(classified.status, 200);
  EXPECT_EQ(classified.headers["x-model-version"], "1");
  EXPECT_EQ(second.status, 409);
  EXPECT_EQ((*Json::parse(second.body))["error"].as_string(), "training already in progress");
  // Once released, the save completes and version 2 is published.
  EXPECT_FALSE(saved.empty());
  EXPECT_EQ(held_status, 201);
  EXPECT_EQ((*Json::parse(held_body))["version"].as_int(), 2);
  EXPECT_EQ(train_gauge(), 0.0);
  HttpClientResponse after;
  EXPECT_TRUE(http_request(port, "POST", "/predict", R"({"job_name":"dgemm_app"})", {}, after));
  EXPECT_EQ(after.headers["x-model-version"], "2");
  api_->stop();
}

/// One executed "flip" job on `day` (0-based from `base`): memory-bound
/// before day 10, compute-bound from day 10 on.
JobRecord flip_job(std::uint64_t id, TimePoint base, int day) {
  const bool compute = day >= 10;
  JobRecord job;
  job.job_id = id;
  job.user_name = "u";
  job.user_name += std::to_string(id % 3);
  job.job_name = "flip_app";
  job.environment = "env";
  job.nodes_requested = job.nodes_allocated = 2;
  job.cores_requested = 96;
  job.end_time = base + static_cast<TimePoint>(day) * kSecondsPerDay + 3600 * (1 + id % 8);
  job.start_time = job.end_time - 900;
  job.submit_time = job.start_time - 100;
  job.perf2 = compute ? 1e15 : 1e6;
  job.perf4 = job.perf5 = compute ? 1e6 : 1e12;
  return job;
}

TEST(ApiSnapshots, ServedLabelsMatchTheVersionTheyName) {
  // Retrains alternate between a memory-bound and a compute-bound
  // window, so consecutive versions label the same jobs differently and
  // a response naming the wrong version would carry the wrong labels.
  const std::string dir = (fs::temp_directory_path() / "mcb_api_snapshots").string();
  fs::remove_all(dir);
  const TimePoint base = timepoint_from_ymd(2024, 1, 10);
  std::vector<JobRecord> jobs;
  for (std::uint64_t id = 0; id < 60; ++id) {
    jobs.push_back(flip_job(id, base, static_cast<int>(id / 3)));
  }
  JobStore store;
  store.insert_all(std::move(jobs));
  FrameworkConfig config;
  config.registry_dir = dir;
  config.model = ModelKind::kKnn;
  config.alpha_days = 5;
  Framework framework(config, store);
  ApiServer api(framework);
  ASSERT_TRUE(api.start(0));
  const int port = api.port();
  const auto train_body = [base](int day) {
    return "{\"now\": " + std::to_string(base + static_cast<TimePoint>(day) * kSecondsPerDay) +
           "}";
  };
  int status = 0;
  std::string body;
  ASSERT_TRUE(http_request(port, "POST", "/train", train_body(5), status, body));
  ASSERT_EQ(status, 201);

  std::vector<JobRecord> batch;
  std::string batch_body = R"({"jobs":[)";
  for (std::uint64_t id = 0; id < 6; ++id) {
    batch.push_back(flip_job(1000 + id, base, 0));
    batch_body += (id > 0 ? "," : "") + job_to_json(batch.back()).dump();
  }
  batch_body += "]}";

  struct Served {
    int status = 0;
    std::string version;
    std::vector<std::string> labels;
  };
  constexpr int kRetrains = 6;
  std::atomic<bool> trained_all{false};
  std::atomic<int> classified{0};
  std::vector<Served> served[2];
  const auto client = [&](std::vector<Served>& out) {
    // One more request after the last retrain answered: it must see the
    // model that retrain published.
    for (bool last = false; !last;) {
      last = trained_all.load();
      HttpClientResponse response;
      Served s;
      if (http_request(port, "POST", "/classify_batch", batch_body, {}, response)) {
        s.status = response.status;
        s.version = response.headers["x-model-version"];
        const auto json = Json::parse(response.body);
        if (json.has_value() && (*json)["labels"].is_array()) {
          for (const Json& label : (*json)["labels"].as_array()) {
            s.labels.push_back(label.as_string());
          }
        }
      }
      out.push_back(std::move(s));
      classified.fetch_add(1);
    }
  };
  std::vector<int> train_statuses;
  std::thread trainer([&] {
    for (int k = 0; k < kRetrains; ++k) {
      // Let both clients get requests in between retrains.
      const int seen = classified.load();
      const auto deadline = Clock::now() + std::chrono::seconds(30);
      while (classified.load() < seen + 2 && Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      int train_status = 0;
      std::string train_response;
      http_request(port, "POST", "/train", train_body(k % 2 == 0 ? 15 : 5), train_status,
                   train_response);
      train_statuses.push_back(train_status);
    }
    trained_all.store(true);
  });
  std::thread client0(client, std::ref(served[0]));
  std::thread client1(client, std::ref(served[1]));
  trainer.join();
  client0.join();
  client1.join();
  api.stop();

  EXPECT_EQ(train_statuses, std::vector<int>(kRetrains, 201));
  const std::uint32_t last_version = 1 + kRetrains;
  ModelRegistry registry(dir);
  const FeatureMatrix x = framework.encoder().encode_batch(batch);
  std::map<std::uint32_t, std::vector<std::string>> expected;
  for (std::uint32_t v = 1; v <= last_version; ++v) {
    const auto model = registry.load(ModelKind::kKnn, "knn", v);
    ASSERT_TRUE(model.has_value()) << "version " << v;
    for (const Label label : model->inference(x.view())) {
      expected[v].push_back(boundedness_name(to_boundedness(label)));
    }
  }
  EXPECT_NE(expected[1], expected[2]);  // the windows really disagree

  for (const auto& responses : served) {
    ASSERT_FALSE(responses.empty());
    std::uint32_t previous = 0;
    for (const Served& s : responses) {
      ASSERT_EQ(s.status, 200);
      std::uint64_t version = 0;
      ASSERT_TRUE(parse_u64(s.version, version)) << "'" << s.version << "'";
      ASSERT_GE(version, 1U);
      ASSERT_LE(version, last_version);
      EXPECT_GE(version, previous) << "versions went down";
      previous = static_cast<std::uint32_t>(version);
      EXPECT_EQ(s.labels, expected[previous]) << "version " << previous;
    }
    EXPECT_EQ(previous, last_version);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mcb
