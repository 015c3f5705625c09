// Tests of the benchmark's own accounting: the label oracle, due-time
// latency under a stalled server, and the tail-percentile support rule.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/mcbound.hpp"
#include "data/job_store.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "stats.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

TEST(Stats, TailNeedsTenSamplesBeyondIt) {
  EXPECT_TRUE(tail_supported(1000, 0.99));   // 10 beyond p99
  EXPECT_FALSE(tail_supported(999, 0.99));   // 9 beyond p99
  EXPECT_TRUE(tail_supported(200, 0.95));
  EXPECT_FALSE(tail_supported(0, 0.5));

  std::vector<double> samples(100);
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i] = static_cast<double>(i + 1);
  EXPECT_TRUE(std::isnan(tail_percentile(samples, 0.99)));  // 1 sample beyond
  EXPECT_TRUE(std::isnan(tail_percentile(samples, 0.95)));  // 5 samples beyond
  EXPECT_DOUBLE_EQ(tail_percentile(samples, 0.9), 90.0);    // 10 samples beyond

  samples.resize(1000);
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i] = static_cast<double>(i + 1);
  EXPECT_DOUBLE_EQ(tail_percentile(samples, 0.99), 990.0);
  EXPECT_DOUBLE_EQ(median(samples), 500.0);
}

TEST(Stats, FailuresMissEveryLimit) {
  Request failed;
  failed.due_ns = 0;
  failed.sent_ns = 10;
  failed.done_ns = 20;
  failed.status = 503;
  EXPECT_TRUE(std::isinf(due_latency_ms(failed)));
  failed.status = 0;  // dropped
  EXPECT_TRUE(std::isinf(due_latency_ms(failed)));
}

TEST(Oracle, VersionWindowSpansRetrainsThatOverlapTheRequest) {
  const std::vector<TrainEvent> trains = {{100, 200, 2}, {300, 400, 3}};
  EXPECT_EQ(version_window(50, 90, 1, trains), std::make_pair(1U, 1U));
  EXPECT_EQ(version_window(150, 180, 1, trains), std::make_pair(1U, 2U));  // during train 2
  EXPECT_EQ(version_window(250, 280, 1, trains), std::make_pair(2U, 2U));
  EXPECT_EQ(version_window(150, 350, 1, trains), std::make_pair(1U, 3U));
  EXPECT_EQ(version_window(450, 500, 1, trains), std::make_pair(3U, 3U));
}

TEST(Oracle, ParsesLabelsOnlyInTheRouteShape) {
  using Labels = std::vector<mcb::Label>;
  EXPECT_EQ(parse_labels(R"({"job_id":5,"label":"compute-bound"})", false, 1),
            Labels{mcb::kLabelComputeBound});
  EXPECT_EQ(
      parse_labels(R"({"count":3,"labels":["memory-bound","compute-bound","memory-bound"]})", true, 3),
      (Labels{0, 1, 0}));
  // A wrong count, the other route's shape, a label under another key or
  // an unknown label is a wrong answer, not a parse of whatever is there.
  EXPECT_FALSE(parse_labels(R"({"labels":["memory-bound","compute-bound"]})", true, 3));
  EXPECT_FALSE(parse_labels(R"({"labels":["memory-bound"]})", false, 1));
  EXPECT_FALSE(parse_labels(R"({"error":"memory-bound"})", false, 1));
  EXPECT_FALSE(parse_labels(R"({"label":"io-bound"})", false, 1));
  EXPECT_FALSE(parse_labels("memory-bound", false, 1));

  EXPECT_EQ(parse_train_version(R"({"version":7,"jobs_used":10})"), 7U);
  EXPECT_FALSE(parse_train_version(R"({"error":"no jobs"})"));
}

TEST(Oracle, RejectsAFlippedLabelFromTheServedVersion) {
  mcb::JobRecord job;
  job.job_name = "a";
  const std::vector<mcb::JobRecord> jobs = {job};
  LabelOracle oracle(jobs);
  oracle.set_version_labels(1, {mcb::kLabelMemoryBound});
  oracle.set_version_labels(2, {mcb::kLabelComputeBound});
  EXPECT_TRUE(oracle.accepts(0, mcb::kLabelMemoryBound, 1, 1));
  EXPECT_FALSE(oracle.accepts(0, mcb::kLabelComputeBound, 1, 1));
  EXPECT_TRUE(oracle.accepts(0, mcb::kLabelComputeBound, 1, 2));  // overlapped the retrain
  EXPECT_FALSE(oracle.accepts(0, mcb::kLabelMemoryBound, 2, 2));
}

TEST(Oracle, MatchesTheFrameworkAndRejectsAFlip) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("perfbench-oracle-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  mcb::WorkloadConfig workload = mcb::scaled_workload_config(40, 3);
  std::vector<mcb::JobRecord> jobs = mcb::WorkloadGenerator(workload).generate();
  std::vector<mcb::JobRecord> by_end = jobs;
  std::sort(by_end.begin(), by_end.end(), [](const auto& a, const auto& b) {
    return a.end_time != b.end_time ? a.end_time < b.end_time : a.job_id < b.job_id;
  });
  mcb::JobStore store;
  store.insert_all(std::move(by_end));

  mcb::FrameworkConfig config;
  config.model = mcb::ModelKind::kKnn;
  config.alpha_days = 30;
  config.registry_dir = dir.string();
  mcb::Framework framework(config, store);
  const mcb::TimePoint t0 = workload.start_time + 45 * mcb::kSecondsPerDay;
  ASSERT_GT(framework.train_now(t0).jobs_used, 0U);
  const std::uint32_t version = *framework.model_version();

  jobs.resize(std::min<std::size_t>(jobs.size(), 600));
  const std::vector<mcb::Label> served = framework.predict_batch(jobs);
  ASSERT_EQ(served.size(), jobs.size());
  LabelOracle oracle(jobs);
  ASSERT_TRUE(oracle.add_version(dir.string(), mcb::ModelKind::kKnn, version));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(oracle.accepts(i, served[i], version, version)) << "job " << i;
  }
  EXPECT_FALSE(oracle.accepts(7, 1 - served[7], version, version));
  EXPECT_FALSE(oracle.add_version(dir.string(), mcb::ModelKind::kKnn, version + 1));
  std::filesystem::remove_all(dir);
}

/// A one-connection HTTP server that answers pipelined requests in order
/// and stalls once, before answering request number `stall_at`.
class StallingServer {
 public:
  StallingServer(int stall_at, std::chrono::milliseconds stall) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 4);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, stall_at, stall] { serve(stall_at, stall); });
  }
  ~StallingServer() {
    thread_.join();
    ::close(listen_fd_);
  }
  StallingServer(const StallingServer&) = delete;
  StallingServer& operator=(const StallingServer&) = delete;
  int port() const { return port_; }

 private:
  void serve(int stall_at, std::chrono::milliseconds stall) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::string in;
    char buffer[4096];
    int answered = 0;
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      in.append(buffer, static_cast<std::size_t>(n));
      for (std::size_t end = in.find("\r\n\r\n"); end != std::string::npos;
           end = in.find("\r\n\r\n")) {
        in.erase(0, end + 4);  // the test's requests carry no body
        if (++answered == stall_at) std::this_thread::sleep_for(stall);
        static const std::string kReply =
            "HTTP/1.1 200 OK\r\nContent-Length: 24\r\n\r\n{\"label\":\"memory-bound\"}";
        ::send(fd, kReply.data(), kReply.size(), MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  }

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

TEST(Loadgen, DueTimeLatencyChargesAStallToEveryRequestBehindIt) {
  constexpr auto kStall = std::chrono::milliseconds(200);
  StallingServer server(/*stall_at=*/50, kStall);
  {
    LoadGenerator load(server.port());
    Stream stream;
    stream.name = "get";
    stream.payloads = {http_request("GET", "/", "")};
    stream.schedule = periodic_schedule(0.0, 0.001, 0.4);  // one request per ms
    load.add_stream(std::move(stream));
    const std::int64_t start = now_ns() + 5'000'000;
    load.run_phase(start, 400'000'000, 2'000'000'000);

    const auto& requests = load.requests();
    ASSERT_EQ(requests.size(), 400U);
    std::vector<double> latency, lateness;
    for (const Request& r : requests) {
      ASSERT_TRUE(succeeded(r));
      latency.push_back(due_latency_ms(r));
      lateness.push_back(send_lateness_ms(r));
    }
    // The request answered after the stall waited the whole stall, and
    // the ones due during it waited for the rest of it: the generator kept
    // writing on schedule, so the wait shows up from the due time.
    EXPECT_GE(latency[49], 190.0);
    EXPECT_GE(latency[99], 140.0);
    EXPECT_GE(latency[149], 90.0);
    EXPECT_LT(latency[10], 20.0);
    EXPECT_GE(percentile(latency, 0.99), 150.0);
    EXPECT_LT(percentile(lateness, 0.99), 20.0);
  }
}

}  // namespace
}  // namespace perfbench
