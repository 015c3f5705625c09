// The traced run's in-process replay: the benchmark calls each layer's
// public functions on the workload's own inputs, with its own spans
// around every call site, after the server has stopped (so nothing
// contends with it). The server is never instrumented by this code.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "data/job_record.hpp"

namespace perfbench {

/// One benchmark-side span: a timed block around calls into one layer.
struct Span {
  std::string name;
  std::string parent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t calls = 0;
};

struct ReplayInput {
  std::string trace_csv;
  std::string scratch_dir;          ///< registries written by the replay
  mcb::FrameworkConfig config;      ///< the server's model configuration
  std::vector<mcb::TimePoint> train_times;  ///< set-up train, then one warm retrain
  std::vector<mcb::JobRecord> sequence;     ///< the jobs the workload sent, in order
  std::size_t batch = 1;            ///< jobs per request on this workload
  std::vector<std::string> raw_requests;    ///< the workload's HTTP requests
};

struct ReplayResult {
  std::map<std::string, double> metrics;  ///< per-layer metric -> value
  std::vector<Span> spans;
};

ReplayResult replay_layers(const ReplayInput& input);

}  // namespace perfbench
