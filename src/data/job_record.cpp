#include "data/job_record.hpp"

#include <limits>

#include "util/strings.hpp"

namespace mcb {
namespace {

/// parse_u64 / parse_i64 narrowed to the field's type: a value outside
/// it rejects the row instead of wrapping.
bool parse_u32(std::string_view text, std::uint32_t& out) {
  std::uint64_t u = 0;
  if (!parse_u64(text, u) || u > std::numeric_limits<std::uint32_t>::max()) return false;
  out = static_cast<std::uint32_t>(u);
  return true;
}

bool parse_i32(std::string_view text, std::int32_t& out) {
  std::int64_t i = 0;
  if (!parse_i64(text, i) || i < std::numeric_limits<std::int32_t>::min() ||
      i > std::numeric_limits<std::int32_t>::max()) {
    return false;
  }
  out = static_cast<std::int32_t>(i);
  return true;
}

}  // namespace

const std::vector<std::string>& job_csv_header() {
  static const std::vector<std::string> header = {
      "job_id",       "user_name",  "job_name",      "environment",
      "nodes_req",    "cores_req",  "freq_mhz",      "submit_time",
      "start_time",   "end_time",   "nodes_alloc",   "exit_status",
      "perf2",        "perf3",      "perf4",         "perf5",
      "perf6",        "avg_power_w",
  };
  return header;
}

std::vector<std::string> job_to_csv(const JobRecord& job) {
  return {
      std::to_string(job.job_id),
      job.user_name,
      job.job_name,
      job.environment,
      std::to_string(job.nodes_requested),
      std::to_string(job.cores_requested),
      std::to_string(frequency_mhz(job.frequency)),
      std::to_string(job.submit_time),
      std::to_string(job.start_time),
      std::to_string(job.end_time),
      std::to_string(job.nodes_allocated),
      std::to_string(job.exit_status),
      format_double(job.perf2, 0),
      format_double(job.perf3, 0),
      format_double(job.perf4, 0),
      format_double(job.perf5, 0),
      format_double(job.perf6, 0),
      format_double(job.avg_power_watts, 1),
  };
}

bool job_from_csv(const std::vector<std::string>& fields, JobRecord& out) {
  if (fields.size() != job_csv_header().size()) return false;
  JobRecord job;
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double d = 0.0;

  if (!parse_u64(fields[0], u)) return false;
  job.job_id = u;
  job.user_name = fields[1];
  job.job_name = fields[2];
  job.environment = fields[3];
  if (!parse_u32(fields[4], job.nodes_requested)) return false;
  if (!parse_u32(fields[5], job.cores_requested)) return false;
  if (!parse_u64(fields[6], u)) return false;
  job.frequency = (u >= 2200) ? FrequencyMode::kBoost : FrequencyMode::kNormal;
  if (!parse_i64(fields[7], i)) return false;
  job.submit_time = i;
  if (!parse_i64(fields[8], i)) return false;
  job.start_time = i;
  if (!parse_i64(fields[9], i)) return false;
  job.end_time = i;
  if (!parse_u32(fields[10], job.nodes_allocated)) return false;
  if (!parse_i32(fields[11], job.exit_status)) return false;
  if (!parse_double(fields[12], d)) return false;
  job.perf2 = d;
  if (!parse_double(fields[13], d)) return false;
  job.perf3 = d;
  if (!parse_double(fields[14], d)) return false;
  job.perf4 = d;
  if (!parse_double(fields[15], d)) return false;
  job.perf5 = d;
  if (!parse_double(fields[16], d)) return false;
  job.perf6 = d;
  if (!parse_double(fields[17], d)) return false;
  job.avg_power_watts = d;

  out = std::move(job);
  return true;
}

}  // namespace mcb
