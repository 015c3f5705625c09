#include "data/job_store.hpp"

#include <algorithm>
#include <fstream>

#include "util/csv.hpp"

namespace mcb {

std::string JobQuery::to_sql() const {
  const char* column = field == TimeField::kEndTime ? "end_time" : "submit_time";
  std::string sql = "SELECT * FROM jobs WHERE ";
  sql += column;
  sql += " >= " + std::to_string(start_time);
  sql += " AND ";
  sql += column;
  sql += " < " + std::to_string(end_time);
  if (user_name.has_value()) sql += " AND user_name = '" + *user_name + "'";
  if (frequency.has_value()) {
    sql += " AND freq_mhz = " + std::to_string(frequency_mhz(*frequency));
  }
  sql += " ORDER BY ";
  sql += column;
  return sql;
}

std::size_t JobStore::insert_all(std::vector<JobRecord> jobs) {
  const std::size_t before = jobs_.size();
  jobs_.reserve(before + jobs.size());
  id_index_.reserve(before + jobs.size());
  for (JobRecord& job : jobs) {
    if (id_index_.emplace(job.job_id, 0).second) jobs_.push_back(std::move(job));
  }
  build_indexes();
  return jobs_.size() - before;
}

void JobStore::build_indexes() {
  std::sort(jobs_.begin(), jobs_.end(), [](const JobRecord& a, const JobRecord& b) {
    return a.end_time != b.end_time ? a.end_time < b.end_time : a.job_id < b.job_id;
  });
  by_submit_.resize(jobs_.size());
  for (std::uint32_t i = 0; i < jobs_.size(); ++i) {
    id_index_[jobs_[i].job_id] = i;
    by_submit_[i] = i;
  }
  std::sort(by_submit_.begin(), by_submit_.end(), [this](std::uint32_t a, std::uint32_t b) {
    return jobs_[a].submit_time != jobs_[b].submit_time
               ? jobs_[a].submit_time < jobs_[b].submit_time
               : jobs_[a].job_id < jobs_[b].job_id;
  });
}

const JobRecord* JobStore::find(std::uint64_t job_id) const {
  const auto it = id_index_.find(job_id);
  return it != id_index_.end() ? &jobs_[it->second] : nullptr;
}

std::vector<const JobRecord*> JobStore::query(const JobQuery& q) const {
  std::vector<const JobRecord*> out;

  const auto matches_filters = [&q](const JobRecord& job) {
    if (q.user_name.has_value() && job.user_name != *q.user_name) return false;
    if (q.frequency.has_value() && job.frequency != *q.frequency) return false;
    return true;
  };

  if (q.field == JobQuery::TimeField::kEndTime) {
    const auto lo = std::lower_bound(jobs_.begin(), jobs_.end(), q.start_time,
                                     [](const JobRecord& j, TimePoint t) { return j.end_time < t; });
    for (auto it = lo; it != jobs_.end() && it->end_time < q.end_time; ++it) {
      if (matches_filters(*it)) out.push_back(&*it);
    }
    return out;
  }

  const auto lo = std::lower_bound(
      by_submit_.begin(), by_submit_.end(), q.start_time,
      [this](std::uint32_t slot, TimePoint t) { return jobs_[slot].submit_time < t; });
  for (auto it = lo; it != by_submit_.end() && jobs_[*it].submit_time < q.end_time; ++it) {
    if (matches_filters(jobs_[*it])) out.push_back(&jobs_[*it]);
  }
  return out;
}

TimePoint JobStore::min_end_time() const noexcept {
  return jobs_.empty() ? 0 : jobs_.front().end_time;
}

TimePoint JobStore::max_end_time() const noexcept {
  return jobs_.empty() ? 0 : jobs_.back().end_time;
}

bool JobStore::save_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  CsvWriter writer(out);
  writer.write_row(job_csv_header());
  for (const auto& job : jobs_) writer.write_row(job_to_csv(job));
  return static_cast<bool>(out);
}

bool JobStore::load_csv(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  return load_csv(in, error);
}

bool JobStore::load_csv(std::istream& in, std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  CsvReader reader(in);
  std::vector<std::string> fields;
  if (!reader.next_row(fields) || fields != job_csv_header()) {
    return fail("missing or mismatched CSV header");
  }
  // Parse into locals and commit only once every row is good.
  std::vector<JobRecord> jobs;
  std::unordered_map<std::uint64_t, std::uint32_t> ids;
  std::size_t line = 1;
  while (reader.next_row(fields)) {
    ++line;
    JobRecord job;
    if (!job_from_csv(fields, job)) {
      return fail("malformed record at data row " + std::to_string(line));
    }
    if (!ids.emplace(job.job_id, 0).second) {
      return fail("duplicate job id at data row " + std::to_string(line));
    }
    jobs.push_back(std::move(job));
  }
  jobs_ = std::move(jobs);
  id_index_ = std::move(ids);
  build_indexes();
  return true;
}

}  // namespace mcb
