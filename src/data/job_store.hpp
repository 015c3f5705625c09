// JobStore — the "jobs data storage" substrate.
//
// On Fugaku the operations software records every job in a relational
// database; MCBound's Data Fetcher issues time-range SQL queries against
// it. Here the store is an embeddable in-memory table with:
//   * O(1) lookup by job id,
//   * O(log n + k) range scans over end_time (jobs *executed* in a
//     window — what the Training Workflow fetches) and over submit_time
//     (what the Inference Workflow fetches),
//   * CSV persistence (our stand-in for the F-DATA export).
//
// Build once, then read. insert_all and load_csv are the only writers:
// each sorts the records by (end_time, job_id) and builds the id and
// submit-time indexes before it returns, in any input order. After
// that the store is immutable, and every const member is a plain read
// with no lock, so any number of threads (HTTP handlers, training,
// analysis passes) may share one store. A writer must not run while
// other threads read: it invalidates the pointers and spans that
// find, query and all hand out.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/job_record.hpp"
#include "util/time.hpp"

namespace mcb {

/// Declarative range query; `to_sql()` renders the equivalent SQL the
/// Fugaku deployment would issue (used for logging and tested for
/// fidelity with the paper's description of the Data Fetcher).
struct JobQuery {
  enum class TimeField { kEndTime, kSubmitTime };

  TimeField field = TimeField::kEndTime;
  TimePoint start_time = 0;                 ///< inclusive
  TimePoint end_time = 0;                   ///< exclusive
  std::optional<std::string> user_name;     ///< optional equality filter
  std::optional<FrequencyMode> frequency;   ///< optional equality filter

  std::string to_sql() const;
};

class JobStore {
 public:
  /// Bulk insert in any order; returns the number of records actually
  /// inserted. A job id already in the store, or repeated within
  /// `jobs`, is rejected (the first record with that id wins). Each
  /// call re-sorts and re-indexes the whole store: build it in one call.
  std::size_t insert_all(std::vector<JobRecord> jobs);

  std::size_t size() const noexcept { return jobs_.size(); }
  bool empty() const noexcept { return jobs_.empty(); }

  /// Lookup by id; nullptr if absent.
  const JobRecord* find(std::uint64_t job_id) const;

  /// Execute a range query; results ordered by the queried time field.
  std::vector<const JobRecord*> query(const JobQuery& q) const;

  /// All records ordered by (end_time, job_id).
  std::span<const JobRecord> all() const noexcept { return jobs_; }

  /// Earliest / latest end_time in the store (0 if empty).
  TimePoint min_end_time() const noexcept;
  TimePoint max_end_time() const noexcept;

  /// CSV persistence. save() writes header + one row per record;
  /// load() replaces the store contents. Both return false on I/O or
  /// parse failure; a failed load leaves the store as it was.
  /// Malformed input (truncated rows, non-numeric fields, duplicate job
  /// ids, mismatched header) is always reported through `error` with the
  /// offending data row — never an abort or exception.
  bool save_csv(const std::string& path) const;
  bool load_csv(const std::string& path, std::string* error = nullptr);
  /// Stream variant of load_csv (used directly by the fuzz harness).
  bool load_csv(std::istream& in, std::string* error = nullptr);

 private:
  /// Sort jobs_ and rebuild both indexes; id_index_ must already hold
  /// exactly the ids in jobs_ (their slots are reassigned here).
  void build_indexes();

  std::vector<JobRecord> jobs_;                            // sorted by (end_time, job_id)
  std::vector<std::uint32_t> by_submit_;                   // slots sorted by (submit_time, job_id)
  std::unordered_map<std::uint64_t, std::uint32_t> id_index_;  // id -> slot
};

}  // namespace mcb
