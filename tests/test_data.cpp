// Tests for the data module: JobRecord CSV round-trips, JobStore
// indexing/queries and the Data Fetcher.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "data/data_fetcher.hpp"
#include "data/job_record.hpp"
#include "data/job_store.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mcb {
namespace {

JobRecord make_job(std::uint64_t id, TimePoint submit, std::int64_t duration = 600) {
  JobRecord job;
  job.job_id = id;
  job.user_name = "u00042";
  job.job_name = "cfd_solve_x" + std::to_string(id % 7);
  job.environment = "lang/tcsds-1.2.38";
  job.nodes_requested = 4;
  job.cores_requested = 192;
  job.frequency = id % 2 == 0 ? FrequencyMode::kNormal : FrequencyMode::kBoost;
  job.submit_time = submit;
  job.start_time = submit + 180;
  job.end_time = job.start_time + duration;
  job.nodes_allocated = 4;
  job.perf2 = 1e12;
  job.perf3 = 2e12;
  job.perf4 = 3e12;
  job.perf5 = 1e12;
  return job;
}

// ------------------------------------------------------------ JobRecord

TEST(JobRecord, DurationIsEndMinusStart) {
  const JobRecord job = make_job(1, 1000, 500);
  EXPECT_EQ(job.duration(), 500);
}

TEST(JobRecord, FrequencyHelpers) {
  EXPECT_EQ(frequency_mhz(FrequencyMode::kNormal), 2000);
  EXPECT_EQ(frequency_mhz(FrequencyMode::kBoost), 2200);
  EXPECT_STREQ(frequency_mode_name(FrequencyMode::kNormal), "normal");
  EXPECT_STREQ(frequency_mode_name(FrequencyMode::kBoost), "boost");
}

TEST(JobRecord, CsvRoundTrip) {
  const JobRecord original = make_job(99, 1'700'000'000);
  const auto fields = job_to_csv(original);
  ASSERT_EQ(fields.size(), job_csv_header().size());

  JobRecord parsed;
  ASSERT_TRUE(job_from_csv(fields, parsed));
  EXPECT_EQ(parsed.job_id, original.job_id);
  EXPECT_EQ(parsed.user_name, original.user_name);
  EXPECT_EQ(parsed.job_name, original.job_name);
  EXPECT_EQ(parsed.environment, original.environment);
  EXPECT_EQ(parsed.nodes_requested, original.nodes_requested);
  EXPECT_EQ(parsed.cores_requested, original.cores_requested);
  EXPECT_EQ(parsed.frequency, original.frequency);
  EXPECT_EQ(parsed.submit_time, original.submit_time);
  EXPECT_EQ(parsed.end_time, original.end_time);
  EXPECT_DOUBLE_EQ(parsed.perf2, original.perf2);
  EXPECT_DOUBLE_EQ(parsed.perf5, original.perf5);
}

TEST(JobRecord, CsvRejectsWrongFieldCount) {
  JobRecord out;
  EXPECT_FALSE(job_from_csv({"1", "2"}, out));
}

TEST(JobRecord, CsvRejectsNonNumeric) {
  auto fields = job_to_csv(make_job(1, 0));
  fields[0] = "not-a-number";
  JobRecord out;
  EXPECT_FALSE(job_from_csv(fields, out));
}

// -------------------------------------------------------------- JobStore

TEST(JobStore, InsertAndFind) {
  JobStore store;
  EXPECT_EQ(store.insert_all({make_job(1, 100), make_job(2, 200)}), 2U);
  EXPECT_EQ(store.size(), 2U);
  const JobRecord* found = store.find(2);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->job_id, 2U);
  EXPECT_EQ(store.find(99), nullptr);
}

TEST(JobStore, RejectsDuplicateIds) {
  JobStore store;
  EXPECT_EQ(store.insert_all({make_job(1, 100)}), 1U);
  EXPECT_EQ(store.insert_all({make_job(1, 999)}), 0U);
  EXPECT_EQ(store.size(), 1U);
  EXPECT_EQ(store.find(1)->submit_time, 100);
}

TEST(JobStore, QueryByEndTimeRange) {
  std::vector<JobRecord> jobs;
  for (std::uint64_t i = 0; i < 10; ++i) {
    jobs.push_back(make_job(i, static_cast<TimePoint>(i * 1000)));
  }
  JobStore store;
  store.insert_all(std::move(jobs));
  // Jobs end at submit + 180 + 600.
  JobQuery q;
  q.field = JobQuery::TimeField::kEndTime;
  q.start_time = 780 + 2000;  // end_time of job 2
  q.end_time = 780 + 5000;    // exclusive of job 5
  const auto result = store.query(q);
  ASSERT_EQ(result.size(), 3U);
  EXPECT_EQ(result[0]->job_id, 2U);
  EXPECT_EQ(result[2]->job_id, 4U);
}

TEST(JobStore, QueryBySubmitTime) {
  std::vector<JobRecord> jobs;
  for (std::uint64_t i = 0; i < 5; ++i) {
    jobs.push_back(make_job(i, static_cast<TimePoint>(100 - i * 10)));  // reverse order
  }
  JobStore store;
  store.insert_all(std::move(jobs));
  JobQuery q;
  q.field = JobQuery::TimeField::kSubmitTime;
  q.start_time = 70;
  q.end_time = 101;
  const auto result = store.query(q);
  ASSERT_EQ(result.size(), 4U);
  // Ordered by submit_time ascending.
  EXPECT_EQ(result[0]->submit_time, 70);
  EXPECT_EQ(result[3]->submit_time, 100);
}

TEST(JobStore, QueryWithFilters) {
  std::vector<JobRecord> jobs;
  for (std::uint64_t i = 0; i < 8; ++i) jobs.push_back(make_job(i, 100));
  JobStore store;
  store.insert_all(std::move(jobs));
  JobQuery q;
  q.start_time = 0;
  q.end_time = 1'000'000;
  q.frequency = FrequencyMode::kBoost;
  EXPECT_EQ(store.query(q).size(), 4U);  // odd ids
  q.frequency.reset();
  q.user_name = "nobody";
  EXPECT_TRUE(store.query(q).empty());
  q.user_name = "u00042";
  EXPECT_EQ(store.query(q).size(), 8U);
}

TEST(JobStore, EmptyRangeQuery) {
  JobStore store;
  store.insert_all({make_job(1, 100)});
  JobQuery q;
  q.start_time = 1'000'000;
  q.end_time = 2'000'000;
  EXPECT_TRUE(store.query(q).empty());
}

TEST(JobStore, OutOfOrderInsertsAreSorted) {
  Rng rng(3);
  std::vector<JobRecord> jobs;
  for (std::uint64_t i = 0; i < 100; ++i) {
    jobs.push_back(make_job(i, static_cast<TimePoint>(rng.bounded(1'000'000))));
  }
  JobStore store;
  store.insert_all(std::move(jobs));
  const auto all = store.all();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].end_time, all[i].end_time);
  }
  EXPECT_EQ(store.min_end_time(), all.front().end_time);
  EXPECT_EQ(store.max_end_time(), all.back().end_time);
}

TEST(JobStore, FindSurvivesResorting) {
  JobStore store;
  store.insert_all({make_job(10, 5000)});
  store.insert_all({make_job(20, 1000)});  // ends first: the second build re-sorts
  const JobRecord* a = store.find(10);
  const JobRecord* b = store.find(20);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->submit_time, 5000);
  EXPECT_EQ(b->submit_time, 1000);
}

TEST(JobStore, InsertAllCountsInsertions) {
  JobStore store;
  std::vector<JobRecord> jobs{make_job(1, 10), make_job(2, 20), make_job(1, 30)};
  EXPECT_EQ(store.insert_all(std::move(jobs)), 2U);
}

TEST(JobStore, CsvSaveLoadRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() / "mcb_store_test.csv";
  std::vector<JobRecord> jobs;
  for (std::uint64_t i = 0; i < 50; ++i) {
    jobs.push_back(make_job(i, static_cast<TimePoint>(i * 777)));
  }
  JobStore store;
  store.insert_all(std::move(jobs));
  ASSERT_TRUE(store.save_csv(path));

  JobStore loaded;
  std::string error;
  ASSERT_TRUE(loaded.load_csv(path, &error)) << error;
  EXPECT_EQ(loaded.size(), store.size());
  const JobRecord* job = loaded.find(17);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->submit_time, 17 * 777);
  EXPECT_EQ(job->job_name, store.find(17)->job_name);
  std::remove(path.c_str());
}

TEST(JobStore, LoadRejectsMissingFile) {
  JobStore store;
  std::string error;
  EXPECT_FALSE(store.load_csv("/nonexistent/path.csv", &error));
  EXPECT_FALSE(error.empty());
}

TEST(JobStore, LoadRejectsBadHeader) {
  const std::string path = std::filesystem::temp_directory_path() / "mcb_bad_header.csv";
  {
    std::ofstream out(path);
    out << "wrong,header\n1,2\n";
  }
  JobStore store;
  std::string error;
  EXPECT_FALSE(store.load_csv(path, &error));
  EXPECT_NE(error.find("header"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JobStore, FailedLoadLeavesStoreUnchanged) {
  const auto row = [](std::uint64_t id, TimePoint submit) {
    return join(job_to_csv(make_job(id, submit)), ",") + "\n";
  };
  const std::string header = join(job_csv_header(), ",") + "\n";
  JobStore store;
  std::istringstream good(header + row(1, 100) + row(2, 200));
  ASSERT_TRUE(store.load_csv(good));
  // Data row 2 is valid and new; data row 3 is malformed, so nothing may commit.
  std::istringstream bad(header + row(3, 300) + "broken\n");
  std::string error;
  EXPECT_FALSE(store.load_csv(bad, &error));
  EXPECT_NE(error.find("data row 3"), std::string::npos) << error;
  EXPECT_EQ(store.size(), 2U);
  ASSERT_NE(store.find(1), nullptr);
  EXPECT_EQ(store.find(2)->submit_time, 200);
  EXPECT_EQ(store.find(3), nullptr);
}

// Malformed rows must produce a diagnostic naming the offending data row
// — never an abort, exception or silently-partial success.
class JobStoreMalformedCsv : public ::testing::Test {
 protected:
  // Returns the error string from loading `rows` under a valid header.
  static std::string load_error(const std::string& rows) {
    std::string csv = join(job_csv_header(), ",") + "\n" + rows;
    std::istringstream in(csv);
    JobStore store;
    std::string error;
    EXPECT_FALSE(store.load_csv(in, &error));
    EXPECT_FALSE(error.empty());
    return error;
  }

  static std::string valid_row(std::uint64_t id) {
    return join(job_to_csv(make_job(id, 1000)), ",");
  }
};

TEST_F(JobStoreMalformedCsv, TruncatedLine) {
  const std::string error = load_error("1,u00001,name,env,4,192\n");
  EXPECT_NE(error.find("data row 2"), std::string::npos) << error;
}

TEST_F(JobStoreMalformedCsv, QuotedCommaShiftsNothingButShortRowFails) {
  // A quoted comma is one field; dropping the quotes makes 19 fields.
  const std::string good =
      R"(7,"user,name",job,env,4,192,2200,100,280,880,4,0,1,1,1,1,0,1.0)";
  std::istringstream in(join(job_csv_header(), ",") + "\n" + good + "\n");
  JobStore store;
  std::string error;
  ASSERT_TRUE(store.load_csv(in, &error)) << error;
  EXPECT_EQ(store.find(7)->user_name, "user,name");

  const std::string bad =
      "8,user,name,job,env,4,192,2200,100,280,880,4,0,1,1,1,1,0,1.0";
  EXPECT_NE(load_error(bad + "\n").find("data row 2"), std::string::npos);
}

TEST_F(JobStoreMalformedCsv, NonNumericField) {
  const std::string error =
      load_error("9,u,j,e,4,192,2200,100,280,NOT_A_TIME,4,0,1,1,1,1,0,1.0\n");
  EXPECT_NE(error.find("data row 2"), std::string::npos) << error;
}

TEST_F(JobStoreMalformedCsv, DuplicateJobId) {
  const std::string error = load_error(valid_row(5) + "\n" + valid_row(5) + "\n");
  EXPECT_NE(error.find("duplicate job id"), std::string::npos) << error;
  EXPECT_NE(error.find("data row 3"), std::string::npos) << error;
}

TEST_F(JobStoreMalformedCsv, ErrorRowNumberSkipsBlankLines) {
  const std::string error = load_error(valid_row(6) + "\n\n\nbroken\n");
  // Blank lines are skipped by the reader; the broken row is data row 3.
  EXPECT_NE(error.find("data row 3"), std::string::npos) << error;
}

TEST_F(JobStoreMalformedCsv, OverflowingNumericFieldRejected) {
  const std::string error = load_error(
      "10,u,j,e,4,192,2200,99999999999999999999999999,280,880,4,0,1,1,1,1,0,1.0\n");
  EXPECT_NE(error.find("data row 2"), std::string::npos) << error;
  // Fields narrower than 64 bits reject a value outside their type
  // instead of truncating it: 2^32 + 48 cores is not a 48-core job.
  for (const char* row : {"11,u,j,e,4,4294967344,2200,100,280,880,4,0,1,1,1,1,0,1.0\n",
                          "12,u,j,e,4294967296,192,2200,100,280,880,4,0,1,1,1,1,0,1.0\n",
                          "13,u,j,e,4,192,2200,100,280,880,4294967296,0,1,1,1,1,0,1.0\n",
                          "14,u,j,e,4,192,2200,100,280,880,4,2147483648,1,1,1,1,0,1.0\n",
                          "15,u,j,e,4,192,2200,100,280,880,4,-2147483649,1,1,1,1,0,1.0\n"}) {
    EXPECT_NE(load_error(row).find("data row 2"), std::string::npos) << row;
  }
}

class StoreQueryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreQueryProperty, RangeQueryMatchesLinearScan) {
  Rng rng(GetParam());
  std::vector<JobRecord> reference;
  for (std::uint64_t i = 1; i <= 300; ++i) {
    reference.push_back(make_job(i, static_cast<TimePoint>(rng.bounded(100'000)),
                                 static_cast<std::int64_t>(1 + rng.bounded(5'000))));
  }
  JobStore store;
  store.insert_all(reference);
  for (int round = 0; round < 50; ++round) {
    JobQuery q;
    q.field = rng.bernoulli(0.5) ? JobQuery::TimeField::kEndTime
                                 : JobQuery::TimeField::kSubmitTime;
    q.start_time = static_cast<TimePoint>(rng.bounded(120'000));
    q.end_time = q.start_time + static_cast<TimePoint>(rng.bounded(50'000));
    const auto result = store.query(q);

    std::size_t expected = 0;
    for (const auto& job : reference) {
      const TimePoint t =
          q.field == JobQuery::TimeField::kEndTime ? job.end_time : job.submit_time;
      expected += t >= q.start_time && t < q.end_time;
    }
    EXPECT_EQ(result.size(), expected);
    for (std::size_t i = 1; i < result.size(); ++i) {
      const TimePoint a = q.field == JobQuery::TimeField::kEndTime
                              ? result[i - 1]->end_time
                              : result[i - 1]->submit_time;
      const TimePoint b = q.field == JobQuery::TimeField::kEndTime
                              ? result[i]->end_time
                              : result[i]->submit_time;
      EXPECT_LE(a, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreQueryProperty, ::testing::Values(7, 22, 520));

// ----------------------------------------------------------- JobQuery SQL

TEST(JobQuery, RendersSql) {
  JobQuery q;
  q.field = JobQuery::TimeField::kEndTime;
  q.start_time = 100;
  q.end_time = 200;
  EXPECT_EQ(q.to_sql(),
            "SELECT * FROM jobs WHERE end_time >= 100 AND end_time < 200 ORDER BY end_time");
}

TEST(JobQuery, RendersSqlWithFilters) {
  JobQuery q;
  q.field = JobQuery::TimeField::kSubmitTime;
  q.start_time = 1;
  q.end_time = 2;
  q.user_name = "u1";
  q.frequency = FrequencyMode::kBoost;
  const std::string sql = q.to_sql();
  EXPECT_NE(sql.find("submit_time >= 1"), std::string::npos);
  EXPECT_NE(sql.find("user_name = 'u1'"), std::string::npos);
  EXPECT_NE(sql.find("freq_mhz = 2200"), std::string::npos);
}

// ----------------------------------------------------------- DataFetcher

TEST(StoreDataFetcher, FetchById) {
  JobStore store;
  store.insert_all({make_job(7, 700)});
  StoreDataFetcher fetcher(store);
  const auto job = fetcher.fetch(7);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->job_id, 7U);
  EXPECT_FALSE(fetcher.fetch(8).has_value());
}

TEST(StoreDataFetcher, FetchRangeCopiesRecords) {
  std::vector<JobRecord> records;
  for (std::uint64_t i = 0; i < 10; ++i) {
    records.push_back(make_job(i, static_cast<TimePoint>(i * 100)));
  }
  JobStore store;
  store.insert_all(std::move(records));
  StoreDataFetcher fetcher(store);
  const auto jobs = fetcher.fetch(0, 10'000, JobQuery::TimeField::kSubmitTime);
  EXPECT_EQ(jobs.size(), 10U);
  // Ordered by submit time.
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_LE(jobs[i - 1].submit_time, jobs[i].submit_time);
  }
}

TEST(StoreDataFetcher, RenderSqlMatchesQuery) {
  const std::string sql =
      StoreDataFetcher::render_sql(5, 10, JobQuery::TimeField::kEndTime);
  EXPECT_NE(sql.find("end_time >= 5"), std::string::npos);
}

// The store is immutable once built, so concurrent readers need no lock.
// Built from out-of-order input (every 5th job ends late) so the reads
// below go through a re-sorted table and both indexes; TSan (CI's
// MCB_SANITIZE=thread leg) checks that they really share nothing mutable.
TEST(JobStore, ConcurrentReadersOfABuiltStore) {
  constexpr std::uint64_t kJobs = 2000;
  constexpr int kReaders = 4;
  std::vector<JobRecord> jobs;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    jobs.push_back(make_job(i, static_cast<TimePoint>(i * 100 + (i % 5 == 0 ? 7000 : 0))));
  }
  JobStore store;
  ASSERT_EQ(store.insert_all(std::move(jobs)), kJobs);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < 20; ++round) {
        for (const auto field : {JobQuery::TimeField::kEndTime, JobQuery::TimeField::kSubmitTime}) {
          JobQuery q;
          q.field = field;
          q.start_time = 0;
          q.end_time = static_cast<TimePoint>(kJobs * 200);
          const auto hits = store.query(q);
          ASSERT_EQ(hits.size(), kJobs);
          for (std::size_t i = 1; i < hits.size(); ++i) {
            ASSERT_LE(field == JobQuery::TimeField::kEndTime ? hits[i - 1]->end_time
                                                             : hits[i - 1]->submit_time,
                      field == JobQuery::TimeField::kEndTime ? hits[i]->end_time
                                                             : hits[i]->submit_time);
          }
        }
        for (std::uint64_t id = static_cast<std::uint64_t>(r); id < kJobs; id += 7) {
          const JobRecord* job = store.find(id);
          ASSERT_NE(job, nullptr);
          ASSERT_EQ(job->job_id, id);
        }
        const auto all = store.all();
        ASSERT_EQ(all.size(), kJobs);
        ASSERT_EQ(store.min_end_time(), all.front().end_time);
        ASSERT_EQ(store.max_end_time(), all.back().end_time);
      }
    });
  }
  for (auto& t : readers) t.join();
}

}  // namespace
}  // namespace mcb
