#include "replay.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <unordered_set>

#include "core/mcbound.hpp"
#include "data/data_fetcher.hpp"
#include "data/job_store.hpp"
#include "loadgen.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

// Caps on how much of the workload's input each layer call replays; big
// enough that a mean over them is stable, small enough to keep the
// traced run short.
constexpr std::size_t kMaxSingleCalls = 8192;
constexpr std::size_t kMaxBatchedJobs = 16384;
constexpr std::size_t kMaxRequests = 4096;
constexpr std::size_t kMissSamples = 512;

class SpanRecorder {
 public:
  explicit SpanRecorder(std::vector<Span>& out) : out_(out) {}

  /// Times `body` as one span under `parent`; returns seconds.
  template <typename Body>
  double time(const std::string& name, const std::string& parent, std::uint64_t calls,
              Body&& body) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.calls = calls;
    span.start_ns = now_ns();
    body();
    span.end_ns = now_ns();
    out_.push_back(span);
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }

 private:
  std::vector<Span>& out_;
};

double per_call_us(double seconds, std::size_t calls) {
  return calls == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(calls);
}

}  // namespace

ReplayResult replay_layers(const ReplayInput& input) {
  ReplayResult result;
  auto& m = result.metrics;
  SpanRecorder spans(result.spans);
  const std::string root = "replay";
  const std::int64_t root_start = now_ns();

  // data: the CSV load behind set-up, and the window fetch behind the
  // last (warm) retrain.
  mcb::JobStore store;
  std::string error;
  m["data.load_csv_s"] = spans.time("data.load_csv", root, 1, [&] {
    if (!store.load_csv(input.trace_csv, &error)) throw std::runtime_error(error);
  });
  const mcb::TimePoint last_train = input.train_times.back();
  const mcb::TimePoint window_start =
      last_train - static_cast<std::int64_t>(input.config.alpha_days) * mcb::kSecondsPerDay;
  const mcb::StoreDataFetcher fetcher(store);
  std::vector<mcb::JobRecord> window;
  m["data.fetch_window_ms"] =
      1e3 * spans.time("data.fetch_window", root, 1,
                       [&] {
                         window = fetcher.fetch(window_start, last_train,
                                                mcb::JobQuery::TimeField::kEndTime);
                       });

  // roofline: characterizing the training window.
  const mcb::Characterizer characterizer(input.config.machine);
  const double characterize_s =
      spans.time("roofline.characterize", root, window.size(), [&] {
        for (const mcb::JobRecord& job : window) (void)characterizer.characterize(job);
      });
  m["roofline.characterize_us_per_job"] = per_call_us(characterize_s, window.size());

  // core: the set-up train, then one warm retrain; the retrain's report
  // is the one reported, so its embedding cache has entries to hit.
  mcb::FrameworkConfig config = input.config;
  config.registry_dir = input.scratch_dir + "/replay-train";
  mcb::Framework framework(config, store);
  mcb::TrainingReport report;
  for (const mcb::TimePoint t : input.train_times) {
    spans.time("core.train_now", root, 1, [&] { report = framework.train_now(t); });
  }
  if (!framework.has_model()) throw std::runtime_error("replay training produced no model");
  m["core.train.fetch_s"] = report.fetch_seconds;
  m["core.train.characterize_s"] = report.characterize_seconds;
  m["core.train.encode_s"] = report.encode_seconds;
  m["core.train.fit_s"] = report.train_seconds;
  const auto lookups = static_cast<double>(report.cache_hits + report.cache_misses);
  m["core.train.encode_hit_ratio"] =
      lookups > 0 ? static_cast<double>(report.cache_hits) / lookups : 0.0;

  mcb::ModelRegistry save_registry(input.scratch_dir + "/replay-save");
  const std::string tag = framework.model_name();
  std::optional<std::uint32_t> saved;
  m["core.registry_save_s"] = spans.time("core.registry_save", root, 1, [&] {
    saved = save_registry.save(*framework.model(), tag);
  });
  if (!saved.has_value()) throw std::runtime_error("registry save failed");
  m["core.model_file_mb"] =
      static_cast<double>(std::filesystem::file_size(save_registry.path_for(tag, *saved))) /
      (1024.0 * 1024.0);

  // The workload cycles its sequence, and so does the replay, up to its caps.
  std::vector<mcb::JobRecord> seq;
  for (std::size_t i = 0; i < std::max(kMaxSingleCalls, kMaxBatchedJobs) && !input.sequence.empty();
       ++i) {
    seq.push_back(input.sequence[i % input.sequence.size()]);
  }
  const std::size_t singles = std::min(seq.size(), kMaxSingleCalls);
  const std::size_t batched = std::min(seq.size(), kMaxBatchedJobs) / 256 * 256;
  const auto batches_of = [&](std::size_t jobs, std::size_t width, auto&& fn) {
    for (std::size_t i = 0; i + width <= jobs; i += width) {
      fn(std::span<const mcb::JobRecord>(seq.data() + i, width));
    }
  };

  {
    mcb::ShardedEmbeddingCache cache(framework.encoder().dim());
    const double s = spans.time("core.predict_batch.b1", root, singles, [&] {
      batches_of(singles, 1, [&](auto jobs) { framework.predict_batch(jobs, &cache); });
    });
    m["core.predict_batch_us_per_job.b1"] = per_call_us(s, singles);
  }
  {
    mcb::ShardedEmbeddingCache cache(framework.encoder().dim());
    const double s = spans.time("core.predict_batch.b256", root, batched / 256, [&] {
      batches_of(batched, 256, [&](auto jobs) { framework.predict_batch(jobs, &cache); });
    });
    m["core.predict_batch_us_per_job.b256"] = per_call_us(s, batched);
  }
  {
    // The workload's own batch width through the serving encode path.
    const std::size_t width = input.batch;
    const std::size_t jobs = width == 1 ? singles : batched;
    mcb::ShardedEmbeddingCache cache(framework.encoder().dim());
    const double s = spans.time("core.encode_batch_cached", root, jobs / width, [&] {
      batches_of(jobs, width,
                 [&](auto batch) { framework.encoder().encode_batch_cached(batch, cache); });
    });
    m["core.encode_us_per_job"] = per_call_us(s, jobs);
  }

  // text: what one embedding-cache miss costs (distinct feature strings).
  {
    std::unordered_set<std::string> seen;
    std::vector<const mcb::JobRecord*> distinct;
    for (const mcb::JobRecord& job : seq) {
      if (distinct.size() == kMissSamples) break;
      if (seen.insert(framework.encoder().feature_string(job)).second) distinct.push_back(&job);
    }
    const double s = spans.time("text.encode_miss", root, distinct.size(), [&] {
      for (const mcb::JobRecord* job : distinct) (void)framework.encoder().encode(*job);
    });
    m["text.encode_miss_us"] = per_call_us(s, distinct.size());
  }

  // ml: inference alone, on rows encoded beforehand.
  {
    const std::size_t rows = std::max(singles, batched);
    const mcb::FeatureMatrix x =
        framework.encoder().encode_batch(std::span<const mcb::JobRecord>(seq.data(), rows));
    const mcb::ClassificationModel& model = *framework.model();
    const auto view_of = [&](std::size_t first, std::size_t count) {
      return mcb::FeatureView{x.row(first).data(), count, x.cols()};
    };
    double s = spans.time("ml.inference.b1", root, singles, [&] {
      for (std::size_t i = 0; i < singles; ++i) (void)model.inference(view_of(i, 1));
    });
    m["ml.inference_us_per_job.b1"] = per_call_us(s, singles);
    s = spans.time("ml.inference.b256", root, batched / 256, [&] {
      for (std::size_t i = 0; i + 256 <= batched; i += 256) (void)model.inference(view_of(i, 256));
    });
    m["ml.inference_us_per_job.b256"] = per_call_us(s, batched);
  }

  // ml: the KNN index's deduplication of the retrain window's rows. A KNN
  // model is fitted on them whichever model the server runs, so the ratio
  // describes the training data on every workload.
  {
    std::vector<mcb::JobRecord> labelled;
    std::vector<mcb::Label> y;
    for (const mcb::JobRecord& job : window) {
      if (const auto bound = characterizer.characterize(job)) {
        labelled.push_back(job);
        y.push_back(mcb::to_label(*bound));
      }
    }
    const mcb::FeatureMatrix x = framework.encoder().encode_batch(labelled);
    mcb::ClassificationModel knn(mcb::ModelKind::kKnn, input.config.knn);
    spans.time("ml.knn_fit", root, labelled.size(), [&] { knn.training(x.view(), y); });
    const mcb::KnnIndexStats* stats = knn.knn_index_stats();
    if (stats == nullptr || stats->rows == 0) throw std::runtime_error("the KNN fit built no index");
    m["ml.knn_unique_row_ratio"] =
        static_cast<double>(stats->unique_rows) / static_cast<double>(stats->rows);
  }

  // serve: the request-path pieces around the framework call.
  {
    const std::size_t count = std::min(input.raw_requests.size(), kMaxRequests);
    std::vector<mcb::HttpRequest> parsed(count);
    double s = spans.time("serve.http_parse", root, count, [&] {
      for (std::size_t i = 0; i < count; ++i) {
        auto request = mcb::parse_http_request(input.raw_requests[i]);
        if (!request.has_value()) throw std::runtime_error("replayed request does not parse");
        parsed[i] = std::move(*request);
      }
    });
    m["serve.http_parse_us"] = per_call_us(s, count);

    std::size_t jobs_parsed = 0;
    std::vector<std::size_t> jobs_per_request(count, 0);
    s = spans.time("serve.job_json", root, count, [&] {
      for (std::size_t i = 0; i < count; ++i) {
        const auto json = mcb::Json::parse(parsed[i].body);
        if (!json.has_value()) throw std::runtime_error("replayed body is not JSON");
        if (json->contains("jobs")) {
          for (const mcb::Json& job : (*json)["jobs"].as_array()) {
            if (mcb::job_from_json(job).has_value()) ++jobs_per_request[i];
          }
        } else if (mcb::job_from_json(*json).has_value()) {
          jobs_per_request[i] = 1;
        }
        jobs_parsed += jobs_per_request[i];
      }
    });
    m["serve.job_json_us_per_job"] = per_call_us(s, jobs_parsed);

    s = spans.time("serve.response_json", root, count, [&] {
      for (std::size_t i = 0; i < count; ++i) {
        mcb::Json body = mcb::Json::object();
        if (jobs_per_request[i] == 1 && input.batch == 1) {
          body.set("job_id", static_cast<std::int64_t>(i));
          body.set("label", "memory-bound");
        } else {
          mcb::Json labels = mcb::Json::array();
          for (std::size_t j = 0; j < jobs_per_request[i]; ++j) labels.push_back("memory-bound");
          body.set("count", static_cast<std::int64_t>(jobs_per_request[i]));
          body.set("labels", labels);
        }
        (void)mcb::serialize_http_response(mcb::HttpResponse::json(200, body.dump()), true);
      }
    });
    m["serve.response_json_us"] = per_call_us(s, count);
  }

  result.spans.push_back({root, "", root_start, now_ns(), 1});
  return result;
}

}  // namespace perfbench
