#include "core/feature_encoder.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace mcb {

const char* job_feature_name(JobFeature feature) noexcept {
  switch (feature) {
    case JobFeature::kUserName: return "user_name";
    case JobFeature::kJobName: return "job_name";
    case JobFeature::kCoresRequested: return "cores_requested";
    case JobFeature::kNodesRequested: return "nodes_requested";
    case JobFeature::kEnvironment: return "environment";
    case JobFeature::kFrequency: return "frequency";
  }
  return "unknown";
}

std::vector<JobFeature> default_feature_set() {
  return {JobFeature::kUserName,       JobFeature::kJobName,
          JobFeature::kCoresRequested, JobFeature::kNodesRequested,
          JobFeature::kEnvironment,    JobFeature::kFrequency};
}

FeatureEncoder::FeatureEncoder(std::vector<JobFeature> features, EncoderConfig encoder_config)
    : features_(std::move(features)), encoder_(std::move(encoder_config)) {}

std::string FeatureEncoder::feature_string(const JobRecord& job) const {
  std::string out;
  feature_string(job, out);
  return out;
}

void FeatureEncoder::feature_string(const JobRecord& job, std::string& out) const {
  out.clear();
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (i > 0) out += ',';
    switch (features_[i]) {
      case JobFeature::kUserName: out += job.user_name; break;
      case JobFeature::kJobName: out += job.job_name; break;
      case JobFeature::kCoresRequested: out += std::to_string(job.cores_requested); break;
      case JobFeature::kNodesRequested: out += std::to_string(job.nodes_requested); break;
      case JobFeature::kEnvironment: out += job.environment; break;
      case JobFeature::kFrequency: out += std::to_string(frequency_mhz(job.frequency)); break;
    }
  }
}

std::vector<float> FeatureEncoder::encode(const JobRecord& job) const {
  return encoder_.encode(feature_string(job));
}

FeatureMatrix FeatureEncoder::encode_batch(std::span<const JobRecord> jobs,
                                           ThreadPool* pool) const {
  FeatureMatrix out(jobs.size(), dim());
  parallel_for_each(
      pool, 0, jobs.size(),
      [&](std::size_t i) {
        const auto vec = encode(jobs[i]);
        std::copy(vec.begin(), vec.end(), out.row(i));
      },
      /*grain=*/16);
  return out;
}

FeatureMatrix FeatureEncoder::encode_batch_cached(std::span<const JobRecord> jobs,
                                                  ShardedEmbeddingCache& cache,
                                                  ThreadPool* pool,
                                                  std::size_t* miss_count) const {
  return encode_grouped(jobs, cache, pool, nullptr, miss_count);
}

FeatureEncoder::DistinctRows FeatureEncoder::encode_distinct_cached(
    std::span<const JobRecord> jobs, ShardedEmbeddingCache& cache, ThreadPool* pool) const {
  DistinctRows out;
  out.rows = encode_grouped(jobs, cache, pool, &out.slot, nullptr);
  return out;
}

FeatureMatrix FeatureEncoder::encode_grouped(std::span<const JobRecord> jobs,
                                             ShardedEmbeddingCache& cache, ThreadPool* pool,
                                             std::vector<std::size_t>* slot,
                                             std::size_t* miss_count) const {
  std::vector<std::size_t> local_slot;
  std::vector<std::size_t>& slot_of = slot != nullptr ? *slot : local_slot;
  slot_of.resize(jobs.size());
  // The distinct strings in first-seen order, and the first job of each.
  // `keys` is reserved for every job, so no emplace_back moves a string
  // that `index` holds a view of.
  std::vector<std::string> keys;
  keys.reserve(jobs.size());
  std::vector<std::size_t> first;
  FeatureMatrix out;
  // Where distinct string k goes: its own row, or in place at its first
  // job's row of the one-row-per-job matrix (no second jobs x dim matrix
  // is built and expanded).
  const auto row = [&](std::size_t k) { return out.row(slot != nullptr ? k : first[k]); };
  std::vector<std::size_t> misses;
  {
    obs::Span lookup_span(obs::Stage::kCacheLookup);
    std::unordered_map<std::string_view, std::size_t> index;
    index.reserve(jobs.size());
    std::string key;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      feature_string(jobs[i], key);
      const auto it = index.find(key);
      if (it == index.end()) {
        slot_of[i] = keys.size();
        first.push_back(i);
        index.emplace(keys.emplace_back(key), slot_of[i]);
      } else {
        slot_of[i] = it->second;
      }
    }
    out = FeatureMatrix(slot != nullptr ? keys.size() : jobs.size(), dim());
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (!cache.lookup(keys[k], std::span<float>(row(k), dim()))) misses.push_back(k);
    }
  }
  {
    // Encoding misses is the expensive part; the cache is thread-safe so
    // insertion happens inside the parallel region. The span is measured
    // on the calling thread, which blocks until the pool drains the batch.
    obs::Span encode_span(obs::Stage::kEncode);
    parallel_for_each(
        pool, 0, misses.size(),
        [&](std::size_t m) {
          const std::size_t k = misses[m];
          const auto vec = encoder_.encode(keys[k]);
          std::copy(vec.begin(), vec.end(), row(k));
          cache.insert(keys[k], vec);
        },
        /*grain=*/16);
  }
  if (slot == nullptr) {
    // Copy each distinct row to the jobs that share its string.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::size_t source = first[slot_of[i]];
      if (source != i) std::copy_n(out.row(source), dim(), out.row(i));
    }
  }
  if (miss_count != nullptr) *miss_count = misses.size();
  return out;
}

}  // namespace mcb
