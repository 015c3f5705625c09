#include "core/feature_encoder.hpp"

#include <algorithm>

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
  return out;
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
  FeatureMatrix out(jobs.size(), dim());
  std::vector<std::string> keys(jobs.size());
  std::vector<std::size_t> misses;
  {
    obs::Span lookup_span(obs::Stage::kCacheLookup);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      keys[i] = feature_string(jobs[i]);
      if (!cache.lookup(keys[i], std::span<float>(out.row(i), dim()))) misses.push_back(i);
    }
  }
  // Encoding misses is the expensive part; the cache is thread-safe so
  // insertion happens inside the parallel region. The span is measured
  // on the calling thread, which blocks until the pool drains the batch.
  obs::Span encode_span(obs::Stage::kEncode);
  parallel_for_each(
      pool, 0, misses.size(),
      [&](std::size_t m) {
        const std::size_t i = misses[m];
        const auto vec = encoder_.encode(keys[i]);
        std::copy(vec.begin(), vec.end(), out.row(i));
        cache.insert(keys[i], vec);
      },
      /*grain=*/16);
  if (miss_count != nullptr) *miss_count = misses.size();
  return out;
}

}  // namespace mcb
