// Feature Encoder (paper §III-B): selects a subset of submission-time
// job features, joins their values into a comma-separated string, and
// encodes that string into a fixed-size float vector.
//
// The default feature set is the paper's augmented set for Fugaku
// (§V-A): user name, job name, #cores requested, #nodes requested,
// environment, plus frequency requested.
//
// Encodings are cached by the feature string itself in a bounded
// ShardedEmbeddingCache, so retraining and serving re-use the vectors
// computed by earlier Training/Inference workflow triggers (paper §V-A:
// "we save the job characterizations and encodings of every trigger ...
// to avoid redundant computations"), and the identical jobs Fugaku
// submits in batches (§V-C) share one entry whatever their job ids.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/job_record.hpp"
#include "ml/dataset.hpp"
#include "text/embedding_cache.hpp"
#include "text/sentence_encoder.hpp"

namespace mcb {

class ThreadPool;

enum class JobFeature : std::uint8_t {
  kUserName,
  kJobName,
  kCoresRequested,
  kNodesRequested,
  kEnvironment,
  kFrequency,
};

const char* job_feature_name(JobFeature feature) noexcept;

/// The paper's augmented feature set for Fugaku.
std::vector<JobFeature> default_feature_set();

class FeatureEncoder {
 public:
  explicit FeatureEncoder(std::vector<JobFeature> features = default_feature_set(),
                          EncoderConfig encoder_config = {});

  std::size_t dim() const noexcept { return encoder_.dim(); }
  const std::vector<JobFeature>& features() const noexcept { return features_; }
  const SentenceEncoder& sentence_encoder() const noexcept { return encoder_; }

  /// The comma-separated feature string fed to the sentence encoder.
  std::string feature_string(const JobRecord& job) const;

  /// Encode one job.
  std::vector<float> encode(const JobRecord& job) const;

  /// Encode a batch into a row-major matrix, every row from scratch
  /// (the uncached reference that encode_batch_cached must match).
  FeatureMatrix encode_batch(std::span<const JobRecord> jobs, ThreadPool* pool = nullptr) const;

  /// Encode a batch through the canonical-text LRU cache: hits are
  /// copied under the shard lock, misses are encoded (optionally in
  /// parallel) and inserted. Keyed by *content*, so recurring jobs hit
  /// across distinct job ids. When `miss_count` is non-null it receives this
  /// call's miss count (the batch's other rows were hits), exact even
  /// while other threads use the same cache.
  FeatureMatrix encode_batch_cached(std::span<const JobRecord> jobs,
                                    ShardedEmbeddingCache& cache, ThreadPool* pool = nullptr,
                                    std::size_t* miss_count = nullptr) const;

 private:
  std::vector<JobFeature> features_;
  SentenceEncoder encoder_;
};

}  // namespace mcb
