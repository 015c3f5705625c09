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
// Within one batch the cached encoders go further: they group the jobs
// by feature string in one pass and look up (and, on a miss, encode)
// each distinct string once.
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

  /// Encode a batch through the canonical-text LRU cache, one row per
  /// job (equal to encode_batch). The jobs are grouped by feature string
  /// and each distinct string is looked up once; a hit is copied under
  /// the shard lock, a miss is encoded once (optionally in parallel) and
  /// inserted. Keyed by *content*, so recurring jobs share a row across
  /// distinct job ids. Each distinct row is written in place, at its
  /// first job's row, and then copied to that job's duplicates. When
  /// `miss_count` is non-null it receives the number of distinct strings
  /// this call encoded (every other row needed no encoding), exact even
  /// while other threads use the same cache.
  FeatureMatrix encode_batch_cached(std::span<const JobRecord> jobs,
                                    ShardedEmbeddingCache& cache, ThreadPool* pool = nullptr,
                                    std::size_t* miss_count = nullptr) const;

  /// A batch encoded once per distinct feature string.
  struct DistinctRows {
    FeatureMatrix rows;             ///< one row per distinct string, in first-seen order
    std::vector<std::size_t> slot;  ///< per job: the index of its row in `rows`
  };

  /// encode_batch_cached without the copies: one row per distinct
  /// feature string, and each job's row index. The serving path
  /// classifies these rows and hands each label to every job that
  /// shares it.
  DistinctRows encode_distinct_cached(std::span<const JobRecord> jobs,
                                      ShardedEmbeddingCache& cache,
                                      ThreadPool* pool = nullptr) const;

 private:
  /// feature_string written into `out` (replacing its contents), so a
  /// loop over a batch reuses one buffer.
  void feature_string(const JobRecord& job, std::string& out) const;

  /// The pass behind both cached encoders. With `slot` null the result
  /// has one row per job; otherwise one row per distinct string, and
  /// `slot` receives each job's row index.
  FeatureMatrix encode_grouped(std::span<const JobRecord> jobs, ShardedEmbeddingCache& cache,
                               ThreadPool* pool, std::vector<std::size_t>* slot,
                               std::size_t* miss_count) const;

  std::vector<JobFeature> features_;
  SentenceEncoder encoder_;
};

}  // namespace mcb
