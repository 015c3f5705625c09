// Binary serialization primitives for model persistence (the repo's
// substitute for skops.io). Little-endian PODs with length-prefixed
// vectors/strings; every model file begins with a 4-byte magic and a
// format version so the registry can reject foreign or stale files.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace mcb::io {

inline constexpr std::uint32_t kModelMagic = 0x4D43424DU;  // "MCBM"
inline constexpr std::uint32_t kFormatVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool read_pod(std::istream& in, T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
void write_vec(std::ostream& out, const std::vector<T>& vec) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod(out, static_cast<std::uint64_t>(vec.size()));
  if (!vec.empty()) {
    out.write(reinterpret_cast<const char*>(vec.data()),
              static_cast<std::streamsize>(vec.size() * sizeof(T)));
  }
}

template <typename T>
bool read_vec(std::istream& in, std::vector<T>& vec, std::uint64_t max_elems = (1ULL << 32)) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::uint64_t n = 0;
  if (!read_pod(in, n) || n > max_elems) return false;
  vec.resize(n);
  if (n > 0) {
    in.read(reinterpret_cast<char*>(vec.data()), static_cast<std::streamsize>(n * sizeof(T)));
  }
  return static_cast<bool>(in);
}

void write_string(std::ostream& out, const std::string& s);
bool read_string(std::istream& in, std::string& s, std::uint64_t max_len = (1ULL << 24));

/// Write magic + format version + a model-kind tag.
void write_header(std::ostream& out, std::uint32_t model_kind);
/// Validate magic/version and return the model-kind tag via out-param.
bool read_header(std::istream& in, std::uint32_t& model_kind);

// All kinds live here so collisions are impossible. Retired formats
// keep their tags reserved, so an old file is rejected at the header
// instead of being misread as a new model:
//   1  KNN classifier storing every training row
//   4  standalone flat forest
//   5  KNN regressor storing every training row
//   6  standalone KNN index
inline constexpr std::uint32_t kKindRandomForest = 2;
inline constexpr std::uint32_t kKindBaseline = 3;
/// KNN classifier and regressor over one KnnIndex store: each distinct
/// row once plus a point id per row (ml/knn_index.hpp).
inline constexpr std::uint32_t kKindKnn = 7;
inline constexpr std::uint32_t kKindKnnRegressor = 8;

/// Upper bound on elements accepted for any single model vector. read_vec
/// resizes before reading, so without a cap a crafted 8-byte length prefix
/// forces a multi-GB allocation; 2^28 elements (1 GiB of floats) is far
/// beyond any model this repo produces while keeping worst-case
/// allocations bounded for the fuzz harness.
inline constexpr std::uint64_t kMaxVecElems = 1ULL << 28;

}  // namespace mcb::io
