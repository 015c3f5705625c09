// Shared distance kernels for the KNN scan and the spatial index.
//
// row_dot is the deterministic 4-accumulator dot kernel of the batched
// fast path (see knn.hpp header comment for the vectorization
// rationale). It lives here so the scan and the bounding-box tree's
// leaf sweep both compute *bitwise identical* distances for the same
// row bytes — the precondition for the shared TopK tie-break to make
// their results interchangeable.
#pragma once

#include <cstddef>

#include "util/annotations.hpp"

namespace mcb {

/// Dot of one query against one training row. Four independent
/// accumulators break the FP-add dependence chain (float addition is not
/// associative, so the compiler cannot do this on its own); the fixed
/// combine order keeps results deterministic across compilers and runs.
MCB_HOT_PATH inline float row_dot(const float* row, const float* q, std::size_t dim) {
  float acc0 = 0.0F, acc1 = 0.0F, acc2 = 0.0F, acc3 = 0.0F;
  std::size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    acc0 += row[j] * q[j];
    acc1 += row[j + 1] * q[j + 1];
    acc2 += row[j + 2] * q[j + 2];
    acc3 += row[j + 3] * q[j + 3];
  }
  for (; j < dim; ++j) acc0 += row[j] * q[j];
  return (acc0 + acc1) + (acc2 + acc3);
}

/// ||row||^2 in double, rounded to float: the row term of every p = 2
/// distance key, computed once per stored point.
MCB_HOT_PATH inline float row_norm_sq(const float* row, std::size_t dim) {
  double n2 = 0.0;
  for (std::size_t j = 0; j < dim; ++j) n2 += static_cast<double>(row[j]) * row[j];
  return static_cast<float>(n2);
}

}  // namespace mcb
