// gemm_problem.hpp — description of a (batched) GEMM workload.
//
// C_i = alpha * A_i B_i + beta * C_i,  i = 1..batch   (paper Eq. 1)
// with A: m×k, B: k×n, C: m×n. batch == 1 is a plain GEMM; batch > 1 is the
// BMM used by attention score / attention-over-value computation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "gpuarch/dtype.hpp"

namespace codesign::gemm {

using gpu::DType;

struct GemmProblem {
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  std::int64_t batch = 1;
  DType dtype = DType::kFP16;
  /// beta != 0 (e.g. fused residual add): C is read as well as written.
  bool accumulate_into_c = false;

  /// Named constructors -----------------------------------------------
  static GemmProblem gemm(std::int64_t m, std::int64_t n, std::int64_t k,
                          DType dtype = DType::kFP16) {
    return bmm(1, m, n, k, dtype);
  }
  static GemmProblem bmm(std::int64_t batch, std::int64_t m, std::int64_t n,
                         std::int64_t k, DType dtype = DType::kFP16) {
    GemmProblem p;
    p.m = m;
    p.n = n;
    p.k = k;
    p.batch = batch;
    p.dtype = dtype;
    p.validate();
    return p;
  }

  /// Fold a 3-D × 2-D tensor contraction (d0, d1, k) × (k, n) into a 2-D
  /// GEMM (d0·d1, k) × (k, n). The paper's appendix (Fig 14) shows the
  /// ordering of the folded dimensions does not affect performance, so the
  /// model treats them identically by construction.
  static GemmProblem folded_3d(std::int64_t d0, std::int64_t d1,
                               std::int64_t k, std::int64_t n,
                               DType dtype = DType::kFP16);

  /// Total useful math, counting one multiply-add as 2 FLOPs.
  double flops() const {
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k) * static_cast<double>(batch);
  }

  /// Minimum DRAM traffic in bytes: read A and B once, write C once (plus
  /// read C when accumulating). L2-resident reuse is assumed within one
  /// kernel, which holds for the transformer-sized operands studied here.
  double min_bytes() const;

  bool operator==(const GemmProblem&) const = default;

  /// Combined hash of all fields (shape, batch, dtype, accumulate flag).
  /// Two problems hash equal iff operator== holds, so GemmProblem can key
  /// unordered containers such as the estimate cache.
  std::size_t hash_value() const noexcept;

  std::string to_string() const;

  /// Throws ShapeError unless all dims and batch are positive.
  void validate() const {
    if (m <= 0 || n <= 0 || k <= 0 || batch <= 0) throw_invalid();
  }

 private:
  /// validate()'s ShapeError: a non-positive dim is reported before a
  /// non-positive batch.
  [[noreturn]] void throw_invalid() const;
};

}  // namespace codesign::gemm

template <>
struct std::hash<codesign::gemm::GemmProblem> {
  std::size_t operator()(const codesign::gemm::GemmProblem& p) const noexcept {
    return p.hash_value();
  }
};
