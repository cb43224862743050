// tensor.hpp — a dense row-major float tensor.
//
// This is the execution substrate's data type: storage is always fp32 (the
// accumulate precision of tensor cores); fp16 *storage* semantics are
// emulated by quantize_fp16(), which rounds every element through binary16.
// The class is deliberately small — shape, strides, checked element access,
// reshape views-by-copy — because the substrate exists to validate the
// transformer→GEMM mapping, not to be a general autograd framework.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace codesign::kern {

using Shape = std::vector<std::int64_t>;

std::string shape_to_string(const Shape& shape);
std::int64_t shape_numel(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;

  /// Construct zero-filled with the given shape (all extents positive).
  explicit Tensor(Shape shape);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  /// i.i.d. N(0, stddev²) entries from a deterministic generator.
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  /// Uniform [lo, hi) entries.
  static Tensor uniform(Shape shape, Rng& rng, float lo, float hi);
  /// 1-D tensor from a list.
  static Tensor from_values(std::initializer_list<float> values);

  const Shape& shape() const { return shape_; }
  std::int64_t dim(std::size_t i) const;
  std::size_t rank() const { return shape_.size(); }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Checked element access for rank 1–3 tensors.
  float& at(std::int64_t i);
  float at(std::int64_t i) const;
  float& at(std::int64_t i, std::int64_t j);
  float at(std::int64_t i, std::int64_t j) const;
  float& at(std::int64_t i, std::int64_t j, std::int64_t k);
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const;

  /// Reshape to a new shape with the same element count (copies metadata
  /// only; data is shared via the returned tensor's own buffer copy).
  Tensor reshape(Shape new_shape) const;

  /// 2-D transpose (rank must be 2).
  Tensor transposed_2d() const;

  /// Round every element through fp16 (see half.hpp).
  void quantize_fp16();

  /// Elementwise helpers used by tests.
  float sum() const;
  bool all_finite() const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  std::int64_t flat_index(std::int64_t i, std::int64_t j) const;
  std::int64_t flat_index(std::int64_t i, std::int64_t j, std::int64_t k) const;

  Shape shape_;
  std::vector<float> data_;
};

/// Largest absolute elementwise difference; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// Relative Frobenius-norm error ||a-b|| / max(||b||, eps).
float relative_error(const Tensor& a, const Tensor& b);

}  // namespace codesign::kern
