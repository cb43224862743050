#include "kernels/tensor.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "kernels/half.hpp"

namespace codesign::kern {

std::string shape_to_string(const Shape& shape) {
  std::vector<std::string> parts;
  parts.reserve(shape.size());
  for (std::int64_t d : shape) parts.push_back(std::to_string(d));
  return str_format("(%s)", join(parts, ", ").c_str());
}

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    CODESIGN_CHECK(d > 0, "tensor extents must be positive, got " +
                              shape_to_string(shape));
    n *= d;
  }
  return n;
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  CODESIGN_CHECK(!shape_.empty(), "tensor rank must be >= 1");
  data_.assign(static_cast<std::size_t>(shape_numel(shape_)), 0.0f);
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = value;
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = stddev * static_cast<float>(rng.normal());
  }
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::from_values(std::initializer_list<float> values) {
  CODESIGN_CHECK(values.size() > 0, "from_values needs at least one value");
  Tensor t({static_cast<std::int64_t>(values.size())});
  std::size_t i = 0;
  for (float v : values) t.data_[i++] = v;
  return t;
}

std::int64_t Tensor::dim(std::size_t i) const {
  CODESIGN_CHECK(i < shape_.size(), "dim index out of range");
  return shape_[i];
}

float& Tensor::at(std::int64_t i) {
  CODESIGN_CHECK(rank() == 1, "at(i) requires rank 1, have " +
                                  shape_to_string(shape_));
  CODESIGN_CHECK(i >= 0 && i < shape_[0], "index out of range");
  return data_[static_cast<std::size_t>(i)];
}

float Tensor::at(std::int64_t i) const {
  return const_cast<Tensor*>(this)->at(i);
}

std::int64_t Tensor::flat_index(std::int64_t i, std::int64_t j) const {
  CODESIGN_CHECK(rank() == 2, "at(i,j) requires rank 2, have " +
                                  shape_to_string(shape_));
  CODESIGN_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1],
                 "index out of range");
  return i * shape_[1] + j;
}

float& Tensor::at(std::int64_t i, std::int64_t j) {
  return data_[static_cast<std::size_t>(flat_index(i, j))];
}

float Tensor::at(std::int64_t i, std::int64_t j) const {
  return data_[static_cast<std::size_t>(flat_index(i, j))];
}

std::int64_t Tensor::flat_index(std::int64_t i, std::int64_t j,
                                std::int64_t k) const {
  CODESIGN_CHECK(rank() == 3, "at(i,j,k) requires rank 3, have " +
                                  shape_to_string(shape_));
  CODESIGN_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] &&
                     k >= 0 && k < shape_[2],
                 "index out of range");
  return (i * shape_[1] + j) * shape_[2] + k;
}

float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) {
  return data_[static_cast<std::size_t>(flat_index(i, j, k))];
}

float Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) const {
  return data_[static_cast<std::size_t>(flat_index(i, j, k))];
}

Tensor Tensor::reshape(Shape new_shape) const {
  CODESIGN_CHECK(shape_numel(new_shape) == numel(),
                 "reshape must preserve element count: " +
                     shape_to_string(shape_) + " -> " +
                     shape_to_string(new_shape));
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = data_;
  return out;
}

Tensor Tensor::transposed_2d() const {
  CODESIGN_CHECK(rank() == 2, "transposed_2d requires rank 2");
  Tensor out({shape_[1], shape_[0]});
  for (std::int64_t i = 0; i < shape_[0]; ++i) {
    for (std::int64_t j = 0; j < shape_[1]; ++j) {
      out.at(j, i) = at(i, j);
    }
  }
  return out;
}

void Tensor::quantize_fp16() {
  for (float& v : data_) v = round_to_half(v);
}

float Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return static_cast<float>(s);
}

bool Tensor::all_finite() const {
  for (float v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  CODESIGN_CHECK(a.same_shape(b), "max_abs_diff: shape mismatch");
  float m = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  }
  return m;
}

float relative_error(const Tensor& a, const Tensor& b) {
  CODESIGN_CHECK(a.same_shape(b), "relative_error: shape mismatch");
  double num = 0.0;
  double den = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(a.data()[i]) - b.data()[i];
    num += d * d;
    den += static_cast<double>(b.data()[i]) * b.data()[i];
  }
  const double eps = 1e-12;
  return static_cast<float>(std::sqrt(num) / std::max(std::sqrt(den), eps));
}

}  // namespace codesign::kern
