#include "gemmsim/gemm_problem.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

namespace codesign::gemm {

GemmProblem GemmProblem::folded_3d(std::int64_t d0, std::int64_t d1,
                                   std::int64_t k, std::int64_t n,
                                   DType dtype) {
  return gemm(d0 * d1, n, k, dtype);
}

double GemmProblem::min_bytes() const {
  const double e = static_cast<double>(gpu::dtype_size(dtype));
  const double a = static_cast<double>(m) * static_cast<double>(k);
  const double b = static_cast<double>(k) * static_cast<double>(n);
  const double c = static_cast<double>(m) * static_cast<double>(n);
  const double c_traffic = accumulate_into_c ? 2.0 * c : c;
  return (a + b + c_traffic) * e * static_cast<double>(batch);
}

std::size_t GemmProblem::hash_value() const noexcept {
  // FNV-1a over the distinguishing fields; good enough dispersion for the
  // few thousand distinct shapes a design-space sweep touches.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(m));
  mix(static_cast<std::uint64_t>(n));
  mix(static_cast<std::uint64_t>(k));
  mix(static_cast<std::uint64_t>(batch));
  mix(static_cast<std::uint64_t>(dtype));
  mix(accumulate_into_c ? 1u : 0u);
  return static_cast<std::size_t>(h);
}

std::string GemmProblem::to_string() const {
  // Appended, not str_format'ed: every printed GEMM op detail starts with
  // this string.
  std::string out = "GEMM(";
  if (batch != 1) {
    out = "BMM(b=";
    append_int(out, batch);
    out += ", ";
  }
  append_int(out, m);
  out += " x ";
  append_int(out, n);
  out += " x ";
  append_int(out, k);
  out += ", " + gpu::dtype_name(dtype) + ")";
  return out;
}

void GemmProblem::throw_invalid() const {
  if (m <= 0 || n <= 0 || k <= 0) {
    throw ShapeError("GEMM dimensions must be positive, got " + to_string());
  }
  throw ShapeError("GEMM batch must be positive, got " + to_string());
}

}  // namespace codesign::gemm
