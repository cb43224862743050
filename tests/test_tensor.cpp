// Tests for kernels/tensor.hpp.
#include "kernels/tensor.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace codesign::kern {
namespace {

TEST(Tensor, ZerosAndShape) {
  const Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < 2; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(t.at(i, j), 0.0f);
    }
  }
}

TEST(Tensor, InvalidShapes) {
  EXPECT_THROW(Tensor(Shape{}), Error);
  EXPECT_THROW(Tensor({0}), Error);
  EXPECT_THROW(Tensor({2, -1}), Error);
}

TEST(Tensor, FullAndFromValues) {
  const Tensor f = Tensor::full({2, 2}, 3.5f);
  EXPECT_EQ(f.at(1, 1), 3.5f);
  const Tensor v = Tensor::from_values({1, 2, 3});
  EXPECT_EQ(v.rank(), 1u);
  EXPECT_EQ(v.at(2), 3.0f);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at(2, 0), Error);
  EXPECT_THROW(t.at(0, 3), Error);
  EXPECT_THROW(t.at(-1, 0), Error);
  EXPECT_THROW(t.at(0), Error);     // wrong rank
  EXPECT_THROW(t.at(0, 0, 0), Error);
}

TEST(Tensor, Rank3Access) {
  Tensor t({2, 3, 4});
  t.at(1, 2, 3) = 7.0f;
  EXPECT_EQ(t.at(1, 2, 3), 7.0f);
  EXPECT_EQ(t.data()[1 * 12 + 2 * 4 + 3], 7.0f);
  EXPECT_THROW(t.at(1, 3, 0), Error);
}

TEST(Tensor, RandnDeterministic) {
  Rng r1(42), r2(42);
  const Tensor a = Tensor::randn({4, 4}, r1);
  const Tensor b = Tensor::randn({4, 4}, r2);
  EXPECT_EQ(max_abs_diff(a, b), 0.0f);
  EXPECT_TRUE(a.all_finite());
}

TEST(Tensor, UniformRange) {
  Rng rng(3);
  const Tensor u = Tensor::uniform({100}, rng, -1.0f, 1.0f);
  for (std::int64_t i = 0; i < u.numel(); ++i) {
    EXPECT_GE(u.at(i), -1.0f);
    EXPECT_LT(u.at(i), 1.0f);
  }
}

TEST(Tensor, Reshape) {
  Tensor t({2, 6});
  t.at(1, 5) = 9.0f;
  const Tensor r = t.reshape({3, 4});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_EQ(r.at(2, 3), 9.0f);  // same flat position
  EXPECT_THROW(t.reshape({5, 5}), Error);
}

TEST(Tensor, Transpose2d) {
  Tensor t({2, 3});
  t.at(0, 1) = 5.0f;
  t.at(1, 2) = 7.0f;
  const Tensor tt = t.transposed_2d();
  EXPECT_EQ(tt.dim(0), 3);
  EXPECT_EQ(tt.dim(1), 2);
  EXPECT_EQ(tt.at(1, 0), 5.0f);
  EXPECT_EQ(tt.at(2, 1), 7.0f);
  Tensor r3({1, 2, 3});
  EXPECT_THROW(r3.transposed_2d(), Error);
}

TEST(Tensor, QuantizeFp16) {
  Tensor t = Tensor::from_values({0.1f, 1.0f, 3.14159f});
  t.quantize_fp16();
  EXPECT_EQ(t.at(1), 1.0f);          // exact in half
  EXPECT_NE(t.at(0), 0.1f);          // 0.1 is not representable
  EXPECT_NEAR(t.at(0), 0.1f, 1e-4f);
}

TEST(Tensor, Reductions) {
  const Tensor t = Tensor::from_values({-3, 1, 2});
  EXPECT_EQ(t.sum(), 0.0f);
}

TEST(Tensor, DiffHelpers) {
  const Tensor a = Tensor::from_values({1, 2, 3});
  const Tensor b = Tensor::from_values({1, 2, 4});
  EXPECT_EQ(max_abs_diff(a, b), 1.0f);
  EXPECT_GT(relative_error(a, b), 0.0f);
  EXPECT_EQ(relative_error(a, a), 0.0f);
  const Tensor c({2, 2});
  EXPECT_THROW(max_abs_diff(a, c), Error);
}

TEST(Tensor, ShapeUtils) {
  EXPECT_EQ(shape_to_string({2, 3}), "(2, 3)");
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_THROW(shape_numel({2, 0}), Error);
}

}  // namespace
}  // namespace codesign::kern
