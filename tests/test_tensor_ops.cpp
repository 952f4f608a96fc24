// Tests for the tensor substrate and the non-attention kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace star::nn {
namespace {

TEST(Tensor, ConstructionAndIndexing) {
  Tensor t(2, 3, 1.5);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_DOUBLE_EQ(t.at(1, 2), 1.5);
  t.at(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(t.at(0, 1), 7.0);
}

TEST(Tensor, FromFlatAndBadShapesRejected) {
  const auto t = Tensor::from_flat(2, 2, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(t.at(1, 0), 3.0);
  // Data length must be exactly rows * cols, and both dims must be >= 1.
  EXPECT_THROW(Tensor::from_flat(2, 2, {1.0, 2.0, 3.0}), InvalidArgument);
  EXPECT_THROW(Tensor::from_flat(0, 2, std::initializer_list<double>{}),
               InvalidArgument);
  EXPECT_THROW(Tensor::from_flat(1, 0, std::initializer_list<double>{}),
               InvalidArgument);
}

TEST(Tensor, ReshapeReusesStorage) {
  Tensor t(2, 6, 1.0);
  t.reshape(3, 4);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.size(), 12u);
  t.reshape(1, 2);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_THROW(t.reshape(0, 4), InvalidArgument);
}

TEST(Tensor, MatmulMatchesNaive) {
  Rng rng(10);
  const auto a = Tensor::randn(7, 5, rng);
  const auto b = Tensor::randn(5, 9, rng);
  Tensor c(7, 9);
  matmul_into(view_of(a), view_of(b), view_of(c));
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      double expected = 0.0;
      for (std::size_t k = 0; k < 5; ++k) {
        expected += a.at(i, k) * b.at(k, j);
      }
      EXPECT_NEAR(c.at(i, j), expected, 1e-12);
    }
  }
}

TEST(Tensor, TransposeInvolution) {
  Rng rng(12);
  const auto a = Tensor::randn(4, 6, rng);
  const auto att = a.transposed().transposed();
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, att), 0.0);
  EXPECT_DOUBLE_EQ(a.transposed().at(2, 3), a.at(3, 2));
}

TEST(Tensor, Scale) {
  Tensor t = Tensor::from_flat(1, 2, {1.0, -2.0});
  t.scale(2.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), -4.0);
}

TEST(Tensor, RowSpanAliasesStorage) {
  Tensor t(2, 3);
  auto row = t.row(1);
  row[2] = 42.0;
  EXPECT_DOUBLE_EQ(t.at(1, 2), 42.0);
}

TEST(Tensor, RandnMoments) {
  Rng rng(13);
  const auto t = Tensor::randn(100, 100, rng, 1.0, 0.5);
  EXPECT_NEAR(mean(t.flat()), 1.0, 0.02);
  EXPECT_NEAR(stddev(t.flat()), 0.5, 0.02);
}

// ---------- kernels ----------

TEST(Ops, LayerNormNormalizesRows) {
  Rng rng(14);
  const auto x = Tensor::randn(8, 64, rng, 5.0, 3.0);
  Tensor y(8, 64);
  layer_norm_into(view_of(x), view_of(y));
  for (std::size_t r = 0; r < y.rows(); ++r) {
    EXPECT_NEAR(mean(y.row(r)), 0.0, 1e-9);
    EXPECT_NEAR(stddev(y.row(r)), 1.0, 1e-5);
  }
}

TEST(Ops, GeluKnownValues) {
  Tensor x = Tensor::from_flat(1, 5, {0.0, 1.0, -1.0, 10.0, -10.0});
  gelu_inplace(view_of(x));
  EXPECT_NEAR(x.at(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(x.at(0, 1), 0.8413447460685429, 1e-9);
  EXPECT_NEAR(x.at(0, 2), -0.15865525393145707, 1e-9);
  // Large positive ~ identity; large negative ~ 0.
  EXPECT_NEAR(x.at(0, 3), 10.0, 1e-6);
  EXPECT_NEAR(x.at(0, 4), 0.0, 1e-6);
}

}  // namespace
}  // namespace star::nn
