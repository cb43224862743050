// Figure-shape regression tests: re-run each bench's sweep logic and
// assert the qualitative *shape* the paper's figure shows — saw-teeth,
// series orderings, saturation, crossovers. These are the executable form
// of EXPERIMENTS.md's "verdict" column.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/math_util.hpp"
#include "gemmsim/flash_attention.hpp"
#include "gemmsim/kernel_model.hpp"
#include "gemmsim/simulator.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

using gemm::GemmProblem;

const gpu::GpuSpec& a100() { return gpu::gpu_by_name("a100"); }

/// The kernel the production tile scan selects, via GemmSimulator.
gemm::KernelEstimate best_kernel(const GemmProblem& p,
                                 const gpu::GpuSpec& gpu) {
  return gemm::GemmSimulator(gpu).estimate(p);
}

tfm::TransformerConfig sweep_cfg(std::int64_t h, std::int64_t a) {
  tfm::TransformerConfig c;
  c.name = "sweep";
  c.hidden_size = h;
  c.num_heads = a;
  c.num_layers = 1;
  c.seq_len = 2048;
  c.microbatch = 4;
  c.vocab_size = 50304;
  return c;
}

TEST(FigureShapes, Fig5aThroughputRisesAndSaturates) {
  // Broad square sweep: monotone rise, and the top decade nearly flat
  // (compute-bound saturation).
  std::vector<double> tf;
  for (std::int64_t n = 256; n <= 16384; n *= 2) {
    tf.push_back(best_kernel(GemmProblem::gemm(n, n, n), a100())
                     .tflops());
  }
  for (std::size_t i = 1; i < tf.size(); ++i) EXPECT_GE(tf[i], tf[i - 1]);
  EXPECT_LT(tf.back() / tf[tf.size() - 2], 1.05);  // saturated
  EXPECT_GT(tf.back() / tf.front(), 10.0);         // big dynamic range
}

TEST(FigureShapes, Fig5bSawToothHasMultipleTeeth) {
  // Fixed 256x128 tile over a fine sweep: count the drops (a drop =
  // throughput falls >5% between consecutive points). The wave boundaries
  // must produce at least 3 of them in [1280, 4096].
  int drops = 0;
  double prev = 0.0;
  for (std::int64_t n = 1280; n <= 4096; n += 128) {
    const double tf = gemm::estimate_with_tile(GemmProblem::gemm(n, n, n),
                                               gpu::largest_tile(), a100())
                          .tflops();
    if (prev > 0.0 && tf < 0.95 * prev) ++drops;
    prev = tf;
  }
  EXPECT_GE(drops, 3);
}

TEST(FigureShapes, Fig5cAutoSelectionNeverBelowFixed) {
  for (std::int64_t n = 1280; n <= 4096; n += 128) {
    const GemmProblem p = GemmProblem::gemm(n, n, n);
    EXPECT_GE(best_kernel(p, a100()).tflops(),
              gemm::estimate_with_tile(p, gpu::largest_tile(), a100())
                      .tflops() -
                  1e-9)
        << n;
  }
}

TEST(FigureShapes, Fig7SeriesOrderingAcrossFullSweep) {
  // For every h in the sweep, a larger pow2 granule of h/a never loses.
  // Group the a=32 sweep by granule and compare group means.
  std::map<std::int64_t, std::vector<double>> series;
  for (std::int64_t head_dim = 8; head_dim <= 160; head_dim += 8) {
    const auto cfg = sweep_cfg(head_dim * 32, 32);
    const double tf =
        best_kernel(tfm::attention_score_bmm(cfg), a100()).tflops();
    const auto key = static_cast<std::int64_t>(std::min<std::uint64_t>(
        largest_pow2_dividing(static_cast<std::uint64_t>(head_dim)), 64));
    series[key].push_back(tf);
  }
  double prev_mean = 0.0;
  for (const auto& [granule, values] : series) {
    double mean = 0.0;
    for (double v : values) mean += v;
    mean /= static_cast<double>(values.size());
    EXPECT_GT(mean, prev_mean) << "granule " << granule;
    prev_mean = mean;
  }
  EXPECT_GE(series.size(), 4u);  // 8, 16, 32, 64 present
}

TEST(FigureShapes, Fig10MlpSaturatesInH) {
  // MLP up-projection throughput: monotone-ish rise to a plateau over
  // 64-aligned h.
  double prev = 0.0;
  double last = 0.0;
  for (std::int64_t h = 1024; h <= 12288; h += 1024) {
    const double tf =
        best_kernel(tfm::mlp_up_gemm(sweep_cfg(h, 1)), a100())
            .tflops();
    EXPECT_GE(tf, prev * 0.97) << h;  // allow small wave wiggles
    prev = std::max(prev, tf);
    last = tf;
  }
  EXPECT_GT(last, 220.0);  // the plateau
}

TEST(FigureShapes, Fig12FlashRooflineMonotoneOverAlignedHeadDims) {
  double prev = 0.0;
  for (std::int64_t d : {16, 32, 64, 128}) {
    gemm::FlashAttentionProblem p;
    p.batch = 4;
    p.heads = 128;
    p.seq = 2048;
    p.head_dim = d;
    const double tf = gemm::estimate_flash_attention(p, a100()).tflops();
    EXPECT_GT(tf, prev) << d;
    prev = tf;
  }
}

TEST(FigureShapes, Fig20ZoomedVocabSweepTopsAt64Multiples) {
  // In the zoomed window every multiple of 64 beats every non-multiple.
  double worst_aligned = 1e30;
  double best_unaligned = 0.0;
  for (std::int64_t v = 14275; v <= 14336; ++v) {
    const double tf =
        best_kernel(GemmProblem::gemm(8192, v, 2560), a100())
            .tflops();
    if (v % 64 == 0) {
      worst_aligned = std::min(worst_aligned, tf);
    } else {
      best_unaligned = std::max(best_unaligned, tf);
    }
  }
  EXPECT_GT(worst_aligned, best_unaligned);
}

TEST(FigureShapes, Fig21to47LowGranuleSeriesAlwaysBelow64Series) {
  // Across the whole appendix grid of head counts: at matched h/a
  // granule, the 64-aligned point beats the odd point for the same a.
  for (const std::int64_t a : {8, 12, 16, 20, 24, 32, 40, 64, 128}) {
    const auto aligned = sweep_cfg(64 * a, a);
    // 72 elements: granule 8.
    const auto rough = sweep_cfg(72 * a, a);
    const double tf_aligned =
        best_kernel(tfm::attention_over_value_bmm(aligned), a100())
            .tflops();
    const double tf_rough =
        best_kernel(tfm::attention_over_value_bmm(rough), a100())
            .tflops();
    EXPECT_GT(tf_aligned, tf_rough) << "a = " << a;
  }
}

TEST(FigureShapes, Fig2GemmShareMonotoneInModelSize) {
  const gemm::GemmSimulator sim = gemm::GemmSimulator::for_gpu("a100");
  double prev = 0.0;
  for (const char* name :
       {"gpt3-125m", "gpt3-760m", "gpt3-2.7b", "gpt3-6.7b", "gpt3-175b"}) {
    const double frac =
        tfm::analyze_layer(tfm::model_by_name(name), sim).gemm_fraction;
    EXPECT_GT(frac, prev) << name;
    prev = frac;
  }
}

}  // namespace
}  // namespace codesign
