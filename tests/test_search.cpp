// Tests for advisor/search.hpp — shape search, including the §VII-B SwiGLU
// brute force.
#include "advisor/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "transformer/flops.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::advisor {
namespace {

using tfm::model_by_name;

gemm::GemmSimulator sim() { return gemm::GemmSimulator::for_gpu("a100"); }

TEST(SearchHeads, FindsTheC2Reshape) {
  // The paper's headline: for GPT-3 2.7B the advisor must rank a head count
  // giving h/a = 64 (a = 40) above the default a = 32, with a material
  // speedup and zero parameter change.
  const auto cands = search_heads(model_by_name("gpt3-2.7b"), sim());
  ASSERT_FALSE(cands.empty());

  const ShapeCandidate* best_a40 = nullptr;
  const ShapeCandidate* base = nullptr;
  std::size_t idx_a40 = 0, idx_base = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (cands[i].config.num_heads == 40) {
      best_a40 = &cands[i];
      idx_a40 = i;
    }
    if (cands[i].config.num_heads == 32) {
      base = &cands[i];
      idx_base = i;
    }
  }
  ASSERT_NE(best_a40, nullptr);
  ASSERT_NE(base, nullptr);
  EXPECT_LT(idx_a40, idx_base);                 // ranked strictly better
  EXPECT_GT(best_a40->speedup_vs_base, 1.05);
  EXPECT_DOUBLE_EQ(best_a40->param_delta_frac, 0.0);
  EXPECT_DOUBLE_EQ(base->speedup_vs_base, 1.0);
}

TEST(SearchHeads, AllCandidatesValidAndSorted) {
  const auto cands = search_heads(model_by_name("gpt3-2.7b"), sim());
  double prev = 0.0;
  for (const ShapeCandidate& c : cands) {
    EXPECT_NO_THROW(c.config.validate());
    EXPECT_EQ(c.config.hidden_size, 2560);
    EXPECT_GE(c.layer_time, prev);
    prev = c.layer_time;
    EXPECT_GE(c.config.head_dim(), 32);
    EXPECT_LE(c.config.head_dim(), 256);
  }
}

TEST(SearchHeads, RespectsTensorParallel) {
  const auto base =
      model_by_name("gpt3-2.7b").with_tensor_parallel(4).with_vocab(50304);
  for (const ShapeCandidate& c : search_heads(base, sim())) {
    EXPECT_EQ(c.config.num_heads % 4, 0) << c.config.name;
  }
}

TEST(SearchHeads, MaxCandidatesHonored) {
  SearchOptions opt;
  opt.max_candidates = 3;
  EXPECT_LE(search_heads(model_by_name("gpt3-2.7b"), sim(), opt).size(), 3u);
}

TEST(SearchHeads, BaselineSurvivesTrimming) {
  // Regression: sort_and_trim used to drop the baseline config when it
  // ranked past max_candidates, contradicting "Always keep the baseline
  // for reference even if trimming".
  const auto base = model_by_name("gpt3-2.7b");
  const auto s = sim();

  // Establish that the baseline (a = 32) is NOT in the top 3 of the
  // untrimmed ranking, so trimming to 3 genuinely threatens it.
  SearchOptions all;
  all.max_candidates = 1000;
  const auto untrimmed = search_heads(base, s, all);
  std::size_t base_rank = untrimmed.size();
  for (std::size_t i = 0; i < untrimmed.size(); ++i) {
    if (untrimmed[i].config == base) base_rank = i;
  }
  ASSERT_LT(base_rank, untrimmed.size());
  ASSERT_GE(base_rank, 3u);

  SearchOptions opt;
  opt.max_candidates = 3;
  const auto trimmed = search_heads(base, s, opt);
  ASSERT_EQ(trimmed.size(), 3u);
  // The top max_candidates - 1 are the true best; the baseline takes the
  // final slot it would otherwise have been trimmed out of.
  EXPECT_EQ(trimmed[0].config, untrimmed[0].config);
  EXPECT_EQ(trimmed[1].config, untrimmed[1].config);
  EXPECT_EQ(trimmed.back().config, base);
  EXPECT_DOUBLE_EQ(trimmed.back().speedup_vs_base, 1.0);
}

TEST(SearchHidden, BoundsParameterDelta) {
  const auto cands = search_hidden(model_by_name("gpt3-2.7b"), sim());
  ASSERT_FALSE(cands.empty());
  for (const ShapeCandidate& c : cands) {
    if (c.config.hidden_size == 2560) continue;  // baseline
    EXPECT_LE(std::abs(c.param_delta_frac), 0.06 + 1e-9) << c.config.name;
    EXPECT_EQ(c.config.hidden_size % 64, 0);
    EXPECT_EQ(c.config.hidden_size % 32, 0);  // a = 32 must divide h
  }
}

TEST(SearchHidden, InvalidRadiusRejected) {
  EXPECT_THROW(search_hidden(model_by_name("gpt3-2.7b"), sim(), 0.0), Error);
  EXPECT_THROW(search_hidden(model_by_name("gpt3-2.7b"), sim(), 1.5), Error);
}

TEST(SearchMlp, AlignedWidthsDominate) {
  // Scan a small window; every top-quartile candidate should have a larger
  // power-of-two granule than the bottom quartile's average.
  const auto base = model_by_name("llama2-7b");
  const auto scan = search_mlp_intermediate(base, sim(), 10944, 11072);
  ASSERT_GT(scan.size(), 64u);
  // The best candidate must be divisible by 64.
  EXPECT_EQ(scan.front().d_ff % 64, 0);
  // An odd d_ff must rank in the bottom half.
  EXPECT_GT(mlp_candidate_percentile(scan, 11001), 0.5);
}

TEST(SearchMlp, Llama2_11008IsNearOptimal) {
  // §VII-B: "a brute-force search reveals that Llama-2-7B's intermediate
  // size is indeed one of the best performing sizes in its range".
  const auto base = model_by_name("llama2-7b");
  const auto scan = search_mlp_intermediate(base, sim(), 10752, 11264);
  const double pct = mlp_candidate_percentile(scan, 11008);
  EXPECT_LT(pct, 0.05);  // top 5% of its range
}

TEST(SearchMlp, ResultsSortedAndRanked) {
  const auto scan =
      search_mlp_intermediate(model_by_name("gpt3-2.7b"), sim(), 10200, 10300);
  for (std::size_t i = 1; i < scan.size(); ++i) {
    EXPECT_LE(scan[i - 1].mlp_time, scan[i].mlp_time);
    EXPECT_LE(scan[i - 1].rank_in_range, scan[i].rank_in_range);
  }
  EXPECT_DOUBLE_EQ(scan.front().rank_in_range, 0.0);
  EXPECT_DOUBLE_EQ(scan.back().rank_in_range, 1.0);
}

TEST(SearchMlp, CoefficientReported) {
  const auto base = model_by_name("llama2-7b");
  const auto scan = search_mlp_intermediate(base, sim(), 11008, 11008);
  ASSERT_EQ(scan.size(), 1u);
  EXPECT_NEAR(scan.front().coefficient, 2.6875, 1e-12);
}

TEST(SearchMlp, StrideByTensorParallelMatchesFilteredScan) {
  // Regression: the scan used to walk every integer in [lo, hi] and reject
  // the ~ (t-1)/t of them not divisible by t; it now steps by t directly.
  // The candidate set must be unchanged.
  const auto base = model_by_name("gpt3-2.7b")
                        .with_tensor_parallel(4)
                        .with_vocab(50304);
  const auto scan = search_mlp_intermediate(base, sim(), 10201, 10299);
  ASSERT_FALSE(scan.empty());
  std::vector<std::int64_t> seen;
  for (const MlpCandidate& c : scan) {
    EXPECT_EQ(c.d_ff % 4, 0);
    seen.push_back(c.d_ff);
  }
  std::sort(seen.begin(), seen.end());
  std::vector<std::int64_t> expected;
  for (std::int64_t ff = 10201; ff <= 10299; ++ff) {
    if (ff % 4 == 0) expected.push_back(ff);
  }
  EXPECT_EQ(seen, expected);
  // First legal value is round_up(lo, t), not lo.
  EXPECT_EQ(expected.front(), 10204);
}

TEST(SearchMlp, PercentileOnEmptyScanThrows) {
  EXPECT_THROW(mlp_candidate_percentile({}, 11008), Error);
}

TEST(SearchJoint, SupersetOfHeadAndHiddenSweeps) {
  // gpt3-2.7b: one 64-step of h is a ~5% parameter delta, inside the
  // default 6% bound, so the grid keeps both head and hidden re-shapes.
  const auto base = model_by_name("gpt3-2.7b");
  SearchOptions opt;
  opt.max_candidates = 1000;
  const auto joint = search_joint(base, sim(), 0.1, 0, opt);
  ASSERT_FALSE(joint.empty());

  // Contains the baseline, pure head re-shapes, and pure hidden re-shapes.
  bool has_base = false, has_head_reshape = false, has_hidden_reshape = false;
  std::set<std::string> names;
  double prev = 0.0;
  for (const ShapeCandidate& c : joint) {
    EXPECT_NO_THROW(c.config.validate());
    EXPECT_TRUE(names.insert(c.config.name).second) << "duplicate name";
    EXPECT_GE(c.layer_time, prev);
    prev = c.layer_time;
    if (c.config == base) has_base = true;
    if (c.config.hidden_size == base.hidden_size &&
        c.config.num_heads != base.num_heads) {
      has_head_reshape = true;
    }
    if (c.config.hidden_size != base.hidden_size) has_hidden_reshape = true;
    if (!(c.config == base)) {
      EXPECT_LE(std::abs(c.param_delta_frac), 0.06 + 1e-9);
    }
  }
  EXPECT_TRUE(has_base);
  EXPECT_TRUE(has_head_reshape);
  EXPECT_TRUE(has_hidden_reshape);
}

TEST(SearchJoint, CachedSimulatorGetsHighHitRate) {
  // The cache is what makes the joint grid tractable: a head sweep never
  // changes the MLP GEMMs and a hidden sweep re-visits whole layers, so
  // most estimates repeat.
  auto cached = sim();
  cached.enable_cache();
  SearchOptions opt;
  opt.max_candidates = 1000;
  search_joint(model_by_name("pythia-410m"), cached, 0.1, 0, opt);
  const gemm::CacheStats s = cached.cache()->stats();
  EXPECT_GT(s.hits, s.misses);  // majority of estimates served from cache
}

TEST(SearchMlp, Validation) {
  EXPECT_THROW(
      search_mlp_intermediate(model_by_name("gpt3-2.7b"), sim(), 100, 50),
      Error);
  const auto scan =
      search_mlp_intermediate(model_by_name("gpt3-2.7b"), sim(), 5000, 5100);
  EXPECT_THROW(mlp_candidate_percentile(scan, 999), LookupError);
}

TEST(PadVocab, PaperExamples) {
  EXPECT_EQ(pad_vocab(50257), 50304);  // GPT-2 BPE → nanoGPT's padded size
  EXPECT_EQ(pad_vocab(50304), 50304);
  EXPECT_EQ(pad_vocab(1), 64);
  EXPECT_THROW(pad_vocab(0), Error);
}

TEST(EvaluateCandidate, SpeedupIsRelative) {
  const auto base = model_by_name("gpt3-2.7b");
  const ShapeCandidate self = evaluate_candidate(base, base, sim());
  EXPECT_DOUBLE_EQ(self.speedup_vs_base, 1.0);
  EXPECT_DOUBLE_EQ(self.param_delta_frac, 0.0);
  const ShapeCandidate c2 =
      evaluate_candidate(model_by_name("gpt3-2.7b-c2"), base, sim());
  EXPECT_GT(c2.speedup_vs_base, 1.0);
}

// The candidate walk sums layer_tflops' flops from the GEMM list it already
// built; the value must equal the standalone layer_forward_flops() path bit
// for bit, for every schedule shape the walk can produce.
TEST(EvaluateCandidate, LayerTflopsMatchesLayerForwardFlopsBitwise) {
  std::vector<tfm::TransformerConfig> configs;
  const tfm::TransformerConfig gpt = model_by_name("gpt3-2.7b");
  configs.push_back(gpt);  // BMM attention, GELU
  tfm::TransformerConfig flash = gpt.with_name("flash");
  flash.attention = tfm::AttentionImpl::kFlash;
  configs.push_back(flash);
  tfm::TransformerConfig encoder_flash =
      model_by_name("bert-large").with_name("bert-flash");
  encoder_flash.attention = tfm::AttentionImpl::kFlash;  // non-causal
  configs.push_back(encoder_flash);
  configs.push_back(model_by_name("llama2-7b"));  // SwiGLU, rotary
  tfm::TransformerConfig gqa = model_by_name("llama2-7b").with_name("gqa");
  gqa.num_kv_heads = 8;
  configs.push_back(gqa);
  tfm::TransformerConfig parallel = gpt.with_name("parallel");
  parallel.parallel_layers = true;
  configs.push_back(parallel);
  tfm::TransformerConfig all = gqa.with_name("all");
  all.attention = tfm::AttentionImpl::kFlash;
  all.parallel_layers = true;
  configs.push_back(all);

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto expected = [&](const ShapeCandidate& c) {
    return tfm::layer_forward_flops(c.config) / c.layer_time / 1e12;
  };
  for (const tfm::TransformerConfig& cfg : configs) {
    const ShapeCandidate c = evaluate_candidate(cfg, gpt, sim());
    EXPECT_EQ(bits(c.layer_tflops), bits(expected(c))) << cfg.name;
  }
  // One workspace reused across every schedule shape, as a search does.
  SearchOptions options;
  options.max_candidates = configs.size();
  const SearchOutcome out = run_grid_search(configs, gpt, sim(), options);
  ASSERT_EQ(out.ranked.size(), configs.size());
  for (const ShapeCandidate& c : out.ranked) {
    EXPECT_EQ(bits(c.layer_tflops), bits(expected(c))) << c.config.name;
  }
}

}  // namespace
}  // namespace codesign::advisor
