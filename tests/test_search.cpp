// Tests for advisor/search.hpp — shape search, including the §VII-B SwiGLU
// brute force.
#include "advisor/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "advisor/checkpoint.hpp"
#include "advisor/rules.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "obs/req_scope.hpp"
#include "transformer/flops.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/params.hpp"

namespace codesign::advisor {
namespace {

using tfm::model_by_name;

gemm::GemmSimulator sim() { return gemm::GemmSimulator::for_gpu("a100"); }

/// One config scored as a search scores it: a one-config grid, strict so
/// that an invalid config throws instead of being skipped.
ShapeCandidate evaluate_one(const tfm::TransformerConfig& config,
                            const tfm::TransformerConfig& baseline,
                            const gemm::GemmSimulator& s) {
  SearchOptions options;
  options.faults.strict = true;
  return run_grid_search({config}, baseline, s, options).ranked.at(0);
}

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
  // Regression: the merge used to drop the baseline config when it
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

TEST(SearchJoint, GqaModelsKeepWholeKvGroups) {
  // The joint grid visits hidden sizes whose divisors kv does not divide
  // (mistral-7b: h = 4160 admits a = 20). Those head counts are illegal
  // GQA configs, so generation leaves them out instead of aborting.
  for (const char* name : {"mistral-7b", "llama2-70b"}) {
    const auto base = model_by_name(name);
    SearchOptions opt;
    opt.max_candidates = 1000;
    const SearchOutcome out =
        run_shape_search(SearchMode::kJoint, base, sim(), 0.1, 0, opt);
    EXPECT_TRUE(out.skipped.empty()) << name;
    ASSERT_GT(out.ranked.size(), 1u) << name;
    for (const ShapeCandidate& c : out.ranked) {
      EXPECT_EQ(c.config.num_heads % base.num_kv_heads, 0) << c.config.name;
      EXPECT_NO_THROW(c.config.validate()) << c.config.name;
    }
  }
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
  const ShapeCandidate self = evaluate_one(base, base, sim());
  EXPECT_DOUBLE_EQ(self.speedup_vs_base, 1.0);
  EXPECT_DOUBLE_EQ(self.param_delta_frac, 0.0);
  const ShapeCandidate c2 =
      evaluate_one(model_by_name("gpt3-2.7b-c2"), base, sim());
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
    const ShapeCandidate c = evaluate_one(cfg, gpt, sim());
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

// A candidate validates once, through one ValidatedConfig shared by the
// walk, the parameter count and the rule verdict. The public functions must
// still reject an invalid config, and the search must still skip one.
TEST(EvaluateCandidate, PublicCountAndRulesStillValidate) {
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  tfm::TransformerConfig bad = base.with_name("bad");
  bad.num_heads = 33;  // does not divide h = 2560
  const gemm::GemmSimulator s = sim();
  RuleContext ctx;
  ctx.gpu = &s.gpu();
  EXPECT_THROW(tfm::exact_param_count(bad), ConfigError);
  EXPECT_THROW(satisfies_performance_rules(bad, ctx), ConfigError);
  EXPECT_THROW(evaluate_one(bad, base, s), ConfigError);

  const SearchOutcome out = run_grid_search({bad, base}, base, s);
  ASSERT_EQ(out.skipped.size(), 1u);
  EXPECT_EQ(out.skipped[0].config, bad);
  ASSERT_EQ(out.ranked.size(), 1u);
  EXPECT_EQ(out.ranked[0].config, base);
}

// ---------------------------------------------------------------------------
// The ranking merge. Selection runs on slot indices with a bounded top-k;
// it must reproduce the stable sort + trim it replaced, kept here as the
// oracle, field for field.

/// The old merge: stable sort on (layer_time, name), trim to `max`, and
/// put the baseline into the last slot if the trim dropped it.
std::vector<ShapeCandidate> oracle_rank(std::vector<ShapeCandidate> cands,
                                        const tfm::TransformerConfig& baseline,
                                        std::size_t max) {
  std::stable_sort(cands.begin(), cands.end(),
                   [](const ShapeCandidate& a, const ShapeCandidate& b) {
                     if (a.layer_time != b.layer_time) {
                       return a.layer_time < b.layer_time;
                     }
                     return a.config.name < b.config.name;
                   });
  if (cands.size() <= max) return cands;
  const auto base_it =
      std::find_if(cands.begin(), cands.end(),
                   [&](const ShapeCandidate& c) { return c.config == baseline; });
  const bool trimmed =
      base_it != cands.end() &&
      static_cast<std::size_t>(base_it - cands.begin()) >= max;
  ShapeCandidate copy;
  if (trimmed) copy = *base_it;
  cands.resize(max);
  if (trimmed && !cands.empty()) cands.back() = copy;
  return cands;
}

/// `c` with its scores replaced by a checkpoint payload (a resumed slot).
ShapeCandidate with_entry(ShapeCandidate c, const CheckpointShapeEntry& e) {
  c.layer_time = e.layer_time;
  c.layer_tflops = e.layer_tflops;
  c.speedup_vs_base = e.speedup_vs_base;
  c.param_count = e.param_count;
  c.param_delta_frac = e.param_delta_frac;
  c.rules_pass = e.rules_pass;
  return c;
}

CheckpointShapeEntry entry_of(const ShapeCandidate& c) {
  return {c.layer_time,  c.layer_tflops,     c.speedup_vs_base,
          c.param_count, c.param_delta_frac, c.rules_pass};
}

/// Field-by-field comparison; notes are skipped for `resumed` names (their
/// note is formatted from scores the oracle replaced).
void expect_ranking(const std::vector<ShapeCandidate>& got,
                    const std::vector<ShapeCandidate>& want,
                    const std::string& what,
                    const std::set<std::string>& resumed = {}) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ShapeCandidate& g = got[i];
    const ShapeCandidate& w = want[i];
    EXPECT_EQ(g.config, w.config) << what << " rank " << i;
    EXPECT_EQ(g.layer_time, w.layer_time) << what << " rank " << i;
    EXPECT_EQ(g.layer_tflops, w.layer_tflops) << what << " rank " << i;
    EXPECT_EQ(g.speedup_vs_base, w.speedup_vs_base) << what << " rank " << i;
    EXPECT_EQ(g.param_count, w.param_count) << what << " rank " << i;
    EXPECT_EQ(g.param_delta_frac, w.param_delta_frac)
        << what << " rank " << i;
    EXPECT_EQ(g.rules_pass, w.rules_pass) << what << " rank " << i;
    if (resumed.count(w.config.name) == 0) {
      EXPECT_EQ(g.note, w.note) << what << " rank " << i;
    }
  }
}

/// A seeded grid around gpt3-2.7b with forced ties: variants that differ
/// only in L or vocab share a layer time (neither enters the layer walk),
/// and every fifth candidate reuses an earlier candidate's name.
std::vector<tfm::TransformerConfig> tie_grid(std::uint64_t seed,
                                             std::size_t n) {
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  const std::int64_t heads[] = {16, 20, 32, 40, 64};
  const std::int64_t layers[] = {24, 32};
  const std::int64_t vocabs[] = {50257, 50304};
  std::mt19937_64 rng(seed);
  std::vector<tfm::TransformerConfig> out;
  for (std::size_t i = 0; i < n; ++i) {
    tfm::TransformerConfig c = base.with_heads(heads[rng() % 5])
                                   .with_layers(layers[rng() % 2])
                                   .with_vocab(vocabs[rng() % 2]);
    c.name = i % 5 == 4 ? out[rng() % out.size()].name : str_format("g%zu", i);
    out.push_back(std::move(c));
  }
  return out;
}

/// Every max_candidates value the merge treats differently: a single
/// slot, around the default cut, one short of the grid, the whole grid,
/// and past it.
std::vector<std::size_t> cut_sizes(std::size_t n) {
  return {1, 2, 15, 16, n - 1, n, n + 5};
}

/// Disarms the process-global failpoints when a test leaves scope.
struct FailpointsOff {
  ~FailpointsOff() { fail::clear(); }
};

/// The grid, evaluated one candidate at a time (resumed payloads and
/// skipped names applied), ranked by the oracle, against run_grid_search
/// at every cut size and at 1 and 4 threads.
void check_grid(const std::vector<tfm::TransformerConfig>& configs,
                const tfm::TransformerConfig& baseline,
                const std::string& what,
                const SearchCheckpoint* resume = nullptr) {
  const gemm::GemmSimulator s = sim();
  std::vector<ShapeCandidate> evaluated;
  for (const tfm::TransformerConfig& cfg : configs) {
    // An armed failpoint fires by name, so a config it skips in the grid
    // is skipped in its one-config grid too and comes back unranked.
    for (ShapeCandidate& c : run_grid_search({cfg}, baseline, s).ranked) {
      if (resume != nullptr) {
        if (const CheckpointShapeEntry* e = resume->shape(cfg.name)) {
          c = with_entry(std::move(c), *e);
        }
      }
      evaluated.push_back(std::move(c));
    }
  }
  for (const std::size_t max : cut_sizes(configs.size())) {
    for (const std::size_t threads : {1, 4}) {
      SearchOptions options;
      options.max_candidates = max;
      options.threads = threads;
      options.resume = resume;
      const SearchOutcome out = run_grid_search(configs, baseline, s, options);
      const std::string label = what + " max=" + std::to_string(max) +
                                " threads=" + std::to_string(threads);
      // Skips (failpoint or checkpoint) are keyed by name, so every config
      // sharing a skipped name is skipped with it.
      std::set<std::string> skipped;
      for (const SkippedCandidate& k : out.skipped) {
        skipped.insert(k.config.name);
      }
      std::vector<ShapeCandidate> kept;
      for (const ShapeCandidate& c : evaluated) {
        if (skipped.count(c.config.name) == 0) kept.push_back(c);
      }
      EXPECT_EQ(out.evaluated, kept.size()) << label;
      EXPECT_EQ(out.evaluated + out.skipped.size(), configs.size()) << label;
      expect_ranking(out.ranked, oracle_rank(kept, baseline, max), label);
    }
  }
}

TEST(SearchMerge, GridWithTiesMatchesTheStableSortOracle) {
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  for (const std::uint64_t seed : {1, 2, 3}) {
    const std::vector<tfm::TransformerConfig> grid = tie_grid(seed, 48);
    const std::string tag = "seed " + std::to_string(seed);
    check_grid(grid, base, tag + " baseline absent");

    // Present once: the a = 32 baseline ties with every a = 32 variant and
    // sorts after them by name, so small cuts put it past the cut.
    std::vector<tfm::TransformerConfig> once = grid;
    once.insert(once.begin() + static_cast<std::ptrdiff_t>(seed * 7), base);
    check_grid(once, base, tag + " baseline once");

    // Present twice: equal keys, so generation order picks the copy.
    std::vector<tfm::TransformerConfig> twice = once;
    twice.push_back(base);
    check_grid(twice, base, tag + " baseline twice");
  }
}

TEST(SearchMerge, FailpointSkipsMatchTheOracle) {
  const FailpointsOff off;
  fail::configure("advisor.search.evaluate=prob:0.2:7:fatal");
  std::vector<tfm::TransformerConfig> grid = tie_grid(4, 48);
  grid.push_back(model_by_name("gpt3-2.7b"));
  check_grid(grid, model_by_name("gpt3-2.7b"), "failpoint skips");
}

TEST(SearchMerge, ResumedAndSkippedSlotsMatchTheOracle) {
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  std::vector<tfm::TransformerConfig> grid = tie_grid(5, 48);
  grid.insert(grid.begin() + 3, base);
  grid.push_back(base);
  const gemm::GemmSimulator s = sim();
  const ShapeCandidate g0 = evaluate_one(grid[0], base, s);
  const ShapeCandidate b = evaluate_one(base, base, s);

  for (const double base_time : {1e-9, 1.0}) {  // inside / past every cut
    const std::string path =
        ::testing::TempDir() + "codesign_merge_resume.txt";
    {
      CheckpointWriter w(path, "merge-test");
      // The baseline's payload decides where it ranks.
      CheckpointShapeEntry e = entry_of(b);
      e.layer_time = base_time;
      w.record_shape(base.name, e);
      // Forced cross-shape ties: other heads, g0's exact layer time.
      for (const char* name : {"g1", "g2", "g6"}) {
        CheckpointShapeEntry t = entry_of(g0);
        t.param_count += 1.0;
        w.record_shape(name, t);
      }
      w.record_skip("g5", {1, "checkpointed skip"});
      w.record_skip("g8", {2, "checkpointed skip"});
    }
    const SearchCheckpoint resume = SearchCheckpoint::load(path);
    std::remove(path.c_str());
    check_grid(grid, base,
               "resume base_time=" + std::to_string(base_time), &resume);
  }
}

/// run_shape_search against the oracle: the untrimmed ranking (all
/// candidates, unique names) re-ranked by the stable sort at every cut.
/// The hidden/joint parameter bound holds at generation, and resumed
/// payloads are ranked as checkpointed.
TEST(SearchMerge, ShapeSearchesMatchTheOracle) {
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  const gemm::GemmSimulator s = sim();
  for (const SearchMode mode :
       {SearchMode::kHeads, SearchMode::kHidden, SearchMode::kJoint}) {
    SearchOptions all_opt;
    all_opt.max_candidates = 1000;
    const std::vector<ShapeCandidate> all =
        run_shape_search(mode, base, s, 0.1, 0, all_opt).ranked;
    ASSERT_GE(all.size(), 3u);
    for (const ShapeCandidate& c : all) {
      ShapeCandidate fresh = evaluate_one(c.config, base, s);
      fresh.note = c.note;
      EXPECT_EQ(fresh, c) << c.config.name;
      if (c.config.hidden_size != base.hidden_size) {
        EXPECT_LE(std::fabs(c.param_delta_frac), kMaxParamDeltaFrac)
            << c.config.name;
      }
    }
    const std::vector<ShapeCandidate> reversed(all.rbegin(), all.rend());
    const std::string tag = search_mode_name(mode);
    for (const std::size_t max : cut_sizes(all.size())) {
      for (const std::size_t threads : {1, 4}) {
        SearchOptions options;
        options.max_candidates = max;
        options.threads = threads;
        expect_ranking(
            run_shape_search(mode, base, s, 0.1, 0, options).ranked,
            oracle_rank(reversed, base, max),
            tag + " max=" + std::to_string(max) +
                " threads=" + std::to_string(threads));
      }
    }
    if (mode == SearchMode::kHeads) continue;

    // Resumed payloads are ranked as checkpointed: the bound ran at
    // generation, so a re-shaped hidden size whose checkpointed delta is
    // out of bounds stays, as does the baseline whatever its delta, and a
    // skip entry removes a candidate.
    const std::string path = ::testing::TempDir() + "codesign_merge_keep.txt";
    std::set<std::string> resumed;
    std::string out_of_bound, skipped;
    {
      CheckpointWriter w(path,
                         shape_search_fingerprint(mode, base, s, 0.1, 0));
      for (const ShapeCandidate& c : all) {
        CheckpointShapeEntry e = entry_of(c);
        if (c.config == base) {
          e.param_delta_frac = 0.5;
          e.layer_time = 1.0;  // past every cut
        } else if (c.config.hidden_size != base.hidden_size &&
                   out_of_bound.empty()) {
          e.param_delta_frac = 0.5;
          out_of_bound = c.config.name;
        } else if (c.config.hidden_size != base.hidden_size &&
                   resumed.size() < 3) {
          e.param_delta_frac = -0.01;
          e.layer_time = all.front().layer_time;  // tie with the best
        } else {
          if (skipped.empty() && !(c.config == all.front().config)) {
            skipped = c.config.name;
            w.record_skip(skipped, {1, "checkpointed skip"});
          }
          continue;
        }
        w.record_shape(c.config.name, e);
        resumed.insert(c.config.name);
      }
    }
    const SearchCheckpoint resume = SearchCheckpoint::load(path);
    std::remove(path.c_str());
    ASSERT_FALSE(out_of_bound.empty()) << tag;
    std::vector<ShapeCandidate> expected;
    for (const ShapeCandidate& c : all) {
      if (c.config.name == skipped) continue;
      ShapeCandidate r = c;
      if (const CheckpointShapeEntry* e = resume.shape(c.config.name)) {
        r = with_entry(r, *e);
      }
      expected.push_back(r);
    }
    for (const std::size_t max : cut_sizes(expected.size())) {
      for (const std::size_t threads : {1, 4}) {
        SearchOptions options;
        options.max_candidates = max;
        options.threads = threads;
        options.resume = &resume;
        const SearchOutcome out =
            run_shape_search(mode, base, s, 0.1, 0, options);
        const std::string label = tag + " resumed max=" + std::to_string(max) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(out.resumed, resumed.size() + (skipped.empty() ? 0 : 1))
            << label;
        expect_ranking(out.ranked, oracle_rank(expected, base, max), label,
                       resumed);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pruning. A call that keeps k < n candidates never times one whose layer
// lower bound is above its worker's k-th best exact time; its outcome must
// be the unpruned (k = n) call's ranking, trimmed, with the same counts.

/// `n` configs drawn like e2ebench's grid_search on the gpt3-2.7b base: h
/// on multiples of 64 in [512, 4544], every legal a with h/a <= 256, t in
/// {1, 2, 4, 8}, and its b, s, L and v, plus (with `variants`) coin flips
/// for GQA kv heads, flash, SwiGLU and parallel layers. Names are unique.
std::vector<tfm::TransformerConfig> drawn_grid(std::uint64_t seed,
                                               std::size_t n,
                                               bool variants = true) {
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  const std::int64_t bs[] = {1, 2, 4, 8, 16, 32};
  const std::int64_t ss[] = {512, 1024, 2048, 4096};
  const std::int64_t ls[] = {12, 16, 24, 32, 40};
  const std::int64_t vs[] = {32000, 50304, 50432, 51200, 65024};
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](const std::vector<std::int64_t>& v) {
    return v[rng() % v.size()];
  };
  std::vector<tfm::TransformerConfig> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto h = static_cast<std::int64_t>(64 * (8 + rng() % 64));
    std::vector<std::int64_t> heads, tps, groups;
    for (std::int64_t a = 1; a <= h / 32; ++a) {
      if (h % a == 0 && h / a <= 256) heads.push_back(a);
    }
    const std::int64_t a = pick(heads);
    for (const std::int64_t t : {1, 2, 4, 8}) {
      if (a % t == 0 && h % t == 0) tps.push_back(t);
    }
    const std::int64_t t = pick(tps);
    tfm::TransformerConfig c = base.with_hidden(h)
                                   .with_heads(a)
                                   .with_tensor_parallel(t)
                                   .with_microbatch(bs[rng() % 6])
                                   .with_seq_len(ss[rng() % 4])
                                   .with_layers(ls[rng() % 5])
                                   .with_vocab(vs[rng() % 5]);
    c.name = "d" + std::to_string(i);
    if (!variants) {
      out.push_back(std::move(c));
      continue;
    }
    if (rng() % 2 == 1) {
      for (std::int64_t kv = t; kv <= a; kv += t) {  // t | kv | a
        if (a % kv == 0) groups.push_back(kv);
      }
      c.num_kv_heads = pick(groups);
    }
    if (rng() % 2 == 1) c.attention = tfm::AttentionImpl::kFlash;
    if (rng() % 2 == 1) {
      c.activation = tfm::Activation::kSwiGlu;
      if (c.d_ff() % t != 0) c.mlp_intermediate = (c.d_ff() / t + 1) * t;
    }
    c.parallel_layers = rng() % 2 == 1;
    out.push_back(std::move(c));
  }
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// run_grid_search at k in {1, 3, 16, 64} and at each of `thread_counts`
/// against the k = n call trimmed by the same order (the baseline, when
/// past the cut, in the last slot): names and scores bit for bit, the
/// counts and the skip report. The candidates scanned must be equal at
/// every thread count; at one thread the pruned call must also run fewer
/// scans (RequestScope estimates) than the k = n call. `arm`, if set, is
/// a failpoint spec configured afresh before each call.
void check_pruning(const std::vector<tfm::TransformerConfig>& configs,
                   const tfm::TransformerConfig& baseline,
                   const gemm::GemmSimulator& s, const std::string& what,
                   std::initializer_list<std::size_t> thread_counts = {1, 4,
                                                                       8},
                   const char* arm = nullptr) {
  const auto search = [&](const SearchOptions& options,
                          obs::RequestScopeCounters& work) {
    if (arm != nullptr) fail::configure(arm);
    const obs::RequestScope::Bind bind(work);
    return run_grid_search(configs, baseline, s, options);
  };
  SearchOptions all_opt;
  all_opt.max_candidates = configs.size();
  obs::RequestScopeCounters all_work;
  const SearchOutcome all = search(all_opt, all_work);
  const auto base_it = std::find_if(
      all.ranked.begin(), all.ranked.end(),
      [&](const ShapeCandidate& c) { return c.config == baseline; });
  for (const std::size_t k : {1, 3, 16, 64}) {
    std::vector<ShapeCandidate> want(
        all.ranked.begin(),
        all.ranked.begin() +
            static_cast<std::ptrdiff_t>(std::min(k, all.ranked.size())));
    if (base_it - all.ranked.begin() >= static_cast<std::ptrdiff_t>(k) &&
        base_it != all.ranked.end()) {
      want.back() = *base_it;
    }
    std::size_t scanned = 0;
    for (const std::size_t threads : thread_counts) {
      SearchOptions options;
      options.max_candidates = k;
      options.threads = threads;
      obs::RequestScopeCounters work;
      const SearchOutcome out = search(options, work);
      const std::string label = what + " k=" + std::to_string(k) +
                                " threads=" + std::to_string(threads);
      ASSERT_EQ(out.ranked.size(), want.size()) << label;
      for (std::size_t i = 0; i < want.size(); ++i) {
        const ShapeCandidate& g = out.ranked[i];
        const ShapeCandidate& w = want[i];
        ASSERT_EQ(g.config.name, w.config.name) << label << " rank " << i;
        EXPECT_EQ(bits(g.layer_time), bits(w.layer_time)) << label;
        EXPECT_EQ(bits(g.layer_tflops), bits(w.layer_tflops)) << label;
        EXPECT_EQ(bits(g.speedup_vs_base), bits(w.speedup_vs_base)) << label;
        EXPECT_EQ(bits(g.param_count), bits(w.param_count)) << label;
        EXPECT_EQ(bits(g.param_delta_frac), bits(w.param_delta_frac))
            << label;
        EXPECT_EQ(g.rules_pass, w.rules_pass) << label;
      }
      EXPECT_EQ(out.evaluated, all.evaluated) << label;
      EXPECT_EQ(out.skipped, all.skipped) << label;
      EXPECT_EQ(out.retries, all.retries) << label;
      if (threads == 1) {
        EXPECT_LT(work.estimates, all_work.estimates) << label;
        scanned = out.scanned;
      }
      EXPECT_EQ(out.scanned, scanned) << label;
      EXPECT_LT(out.scanned, all.scanned) << label;
    }
  }
}

TEST(SearchPruning, MatchesTheUnprunedRankingOnEveryGpu) {
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  const std::vector<std::string> gpus = gpu::known_gpus();
  for (std::size_t g = 0; g < gpus.size(); ++g) {
    const gemm::GemmSimulator s = gemm::GemmSimulator::for_gpu(gpus[g]);
    const std::size_t n = std::size_t{512} << (g % 4);  // 512 .. 4096
    check_pruning(drawn_grid(100 + g, n), base, s,
                  gpus[g] + " n=" + std::to_string(n));
  }
}

TEST(SearchPruning, BaselinePastTheCutAndInvalidConfigs) {
  // The baseline runs at b = 32, s = 4096, so it ranks past every cut; it
  // is never pruned and takes the last slot with its exact scores. The
  // invalid config is skipped with the same reason as in the k = n call.
  const tfm::TransformerConfig base =
      model_by_name("gpt3-2.7b").with_microbatch(32).with_seq_len(4096);
  for (const std::string& gpu : gpu::known_gpus()) {
    const gemm::GemmSimulator s = gemm::GemmSimulator::for_gpu(gpu);
    std::vector<tfm::TransformerConfig> grid = drawn_grid(7, 512);
    grid.insert(grid.begin() + 300, base);
    grid[11].num_heads = grid[11].hidden_size / 32 + 1;  // h/a < 32
    SearchOptions options;
    options.max_candidates = grid.size();
    const SearchOutcome all = run_grid_search(grid, base, s, options);
    ASSERT_EQ(all.skipped.size(), 1u) << gpu;
    EXPECT_EQ(all.skipped[0].config.name, "d11") << gpu;
    std::size_t rank = 0;
    while (!(all.ranked[rank].config == base)) ++rank;
    ASSERT_GE(rank, 64u) << gpu;
    check_pruning(grid, base, s, gpu + " baseline + invalid");
  }
}

TEST(SearchPruning, SelectKernelFailpointSkipsTheSameCandidates) {
  // Every GEMM still passes gemmsim.select_kernel once, so a pruned call
  // skips the same candidates, for the same reasons, after the same
  // retries.
  const FailpointsOff off;
  fail::configure("gemmsim.select_kernel=prob:0.05:7");
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  for (const std::string& gpu : gpu::known_gpus()) {
    const gemm::GemmSimulator s = gemm::GemmSimulator::for_gpu(gpu);
    std::vector<tfm::TransformerConfig> grid = drawn_grid(41, 512);
    grid.push_back(base);
    SearchOptions options;
    options.max_candidates = grid.size();
    ASSERT_GT(run_grid_search(grid, base, s, options).skipped.size(), 10u)
        << gpu;
    check_pruning(grid, base, s, gpu + " select_kernel failpoint");
  }
}

TEST(SearchPruning, SelectKernelOnceFailpointSkipsTheSameCandidate) {
  // A counted trigger fires on the Nth GEMM selection in program order. At
  // one thread an armed call walks every candidate in index order, so the
  // pruned call loses the same candidate as the k = n call.
  const FailpointsOff off;
  const char* const arm = "gemmsim.select_kernel=once:1500:fatal";
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  const gemm::GemmSimulator s = gemm::GemmSimulator::for_gpu("a100-40gb");
  const std::vector<tfm::TransformerConfig> grid = drawn_grid(43, 512);
  SearchOptions options;
  options.max_candidates = grid.size();
  fail::configure(arm);
  const SearchOutcome all = run_grid_search(grid, base, s, options);
  ASSERT_EQ(all.skipped.size(), 1u);
  // Past the seeds of every k check_pruning tries.
  ASSERT_GE(std::stoul(all.skipped[0].config.name.substr(1)), 64u);
  check_pruning(grid, base, s, "select_kernel once", {1}, arm);
}

TEST(SearchPruning, ScansStayUnderFourPercentOnE2eLikeCalls) {
  // Calls drawn like e2ebench's grid_search (4,096 candidates, k = 16):
  // besides the k seeds, at most 4% of the candidates reach a tile scan,
  // and the count does not depend on the thread count.
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  for (const char* gpu : {"a100-40gb", "h100-sxm"}) {
    const gemm::GemmSimulator s = gemm::GemmSimulator::for_gpu(gpu);
    for (const std::uint64_t seed : {7, 41, 53}) {
      const std::vector<tfm::TransformerConfig> grid =
          drawn_grid(seed, 4096, false);
      SearchOptions options;
      const SearchOutcome one = run_grid_search(grid, base, s, options);
      options.threads = 4;
      const SearchOutcome four = run_grid_search(grid, base, s, options);
      const std::string label = std::string(gpu) + " seed " +
                                std::to_string(seed);
      EXPECT_EQ(one.scanned, four.scanned) << label;
      EXPECT_LE(one.scanned, grid.size() * 4 / 100 + options.max_candidates)
          << label;
      EXPECT_EQ(one.evaluated, grid.size()) << label;
    }
  }
}

}  // namespace
}  // namespace codesign::advisor
