// Tests for comm/parallelism.hpp — the composite (t, p, d) step model and
// plan ranking.
#include "comm/parallelism.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::comm {
namespace {

const ClusterSpec& p4d() { return cluster_by_name("aws-p4d"); }

tfm::TransformerConfig model() {
  return tfm::model_by_name("gpt3-2.7b").with_vocab(50304);
}

ParallelPlan plan(std::int64_t t, std::int64_t p, std::int64_t d,
                  std::int64_t m = 32) {
  ParallelPlan out;
  out.tensor = t;
  out.pipeline = p;
  out.data = d;
  out.microbatches = m;
  return out;
}

TEST(Parallelism, SingleGpuPlanHasNoComm) {
  const auto r = evaluate_plan(model(), p4d(), plan(1, 1, 1));
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.tp_comm_time, 0.0);
  EXPECT_DOUBLE_EQ(r.pp_comm_time, 0.0);
  EXPECT_DOUBLE_EQ(r.dp_comm_time, 0.0);
  EXPECT_NEAR(r.step_time, r.compute_time, 1e-12);
  EXPECT_GT(r.cluster_mfu, 0.1);
  EXPECT_LT(r.cluster_mfu, 1.0);
}

TEST(Parallelism, CommComponentsAppearWithEachDegree) {
  const auto tp = evaluate_plan(model(), p4d(), plan(8, 1, 1));
  EXPECT_GT(tp.tp_comm_time, 0.0);
  EXPECT_DOUBLE_EQ(tp.pp_comm_time, 0.0);
  EXPECT_DOUBLE_EQ(tp.dp_comm_time, 0.0);

  const auto pp = evaluate_plan(model(), p4d(), plan(1, 4, 1));
  EXPECT_GT(pp.pp_comm_time, 0.0);
  EXPECT_DOUBLE_EQ(pp.tp_comm_time, 0.0);

  const auto dp = evaluate_plan(model(), p4d(), plan(1, 1, 4));
  EXPECT_GT(dp.dp_comm_time, 0.0);
  EXPECT_DOUBLE_EQ(dp.pp_comm_time, 0.0);
}

TEST(Parallelism, GqaKvHeadsBlockATensorDegree) {
  // 8 does not divide kv = 4: the plan is infeasible, not a ConfigError.
  tfm::TransformerConfig gqa = model();
  gqa.num_kv_heads = 4;
  const auto r = evaluate_plan(gqa, p4d(), plan(8, 1, 4));
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.infeasible_reason, "t=8 does not divide kv=4");
  EXPECT_TRUE(evaluate_plan(gqa, p4d(), plan(4, 1, 8)).feasible);
}

TEST(Parallelism, StructuralRejections) {
  // t = 6 on an 8-GPU-node cluster model: 6 ∤ 2560 and 6 ∤ 32.
  const auto bad_t = evaluate_plan(model(), p4d(), plan(6, 1, 1));
  EXPECT_FALSE(bad_t.feasible);
  // p > L.
  EXPECT_FALSE(evaluate_plan(model(), p4d(), plan(1, 64, 1)).feasible);
  // m < p.
  EXPECT_FALSE(evaluate_plan(model(), p4d(), plan(1, 8, 1, 4)).feasible);
  // t > node size.
  EXPECT_FALSE(evaluate_plan(model(), p4d(), plan(16, 1, 1)).feasible);
  EXPECT_FALSE(
      evaluate_plan(model(), p4d(), plan(16, 1, 1)).infeasible_reason.empty());
}

TEST(Parallelism, DataParallelScalesThroughputSublinearly) {
  const auto d1 = evaluate_plan(model(), p4d(), plan(8, 1, 1));
  const auto d4 = evaluate_plan(model(), p4d(), plan(8, 1, 4));
  EXPECT_GT(d4.tokens_per_second, 3.0 * d1.tokens_per_second);
  EXPECT_LT(d4.tokens_per_second, 4.0 * d1.tokens_per_second);
}

TEST(Parallelism, PipelineShardsMemory) {
  const auto p1 = evaluate_plan(model(), p4d(), plan(1, 1, 1));
  const auto p4 = evaluate_plan(model(), p4d(), plan(1, 4, 1));
  EXPECT_LT(p4.memory_per_gpu, p1.memory_per_gpu);
}

TEST(Parallelism, RankPlansCoversFactorizations) {
  const auto plans = rank_plans(model(), p4d(), 32, 32);
  // t ∈ {1,2,4,8}, p·d factorizations of 32/t — at least a dozen plans.
  EXPECT_GE(plans.size(), 12u);
  for (const auto& r : plans) {
    if (r.feasible) {
      EXPECT_EQ(r.plan.total_gpus(), 32);
    }
  }
  // Sorted: feasible+fitting before the rest, throughput-descending within.
  bool seen_infeasible = false;
  double prev_tps = 1e30;
  for (const auto& r : plans) {
    const bool ok = r.feasible && r.fits_memory;
    if (!ok) seen_infeasible = true;
    if (ok) {
      EXPECT_FALSE(seen_infeasible) << "feasible plan after infeasible one";
      EXPECT_LE(r.tokens_per_second, prev_tps * (1 + 1e-12));
      prev_tps = r.tokens_per_second;
    }
  }
}

TEST(Parallelism, BestPlanFitsMemory) {
  // 2.7B does not fit one A100-40GB without sharding; the top-ranked plan
  // must actually fit.
  const auto plans = rank_plans(model(), p4d(), 32, 32);
  ASSERT_TRUE(plans.front().feasible);
  EXPECT_TRUE(plans.front().fits_memory);
  EXPECT_GT(plans.front().plan.total_gpus(), 1);
}

TEST(Parallelism, SlowInterconnectPunishesPipelineMore) {
  // Same plan on p4d (50 GB/s inter-node) vs Summit (25 GB/s): the
  // pipeline p2p share must be larger on the slower fabric — the paper's
  // "depends on the speed of internode connections".
  const auto cfg = model();
  const auto fast = evaluate_plan(cfg, p4d(), plan(1, 4, 1));
  const auto slow =
      evaluate_plan(cfg, cluster_by_name("ornl-summit"), plan(1, 4, 1));
  EXPECT_GT(slow.pp_comm_time / slow.step_time,
            fast.pp_comm_time / fast.step_time);
}

TEST(Parallelism, Validation) {
  EXPECT_THROW(evaluate_plan(model(), p4d(), plan(0, 1, 1)), Error);
  EXPECT_THROW(rank_plans(model(), p4d(), 0), Error);
}

}  // namespace
}  // namespace codesign::comm
