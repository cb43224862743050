// Tests for transformer/gemm_mapping.hpp — Table II, exactly.
#include "transformer/gemm_mapping.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "common/error.hpp"
#include "support/allocation_counter.hpp"

#include "transformer/attribution.hpp"
#include "transformer/flops.hpp"
#include "transformer/inference.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/training.hpp"

namespace codesign::tfm {
namespace {

using gemm::GemmProblem;

TransformerConfig cfg(std::int64_t t = 1) {
  TransformerConfig c = model_by_name("gpt3-2.7b");
  c.microbatch = 4;
  if (t > 1) {
    c = c.with_tensor_parallel(t).with_vocab(50304);  // v divisible by t
  }
  return c;
}

TEST(Mapping, QkvTransformShape) {
  // (b·s, h) × (h, 3h/t)
  const GemmProblem p = qkv_gemm(cfg());
  EXPECT_EQ(p.m, 4 * 2048);
  EXPECT_EQ(p.n, 3 * 2560);
  EXPECT_EQ(p.k, 2560);
  EXPECT_EQ(p.batch, 1);
}

TEST(Mapping, AttentionScoreShape) {
  // b·a/t batched (s, h/a) × (h/a, s)
  const GemmProblem p = attention_score_bmm(cfg());
  EXPECT_EQ(p.batch, 4 * 32);
  EXPECT_EQ(p.m, 2048);
  EXPECT_EQ(p.n, 2048);
  EXPECT_EQ(p.k, 80);
}

TEST(Mapping, AttentionOverValueShape) {
  // b·a/t batched (s, s) × (s, h/a)
  const GemmProblem p = attention_over_value_bmm(cfg());
  EXPECT_EQ(p.batch, 4 * 32);
  EXPECT_EQ(p.m, 2048);
  EXPECT_EQ(p.n, 80);
  EXPECT_EQ(p.k, 2048);
}

TEST(Mapping, ProjectionShape) {
  // (b·s, h/t) × (h/t, h)
  const GemmProblem p = post_attn_projection_gemm(cfg());
  EXPECT_EQ(p.m, 8192);
  EXPECT_EQ(p.n, 2560);
  EXPECT_EQ(p.k, 2560);
}

TEST(Mapping, MlpShapes) {
  const GemmProblem up = mlp_up_gemm(cfg());
  EXPECT_EQ(up.m, 8192);
  EXPECT_EQ(up.n, 4 * 2560);
  EXPECT_EQ(up.k, 2560);
  const GemmProblem down = mlp_down_gemm(cfg());
  EXPECT_EQ(down.m, 8192);
  EXPECT_EQ(down.n, 2560);
  EXPECT_EQ(down.k, 4 * 2560);
}

TEST(Mapping, LogitShape) {
  const GemmProblem p = logit_gemm(cfg());
  EXPECT_EQ(p.m, 8192);
  EXPECT_EQ(p.n, 50257);
  EXPECT_EQ(p.k, 2560);
}

TEST(Mapping, TensorParallelDividesShapes) {
  const TransformerConfig c = cfg(4);
  EXPECT_EQ(qkv_gemm(c).n, 3 * 2560 / 4);
  EXPECT_EQ(attention_score_bmm(c).batch, 4 * 32 / 4);
  EXPECT_EQ(attention_score_bmm(c).k, 80);  // head dim unchanged by TP
  EXPECT_EQ(post_attn_projection_gemm(c).k, 2560 / 4);
  EXPECT_EQ(mlp_up_gemm(c).n, 4 * 2560 / 4);
  EXPECT_EQ(mlp_down_gemm(c).k, 4 * 2560 / 4);
  EXPECT_EQ(logit_gemm(c).n, 50304 / 4);
}

TEST(Mapping, ChainabilityOfOperatorShapes) {
  // Output of each operator must be a valid input to the next.
  const TransformerConfig c = cfg();
  const GemmProblem qkv = qkv_gemm(c);
  const GemmProblem score = attention_score_bmm(c);
  const GemmProblem aov = attention_over_value_bmm(c);
  const GemmProblem proj = post_attn_projection_gemm(c);
  const GemmProblem up = mlp_up_gemm(c);
  const GemmProblem down = mlp_down_gemm(c);

  // QKV output (b·s, 3h/t) splits into 3 tensors of (b·a/t) heads × (s, h/a).
  EXPECT_EQ(qkv.m * qkv.n,
            3 * score.batch * score.m * score.k);
  // Score output (b·a/t, s, s) is AOV's left operand.
  EXPECT_EQ(score.batch, aov.batch);
  EXPECT_EQ(score.m, aov.m);
  EXPECT_EQ(score.n, aov.k);
  // AOV output (b·a/t, s, h/a) merges to the projection input (b·s, h/t).
  EXPECT_EQ(aov.batch * aov.m * aov.n, proj.m * proj.k);
  // Projection output feeds the MLP input.
  EXPECT_EQ(proj.m, up.m);
  EXPECT_EQ(proj.n, up.k);
  // MLP up output feeds MLP down.
  EXPECT_EQ(up.n, down.k);
  EXPECT_EQ(down.n, up.k);
}

TEST(Mapping, LayerGemmsStandardCount) {
  // GELU + BMM attention: QKV, score, AOV, proj, up, down = 6 (Table II).
  EXPECT_EQ(layer_gemms(cfg()).size(), 6u);
}

TEST(Mapping, LayerGemmsSwigluCount) {
  TransformerConfig c = cfg();
  c.activation = Activation::kSwiGlu;
  c.mlp_intermediate = 6912;
  EXPECT_EQ(layer_gemms(c).size(), 7u);  // + gate
}

TEST(Mapping, LayerGemmsFlashCount) {
  TransformerConfig c = cfg();
  c.attention = AttentionImpl::kFlash;
  EXPECT_EQ(layer_gemms(c).size(), 4u);  // score/AOV absorbed
}

TEST(Mapping, FlashProblemFields) {
  TransformerConfig c = cfg();
  const auto p = flash_attention_problem(c);
  EXPECT_EQ(p.batch, 4);
  EXPECT_EQ(p.heads, 32);
  EXPECT_EQ(p.seq, 2048);
  EXPECT_EQ(p.head_dim, 80);
  EXPECT_TRUE(p.causal);
}

TEST(Mapping, LayerOpsScheduleOrder) {
  const auto ops = layer_schedule(cfg());
  ASSERT_GE(ops.size(), 10u);
  EXPECT_EQ(ops.front().op, LayerOp::kLayerNorm1);
  EXPECT_EQ(ops[1].op, LayerOp::kQkvTransform);
  EXPECT_EQ(ops.back().op, LayerOp::kResidualAdd2);
  // GEMM ops carry problems; non-GEMM ops carry traffic.
  for (const MappedOp& op : ops) {
    if (op.is_gemm()) {
      EXPECT_TRUE(op_is_gemm(op.op)) << op_name(op.op);
      EXPECT_GT(op.flops, 0.0);
    } else if (!op.flash.has_value()) {
      EXPECT_GT(op.elementwise_bytes, 0.0) << op_name(op.op);
    }
  }
}

TEST(Mapping, RotaryAddsOp) {
  TransformerConfig c = cfg();
  c.pos_embedding = PosEmbedding::kRotary;
  const auto ops = layer_schedule(c);
  bool has_rotary = false;
  for (const auto& op : ops) has_rotary |= op.op == LayerOp::kRotaryEmbedding;
  EXPECT_TRUE(has_rotary);
}

TEST(Mapping, FlashScheduleHasNoSoftmax) {
  TransformerConfig c = cfg();
  c.attention = AttentionImpl::kFlash;
  for (const auto& op : layer_schedule(c)) {
    EXPECT_NE(op.op, LayerOp::kSoftmax);
    EXPECT_NE(op.op, LayerOp::kAttentionScore);
    EXPECT_NE(op.op, LayerOp::kAttentionOverValue);
  }
}

TEST(Mapping, ModelLevelOps) {
  const auto ops = model_level_ops(cfg());
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].op, LayerOp::kEmbeddingLookup);
  EXPECT_EQ(ops[1].op, LayerOp::kFinalLayerNorm);
  EXPECT_EQ(ops[2].op, LayerOp::kLogitProjection);
  EXPECT_TRUE(ops[2].is_gemm());
}

TEST(Mapping, OpNamesAndPredicate) {
  EXPECT_STREQ(op_name(LayerOp::kQkvTransform), "qkv_transform");
  EXPECT_TRUE(op_is_gemm(LayerOp::kMlpUp));
  EXPECT_FALSE(op_is_gemm(LayerOp::kSoftmax));
  EXPECT_FALSE(op_is_gemm(LayerOp::kFlashAttention));
}

TEST(Mapping, InvalidConfigRejected) {
  TransformerConfig c = cfg();
  c.num_heads = 48;  // h % a != 0
  EXPECT_THROW(qkv_gemm(c), Error);
  EXPECT_THROW(layer_gemms(c), Error);
}

// layer_ops_into builds its GEMMs unchecked after one validate(); every
// public builder still validates on its own.
TEST(Mapping, EveryPublicBuilderRejectsInvalidConfig) {
  TransformerConfig c = cfg();
  c.num_heads = 48;  // h % a != 0
  EXPECT_THROW(qkv_gemm(c), ConfigError);
  EXPECT_THROW(attention_score_bmm(c), ConfigError);
  EXPECT_THROW(attention_over_value_bmm(c), ConfigError);
  EXPECT_THROW(post_attn_projection_gemm(c), ConfigError);
  EXPECT_THROW(mlp_up_gemm(c), ConfigError);
  EXPECT_THROW(mlp_down_gemm(c), ConfigError);
  EXPECT_THROW(logit_gemm(c), ConfigError);
  EXPECT_THROW(flash_attention_problem(c), ConfigError);
  EXPECT_THROW(layer_gemms(c), ConfigError);
  EXPECT_THROW(layer_schedule(c), ConfigError);
  EXPECT_THROW(model_level_ops(c), ConfigError);
}

// layer_schedule() and model_level_ops() are the only lists of what a layer
// and a model run: every reader that counts, lists or sums a layer's ops
// must agree with them, on every zoo model and every variant that changes
// the op list.
TEST(Schedule, EveryReaderAgreesWithTheSchedule) {
  const gemm::GemmSimulator sim = gemm::GemmSimulator::for_gpu("a100");
  for (const std::string& name : known_models()) {
    for (const AttentionImpl attention :
         {AttentionImpl::kBmm, AttentionImpl::kFlash}) {
      for (const bool parallel : {false, true}) {
        for (const Activation act : {Activation::kGelu, Activation::kSwiGlu}) {
          TransformerConfig c = model_by_name(name);
          c.attention = attention;
          c.parallel_layers = parallel;
          c.activation = act;
          SCOPED_TRACE(c.to_string());
          const std::vector<MappedOp> schedule = layer_schedule(c);
          const std::vector<MappedOp> model_level = model_level_ops(c);

          EXPECT_EQ(decode_launches_per_step(c),
                    static_cast<double>(c.num_layers * schedule.size() +
                                        model_level.size() + 1));

          std::vector<GemmProblem> gemms;
          for (const MappedOp& op : schedule) {
            if (op.gemm.has_value()) gemms.push_back(*op.gemm);
          }
          EXPECT_EQ(layer_gemms(c), gemms);

          // Backward runs that list in reverse. Score and AOV multiply two
          // activations, so their second GEMM does not accumulate.
          std::vector<GemmProblem> backward;
          for (auto op = schedule.rbegin(); op != schedule.rend(); ++op) {
            if (!op->gemm.has_value()) continue;
            BackwardPair p = backward_of(*op->gemm);
            p.wgrad.accumulate_into_c =
                op->op != LayerOp::kAttentionScore &&
                op->op != LayerOp::kAttentionOverValue;
            backward.push_back(p.dgrad);
            backward.push_back(p.wgrad);
          }
          EXPECT_EQ(layer_backward_gemms(c), backward);

          LayerWorkspace ws;
          layer_total_time(c, sim, ws);
          EXPECT_EQ(layer_forward_flops(c), layer_forward_flops(ws));

          EXPECT_EQ(attribute_model(c, sim).total_time,
                    analyze_model(c, sim).total_time);
        }
      }
    }
  }
}

/// One config per schedule shape: every combination of BMM or flash
/// attention, rotary or learned positions, GELU or SwiGLU and sequential
/// or parallel layers (8 to 14 ops, 4 to 7 GEMMs).
std::vector<TransformerConfig> schedule_shapes() {
  std::vector<TransformerConfig> out;
  for (const AttentionImpl attention :
       {AttentionImpl::kBmm, AttentionImpl::kFlash}) {
    for (const PosEmbedding pos :
         {PosEmbedding::kLearned, PosEmbedding::kRotary}) {
      for (const Activation act : {Activation::kGelu, Activation::kSwiGlu}) {
        for (const bool parallel : {false, true}) {
          TransformerConfig c = cfg();
          c.attention = attention;
          c.pos_embedding = pos;
          c.activation = act;
          c.parallel_layers = parallel;
          out.push_back(c);
        }
      }
    }
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Field-for-field equality of two schedule ops, doubles bit for bit.
void expect_same_op(const MappedOp& got, const MappedOp& want) {
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.gemm, want.gemm);
  ASSERT_EQ(got.flash.has_value(), want.flash.has_value());
  if (want.flash.has_value()) {
    EXPECT_EQ(got.flash->batch, want.flash->batch);
    EXPECT_EQ(got.flash->heads, want.flash->heads);
    EXPECT_EQ(got.flash->seq, want.flash->seq);
    EXPECT_EQ(got.flash->head_dim, want.flash->head_dim);
    EXPECT_EQ(got.flash->causal, want.flash->causal);
    EXPECT_EQ(got.flash->dtype, want.flash->dtype);
  }
  EXPECT_EQ(bits(got.elementwise_bytes), bits(want.elementwise_bytes));
  EXPECT_EQ(bits(got.flops), bits(want.flops));
}

/// The public, validating builder of a schedule GEMM.
GemmProblem public_builder(LayerOp op, const TransformerConfig& c) {
  switch (op) {
    case LayerOp::kQkvTransform: return qkv_gemm(c);
    case LayerOp::kAttentionScore: return attention_score_bmm(c);
    case LayerOp::kAttentionOverValue: return attention_over_value_bmm(c);
    case LayerOp::kPostAttnProjection: return post_attn_projection_gemm(c);
    case LayerOp::kMlpUp:
    case LayerOp::kMlpGate: return mlp_up_gemm(c);
    case LayerOp::kMlpDown: return mlp_down_gemm(c);
    default: break;
  }
  ADD_FAILURE() << "no builder for " << op_name(op);
  return {};
}

// layer_ops_into() writes each op into a slot a longer or different
// schedule may have used. Walking one workspace through every shape, in
// both directions, must leave exactly what a fresh schedule holds.
TEST(Schedule, ReusedBufferLeavesNoStaleOp) {
  const gemm::GemmSimulator sim = gemm::GemmSimulator::for_gpu("a100");
  std::vector<TransformerConfig> walk = schedule_shapes();
  const std::vector<TransformerConfig> shapes = walk;
  walk.insert(walk.end(), shapes.rbegin(), shapes.rend());
  LayerWorkspace ws;
  std::vector<MappedOp> ops;  // layer_ops_into without the GEMM list
  for (const TransformerConfig& c : walk) {
    SCOPED_TRACE(c.to_string());
    const std::vector<MappedOp> fresh = layer_schedule(c);
    const double reused_time = layer_total_time(c, sim, ws);
    layer_ops_into(c, ops);
    ASSERT_EQ(ws.ops.size(), fresh.size());
    ASSERT_EQ(ops.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      expect_same_op(ws.ops[i], fresh[i]);
      expect_same_op(ops[i], fresh[i]);
    }
    std::vector<GemmProblem> gemms;
    for (const MappedOp& op : ws.ops) {
      if (op.gemm.has_value()) {
        EXPECT_EQ(*op.gemm, public_builder(op.op, c)) << op_name(op.op);
        gemms.push_back(*op.gemm);
      } else if (op.flash.has_value()) {
        MappedOp want;
        want.op = op.op;
        want.flash = flash_attention_problem(c);
        want.flops = want.flash->flops();
        expect_same_op(op, want);
      }
    }
    EXPECT_EQ(ws.gemms, gemms);
    EXPECT_EQ(ws.gemms, layer_gemms(c));
    LayerWorkspace fresh_ws;
    EXPECT_EQ(bits(reused_time), bits(layer_total_time(c, sim, fresh_ws)));
  }
}

// LayerWorkspace's promise: after warm-up, evaluating a candidate
// allocates nothing, whatever shapes the candidates take.
TEST(Schedule, WarmWorkspaceWalkAllocatesNothing) {
  const gemm::GemmSimulator sim = gemm::GemmSimulator::for_gpu("a100");
  const std::vector<TransformerConfig> shapes = schedule_shapes();
  std::vector<TransformerConfig> grid;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 512; ++i) {
    const TransformerConfig& shape = shapes[rng() % shapes.size()];
    const std::int64_t h = 512 + 64 * static_cast<std::int64_t>(rng() % 64);
    std::int64_t a = h / 64;
    if (rng() % 2 == 0 && h % (a * 2) == 0) a *= 2;
    grid.push_back(shape.with_hidden(h)
                       .with_heads(a)
                       .with_microbatch(std::int64_t{1} << (rng() % 5))
                       .with_seq_len(512 << (rng() % 4)));
  }
  LayerWorkspace ws;
  double sink = 0.0;
  for (const TransformerConfig& c : shapes) {
    sink += layer_total_time(c, sim, ws);  // warm-up
  }
  const long before = testing::allocations();
  for (const TransformerConfig& c : grid) sink += layer_total_time(c, sim, ws);
  EXPECT_EQ(testing::allocations(), before);
  EXPECT_GT(sink, 0.0);
  // Control: the counter does see a cold workspace's buffers.
  LayerWorkspace cold;
  layer_total_time(grid.front(), sim, cold);
  EXPECT_GT(testing::allocations(), before);
}

}  // namespace
}  // namespace codesign::tfm
