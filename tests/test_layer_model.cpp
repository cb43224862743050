// Tests for transformer/layer_model.hpp — per-op latency and shares.
#include "transformer/layer_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "transformer/attribution.hpp"
#include "transformer/config_parse.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::tfm {
namespace {

gemm::GemmSimulator sim() { return gemm::GemmSimulator::for_gpu("a100"); }

TEST(LayerModel, TimesArePositiveAndDecompose) {
  const auto r = analyze_layer(model_by_name("gpt3-2.7b"), sim());
  EXPECT_GT(r.total_time, 0.0);
  EXPECT_GT(r.gemm_time, 0.0);
  EXPECT_GT(r.non_gemm_time, 0.0);
  EXPECT_NEAR(r.gemm_time + r.non_gemm_time, r.total_time, 1e-12);
  EXPECT_GT(r.throughput_tflops, 0.0);
  EXPECT_GT(r.gemm_fraction, 0.0);
  EXPECT_LT(r.gemm_fraction, 1.0);
}

TEST(LayerModel, LeanTotalTimeIsBitIdenticalToTheReport) {
  // layer_total_time, analyze_layer and attribute_layer all read one layer
  // walk, so their totals agree bit for bit. The configs (every zoo model
  // plus flash variants) span GELU/SwiGLU, bmm/flash, rotary/learned,
  // parallel/sequential and GQA; each runs on an uncached simulator and on
  // fresh cached ones, read first by the totals-only walk and first by the
  // per-op walk (miss, then hit).
  std::vector<TransformerConfig> configs;
  for (const std::string& name : known_models()) {
    configs.push_back(model_by_name(name));
  }
  for (const char* name : {"gpt3-2.7b", "llama2-7b", "pythia-160m"}) {
    TransformerConfig flash = model_by_name(name);
    flash.attention = AttentionImpl::kFlash;
    configs.push_back(flash);
  }
  LayerWorkspace ws;
  for (const TransformerConfig& c : configs) {
    const std::string tag = c.to_string();
    const auto s = sim();
    const double total = layer_total_time(c, s, ws);
    EXPECT_EQ(total, analyze_layer(c, s).total_time) << tag;
    EXPECT_EQ(total, attribute_layer(c, s).total_time) << tag;

    auto totals_first = sim();
    totals_first.enable_cache();
    EXPECT_EQ(layer_total_time(c, totals_first, ws), total) << tag;
    EXPECT_EQ(analyze_layer(c, totals_first).total_time, total) << tag;
    EXPECT_EQ(attribute_layer(c, totals_first).total_time, total) << tag;

    auto records_first = sim();
    records_first.enable_cache();
    EXPECT_EQ(attribute_layer(c, records_first).total_time, total) << tag;
    EXPECT_EQ(analyze_layer(c, records_first).total_time, total) << tag;
    EXPECT_EQ(layer_total_time(c, records_first, ws), total) << tag;
  }
}

TEST(LayerModel, SharesSumToOne) {
  const auto r = analyze_layer(model_by_name("gpt3-2.7b"), sim());
  double total = 0.0;
  for (const OpLatency& o : r.ops) total += o.time / r.total_time;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(LayerModel, GemmFractionGrowsWithModelSize) {
  // Fig 2's headline: 68.3% for medium models, 94.9% for large ones. The
  // ordering (and rough magnitudes) must reproduce.
  const double small =
      analyze_layer(model_by_name("gpt3-125m"), sim()).gemm_fraction;
  const double medium =
      analyze_layer(model_by_name("gpt3-2.7b"), sim()).gemm_fraction;
  const double large =
      analyze_layer(model_by_name("gpt3-175b"), sim()).gemm_fraction;
  EXPECT_LT(small, medium);
  EXPECT_LT(medium, large);
  EXPECT_GT(large, 0.85);
}

TEST(LayerModel, QkvAndMlpDominateLargeModelGemms) {
  // Fig 11: for large models the QKV and MLP GEMMs dominate; AOV is the
  // smallest GEMM.
  const auto r = analyze_layer(model_by_name("gpt3-175b"), sim());
  const double qkv = r.gemm_share_of(LayerOp::kQkvTransform);
  const double mlp = r.gemm_share_of(LayerOp::kMlpUp) +
                     r.gemm_share_of(LayerOp::kMlpDown);
  const double aov = r.gemm_share_of(LayerOp::kAttentionOverValue);
  const double score = r.gemm_share_of(LayerOp::kAttentionScore);
  EXPECT_GT(qkv + mlp, 0.6);
  EXPECT_LT(aov, score + 1e-12);
  EXPECT_LT(aov, 0.15);
}

TEST(LayerModel, ShareAccessors) {
  const auto r = analyze_layer(model_by_name("gpt3-2.7b"), sim());
  double total_share = 0.0;
  for (const OpLatency& o : r.ops) {
    (void)o;
  }
  for (LayerOp op : {LayerOp::kLayerNorm1, LayerOp::kQkvTransform,
                     LayerOp::kAttentionScore, LayerOp::kSoftmax,
                     LayerOp::kAttentionOverValue, LayerOp::kPostAttnProjection,
                     LayerOp::kResidualAdd1, LayerOp::kLayerNorm2,
                     LayerOp::kMlpUp, LayerOp::kActivation, LayerOp::kMlpDown,
                     LayerOp::kResidualAdd2}) {
    total_share += r.share_of(op);
  }
  EXPECT_NEAR(total_share, 1.0, 1e-9);

  double gemm_share = 0.0;
  for (LayerOp op : {LayerOp::kQkvTransform, LayerOp::kAttentionScore,
                     LayerOp::kAttentionOverValue,
                     LayerOp::kPostAttnProjection, LayerOp::kMlpUp,
                     LayerOp::kMlpDown}) {
    gemm_share += r.gemm_share_of(op);
  }
  EXPECT_NEAR(gemm_share, 1.0, 1e-9);
}

TEST(LayerModel, ParallelLayersFasterSameGemms) {
  TransformerConfig seq_cfg = model_by_name("gpt3-2.7b");
  TransformerConfig par_cfg = seq_cfg;
  par_cfg.parallel_layers = true;
  const auto rs = analyze_layer(seq_cfg, sim());
  const auto rp = analyze_layer(par_cfg, sim());
  // §VI-C1: the fusion reduces non-GEMM time but "does not impact our
  // analysis at all" — same GEMM time.
  EXPECT_NEAR(rp.gemm_time, rs.gemm_time, rs.gemm_time * 1e-9);
  EXPECT_LT(rp.non_gemm_time, rs.non_gemm_time);
  EXPECT_LT(rp.total_time, rs.total_time);
}

TEST(LayerModel, FlashAttentionFasterForUnalignedHeads) {
  // §VI-B's recommendation: FlashAttention mitigates h/a misalignment for
  // small models.
  TransformerConfig bmm_cfg = model_by_name("gpt3-2.7b");  // h/a = 80
  TransformerConfig flash_cfg = bmm_cfg;
  flash_cfg.attention = AttentionImpl::kFlash;
  const auto rb = analyze_layer(bmm_cfg, sim());
  const auto rf = analyze_layer(flash_cfg, sim());
  EXPECT_LT(rf.total_time, rb.total_time);
}

TEST(LayerModel, DetailStringsPopulated) {
  const auto r = analyze_layer(model_by_name("gpt3-2.7b"), sim());
  for (const OpLatency& o : r.ops) {
    EXPECT_FALSE(o.name.empty());
    EXPECT_FALSE(detail_text(o.detail).empty());
    EXPECT_GT(o.time, 0.0);
  }
}

/// Every op of one forward pass as (name, detail text), in trace order:
/// the embedding lookup, one layer, the final LayerNorm and the logits.
std::vector<std::pair<std::string, std::string>> rendered_details(
    const TransformerConfig& c) {
  std::vector<std::pair<std::string, std::string>> out;
  const std::vector<MappedOp> model_ops = model_level_ops(c);
  const auto add = [&](const OpLatency& o) {
    out.emplace_back(o.name, detail_text(o.detail));
  };
  add(op_latency(model_ops[0], sim()));
  for (const OpLatency& o : analyze_layer(c, sim()).ops) add(o);
  add(op_latency(model_ops[1], sim()));
  add(op_latency(model_ops[2], sim()));
  return out;
}

TEST(LayerModel, DetailTextIsByteIdenticalToThePinnedStrings) {
  // The records keep numbers and detail_text() renders them on demand; the
  // text must stay the bytes the records used to carry. GEMMs, BMMs, a
  // flash op and every elementwise op (LayerNorms, softmax, rotary,
  // GELU/SwiGLU activation, residuals, embedding) on a100.
  using Details = std::vector<std::pair<std::string, std::string>>;
  const Details gpt3 = {
      {"embedding_lookup", "120.00 MiB traffic"},
      {"layer_norm_1", "80.00 MiB traffic"},
      {"qkv_transform",
       "GEMM(8192 x 7680 x 2560, fp16) tile=256x128 bound=compute waves=18"},
      {"attention_score",
       "BMM(b=128, 2048 x 2048 x 80, fp16) tile=256x128 bound=memory "
       "waves=152"},
      {"softmax", "2.00 GiB traffic"},
      {"attention_over_value",
       "BMM(b=128, 2048 x 80 x 2048, fp16) tile=256x128 bound=memory "
       "waves=10"},
      {"post_attn_projection",
       "GEMM(8192 x 2560 x 2560, fp16) tile=256x128 bound=compute waves=6"},
      {"residual_add_1", "120.00 MiB traffic"},
      {"layer_norm_2", "80.00 MiB traffic"},
      {"mlp_h_to_ff",
       "GEMM(8192 x 10240 x 2560, fp16) tile=256x128 bound=compute waves=24"},
      {"activation", "320.00 MiB traffic"},
      {"mlp_ff_to_h",
       "GEMM(8192 x 2560 x 10240, fp16) tile=256x128 bound=compute waves=6"},
      {"residual_add_2", "120.00 MiB traffic"},
      {"final_layer_norm", "80.00 MiB traffic"},
      {"logit_projection",
       "GEMM(8192 x 50257 x 2560, fp16) tile=256x128 bound=compute "
       "waves=117"},
  };
  const Details llama = {
      {"embedding_lookup", "256.00 MiB traffic"},
      {"layer_norm_1", "256.00 MiB traffic"},
      {"qkv_transform",
       "GEMM(16384 x 12288 x 4096, fp16) tile=256x128 bound=compute "
       "waves=57"},
      {"rotary_embedding", "512.00 MiB traffic"},
      {"attention_score",
       "BMM(b=128, 4096 x 4096 x 128, fp16) tile=256x128 bound=memory "
       "waves=607"},
      {"softmax", "8.00 GiB traffic"},
      {"attention_over_value",
       "BMM(b=128, 4096 x 128 x 4096, fp16) tile=256x128 bound=memory "
       "waves=19"},
      {"post_attn_projection",
       "GEMM(16384 x 4096 x 4096, fp16) tile=256x128 bound=compute "
       "waves=19"},
      {"residual_add_1", "384.00 MiB traffic"},
      {"layer_norm_2", "256.00 MiB traffic"},
      {"mlp_h_to_ff",
       "GEMM(16384 x 11008 x 4096, fp16) tile=256x128 bound=compute "
       "waves=51"},
      {"mlp_gate",
       "GEMM(16384 x 11008 x 4096, fp16) tile=256x128 bound=compute "
       "waves=51"},
      {"activation", "1.01 GiB traffic"},
      {"mlp_ff_to_h",
       "GEMM(16384 x 4096 x 11008, fp16) tile=256x128 bound=compute "
       "waves=19"},
      {"residual_add_2", "384.00 MiB traffic"},
      {"final_layer_norm", "256.00 MiB traffic"},
      {"logit_projection",
       "GEMM(16384 x 32000 x 4096, fp16) tile=256x128 bound=compute "
       "waves=149"},
  };
  const Details flash_swiglu_parallel = {
      {"embedding_lookup", "80.00 MiB traffic"},
      {"layer_norm_1", "80.00 MiB traffic"},
      {"qkv_transform",
       "GEMM(8192 x 7680 x 2560, fp16) tile=256x128 bound=compute waves=18"},
      {"rotary_embedding", "160.00 MiB traffic"},
      {"flash_attention", "flash(s=2048 d=80) bound=compute"},
      {"post_attn_projection",
       "GEMM(8192 x 2560 x 2560, fp16) tile=256x128 bound=compute waves=6"},
      {"mlp_h_to_ff",
       "GEMM(8192 x 6912 x 2560, fp16) tile=256x128 bound=compute waves=16"},
      {"mlp_gate",
       "GEMM(8192 x 6912 x 2560, fp16) tile=256x128 bound=compute waves=16"},
      {"activation", "324.00 MiB traffic"},
      {"mlp_ff_to_h",
       "GEMM(8192 x 2560 x 6912, fp16) tile=256x128 bound=compute waves=6"},
      {"residual_add_2", "120.00 MiB traffic"},
      {"final_layer_norm", "80.00 MiB traffic"},
      {"logit_projection",
       "GEMM(8192 x 50257 x 2560, fp16) tile=256x128 bound=compute "
       "waves=117"},
  };
  const TransformerConfig custom = parse_config_string(
      "h=2560,a=32,L=32,v=50257,attn=flash,act=swiglu,dff=6912,parallel=1,"
      "pos=rotary");
  EXPECT_EQ(rendered_details(model_by_name("gpt3-2.7b")), gpt3);
  EXPECT_EQ(rendered_details(model_by_name("llama2-7b")), llama);
  EXPECT_EQ(rendered_details(custom), flash_swiglu_parallel);

  // Attribution families render through the same function: each family's
  // text is its op's.
  for (const TransformerConfig& c :
       {model_by_name("gpt3-2.7b"), model_by_name("llama2-7b"), custom}) {
    const Details ops = rendered_details(c);
    for (const FamilyAttribution& f : attribute_model(c, sim()).gemms) {
      const auto it = std::find_if(ops.begin(), ops.end(), [&](const auto& o) {
        return o.first == f.name;
      });
      ASSERT_NE(it, ops.end()) << f.name;
      EXPECT_EQ(detail_text(f.detail), it->second) << f.name;
    }
  }
}

TEST(ModelModel, TotalsCompose) {
  const TransformerConfig c = model_by_name("gpt3-2.7b");
  const auto r = analyze_model(c, sim());
  EXPECT_NEAR(r.total_time,
              32.0 * r.layer.total_time + r.embedding_time +
                  r.final_ln_time + r.logit_time,
              r.total_time * 1e-12);
  EXPECT_GT(r.tokens_per_second, 0.0);
  EXPECT_GT(r.throughput_tflops, 0.0);
  EXPECT_GT(r.logit_time, r.embedding_time);  // the logit GEMM is heavy
}

TEST(ModelModel, BiggerModelSlower) {
  const auto small = analyze_model(model_by_name("gpt3-125m"), sim());
  const auto big = analyze_model(model_by_name("gpt3-6.7b"), sim());
  EXPECT_GT(big.total_time, small.total_time);
  EXPECT_LT(big.tokens_per_second, small.tokens_per_second);
}

TEST(ModelModel, BetterGpuFaster) {
  const TransformerConfig c = model_by_name("gpt3-2.7b");
  const auto on_a100 = analyze_model(c, gemm::GemmSimulator::for_gpu("a100"));
  const auto on_v100 = analyze_model(c, gemm::GemmSimulator::for_gpu("v100"));
  const auto on_h100 = analyze_model(c, gemm::GemmSimulator::for_gpu("h100"));
  EXPECT_LT(on_a100.total_time, on_v100.total_time);
  EXPECT_LT(on_h100.total_time, on_a100.total_time);
}

}  // namespace
}  // namespace codesign::tfm
