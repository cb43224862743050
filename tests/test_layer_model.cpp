// Tests for transformer/layer_model.hpp — per-op latency and shares.
#include "transformer/layer_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "transformer/attribution.hpp"
#include "transformer/config_parse.hpp"
#include "transformer/flops.hpp"
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

/// The configs of the bit-identity check: every zoo model, three flash
/// variants, and a seeded grid drawn like e2ebench's grid_search (h on
/// multiples of 64 in [512, 4544], every legal a with h/a <= 256, t in
/// {1, 2, 4, 8}, its b, s and v) on the gpt3-2.7b base. Each grid draw also
/// flips a coin for GQA kv heads, flash, SwiGLU, rotary and parallel
/// layers.
std::vector<TransformerConfig> identity_configs() {
  std::vector<TransformerConfig> configs;
  for (const std::string& name : known_models()) {
    configs.push_back(model_by_name(name));
  }
  for (const char* name : {"gpt3-2.7b", "llama2-7b", "pythia-160m"}) {
    TransformerConfig flash = model_by_name(name);
    flash.attention = AttentionImpl::kFlash;
    configs.push_back(flash);
  }
  const TransformerConfig base = model_by_name("gpt3-2.7b");
  const std::int64_t bs[] = {1, 2, 4, 8, 16, 32};
  const std::int64_t ss[] = {512, 1024, 2048, 4096};
  const std::int64_t vs[] = {32000, 50304, 50432, 51200, 65024};
  Rng rng(0x1a7e2);
  const auto pick = [&rng](const std::vector<std::int64_t>& v) {
    return v[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  };
  for (int i = 0; i < 256; ++i) {
    const std::int64_t h = 64 * rng.uniform_int(8, 71);
    std::vector<std::int64_t> heads;
    for (std::int64_t a = 1; a <= h / 32; ++a) {
      if (h % a == 0 && h / a <= 256) heads.push_back(a);
    }
    const std::int64_t a = pick(heads);
    std::vector<std::int64_t> tps;
    for (const std::int64_t t : {1, 2, 4, 8}) {
      if (a % t == 0 && h % t == 0) tps.push_back(t);
    }
    const std::int64_t t = pick(tps);
    TransformerConfig c = base.with_hidden(h)
                              .with_heads(a)
                              .with_tensor_parallel(t)
                              .with_microbatch(bs[rng.uniform_int(0, 5)])
                              .with_seq_len(ss[rng.uniform_int(0, 3)])
                              .with_vocab(vs[rng.uniform_int(0, 4)]);
    if (rng.uniform_int(0, 1) == 1) {
      std::vector<std::int64_t> groups;  // t | kv | a
      for (std::int64_t kv = t; kv <= a; kv += t) {
        if (a % kv == 0) groups.push_back(kv);
      }
      c.num_kv_heads = pick(groups);
    }
    if (rng.uniform_int(0, 1) == 1) c.attention = AttentionImpl::kFlash;
    if (rng.uniform_int(0, 1) == 1) {
      c.activation = Activation::kSwiGlu;
      // The default 8h/3 width need not split t ways; round it up.
      if (c.d_ff() % t != 0) c.mlp_intermediate = (c.d_ff() / t + 1) * t;
    }
    if (rng.uniform_int(0, 1) == 1) c.pos_embedding = PosEmbedding::kRotary;
    c.parallel_layers = rng.uniform_int(0, 1) == 1;
    c.name = "grid" + std::to_string(i);
    configs.push_back(std::move(c));
  }
  return configs;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// layer_forward_flops() rebuilt from the public Table-II builders, in the
/// schedule's order: the GEMMs, then the dense math of the fused kernel.
double builder_flops(const TransformerConfig& c) {
  const bool flash = c.attention == AttentionImpl::kFlash;
  double total = qkv_gemm(c).flops();
  if (!flash) {
    total += attention_score_bmm(c).flops();
    total += attention_over_value_bmm(c).flops();
  }
  total += post_attn_projection_gemm(c).flops();
  total += mlp_up_gemm(c).flops();
  if (c.activation == Activation::kSwiGlu) total += mlp_up_gemm(c).flops();
  total += mlp_down_gemm(c).flops();
  if (flash) {
    gemm::FlashAttentionProblem fp = flash_attention_problem(c);
    fp.causal = false;
    total += fp.flops();
  }
  return total;
}

TEST(LayerModel, LeanTotalTimeIsBitIdenticalToTheReport) {
  // layer_total_time, analyze_layer and attribute_layer all read one layer
  // walk, so their totals agree bit for bit; so do the FLOP sums of the
  // walk's schedule, the config overload, the report and the public
  // builders. The lean walk times each GEMM with the pruned scan, the
  // report with estimate_with_tile() on the winning tile, so the check
  // also holds the two estimate paths together, on every registry GPU and
  // both tile policies.
  const std::vector<TransformerConfig> configs = identity_configs();
  LayerWorkspace ws;
  for (const std::string& id : gpu::known_gpus()) {
    for (const gemm::TilePolicy policy :
         {gemm::TilePolicy::kAuto, gemm::TilePolicy::kFixedLargest}) {
      const gemm::GemmSimulator s(gpu::gpu_by_name(id), policy);
      for (const TransformerConfig& c : configs) {
        const std::string tag =
            id + " policy=" + std::to_string(static_cast<int>(policy)) + " " +
            c.to_string();
        const double total = layer_total_time(c, s, ws);
        const double flops = layer_forward_flops(ws);
        const LayerLatencyReport report = analyze_layer(c, s);
        ASSERT_EQ(bits(total), bits(report.total_time)) << tag;
        ASSERT_EQ(bits(total), bits(attribute_layer(c, s).total_time)) << tag;
        ASSERT_EQ(bits(flops), bits(report.layer_flops)) << tag;
        ASSERT_EQ(bits(flops), bits(layer_forward_flops(c))) << tag;
        ASSERT_EQ(bits(flops), bits(builder_flops(c))) << tag;
      }
    }
  }
}

TEST(LayerModel, LowerBoundNeverExceedsTheTotal) {
  // With a cutoff of 0 the lean walk returns its lower bound: each GEMM's
  // bound for the most efficient tile, the other ops exact, summed in op
  // order. It must never exceed the exact total, bit for bit, on every
  // registry GPU and tile policy. A cutoff at the bound itself lets the
  // walk finish with the exact total; one just below returns the bound.
  const std::vector<TransformerConfig> configs = identity_configs();
  LayerWorkspace ws;
  for (const std::string& id : gpu::known_gpus()) {
    for (const gemm::TilePolicy policy :
         {gemm::TilePolicy::kAuto, gemm::TilePolicy::kFixedLargest}) {
      const gemm::GemmSimulator s(gpu::gpu_by_name(id), policy);
      std::size_t below = 0;
      for (const TransformerConfig& c : configs) {
        const std::string tag =
            id + " policy=" + std::to_string(static_cast<int>(policy)) + " " +
            c.to_string();
        const double total = layer_total_time(c, s, ws);
        const double bound = layer_total_time(c, s, ws, 0.0);
        ASSERT_GT(bound, 0.0) << tag;
        ASSERT_LE(bound, total) << tag;
        below += bound < total ? 1 : 0;
        ASSERT_EQ(bits(layer_total_time(c, s, ws, bound)), bits(total)) << tag;
        ASSERT_EQ(bits(layer_total_time(c, s, ws, std::nextafter(bound, 0.0))),
                  bits(bound))
            << tag;
      }
      EXPECT_GT(below, configs.size() / 2) << id;  // the bound path ran
    }
  }
}

TEST(LayerModel, TierZeroNeverExceedsThePreambleBound) {
  // The search's tier-0 floor prices each GEMM at the GPU's best achievable
  // rate for its dtype and the catalogue's best tile: it must never exceed
  // the preamble bound (the walk at cutoff 0), nor that the exact total,
  // bit for bit, on every registry GPU, every dtype it rates and both tile
  // policies.
  const std::vector<TransformerConfig> configs = identity_configs();
  LayerWorkspace ws;
  for (const std::string& id : gpu::known_gpus()) {
    const gpu::GpuSpec& g = gpu::gpu_by_name(id);
    for (const gpu::DType dtype :
         {gpu::DType::kFP16, gpu::DType::kBF16, gpu::DType::kFP32,
          gpu::DType::kTF32, gpu::DType::kFP64, gpu::DType::kINT8}) {
      if (g.tensor_flops(dtype) <= 0.0 && g.vector_flops(dtype) <= 0.0) {
        continue;
      }
      for (const gemm::TilePolicy policy :
           {gemm::TilePolicy::kAuto, gemm::TilePolicy::kFixedLargest}) {
        const gemm::GemmSimulator s(g, policy);
        for (TransformerConfig c : configs) {
          c.dtype = dtype;
          const std::string tag = id + " " + gpu::dtype_name(dtype) +
                                  " policy=" +
                                  std::to_string(static_cast<int>(policy)) +
                                  " " + c.to_string();
          double total = 0.0;
          try {
            total = layer_total_time(c, s, ws);
          } catch (const Error&) {
            // E.g. flash with no tensor-core path: the floor must throw
            // too, or a search would cut what the k = n call skips.
            EXPECT_THROW(layer_time_floor(c, s, ws), Error) << tag;
            continue;
          }
          const double floor = layer_time_floor(c, s, ws);
          const double bound = layer_total_time(c, s, ws, 0.0);
          ASSERT_GT(floor, 0.0) << tag;
          ASSERT_LE(floor, bound) << tag;
          ASSERT_LE(bound, total) << tag;
        }
      }
    }
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
