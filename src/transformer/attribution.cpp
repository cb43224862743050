#include "transformer/attribution.hpp"

namespace codesign::tfm {

namespace {

/// Accumulate `b` into `acc` weighted by the op's absolute time. The
/// accumulator holds weighted *seconds* until normalize() divides it back
/// to fractions.
void weighted_add(gemm::BoundBreakdown& acc, const gemm::BoundBreakdown& b,
                  double time) {
  acc.compute += b.compute * time;
  acc.memory += b.memory * time;
  acc.launch += b.launch * time;
  acc.tile_waste += b.tile_waste * time;
  acc.wave_tail += b.wave_tail * time;
}

void normalize(gemm::BoundBreakdown& acc, double total) {
  if (!(total > 0.0)) return;
  acc.compute /= total;
  acc.memory /= total;
  acc.launch /= total;
  acc.tile_waste /= total;
  acc.wave_tail /= total;
}

/// The rollup's headline mechanism: the bound holding the most time.
/// Ties resolve to the lower enum value — deterministic.
gemm::Bound dominant_bound(const BoundHistogram& h) {
  int best = 0;
  for (int i = 1; i < 3; ++i) {
    if (h.time[i] > h.time[best]) best = i;
  }
  return static_cast<gemm::Bound>(best);
}

/// One instance of a GEMM family (or the fused flash op) from its record,
/// taking over the record's name.
FamilyAttribution family_of(OpLatency&& o) {
  FamilyAttribution f;
  f.op = o.op;
  f.name = std::move(o.name);
  f.count = 1;
  f.time = o.time;
  f.bound = o.breakdown.bound;
  f.breakdown = o.breakdown;
  f.detail = o.detail;
  return f;
}

/// Count one op on its limiting roof and add its time-weighted breakdown.
void add_op(BoundHistogram& h, gemm::BoundBreakdown& acc, const OpLatency& o) {
  const auto bi =
      static_cast<std::size_t>(static_cast<int>(o.breakdown.bound));
  h.count[bi] += 1;
  h.time[bi] += o.time;
  weighted_add(acc, o.breakdown, o.time);
}

/// A fold over the layer walk's per-op records: the same estimates
/// analyze_layer() sums, so the totals are its totals.
LayerAttribution fold_layer(LayerLatencyReport&& layer) {
  LayerAttribution r;
  r.config = std::move(layer.config);
  r.gemm_time = layer.gemm_time;
  r.non_gemm_time = layer.non_gemm_time;
  r.total_time = layer.total_time;
  gemm::BoundBreakdown acc;
  for (OpLatency& o : layer.ops) {
    add_op(r.histogram, acc, o);
    switch (op_branch(o.op)) {
      case LayerBranch::kAttention: r.attention_time += o.time; break;
      case LayerBranch::kMlp: r.mlp_time += o.time; break;
      case LayerBranch::kOther: r.other_time += o.time; break;
    }
    if (o.is_gemm) r.gemms.push_back(family_of(std::move(o)));
  }
  for (FamilyAttribution& f : r.gemms) {
    f.share = r.gemm_time > 0.0 ? f.time / r.gemm_time : 0.0;
  }
  normalize(acc, r.total_time);
  acc.bound = dominant_bound(r.histogram);
  r.breakdown = acc;
  return r;
}

}  // namespace

LayerBranch op_branch(LayerOp op) {
  switch (op) {
    case LayerOp::kQkvTransform:
    case LayerOp::kAttentionScore:
    case LayerOp::kAttentionOverValue:
    case LayerOp::kPostAttnProjection:
    case LayerOp::kFlashAttention:
    case LayerOp::kSoftmax:
    case LayerOp::kRotaryEmbedding:
      return LayerBranch::kAttention;
    case LayerOp::kMlpUp:
    case LayerOp::kMlpGate:
    case LayerOp::kMlpDown:
    case LayerOp::kActivation:
      return LayerBranch::kMlp;
    default:
      return LayerBranch::kOther;
  }
}

LayerAttribution attribute_layer(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim) {
  return fold_layer(analyze_layer(config, sim));
}

ModelAttribution attribute_model(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim) {
  // A fold over analyze_model()'s records: its layer walk and its
  // model-level ops, so the totals are its totals.
  ModelLatencyReport model = analyze_model(config, sim);
  ModelAttribution r;
  r.config = config;
  r.layer = fold_layer(std::move(model.layer));
  r.embedding_time = model.embedding_time;
  r.final_ln_time = model.final_ln_time;
  r.logit_time = model.logit_time;
  r.total_time = model.total_time;
  const double layers = static_cast<double>(config.num_layers);

  for (const FamilyAttribution& f : r.layer.gemms) {
    FamilyAttribution g = f;
    g.count = static_cast<std::uint64_t>(config.num_layers);
    g.time = f.time * layers;
    r.gemms.push_back(std::move(g));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    r.histogram.count[i] =
        r.layer.histogram.count[i] *
        static_cast<std::uint64_t>(config.num_layers);
    r.histogram.time[i] = r.layer.histogram.time[i] * layers;
  }
  gemm::BoundBreakdown acc;
  weighted_add(acc, r.layer.breakdown, layers * r.layer.total_time);

  double model_gemm_time = layers * r.layer.gemm_time;
  for (OpLatency& o : model.model_level) {
    add_op(r.histogram, acc, o);
    if (o.is_gemm) {
      model_gemm_time += o.time;
      r.gemms.push_back(family_of(std::move(o)));
    }
  }

  for (FamilyAttribution& f : r.gemms) {
    f.share = model_gemm_time > 0.0 ? f.time / model_gemm_time : 0.0;
  }
  normalize(acc, r.total_time);
  acc.bound = dominant_bound(r.histogram);
  r.breakdown = acc;
  return r;
}

}  // namespace codesign::tfm
