#include "advisor/attribution_report.hpp"

#include "transformer/attribution.hpp"

namespace codesign::advisor {

const char* tile_policy_name(gemm::TilePolicy p) {
  return p == gemm::TilePolicy::kAuto ? "auto" : "fixed_largest";
}

void write_breakdown(json::Writer& w, const gemm::BoundBreakdown& b) {
  w.begin_object()
      .member("bound", gemm::bound_name(b.bound))
      .member("compute", b.compute)
      .member("memory", b.memory)
      .member("launch", b.launch)
      .member("tile_waste", b.tile_waste)
      .member("wave_tail", b.wave_tail)
      .end_object();
}

namespace {

void write_families(json::Writer& w,
                    const std::vector<tfm::FamilyAttribution>& families,
                    json::Writer::Style style) {
  w.begin_array(style);
  for (const tfm::FamilyAttribution& f : families) {
    w.begin_object()
        .member("op", f.name)
        .member("count", static_cast<unsigned long long>(f.count))
        .member("time_s", f.time)
        .member("share", f.share)
        .member("bound", gemm::bound_name(f.bound));
    w.key("breakdown");
    write_breakdown(w, f.breakdown);
    w.member("detail", tfm::detail_text(f.detail)).end_object();
  }
  w.end_array();
}

void write_histogram(json::Writer& w, const tfm::BoundHistogram& h) {
  w.begin_array();
  for (int i = 0; i < 3; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    w.begin_object()
        .member("bound", gemm::bound_name(static_cast<gemm::Bound>(i)))
        .member("ops", static_cast<unsigned long long>(h.count[idx]))
        .member("time_s", h.time[idx])
        .end_object();
  }
  w.end_array();
}

}  // namespace

std::string attribution_report(
    const tfm::TransformerConfig& config, const gemm::GemmSimulator& sim,
    const std::vector<DimensionSensitivity>& sensitivity, bool compact) {
  const tfm::ModelAttribution m = tfm::attribute_model(config, sim);
  const double lt = m.layer.total_time;
  const json::Writer::Style spine =
      compact ? json::Writer::Style::kCompact : json::Writer::Style::kPretty;

  std::string out;
  json::Writer w(out);
  w.begin_object(spine)
      .member("report", kAttributionReportName)
      .member("version", kAttributionReportVersion)
      .member("model", config.name)
      .member("config", config.to_string())
      .member("gpu", sim.gpu().id)
      .member("tile_policy", tile_policy_name(sim.policy()));

  w.key("totals")
      .begin_object()
      .member("total_time_s", m.total_time)
      .member("layer_time_s", m.layer.total_time)
      .member("layer_gemm_time_s", m.layer.gemm_time)
      .member("layer_non_gemm_time_s", m.layer.non_gemm_time)
      .member("embedding_time_s", m.embedding_time)
      .member("final_ln_time_s", m.final_ln_time)
      .member("logit_time_s", m.logit_time)
      .end_object();

  w.key("layer_split")
      .begin_object()
      .member("attention", lt > 0.0 ? m.layer.attention_time / lt : 0.0)
      .member("mlp", lt > 0.0 ? m.layer.mlp_time / lt : 0.0)
      .member("other", lt > 0.0 ? m.layer.other_time / lt : 0.0)
      .end_object();

  w.key("breakdown");
  write_breakdown(w, m.breakdown);

  w.key("layer").begin_object(spine);
  w.key("breakdown");
  write_breakdown(w, m.layer.breakdown);
  w.key("bound_histogram");
  write_histogram(w, m.layer.histogram);
  w.key("gemms");
  write_families(w, m.layer.gemms, spine);
  w.end_object();

  w.key("model_gemms");
  write_families(w, m.gemms, spine);

  w.key("model_bound_histogram");
  write_histogram(w, m.histogram);

  w.key("sensitivity").begin_array(spine);
  for (const DimensionSensitivity& s : sensitivity) {
    w.begin_object()
        .member("dimension", s.dimension)
        .member("probed", s.probed)
        .member("base_value", s.base_value)
        .member("probe_value", s.probe_value)
        .member("base_time_s", s.base_time)
        .member("probe_time_s", s.probe_time)
        .member("delta_frac", s.delta_frac)
        .member("note", s.note)
        .end_object();
  }
  w.end_array();

  w.end_object();
  if (!compact) out += '\n';
  return out;
}

}  // namespace codesign::advisor
