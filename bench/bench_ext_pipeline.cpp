// Extension — pipeline-parallel stage-count sweep: quantifies the paper's
// closing §VI-B rule ("the number of layers should be divisible by the
// number of pipeline parallel stages") with the 1F1B bubble + imbalance
// model. The paper leaves full pipeline shape analysis to future work;
// this bench covers exactly the rule it does state.
#include "bench_common.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/pipeline.hpp"

namespace codesign {
namespace {

void pipeline_stages(bench::Rows& out, const gemm::GemmSimulator& sim,
                     const CliArgs& flags) {
  const std::int64_t m = flags.get_int("microbatches", 32);
  const auto cfg = tfm::model_by_name(flags.get_string("model", "gpt3-2.7b"));

  out.section("stage sweep for %s (L = %lld, m = %lld)", cfg.name.c_str(),
              static_cast<long long>(cfg.num_layers),
              static_cast<long long>(m));
  out.table({"p", "L % p", "layers/stage", "bubble", "imbalance",
             "efficiency", "step time", "tokens/s"});
  for (std::int64_t p = 1; p <= 16; ++p) {
    tfm::PipelineSchedule s;
    s.stages = p;
    s.microbatches = m;
    const auto r = tfm::analyze_pipeline(cfg, sim, s);
    out.row()
        .cell(p)
        .cell(cfg.num_layers % p)
        .cellf("%lld..%lld", static_cast<long long>(r.layers_per_stage_min),
               static_cast<long long>(r.layers_per_stage_max))
        .cellf("%.1f%%", 100.0 * r.bubble_fraction)
        .cell(r.imbalance_factor, 3)
        .cellf("%.1f%%", 100.0 * r.efficiency)
        .cell(r.step_time, human_time)
        .cell(r.tokens_per_second, 0);
  }

  out.section("balanced stage counts (the rule's good choices)");
  std::string good;
  for (const std::int64_t p : tfm::balanced_stage_counts(cfg, 32)) {
    out.fold(static_cast<double>(p));
    if (!out.rendering()) continue;
    if (!good.empty()) good += ", ";
    good += std::to_string(p);
  }
  out.note("L = %lld divides evenly into p = {%s}\n",
           static_cast<long long>(cfg.num_layers), good.c_str());
}

const bench::BenchSpec kSpec{
    "bench_ext_pipeline",
    "Extension: pipeline bubble + imbalance across stage counts",
    {"model", "microbatches"},
    "Extension: pipeline stages",
    "bubble + imbalance across stage counts (L % p rule)",
    {{"ext.pipeline_stages", pipeline_stages,
      "1F1B analysis over p = 1..16 for gpt3-2.7b",
      {benchlib::kSuiteExt, benchlib::kSuiteSmoke}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(ext_pipeline, codesign::kSpec);
