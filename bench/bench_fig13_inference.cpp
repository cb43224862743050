// Fig 13 — inference latency of the Pythia suite (DeepSpeed-MII-style
// serving): latency follows a power-law trend in parameter count, with
// Pythia-410M above the trend and Pythia-1B below it — the paper's
// demonstration that train-efficient shapes are also infer-efficient.
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "transformer/inference.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/params.hpp"

namespace codesign {
namespace {

void pythia_inference(bench::Rows& out, const gemm::GemmSimulator& sim,
                      const CliArgs& flags) {
  tfm::InferenceWorkload w;
  w.prompt_len = flags.get_int("prompt", 128);
  w.generate_tokens = flags.get_int("gen", 128);
  w.batch = flags.get_int("batch", 1);

  const auto suite = tfm::pythia_suite();
  std::vector<double> params, latencies;
  std::vector<tfm::InferenceEstimate> ests;
  for (const auto& cfg : suite) {
    const auto e = tfm::estimate_inference(cfg, sim, w);
    params.push_back(static_cast<double>(tfm::exact_param_count(cfg)));
    latencies.push_back(e.per_token_time);
    ests.push_back(e);
  }
  const PowerLawFit fit = power_law_fit(params, latencies);

  out.table({"model", "params", "L", "h", "a", "per-token", "tokens/s",
             "prefill", "vs trend"});
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const double dev = latencies[i] / fit.predict(params[i]);
    out.row()
        .cell(suite[i].name)
        .cell(params[i], human_count)
        .cell(suite[i].num_layers)
        .cell(suite[i].hidden_size)
        .cell(suite[i].num_heads)
        .cell(ests[i].per_token_time, human_time)
        .cell(ests[i].tokens_per_second, 0)
        .cell(ests[i].prefill_time, human_time)
        .cellf("%+.1f%%", 100.0 * (dev - 1.0));
  }
  out.line("trend: latency = %.3g * params^%.3f (log-log R^2 = %.3f)\n",
           fit.coefficient, fit.exponent, fit.r2);
  out.note("(paper: 410M sits ABOVE the trend — 24 thin layers of "
           "h=1024 — while 1B sits below it with 16 wide layers)\n");
}

const bench::BenchSpec kSpec{
    "bench_fig13_inference",
    "Fig 13: Pythia-suite inference latency vs parameters",
    {"prompt", "gen", "batch"},
    "Figure 13",
    "Pythia-suite inference latency vs parameters",
    {{"fig13.pythia_inference", pythia_inference,
      "inference estimates + power-law fit over the Pythia suite",
      {benchlib::kSuiteFig, benchlib::kSuiteSmoke}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig13_inference, codesign::kSpec);
