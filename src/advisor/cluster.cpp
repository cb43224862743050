#include "advisor/cluster.hpp"

#include <algorithm>

#include "advisor/rules.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/strings.hpp"
#include "transformer/layer_model.hpp"

namespace codesign::advisor {

TpFeasibility tp_feasibility(const TransformerConfig& config, std::int64_t t) {
  CODESIGN_CHECK(t >= 1, "tensor-parallel degree must be >= 1");
  TpFeasibility f;
  for (const tfm::TpSplit& split : config.tp_splits()) {
    if (split.divisible_by(t)) continue;
    if (!f.reason.empty()) f.reason += "; ";
    f.reason += str_format("t=%lld does not divide %s=%lld",
                           static_cast<long long>(t), split.symbol,
                           static_cast<long long>(split.size));
  }
  f.feasible = f.reason.empty();
  return f;
}

std::vector<TpOption> analyze_tp_options(
    const TransformerConfig& config, const gemm::GemmSimulator& sim,
    const std::vector<std::int64_t>& degrees) {
  config.validate();
  std::vector<TpOption> out;
  for (const std::int64_t t : degrees) {
    TpOption opt;
    opt.t = t;
    opt.feasibility = tp_feasibility(config, t);
    if (opt.feasibility.feasible) {
      const TransformerConfig cfg = config.with_tensor_parallel(t);
      const tfm::LayerLatencyReport r = tfm::analyze_layer(cfg, sim);
      opt.layer_time = r.total_time;
      opt.layer_tflops = r.throughput_tflops;
      opt.hidden_per_tp_pow2 = static_cast<std::int64_t>(
          largest_pow2_dividing(static_cast<std::uint64_t>(cfg.hidden_per_tp())));
      RuleContext ctx;
      ctx.gpu = &sim.gpu();
      opt.rules_pass = satisfies_performance_rules(cfg, ctx);
    }
    out.push_back(std::move(opt));
  }
  return out;
}

std::vector<DeploymentCell> deployment_matrix(
    const TransformerConfig& config, const gemm::GemmSimulator& sim,
    const std::vector<std::int64_t>& node_sizes) {
  std::vector<DeploymentCell> out;
  const std::vector<TpOption> opts =
      analyze_tp_options(config, sim, node_sizes);
  for (std::size_t i = 0; i < node_sizes.size(); ++i) {
    DeploymentCell cell;
    cell.node_gpus = node_sizes[i];
    cell.option = opts[i];
    out.push_back(std::move(cell));
  }
  return out;
}

std::vector<std::int64_t> portable_hidden_sizes(
    const TransformerConfig& config,
    const std::vector<std::int64_t>& node_sizes, int count) {
  CODESIGN_CHECK(!node_sizes.empty(), "need at least one node size");
  CODESIGN_CHECK(count > 0, "count must be positive");
  // h must be divisible by 64·t for every candidate t so that h/t stays on
  // the full-efficiency granule everywhere.
  std::uint64_t l = 64;
  for (const std::int64_t t : node_sizes) {
    CODESIGN_CHECK(t >= 1, "node sizes must be >= 1");
    l = l / gcd_u64(l, static_cast<std::uint64_t>(t)) *
        static_cast<std::uint64_t>(t);
  }
  const auto step = static_cast<std::int64_t>(l);
  std::vector<std::int64_t> out;
  // Closest multiples bracketing h, alternating below/above.
  const std::int64_t down = round_down(config.hidden_size, step);
  const std::int64_t up = round_up(config.hidden_size, step);
  std::int64_t lo = down;
  std::int64_t hi = up == down ? up + step : up;
  while (static_cast<int>(out.size()) < count) {
    const bool take_hi =
        lo <= 0 || (hi - config.hidden_size) <= (config.hidden_size - lo);
    if (take_hi) {
      out.push_back(hi);
      hi += step;
    } else {
      out.push_back(lo);
      lo -= step;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace codesign::advisor
