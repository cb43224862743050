#include "advisor/report.hpp"

#include <sstream>

#include "advisor/rules.hpp"
#include "advisor/search.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/params.hpp"
#include "transformer/training.hpp"

namespace codesign::advisor {

std::string advise(const TransformerConfig& config,
                   const gemm::GemmSimulator& sim,
                   const ReportOptions& options) {
  config.validate();
  std::ostringstream os;

  os << "=== Shape advisor: " << config.to_string() << " ===\n";
  os << "Target GPU: " << sim.gpu().marketing_name << " ("
     << sim.gpu().sm_count << " SMs, "
     << str_format("%.0f", sim.gpu().tensor_flops_fp16 / 1e12)
     << " TFLOP/s fp16 tensor, "
     << str_format("%.0f", sim.gpu().hbm_bandwidth / 1e9) << " GB/s)\n";
  os << "Parameters: "
     << human_count(static_cast<double>(tfm::exact_param_count(config)))
     << "\n\n";

  // --- per-operator breakdown ------------------------------------------------
  const tfm::LayerLatencyReport layer = tfm::analyze_layer(config, sim);
  TableWriter ops({"operator", "time", "share", "TFLOP/s", "detail"});
  for (const tfm::OpLatency& o : layer.ops) {
    ops.new_row()
        .cell(std::string(o.name))
        .cell(human_time(o.time))
        .cell(str_format("%5.1f%%", 100.0 * o.time / layer.total_time))
        .cell(o.tflops, 1)
        .cell(tfm::detail_text(o.detail));
  }
  os << "Single-layer latency: " << human_time(layer.total_time) << " ("
     << str_format("%.1f", layer.throughput_tflops) << " TFLOP/s useful, "
     << str_format("%.1f%%", 100.0 * layer.gemm_fraction)
     << " of time in GEMMs)\n";
  os << ops.render();
  os << '\n';

  // --- rules ------------------------------------------------------------------
  RuleContext ctx;
  ctx.gpu = &sim.gpu();
  TableWriter rules({"rule", "severity", "status", "explanation"});
  for (const RuleResult& r : check_rules(config, ctx)) {
    rules.new_row()
        .cell(rule_name(r.id))
        .cell(severity_name(r.severity))
        .cell(r.passed ? "PASS" : "FAIL")
        .cell(r.message);
  }
  os << "Sizing rules (paper §VI-B):\n" << rules.render() << '\n';

  if (!options.include_suggestions) return os.str();

  // --- suggestions --------------------------------------------------------------
  const auto suggest = [&os, &options](const std::string& title,
                                       const std::vector<ShapeCandidate>& cands) {
    TableWriter t({"candidate", "layer time", "TFLOP/s", "speedup", "params",
                   "rules", "note"});
    int listed = 0;
    for (const ShapeCandidate& c : cands) {
      if (listed >= options.suggestions_per_search) break;
      t.new_row()
          .cell(c.config.name)
          .cell(human_time(c.layer_time))
          .cell(c.layer_tflops, 1)
          .cell(str_format("%.3fx", c.speedup_vs_base))
          .cell(human_count(c.param_count))
          .cell(c.rules_pass ? "PASS" : "FAIL")
          .cell(c.note);
      ++listed;
    }
    os << title << ":\n" << t.render() << '\n';
  };

  SearchOptions search_options;
  search_options.threads = options.search_threads;
  suggest("Head-count alternatives (same h, same parameter count)",
          search_heads(config, sim, search_options));
  suggest("Hidden-size alternatives (±10%, parameter delta bounded)",
          search_hidden(config, sim, /*radius_frac=*/0.1, /*step=*/0,
                        search_options));

  if (config.vocab_size % 64 != 0) {
    os << "Vocabulary: pad v from " << config.vocab_size << " to "
       << pad_vocab(config.vocab_size)
       << " (multiple of 64) for the logit GEMM.\n";
  }

  // --- training feasibility (the quantitative "b as large as possible") ---
  const tfm::MemoryFootprint mem = tfm::training_memory(config);
  tfm::MemoryOptions ckpt;
  ckpt.activation_checkpointing = true;
  os << "\nTraining memory on " << sim.gpu().id << " ("
     << human_bytes(sim.gpu().hbm_capacity) << "): static "
     << human_bytes(mem.weight_bytes + mem.gradient_bytes +
                    mem.optimizer_bytes)
     << " + activations " << human_bytes(mem.activation_bytes) << " at b="
     << config.microbatch << " -> "
     << (mem.fits(sim.gpu()) ? "fits" : "DOES NOT FIT") << ".\n";
  os << "Max microbatch: "
     << tfm::max_microbatch(config, sim.gpu()) << " (plain), "
     << tfm::max_microbatch(config, sim.gpu(), 512, ckpt)
     << " (with activation checkpointing).\n";

  return os.str();
}

}  // namespace codesign::advisor
