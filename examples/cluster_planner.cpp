// cluster_planner — plan a training run on one of the paper's Table-III
// systems: pick the tensor-parallel degree with communication charged,
// check memory feasibility (with checkpointing/ZeRO fallbacks), pick a
// pipeline stage count from the divisors of L, and flag shape conflicts
// with the node size (the §VII-A trap).
//
// Usage: cluster_planner [--model=gpt3-2.7b] [--cluster=aws-p4d]
//                        [--microbatches=32] [--dp=8]
#include <iostream>

#include "advisor/cluster.hpp"
#include "advisor/rules.hpp"
#include "comm/collectives.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/pipeline.hpp"
#include "transformer/training.hpp"

int main(int argc, char** argv) {
  using namespace codesign;
  try {
    const CliArgs args = CliArgs::parse(argc, argv);
    const auto& cluster =
        comm::cluster_by_name(args.get_string("cluster", "aws-p4d"));
    tfm::TransformerConfig model =
        tfm::model_by_name(args.get_string("model", "gpt3-2.7b"));
    model.vocab_size = advisor::pad_vocab(model.vocab_size);
    const std::int64_t microbatches = args.get_int("microbatches", 32);
    const std::int64_t dp = args.get_int("dp", 8);

    std::cout << "Planning " << model.to_string() << "\non "
              << cluster.description << "\n\n";
    const gemm::GemmSimulator sim(cluster.gpu());

    // --- tensor parallelism with communication charged -----------------
    std::cout << "Tensor parallelism (2 all-reduces/layer over "
              << human_bytes(static_cast<double>(model.tokens()) *
                             model.hidden_size * 2)
              << " activations):\n";
    TableWriter tt({"t", "feasible", "compute/layer", "comm/layer",
                    "total/layer", "max b", "note"});
    for (std::int64_t t = 1; t <= cluster.gpus_per_node; t *= 2) {
      const auto feas = advisor::tp_feasibility(model, t);
      if (!feas.feasible) {
        tt.new_row().cell(t).cell("NO").cell("-").cell("-").cell("-").cell(
            "-").cell(feas.reason);
        continue;
      }
      const auto cfg = model.with_tensor_parallel(t);
      const auto r = comm::tp_total_layer_time(cfg, cluster);
      tfm::MemoryOptions ckpt;
      ckpt.activation_checkpointing = true;
      const std::int64_t maxb =
          tfm::max_microbatch(cfg, cluster.gpu(), 256, ckpt);
      tt.new_row()
          .cell(t)
          .cell("yes")
          .cell(human_time(r.compute_time))
          .cell(human_time(r.comm_time))
          .cell(human_time(r.total_time))
          .cell(maxb)
          .cell(maxb == 0 ? "needs ZeRO/more TP" : "");
    }
    // The node size itself, when it is not a power of two (Summit's 6).
    if ((cluster.gpus_per_node & (cluster.gpus_per_node - 1)) != 0) {
      const auto feas =
          advisor::tp_feasibility(model, cluster.gpus_per_node);
      tt.new_row()
          .cell(static_cast<std::int64_t>(cluster.gpus_per_node))
          .cell(feas.feasible ? "yes" : "NO")
          .cell("-")
          .cell("-")
          .cell("-")
          .cell("-")
          .cell(feas.feasible ? "full-node TP" : feas.reason);
    }
    tt.write(std::cout);

    // --- pipeline stages -------------------------------------------------
    std::cout << "\nPipeline stage choices (m = " << microbatches
              << " microbatches in flight):\n";
    TableWriter tp({"p", "balanced", "bubble", "efficiency"});
    for (const std::int64_t p :
         tfm::balanced_stage_counts(model, 16)) {
      tfm::PipelineSchedule s;
      s.stages = p;
      s.microbatches = microbatches;
      const auto r = tfm::analyze_pipeline(model, sim, s);
      tp.new_row()
          .cell(p)
          .cell("yes")
          .cell(str_format("%.1f%%", 100.0 * r.bubble_fraction))
          .cell(str_format("%.1f%%", 100.0 * r.efficiency));
    }
    tp.write(std::cout);

    // --- ZeRO fallback if nothing fits -----------------------------------
    tfm::MemoryOptions zero;
    zero.activation_checkpointing = true;
    zero.zero_stage = 1;
    zero.data_parallel = dp;
    std::cout << "\nWith ZeRO-1 over " << dp
              << " data-parallel ranks + checkpointing, max b at t=1: "
              << tfm::max_microbatch(model, cluster.gpu(), 256, zero) << "\n";
    return 0;
  } catch (const codesign::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
