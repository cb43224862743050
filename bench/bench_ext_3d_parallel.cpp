// Extension — 3D-parallel plan ranking on the paper's Table-III systems:
// every (tensor, pipeline, data) factorization of a GPU budget, scored
// with compute + TP all-reduces + pipeline p2p + DP gradient all-reduce
// and checked against per-GPU memory. Quantifies the paper's "whether
// pipeline parallelism is optimal depends on internode speed" note.
#include "advisor/rules.hpp"
#include "bench_common.hpp"
#include "comm/parallelism.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

void plan_ranking(bench::Rows& out, const gemm::GemmSimulator&,
                  const CliArgs& flags) {
  const std::int64_t gpus = flags.get_int("gpus", 32);
  const std::int64_t m = flags.get_int("microbatches", 32);
  tfm::TransformerConfig model =
      tfm::model_by_name(flags.get_string("model", "gpt3-2.7b"));
  model.vocab_size = advisor::pad_vocab(model.vocab_size);

  for (const char* cluster_id : {"aws-p4d", "ornl-summit"}) {
    const comm::ClusterSpec& cluster = comm::cluster_by_name(cluster_id);
    out.section("%s — %lld GPUs, m = %lld", cluster.description.c_str(),
                static_cast<long long>(gpus), static_cast<long long>(m));
    out.table({"t", "p", "d", "ok", "step", "tokens/s", "cluster MFU",
               "comm share", "mem/GPU", "note"});
    int listed = 0;
    for (const auto& r : comm::rank_plans(model, cluster, gpus, m)) {
      if (listed++ >= 10) break;
      out.row()
          .cell(r.plan.tensor)
          .cell(r.plan.pipeline)
          .cell(r.plan.data)
          .cell(r.feasible ? (r.fits_memory ? "yes" : "OOM") : "NO");
      if (r.feasible) {
        const double comm = r.tp_comm_time + r.pp_comm_time + r.dp_comm_time;
        out.cell(r.step_time, human_time)
            .cellf("%.0f", r.tokens_per_second)
            .cellf("%.1f%%", 100.0 * r.cluster_mfu)
            .cellf("%.1f%%", 100.0 * comm / r.step_time)
            .cell(r.memory_per_gpu, human_bytes);
      } else {
        out.cell("-").cell("-").cell("-").cell("-").cell("-");
      }
      out.cell(r.infeasible_reason);
    }
  }
  out.note("(on Summit's slower inter-node links the ranking shifts "
           "away from deep pipelines toward more data parallelism — "
           "the paper's internode-speed caveat, quantified)\n");
}

const bench::BenchSpec kSpec{
    "bench_ext_3d_parallel",
    "Extension: (t, p, d) factorizations ranked with communication",
    {"model", "gpus", "microbatches"},
    "Extension: 3D-parallel planning",
    "(t, p, d) factorizations ranked with communication charged",
    {{"ext.plan_ranking", plan_ranking,
      "3D-parallel plan ranking on both Table-III clusters",
      {benchlib::kSuiteExt}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(ext_3d_parallel, codesign::kSpec);
