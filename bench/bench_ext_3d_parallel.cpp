// Extension — 3D-parallel plan ranking on the paper's Table-III systems:
// every (tensor, pipeline, data) factorization of a GPU budget, scored
// with compute + TP all-reduces + pipeline p2p + DP gradient all-reduce
// and checked against per-GPU memory. Quantifies the paper's "whether
// pipeline parallelism is optimal depends on internode speed" note.
#include "advisor/rules.hpp"
#include "bench_common.hpp"
#include "comm/parallelism.hpp"
#include "common/strings.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_ext_3d_parallel",
    "Extension: (t, p, d) factorizations ranked with communication",
    {"model", "gpus", "microbatches"}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Extension: 3D-parallel planning",
             "(t, p, d) factorizations ranked with communication charged");

  const std::string model_name = ctx.args().get_string("model", "gpt3-2.7b");
  const std::int64_t gpus = ctx.args().get_int("gpus", 32);
  const std::int64_t m = ctx.args().get_int("microbatches", 32);
  tfm::TransformerConfig model = tfm::model_by_name(model_name);
  model.vocab_size = advisor::pad_vocab(model.vocab_size);

  for (const char* cluster_id : {"aws-p4d", "ornl-summit"}) {
    const comm::ClusterSpec& cluster = comm::cluster_by_name(cluster_id);
    ctx.section(str_format("%s — %lld GPUs, m = %lld",
                           cluster.description.c_str(),
                           static_cast<long long>(gpus),
                           static_cast<long long>(m)));
    TableWriter t({"t", "p", "d", "ok", "step", "tokens/s", "cluster MFU",
                   "comm share", "mem/GPU", "note"});
    int listed = 0;
    for (const auto& r : comm::rank_plans(model, cluster, gpus, m)) {
      if (listed++ >= 10) break;
      const double comm =
          r.tp_comm_time + r.pp_comm_time + r.dp_comm_time;
      t.new_row()
          .cell(r.plan.tensor)
          .cell(r.plan.pipeline)
          .cell(r.plan.data)
          .cell(r.feasible ? (r.fits_memory ? "yes" : "OOM") : "NO")
          .cell(r.feasible ? human_time(r.step_time) : "-")
          .cell(r.feasible ? str_format("%.0f", r.tokens_per_second) : "-")
          .cell(r.feasible ? str_format("%.1f%%", 100.0 * r.cluster_mfu)
                           : "-")
          .cell(r.feasible
                    ? str_format("%.1f%%", 100.0 * comm / r.step_time)
                    : "-")
          .cell(r.feasible ? human_bytes(r.memory_per_gpu) : "-")
          .cell(r.infeasible_reason);
    }
    ctx.emit(t);
  }
  std::cout << "(on Summit's slower inter-node links the ranking shifts "
               "away from deep pipelines toward more data parallelism — "
               "the paper's internode-speed caveat, quantified)\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_CASES(ext_3d_parallel) {
  using namespace codesign;
  reg.add({"ext.plan_ranking", "bench_ext_3d_parallel",
           "3D-parallel plan ranking on both Table-III clusters",
           {benchlib::kSuiteExt},
           [](benchlib::CaseContext& c) {
             tfm::TransformerConfig model = tfm::model_by_name("gpt3-2.7b");
             model.vocab_size = advisor::pad_vocab(model.vocab_size);
             for (const char* cluster_id : {"aws-p4d", "ornl-summit"}) {
               const comm::ClusterSpec& cluster =
                   comm::cluster_by_name(cluster_id);
               for (const auto& r :
                    comm::rank_plans(model, cluster, 32, 32)) {
                 c.consume(static_cast<std::int64_t>(r.feasible));
                 if (r.feasible) c.consume(r.step_time);
               }
             }
           }});
}

CODESIGN_BENCH_MAIN(codesign::kSpec, codesign::body);
