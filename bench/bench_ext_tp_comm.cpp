// Extension — tensor parallelism with communication, on the paper's
// Table-III systems: per-GPU compute shrinks with t while the two
// per-layer all-reduces grow, so the best t depends on the fabric — the
// quantitative backing for "t should be as small as possible" and for the
// paper's note that parallelism choices depend on interconnect speed.
#include "bench_common.hpp"
#include "comm/collectives.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

void tp_comm(bench::Rows& out, const gemm::GemmSimulator&,
             const CliArgs& flags) {
  const tfm::TransformerConfig base =
      tfm::model_by_name(flags.get_string("model", "gpt3-2.7b"))
          .with_vocab(50304);

  for (const std::string& cluster_id : comm::known_clusters()) {
    const comm::ClusterSpec& cluster = comm::cluster_by_name(cluster_id);
    out.section(cluster.description);
    out.table({"t", "compute/layer", "comm/layer", "total/layer",
               "comm share", "speedup vs t=1"});
    double t1_time = 0.0;
    for (std::int64_t tp = 1; tp <= cluster.gpus_per_node; tp *= 2) {
      if (base.num_heads % tp != 0 || base.hidden_size % tp != 0 ||
          base.vocab_size % tp != 0) {
        continue;
      }
      const auto r =
          comm::tp_total_layer_time(base.with_tensor_parallel(tp), cluster);
      if (tp == 1) t1_time = r.total_time;
      out.row()
          .cell(tp)
          .cell(r.compute_time, human_time)
          .cell(r.comm_time, human_time)
          .cell(r.total_time, human_time)
          .cellf("%.1f%%", 100.0 * r.comm_fraction)
          .cellf("%.2fx", t1_time / r.total_time);
    }
  }
  out.note("(the marginal return of each doubling of t decays fastest "
           "on the slowest NVLink — Summit — which is also the system "
           "where t = 6 breaks the h/t alignment, the paper's "
           "double-bind for 6-GPU nodes)\n");
}

const bench::BenchSpec kSpec{
    "bench_ext_tp_comm",
    "Extension: layer time vs t on the paper's Table-III systems",
    {"model"},
    "Extension: TP + communication",
    "layer time vs t on the paper's Table-III systems",
    {{"ext.tp_comm", tp_comm,
      "TP compute + all-reduce time across clusters and degrees",
      {benchlib::kSuiteExt}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(ext_tp_comm, codesign::kSpec);
