// Extension — grouped-query attention shape analysis: how the KV head
// count changes the QKV GEMM shape, parameters, and decode KV traffic
// (the Llama-2-70B design point), and how the §VI-B alignment rules apply
// to the shrunken QKV output width.
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/inference.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/params.hpp"

namespace codesign {
namespace {

void gqa_kv_sweep(bench::Rows& out, const gemm::GemmSimulator& sim,
                  const CliArgs&) {
  const auto base = tfm::model_by_name("llama2-70b");  // a = 64, kv = 8

  out.table({"kv heads", "QKV n = (h+2·kv·d)/t", "pow2(n)", "QKV TFLOP/s",
             "params", "KV cache/step", "decode tok/s"});
  for (const std::int64_t kv : {64, 32, 16, 8, 4, 2, 1}) {
    tfm::TransformerConfig cfg = base;
    cfg.num_kv_heads = kv;
    cfg.validate();
    const auto qkv = tfm::qkv_gemm(cfg);
    const auto est = sim.estimate(qkv);
    const auto inf = tfm::estimate_inference(cfg, sim);
    out.row()
        .cell(kv)
        .cell(qkv.n)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(qkv.n))))
        .cell(est.tflops(), 1)
        .cell(static_cast<double>(tfm::exact_param_count(cfg)), human_count)
        .cell(inf.kv_bytes_avg, human_bytes)
        .cell(inf.tokens_per_second, 0);
  }
  out.note("(KV heads shrink parameters and decode KV traffic without "
           "touching the score/AOV GEMM shapes; with d = 128 every kv "
           "count keeps the QKV width 64-aligned, so Llama-2-70B's "
           "kv = 8 is a free win under the paper's rules)\n");
}

const bench::BenchSpec kSpec{
    "bench_ext_gqa",
    "Extension: GQA KV-head sweep on the Llama-2-70B shape",
    {},
    "Extension: grouped-query attention",
    "KV head sweep on the Llama-2-70B shape",
    {{"ext.gqa_kv_sweep", gqa_kv_sweep,
      "QKV shape + inference estimates across KV head counts",
      {benchlib::kSuiteExt}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(ext_gqa, codesign::kSpec);
