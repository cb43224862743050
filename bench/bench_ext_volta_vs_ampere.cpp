// Extension — the same shape family on Volta vs Ampere: the §III-B
// alignment granule is 16 B on V100 and 128 B on A100, so the re-shape
// that wins ~14% on A100 (h/a: 80 → 64) does nothing — slightly worse,
// even — on V100. One model, two GPUs, two different optimal shapes: the
// paper's co-design thesis in one table.
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

void volta_vs_ampere(bench::Rows& out, const gemm::GemmSimulator&,
                     const CliArgs&) {
  const gemm::GemmSimulator v100 = gemm::GemmSimulator::for_gpu("v100");
  const gemm::GemmSimulator a100 = gemm::GemmSimulator::for_gpu("a100");

  out.table({"model", "h/a", "pow2(h/a)", "V100 TFLOP/s", "V100 vs default",
             "A100 TFLOP/s", "A100 vs default"});
  // The trio leads with the GPT-3 default, the "vs default" baseline.
  double base_v = 0.0;
  double base_a = 0.0;
  for (const char* name : {"gpt3-2.7b", "gpt3-2.7b-c1", "gpt3-2.7b-c2"}) {
    const auto& cfg = tfm::model_by_name(name);
    const auto rv = tfm::analyze_layer(cfg, v100);
    const auto ra = tfm::analyze_layer(cfg, a100);
    if (base_v == 0.0) {
      base_v = rv.total_time;
      base_a = ra.total_time;
    }
    out.row()
        .cell(name)
        .cell(cfg.head_dim())
        .cell(static_cast<std::int64_t>(largest_pow2_dividing(
            static_cast<std::uint64_t>(cfg.head_dim()))))
        .cell(rv.throughput_tflops, 1)
        .cellf("%.3fx", base_v / rv.total_time)
        .cell(ra.throughput_tflops, 1)
        .cellf("%.3fx", base_a / ra.total_time);
  }
  out.note("(V100's 16-byte granule means h/a = 80 is already fully aligned "
           "there: the A100 fix is a V100 no-op (slightly negative — more "
           "heads cost more softmax traffic). The right shape depends on "
           "the silicon — co-design, not folklore.)\n");
}

const bench::BenchSpec kSpec{
    "bench_ext_volta_vs_ampere",
    "Extension: the 2.7B shape trio on both alignment regimes",
    {},
    "Extension: Volta vs Ampere",
    "the 2.7B shape trio on both alignment regimes",
    {{"ext.volta_vs_ampere", volta_vs_ampere,
      "the 2.7B trio analyzed on V100 and A100", {benchlib::kSuiteExt}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(ext_volta_vs_ampere, codesign::kSpec);
