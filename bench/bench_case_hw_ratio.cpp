// Case study (§VIII) — GEMM kernels as a hardware-procurement proxy: the
// paper observes MLCommons BERT results show a consistent ~3:1 H100:A100
// ratio that matches kernel-level throughput. Runs a representative
// transformer kernel set across every GPU in the registry and reports the
// cross-device ratios.
#include <array>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

/// The Table-II GEMMs of a BERT-large-scale and a GPT-3-2.7B-scale layer.
std::vector<gemm::GemmProblem> representative_kernels() {
  std::vector<gemm::GemmProblem> kernels;
  tfm::TransformerConfig bert;
  bert.name = "bert-large";
  bert.hidden_size = 1024;
  bert.num_heads = 16;
  bert.num_layers = 24;
  bert.seq_len = 512;
  bert.microbatch = 32;
  bert.vocab_size = 30528;
  for (const auto& g : tfm::layer_gemms(bert)) kernels.push_back(g);
  for (const auto& g : tfm::layer_gemms(tfm::model_by_name("gpt3-2.7b-c2"))) {
    kernels.push_back(g);
  }
  return kernels;
}

void geomean_per_device(bench::Rows& out, const gemm::GemmSimulator&,
                        const CliArgs&) {
  const std::vector<gemm::GemmProblem> kernels = representative_kernels();
  const std::array<const char*, 5> gpus = {"v100-16gb", "a100-40gb",
                                           "a100-80gb", "h100-sxm",
                                           "mi250x-gcd"};
  std::array<double, 5> geos{};
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    const gemm::GemmSimulator sim = gemm::GemmSimulator::for_gpu(gpus[i]);
    std::vector<double> tfs;
    for (const auto& k : kernels) tfs.push_back(sim.estimate(k).tflops());
    geos[i] = geomean(tfs);
  }

  out.section("geometric-mean kernel throughput per device");
  out.table({"gpu", "geomean TFLOP/s", "vs a100-40gb"});
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    out.row().cell(gpus[i]).cell(geos[i], 1).cellf("%.2fx",
                                                   geos[i] / geos[1]);
  }
}

void h100_a100_per_kernel(bench::Rows& out, const gemm::GemmSimulator&,
                          const CliArgs&) {
  out.section("per-kernel H100 : A100 ratio");
  const gemm::GemmSimulator h100 = gemm::GemmSimulator::for_gpu("h100");
  const gemm::GemmSimulator a100 = gemm::GemmSimulator::for_gpu("a100");
  out.table({"kernel", "A100 TFLOP/s", "H100 TFLOP/s", "ratio"});
  for (const auto& k : representative_kernels()) {
    const double ta = a100.estimate(k).tflops();
    const double th = h100.estimate(k).tflops();
    out.row().cell(k).cell(ta, 1).cell(th, 1).cellf("%.2fx", th / ta);
  }
  out.note("(paper §VIII: MLCommons BERT shows a consistent ~3:1 "
           "H100:A100 ratio, matching kernel-level throughput — "
           "compute-bound kernels above land near 3.2x, memory-bound "
           "ones near the 2.2x bandwidth ratio)\n");
}

const bench::BenchSpec kSpec{
    "bench_case_hw_ratio",
    "Case study: kernel-level hardware comparison (§VIII)",
    {},
    "Case study: kernel-level hardware comparison",
    "representative transformer GEMMs across devices (§VIII)",
    {{"case.hw_ratio", geomean_per_device,
      "geomean kernel throughput of the representative set per device",
      {benchlib::kSuiteExt, benchlib::kSuiteSmoke}},
     {"case.hw_ratio_kernels", h100_a100_per_kernel,
      "per-kernel H100:A100 throughput ratio of the representative set",
      {benchlib::kSuiteExt}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(case_hw_ratio, codesign::kSpec);
