// Case study (§VIII) — BERT as the procurement benchmark: the paper notes
// MLCommons BERT results track kernel-level throughput (~3:1 H100:A100)
// and that its conclusions extend to encoder-only models. This bench runs
// the encoder serving model across every GPU, shows the cross-device
// ratios, and reproduces BERT's own shape flaw (v = 30522).
#include <array>

#include "bench_common.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/inference.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

void bert_serving(bench::Rows& out, const gemm::GemmSimulator& sim,
                  const CliArgs& flags) {
  const std::int64_t batch = flags.get_int("batch", 32);
  const auto& bert = tfm::model_by_name("bert-large");

  out.section("bert-large serving (s = 512, batch = %lld)",
              static_cast<long long>(batch));
  const std::array<const char*, 4> gpus = {"v100-16gb", "a100-40gb",
                                           "h100-sxm", "mi250x-gcd"};
  std::array<double, 4> sps{};
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    sps[i] = tfm::estimate_encoder_serving(
                 bert, gemm::GemmSimulator::for_gpu(gpus[i]), batch)
                 .sequences_per_second;
  }
  out.table({"gpu", "sequences/s", "vs a100-40gb"});
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    out.row().cell(gpus[i]).cell(sps[i], 0).cellf("%.2fx", sps[i] / sps[1]);
  }
  out.note("(paper §VIII: MLCommons BERT shows ~3:1 H100:A100 — the "
           "encoder model's ratio lands in the same band because the "
           "same kernels dominate)\n");

  out.section("BERT's own vocabulary flaw (30522 -> 30528)");
  const tfm::TransformerConfig mlm = bert.with_microbatch(batch);
  const double odd = sim.estimate(tfm::logit_gemm(mlm)).tflops();
  const double pad =
      sim.estimate(tfm::logit_gemm(mlm.with_vocab(30528))).tflops();
  out.line("MLM head GEMM: v=30522: %.1f TFLOP/s; v=30528: %.1f TFLOP/s "
           "(%.2fx — the padding MLPerf submissions apply)\n",
           odd, pad, pad / odd);
}

const bench::BenchSpec kSpec{
    "bench_case_bert",
    "Case study: BERT/MLPerf encoder serving across devices",
    {"batch"},
    "Case study: BERT / MLPerf",
    "encoder serving throughput across devices",
    {{"case.bert_serving", bert_serving,
      "encoder serving estimates on four devices + the vocab flaw",
      {benchlib::kSuiteExt, benchlib::kSuiteSmoke}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(case_bert, codesign::kSpec);
