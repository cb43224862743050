// paper_tour — the paper's five headline results, reproduced in sequence
// by one small program. Run it after building to sanity-check the whole
// stack (the same claims are enforced as bands in tests/test_calibration).
//
// Usage: paper_tour [--gpu=a100]
#include <iostream>

#include "advisor/search.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "gemmsim/explain.hpp"
#include "gemmsim/simulator.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

int main(int argc, char** argv) {
  using namespace codesign;
  try {
    const CliArgs args = CliArgs::parse(argc, argv);
    const auto sim =
        gemm::GemmSimulator::for_gpu(args.get_string("gpu", "a100"));
    std::cout << "== The paper's headline results, on " << sim.gpu().id
              << " ==\n\n";

    // 1. Fig 1 / §VI-B: the GPT-3 2.7B re-shape.
    const auto base = tfm::analyze_layer(tfm::model_by_name("gpt3-2.7b"), sim);
    const auto c2 = tfm::analyze_layer(tfm::model_by_name("gpt3-2.7b-c2"), sim);
    std::cout << str_format(
        "1. Re-shaping GPT-3 2.7B (a: 32 -> 40, same parameters) speeds a "
        "layer up %.3fx\n   (paper: ~1.18x). h/a goes 80 -> 64: a full "
        "tensor-core granule.\n\n",
        base.total_time / c2.total_time);

    // 2. Fig 2: GEMMs dominate, increasingly with size.
    const auto big = tfm::analyze_layer(tfm::model_by_name("gpt3-175b"), sim);
    std::cout << str_format(
        "2. GEMMs are %.0f%% of a 2.7B layer's latency and %.0f%% of a "
        "175B layer's\n   (paper: 68.3%% and 94.9%%) — shape the GEMMs, "
        "shape the model.\n\n",
        100.0 * base.gemm_fraction, 100.0 * big.gemm_fraction);

    // 3. Fig 20 / the vocab rule.
    const double odd =
        sim.estimate(gemm::GemmProblem::gemm(8192, 50257, 2560)).tflops();
    const double pad =
        sim.estimate(gemm::GemmProblem::gemm(8192, 50304, 2560)).tflops();
    std::cout << str_format(
        "3. Padding the vocabulary 50257 -> 50304 (a multiple of 64) makes "
        "the logit GEMM %.1fx faster\n   (the famous nanoGPT trick).\n\n",
        pad / odd);

    // 4. §VII-B: the SwiGLU 8h/3 trap.
    const auto llama = tfm::model_by_name("llama2-7b");
    const auto scan =
        advisor::search_mlp_intermediate(llama, sim, 10752, 11264);
    std::cout << str_format(
        "4. SwiGLU's suggested d_ff = 8h/3 = 10923 ranks at percentile "
        "%.2f of its range;\n   Llama-2-7B's actual 11008 ranks at %.3f "
        "(paper: 'one of the best in its range').\n\n",
        advisor::mlp_candidate_percentile(scan, 10923),
        advisor::mlp_candidate_percentile(scan, 11008));

    // 5. Wave quantization, the least-known effect.
    const auto b = gemm::explain_gemm(
        gemm::GemmProblem::gemm(1920, 1920, 1920), sim);
    std::cout << "5. Why is a 1920^3 GEMM slow? Factor it:\n"
              << b.to_string()
              << "   (the wave_quantization factor is the saw-tooth of "
                 "Fig 5b: 120 tiles on 108 SMs).\n";
    return 0;
  } catch (const codesign::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
