#include "bench_cases.hpp"

// The specs and hooks live in the bench_*.cpp files, compiled into the
// codesign_bench_cases library with CODESIGN_BENCH_NO_MAIN. Their names
// follow the CODESIGN_BENCH_FIGURE and CODESIGN_BENCH_CASES macros
// (bench/bench_common.hpp).
#define CODESIGN_FIGURE_BENCHES(X)                                          \
  X(ablation_simulator) X(case_6gpu_nodes) X(case_bert) X(case_gpt3_27b)   \
  X(case_hw_ratio) X(case_swiglu) X(ext_3d_parallel) X(ext_gqa)             \
  X(ext_pipeline) X(ext_seqlen) X(ext_sweep_matrix) X(ext_tp_comm)          \
  X(ext_training_step) X(ext_volta_vs_ampere) X(fig01_layer_family)         \
  X(fig02_latency_breakdown) X(fig05_gemm_sweep) X(fig06_bmm_sweep)         \
  X(fig07_attention_alignment) X(fig08_09_fixed_ratio) X(fig10_mlp)         \
  X(fig11_gemm_proportions) X(fig12_flashattention) X(fig13_inference)      \
  X(fig14_dim_order) X(fig15_16_qkv) X(fig17_18_attention_appendix)         \
  X(fig19_projection) X(fig20_vocab) X(fig21_47_head_sweep)

#define CODESIGN_HOOK_BENCHES(X) \
  X(ext_sweep_matrix) X(obs_overhead) X(search_parallel) X(serve_throughput)

#define CODESIGN_DECLARE_SPEC(id) \
  const ::codesign::bench::BenchSpec& codesign_bench_spec_##id();
#define CODESIGN_DECLARE_HOOK(id) \
  void codesign_bench_register_##id(::codesign::benchlib::BenchRegistry&);
CODESIGN_FIGURE_BENCHES(CODESIGN_DECLARE_SPEC)
CODESIGN_HOOK_BENCHES(CODESIGN_DECLARE_HOOK)

namespace codesign::bench {

const std::vector<const BenchSpec*>& figure_specs() {
#define CODESIGN_SPEC_ADDRESS(id) &codesign_bench_spec_##id(),
  static const std::vector<const BenchSpec*> specs = {
      CODESIGN_FIGURE_BENCHES(CODESIGN_SPEC_ADDRESS)};
#undef CODESIGN_SPEC_ADDRESS
  return specs;
}

void register_all_cases(benchlib::BenchRegistry& reg) {
  for (const BenchSpec* spec : figure_specs()) add_cases(reg, *spec);
#define CODESIGN_CALL_HOOK(id) codesign_bench_register_##id(reg);
  CODESIGN_HOOK_BENCHES(CODESIGN_CALL_HOOK)
#undef CODESIGN_CALL_HOOK
}

}  // namespace codesign::bench
