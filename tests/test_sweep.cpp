// Tests for the scenario matrix engine (docs/SWEEP.md):
//   * the sectioned config parser (file:line diagnostics, duplicate-key
//     rejection, repeated sections),
//   * workload family lowering — GQA ratios, MoE activated width, prefill
//     sequence lengths, speculative-decoding verify steps, ViT patches —
//     all pure, validated, and diagnosed with the offending file:line,
//   * the extended hardware axis (b200, mi300x, npu-edge) resolving
//     through the registry with valid ladders,
//   * the determinism contract: the codesign.sweep report is byte-identical
//     at 1 and 8 threads, and byte-identical between an uninterrupted run
//     and one interrupted at the "sweep.cell" failpoint and resumed from
//     its checkpoint.
#include "sweep/driver.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/checkpoint.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "sweep/plan.hpp"
#include "sweep/report.hpp"
#include "sweep/workload.hpp"
#include "transformer/config_parse.hpp"

namespace codesign {
namespace {

using sweep::SweepOptions;
using sweep::SweepPlan;
using sweep::SweepResult;
using tfm::ConfigSection;

// ---------------------------------------------------------------------------
// Sectioned config parsing (tfm::parse_config_sections).

TEST(ConfigSections, ParsesSectionsEntriesAndLineNumbers) {
  const std::string text =
      "# comment\n"
      "[alpha]\n"
      "key = value\n"
      "Other = Mixed Case \n"
      "\n"
      "[alpha]\n"
      "key = again\n";
  const auto sections = tfm::parse_config_sections(text, "t.conf");
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].name, "alpha");
  EXPECT_EQ(sections[0].line, 2);
  ASSERT_EQ(sections[0].entries.size(), 2u);
  EXPECT_EQ(sections[0].entries[0].key, "key");
  EXPECT_EQ(sections[0].entries[0].value, "value");
  EXPECT_EQ(sections[0].entries[0].line, 3);
  // Keys are lowercased; values keep their case but lose edge whitespace.
  EXPECT_EQ(sections[0].entries[1].key, "other");
  EXPECT_EQ(sections[0].entries[1].value, "Mixed Case");
  // Repeated section headers open fresh sections (how [workload] repeats).
  EXPECT_EQ(sections[1].line, 6);
  ASSERT_NE(sections[1].find("key"), nullptr);
  EXPECT_EQ(sections[1].find("key")->value, "again");
  EXPECT_EQ(sections[1].find("missing"), nullptr);
}

void expect_section_error(const std::string& text, const std::string& needle) {
  try {
    tfm::parse_config_sections(text, "t.conf");
    FAIL() << "expected ConfigError containing '" << needle << "'";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(ConfigSections, DiagnosticsNameTheFileAndLine) {
  expect_section_error("key = 1\n", "t.conf:1");
  expect_section_error("key = 1\n", "before any [section]");
  expect_section_error("[s]\nnot an entry\n", "t.conf:2");
  expect_section_error("[]\nk = 1\n", "t.conf:1");
  expect_section_error("[s]\nk =\n", "t.conf:2");
  expect_section_error("[s]\nk = 1\nK = 2\n", "duplicate key 'k'");
  expect_section_error("[s]\nk = 1\nk = 2\n", "first at line 2");
}

// ---------------------------------------------------------------------------
// Workload family lowering.

ConfigSection section_of(const std::string& text) {
  const auto sections = tfm::parse_config_sections(text, "wl.conf");
  EXPECT_EQ(sections.size(), 1u);
  return sections.front();
}

sweep::WorkloadSpec lower(const std::string& body) {
  return sweep::workload_from_section(section_of("[workload]\n" + body),
                                      "wl.conf");
}

TEST(WorkloadLowering, GqaRatiosDivideTheQueryHeads) {
  const auto wl = lower(
      "family = gqa\n"
      "model = llama2-7b\n"
      "kv_ratios = 1, 4, 32\n");
  EXPECT_EQ(wl.family, "gqa");
  ASSERT_EQ(wl.variants.size(), 3u);
  EXPECT_EQ(wl.variants[0].label, "kv32");  // ratio 1 = MHA, 32 KV heads
  EXPECT_EQ(wl.variants[0].config.num_kv_heads, 32);
  EXPECT_EQ(wl.variants[1].config.num_kv_heads, 8);
  EXPECT_EQ(wl.variants[2].label, "kv1");   // ratio a = MQA
  EXPECT_EQ(wl.variants[2].config.num_kv_heads, 1);

  // A ratio that does not divide the head count is a config error naming
  // the file:line of the offending section.
  try {
    lower("family = gqa\nmodel = llama2-7b\nkv_ratios = 3\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("wl.conf"), std::string::npos);
  }
}

TEST(WorkloadLowering, MoeLowersToActivatedWidth) {
  const auto wl = lower(
      "family = moe\n"
      "model = gpt3-2.7b\n"
      "experts = 8, 64\n"
      "top_k = 2\n");
  ASSERT_EQ(wl.variants.size(), 2u);
  // Activated width = top_k x expert_dff (expert_dff defaults to the base
  // model's d_ff); expert count rides in the note, not the latency model.
  EXPECT_EQ(wl.variants[0].label, "e8-k2");
  EXPECT_EQ(wl.variants[0].config.mlp_intermediate, 2 * wl.base.d_ff());
  EXPECT_EQ(wl.variants[1].label, "e64-k2");
  EXPECT_EQ(wl.variants[1].config.mlp_intermediate,
            wl.variants[0].config.mlp_intermediate);
  EXPECT_THROW(
      lower("family = moe\nmodel = gpt3-2.7b\nexperts = 4\ntop_k = 8\n"),
      ConfigError);
}

TEST(WorkloadLowering, PrefillSpecdecAndVitLowerTheSequenceAxis) {
  const auto prefill = lower(
      "family = prefill\nmodel = gpt3-2.7b\nseq_lens = 512, 8192\n");
  ASSERT_EQ(prefill.variants.size(), 2u);
  EXPECT_EQ(prefill.variants[0].config.seq_len, 512);
  EXPECT_EQ(prefill.variants[1].label, "s8192");

  // Speculative decoding: gamma draft tokens + 1 verified per step.
  const auto specdec = lower(
      "family = specdec\nmodel = llama2-13b\nbatch = 1\ngammas = 1, 7\n");
  ASSERT_EQ(specdec.variants.size(), 2u);
  EXPECT_EQ(specdec.variants[0].config.seq_len, 2);
  EXPECT_EQ(specdec.variants[1].config.seq_len, 8);
  EXPECT_EQ(specdec.variants[1].config.microbatch, 1);

  // ViT: (image/patch)^2 tokens through an encoder.
  const auto vit = lower(
      "family = vit\n"
      "custom = h=1280,a=16,L=32,v=1000,kind=encoder\n"
      "patches = 16, 28\nimage = 224\n");
  ASSERT_EQ(vit.variants.size(), 2u);
  EXPECT_EQ(vit.variants[0].config.kind, tfm::ModelKind::kEncoder);
  EXPECT_EQ(vit.variants[0].config.seq_len, 196);  // (224/16)^2
  EXPECT_EQ(vit.variants[1].config.seq_len, 64);   // (224/28)^2
  EXPECT_THROW(
      lower("family = vit\ncustom = h=1280,a=16,L=32,v=1000,kind=encoder\n"
            "patches = 13\nimage = 224\n"),
      ConfigError);
}

TEST(WorkloadLowering, RejectsUnknownFamiliesAndForeignKeys) {
  EXPECT_THROW(lower("family = quantum\nmodel = gpt3-125m\n"), ConfigError);
  // A key belonging to another family is an error, not silently ignored.
  EXPECT_THROW(lower("family = prefill\nmodel = gpt3-125m\nkv_ratios = 4\n"),
               ConfigError);
  // Exactly one of model=/custom=.
  EXPECT_THROW(lower("family = decoder\n"), ConfigError);
  EXPECT_THROW(lower("family = decoder\nmodel = gpt3-125m\n"
                     "custom = h=256,a=4,L=2,v=1000\n"),
               ConfigError);
}

// ---------------------------------------------------------------------------
// The extended hardware axis.

TEST(HardwareAxis, NewSpecsResolveAndValidate) {
  for (const char* name : {"b200", "b200-sxm", "mi300x", "npu", "npu-edge"}) {
    const gpu::GpuSpec& g = gpu::gpu_by_name(name);
    EXPECT_NO_THROW(g.validate()) << name;
    EXPECT_GT(g.tensor_flops_fp16, 0.0) << name;
  }
  EXPECT_EQ(gpu::gpu_by_name("b200").id, "b200-sxm");
  EXPECT_EQ(gpu::gpu_by_name("npu").id, "npu-edge");
  // The NPU-class part is the bandwidth-starved point of the axis.
  EXPECT_LT(gpu::gpu_by_name("npu-edge").hbm_bandwidth,
            gpu::gpu_by_name("a100").hbm_bandwidth);
}

// ---------------------------------------------------------------------------
// Determinism and resume: the sweep's acceptance contract.

constexpr const char* kSmallMatrix =
    "[sweep]\n"
    "name = t-matrix\n"
    "gpus = a100, npu-edge\n"
    "[workload]\n"
    "family = gqa\n"
    "name = gqa-125m\n"
    "model = gpt3-125m\n"
    "kv_ratios = 1, 4\n"
    "[workload]\n"
    "family = prefill\n"
    "name = prefill-125m\n"
    "model = gpt3-125m\n"
    "seq_lens = 256, 1024\n";

SweepResult run_matrix(const SweepPlan& plan, std::size_t threads,
                       SweepOptions extra = {}) {
  extra.threads = threads;
  return sweep::run_sweep(plan, extra);
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(SweepDeterminism, ReportIsByteIdenticalAcrossThreadCounts) {
  const SweepPlan plan = sweep::parse_sweep_config(kSmallMatrix, "t.conf");
  EXPECT_EQ(plan.cells(), 4u);
  const SweepResult r1 = run_matrix(plan, 1);
  const SweepResult r8 = run_matrix(plan, 8);
  EXPECT_EQ(r1.cells.size(), 4u);
  EXPECT_EQ(sweep::sweep_report_json(r1, /*compact=*/false),
            sweep::sweep_report_json(r8, /*compact=*/false));
  EXPECT_EQ(sweep::sweep_report_json(r1, /*compact=*/true),
            sweep::sweep_report_json(r8, /*compact=*/true));

  // The winner order is a total order: every cell's variants are sorted by
  // (time_per_token, label), so index 0 is the deterministic winner.
  for (const sweep::SweepCell& c : r1.cells) {
    for (std::size_t i = 1; i < c.variants.size(); ++i) {
      EXPECT_LE(c.variants[i - 1].time_per_token, c.variants[i].time_per_token);
    }
  }
}

class SweepResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::clear();
    path_ = testing::TempDir() + "sweep_resume_cp.txt";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    fail::clear();
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(SweepResumeTest, ResumedRunReportIsByteIdenticalToFreshRun) {
  const SweepPlan plan = sweep::parse_sweep_config(kSmallMatrix, "t.conf");
  const std::string fingerprint =
      sweep::sweep_fingerprint(plan, gemm::TilePolicy::kAuto);
  const std::string fresh =
      sweep::sweep_report_json(run_matrix(plan, 2), /*compact=*/true);

  // Every record written as it completes, and the default cadence, where
  // the interrupted cells reach the file only through the writer's
  // destructor flush.
  for (const std::size_t flush_every : {std::size_t{1}, std::size_t{64}}) {
    SCOPED_TRACE(flush_every);
    std::remove(path_.c_str());
    // Interrupt the third cell: the failpoint fires before any of its
    // variants run, leaving cells 1-2 in the checkpoint.
    fail::configure("sweep.cell=once:3:fatal");
    {
      advisor::CheckpointWriter writer(path_, fingerprint, flush_every);
      SweepOptions opts;
      opts.checkpoint = &writer;
      EXPECT_THROW(run_matrix(plan, 2, opts), fail::InjectedFault);
    }
    fail::clear();

    const advisor::SearchCheckpoint cp =
        advisor::SearchCheckpoint::load(path_);
    EXPECT_EQ(cp.size(), 4u);  // 2 cells x 2 variants

    advisor::CheckpointWriter writer(path_, fingerprint, flush_every);
    SweepOptions opts;
    opts.checkpoint = &writer;
    opts.resume = &cp;
    const SweepResult resumed = run_matrix(plan, 2, opts);
    EXPECT_EQ(resumed.resumed, 4u);
    EXPECT_EQ(resumed.cells.size(), plan.cells());
    EXPECT_EQ(sweep::sweep_report_json(resumed, /*compact=*/true), fresh);
  }
}

TEST_F(SweepResumeTest, CheckpointIsWrittenAtTheWriterCadenceNotPerCell) {
  const SweepPlan plan = sweep::parse_sweep_config(kSmallMatrix, "t.conf");
  const std::string fingerprint =
      sweep::sweep_fingerprint(plan, gemm::TilePolicy::kAuto);
  const std::size_t records = 8;  // 4 cells x 2 variants
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    // The default cadence outlasts the matrix: one write, when it ends.
    {
      advisor::CheckpointWriter writer(path_, fingerprint);
      SweepOptions opts;
      opts.checkpoint = &writer;
      (void)run_matrix(plan, threads, opts);
      EXPECT_EQ(writer.persists(), 1u);
    }
    EXPECT_EQ(advisor::SearchCheckpoint::load(path_).size(), records);
    const std::string bytes = slurp(path_);

    // A cadence of 3: a write every third record, then the remainder.
    {
      advisor::CheckpointWriter writer(path_, fingerprint, 3);
      SweepOptions opts;
      opts.checkpoint = &writer;
      (void)run_matrix(plan, threads, opts);
      EXPECT_EQ(writer.persists(), records / 3 + 1);
    }
    EXPECT_EQ(slurp(path_), bytes);
  }
}

TEST_F(SweepResumeTest, ForeignCheckpointIsRejectedByFingerprint) {
  const SweepPlan plan = sweep::parse_sweep_config(kSmallMatrix, "t.conf");
  {
    advisor::CheckpointWriter writer(path_, "sweep name=other sig=0",
                                     /*flush_every=*/1);
  }
  const advisor::SearchCheckpoint cp = advisor::SearchCheckpoint::load(path_);
  SweepOptions opts;
  opts.resume = &cp;
  EXPECT_THROW(run_matrix(plan, 1, opts), ConfigError);
}

TEST(SweepReport, JsonCarriesTheContractFields) {
  const SweepPlan plan = sweep::parse_sweep_config(kSmallMatrix, "t.conf");
  const std::string json =
      sweep::sweep_report_json(run_matrix(plan, 2), /*compact=*/true);
  for (const char* needle :
       {"\"report\":\"codesign.sweep\"", "\"version\":1", "\"rankings\"",
        "\"winner_attribution\"", "\"slowdown_vs_best\"", "\"npu-edge\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  // Compact (serve payload) form is a single line.
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace codesign
