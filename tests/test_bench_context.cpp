// Tests for bench/bench_common.hpp — the shared harness every figure
// binary is built on (flag parsing, unknown-flag rejection, banner/
// section/table emission, exit-code taxonomy, the Rows sink) — and for
// the one-definition contract of bench/bench_cases.hpp: every figure case
// folds exactly what its binary prints at default flags.
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "bench_cases.hpp"
#include "common/error.hpp"

namespace codesign::bench {
namespace {

BenchContext make(std::initializer_list<const char*> flags,
                  const BenchSpec& spec = {}) {
  std::vector<const char*> argv = {"bench"};
  argv.insert(argv.end(), flags.begin(), flags.end());
  return BenchContext::from_args(static_cast<int>(argv.size()), argv.data(),
                                 spec);
}

TEST(BenchContext, Defaults) {
  const BenchContext ctx = make({});
  EXPECT_EQ(ctx.gpu().id, "a100-40gb");
  EXPECT_EQ(ctx.sim().policy(), gemm::TilePolicy::kAuto);
  EXPECT_EQ(ctx.format(), TableFormat::kAscii);
}

TEST(BenchContext, GpuFlag) {
  EXPECT_EQ(make({"--gpu=v100"}).gpu().id, "v100-16gb");
  EXPECT_EQ(make({"--gpu=h100"}).gpu().id, "h100-sxm");
  EXPECT_THROW(make({"--gpu=tpu"}), LookupError);
}

TEST(BenchContext, PolicyFlag) {
  EXPECT_EQ(make({"--policy=fixed"}).sim().policy(),
            gemm::TilePolicy::kFixedLargest);
  EXPECT_EQ(make({"--policy=auto"}).sim().policy(), gemm::TilePolicy::kAuto);
  EXPECT_THROW(make({"--policy=greedy"}), UsageError);
}

TEST(BenchContext, FormatFlag) {
  EXPECT_EQ(make({"--format=csv"}).format(), TableFormat::kCsv);
  EXPECT_EQ(make({"--format=markdown"}).format(), TableFormat::kMarkdown);
  EXPECT_EQ(make({"--format=md"}).format(), TableFormat::kMarkdown);
  EXPECT_THROW(make({"--format=xml"}), UsageError);
}

TEST(BenchContext, DeclaredFlagsReachableViaArgs) {
  BenchSpec spec;
  spec.flags = {"heads", "b"};
  const BenchContext ctx = make({"--heads=8,16", "--b=2"}, spec);
  const auto heads = ctx.args().get_int_list("heads", {});
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(ctx.args().get_int("b", 0), 2);
}

TEST(BenchContext, UndeclaredFlagIsUsageError) {
  // Flags the spec does not declare are rejected, naming every offender
  // and carrying the usage text.
  EXPECT_THROW(make({"--heads=8"}), UsageError);
  try {
    make({"--zzz=1", "--aaa=2"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--aaa"), std::string::npos);
    EXPECT_NE(what.find("--zzz"), std::string::npos);
    EXPECT_NE(what.find("usage:"), std::string::npos);
  }
}

TEST(BenchContext, HelpIsUsageError) {
  EXPECT_THROW(make({"--help"}), UsageError);
}

TEST(BenchContext, BannerAndEmit) {
  // Capture stdout to verify banner/section/table routing.
  const BenchContext ctx = make({"--format=csv"});
  ::testing::internal::CaptureStdout();
  ctx.banner("Figure X", "smoke");
  ctx.section("series one");
  TableWriter t({"a"});
  t.new_row().cell(std::int64_t{1});
  ctx.emit(t);
  const std::string out = ::testing::internal::GetCapturedStdout();
  // CSV mode prefixes narrative lines with '#'.
  EXPECT_NE(out.find("# === Figure X"), std::string::npos);
  EXPECT_NE(out.find("# --- series one"), std::string::npos);
  EXPECT_NE(out.find("a\n1\n"), std::string::npos);
}

TEST(RunBench, CleanErrorPath) {
  // Errors are caught, reported, and mapped through the exit taxonomy:
  // unknown GPU is a lookup failure, not a generic error.
  const char* argv[] = {"bench", "--gpu=bogus"};
  const int rc = run_bench(2, argv, [](BenchContext&) { return 0; });
  EXPECT_EQ(rc, kExitLookup);
}

TEST(RunBench, UnknownFlagExitsUsage) {
  const char* argv[] = {"bench", "--not-a-flag=1"};
  EXPECT_EQ(run_bench(2, argv, [](BenchContext&) { return 0; }), kExitUsage);
}

TEST(RunBench, BodyReturnCodePropagates) {
  const char* argv[] = {"bench"};
  EXPECT_EQ(run_bench(1, argv, [](BenchContext&) { return 0; }), 0);
  EXPECT_EQ(run_bench(1, argv, [](BenchContext&) { return 7; }), 7);
}

void sample_figure(Rows& out, const gemm::GemmSimulator&,
                   const CliArgs& flags) {
  out.section("part %d", 1);
  out.table({"name", "n", "x", "t"});
  out.row().cell("a").cell(flags.get_int("n", 3)).cell(1.25, 2).cell(
      2e-3, human_time);
  out.note("(a note)\n");
  out.line("ratio %.2fx\n", 1.5);
}

const BenchSpec kSampleSpec{"bench_sample", "sample", {"n"}, "Figure S",
                            "sample",
                            {{"sample.part", sample_figure, "the sample",
                              {benchlib::kSuiteFig}}}};

TEST(Rows, RendersTablesBeforeTheLinesThatFollowThem) {
  const BenchContext ctx = make({"--format=csv"}, kSampleSpec);
  ::testing::internal::CaptureStdout();
  render_part(ctx, kSampleSpec.parts.front());
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            "\n# --- part 1 ---\nname,n,x,t\na,3,1.25,2.000 ms\n(a note)\n"
            "ratio 1.50x\n");
}

TEST(Rows, CaseFoldsWhatTheRenderedFigureFolds) {
  benchlib::BenchRegistry reg;
  add_cases(reg, kSampleSpec);
  ASSERT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.cases().front().bench, "bench_sample");

  const BenchContext ctx = make({}, kSampleSpec);
  benchlib::CaseContext timed(ctx.gpu(), ctx.sim().policy());
  reg.cases().front().fn(timed);
  benchlib::CaseContext rendered(ctx.gpu(), ctx.sim().policy());
  ::testing::internal::CaptureStdout();
  render_part(ctx, kSampleSpec.parts.front(), &rendered);
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(timed.checksum(), rendered.checksum());
  EXPECT_NE(timed.checksum(), benchlib::kChecksumSeed);

  // A flag the figure reads moves the fold.
  const BenchContext other = make({"--n=4"}, kSampleSpec);
  benchlib::CaseContext moved(other.gpu(), other.sim().policy());
  ::testing::internal::CaptureStdout();
  render_part(other, kSampleSpec.parts.front(), &moved);
  ::testing::internal::GetCapturedStdout();
  EXPECT_NE(moved.checksum(), timed.checksum());
}

// The one-definition contract: each figure case's checksum is the fold of
// the rows its binary prints at default flags (a100, auto tiles). A case
// that ran its figure at other parameters than the binary's defaults, or
// folded values the binary does not print, fails here by name.
TEST(FigureCases, EachCaseFoldsWhatItsBinaryPrintsAtDefaultFlags) {
  benchlib::BenchRegistry reg;
  register_all_cases(reg);
  std::set<std::string> checked;
  for (const BenchSpec* spec : figure_specs()) {
    const BenchContext ctx = make({}, *spec);
    std::map<std::string, benchlib::CaseContext> rendered;
    ::testing::internal::CaptureStdout();
    for (const Part& part : spec->parts) {
      auto it = rendered.try_emplace(part.name, ctx.gpu(), ctx.sim().policy())
                    .first;
      render_part(ctx, part, &it->second);
    }
    const std::string printed = ::testing::internal::GetCapturedStdout();
    EXPECT_FALSE(printed.empty()) << spec->name;
    for (const auto& [name, fold] : rendered) {
      const benchlib::BenchCase* c = reg.find(name);
      ASSERT_NE(c, nullptr) << name;
      EXPECT_EQ(c->bench, spec->name);
      benchlib::CaseContext timed(ctx.gpu(), ctx.sim().policy());
      c->fn(timed);
      EXPECT_EQ(timed.checksum(), fold.checksum())
          << name << " does not fold what " << spec->name
          << " prints at its default flags";
      EXPECT_TRUE(checked.insert(name).second) << name;
    }
  }
  EXPECT_EQ(figure_specs().size(), 30u);
  EXPECT_EQ(checked.size(), 38u);
}

}  // namespace
}  // namespace codesign::bench
