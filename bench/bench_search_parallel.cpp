// bench_search_parallel — design-space search throughput at 1 vs. N
// evaluation threads.
//
// The paper's workflow (Figs 5-10, 21-47) sweeps thousands of transformer
// shapes through the GEMM model; this bench tracks how fast this repo can
// do that. It times the joint heads × hidden grid search through the shared
// search pipeline at 1 and N threads, and a >=1e5-candidate grid through
// run_grid_search. It asserts the determinism contract (identical ranking
// at every thread count) and writes BENCH_search.json so future PRs can
// track the trajectory.
//
// Flags: --model= --radius= --threads= --repeat= --out= --smoke (tiny,
// fast configuration for ctest), plus the standard --gpu/--policy/--format.
#include <chrono>
#include <string>
#include <vector>

#include "advisor/search.hpp"
#include "bench_common.hpp"
#include "benchlib/bench_report.hpp"
#include "benchlib/runner.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::bench {
namespace {

using advisor::SearchOptions;
using advisor::ShapeCandidate;

const BenchSpec kSpec{
    "bench_search_parallel",
    "search throughput: the search pipeline at 1 vs N threads",
    {"model", "radius", "threads", "repeat", "out", "smoke"}};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best wall-clock of `repeat` runs of fn() (returns candidate count).
struct Timing {
  double seconds = 0.0;
  std::size_t candidates = 0;
};

template <typename F>
Timing best_of(int repeat, F&& fn) {
  Timing best;
  best.seconds = 1e30;
  for (int r = 0; r < repeat; ++r) {
    const double t0 = now_seconds();
    const std::size_t n = fn();
    const double dt = now_seconds() - t0;
    if (dt < best.seconds) best = Timing{dt, n};
  }
  return best;
}

bool same_ranking(const std::vector<ShapeCandidate>& a,
                  const std::vector<ShapeCandidate>& b) {
  return a == b;  // field-exact, including every double, bit pattern aside
}

/// The >=`target`-candidate grid for the batched raw-throughput path
/// (run_grid_search): every legal (h, a) joint point in [256, 4096],
/// crossed with microbatch / sequence / depth / vocab variants until the
/// target count is reached, so the candidate count scales far past what
/// the neighbourhood searches generate. Names
/// are unique, so the (layer_time, name) ranking stays a total order.
std::vector<tfm::TransformerConfig> batched_grid(
    const tfm::TransformerConfig& base, std::size_t target) {
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;  // (h, a)
  for (std::int64_t h = 256; h <= 4096; h += 64) {
    for (std::int64_t a = 1; a <= h; ++a) {
      if (h % a != 0) continue;
      const std::int64_t head_dim = h / a;
      if (head_dim < 32 || head_dim > 256) continue;
      pairs.emplace_back(h, a);
    }
  }
  const std::int64_t mbs[] = {1, 2, 4, 8, 16, 32, 64, 128};
  const std::int64_t seqs[] = {512, 1024, 2048, 4096};
  const std::int64_t depths[] = {8, 12, 16, 24};
  const std::int64_t vocabs[] = {50304, 51264};
  std::vector<tfm::TransformerConfig> grid;
  grid.reserve(target + pairs.size());
  for (std::size_t combo = 0; combo < 8 * 4 * 4 * 2 && grid.size() < target;
       ++combo) {
    const std::int64_t b = mbs[combo % 8];
    const std::int64_t s = seqs[(combo / 8) % 4];
    const std::int64_t l = depths[(combo / 32) % 4];
    const std::int64_t v = vocabs[(combo / 128) % 2];
    for (const auto& [h, a] : pairs) {
      tfm::TransformerConfig cfg = base.with_hidden(h)
                                       .with_heads(a)
                                       .with_microbatch(b)
                                       .with_seq_len(s)
                                       .with_layers(l)
                                       .with_vocab(v);
      cfg.name = str_format("g_h%lld_a%lld_b%lld_s%lld_L%lld_v%lld",
                            static_cast<long long>(h),
                            static_cast<long long>(a),
                            static_cast<long long>(b),
                            static_cast<long long>(s),
                            static_cast<long long>(l),
                            static_cast<long long>(v));
      grid.push_back(std::move(cfg));
    }
  }
  return grid;
}

int body(BenchContext& ctx) {
  const bool smoke = ctx.args().get_bool("smoke", false);
  const std::string model_name =
      ctx.args().get_string("model", smoke ? "pythia-160m" : "gpt3-2.7b");
  const double radius =
      ctx.args().get_double("radius", smoke ? 0.05 : 0.15);
  const auto threads =
      static_cast<std::size_t>(ctx.args().get_int("threads", 8));
  const int repeat = static_cast<int>(
      ctx.args().get_int("repeat", smoke ? 1 : 3));
  const std::string out_path =
      ctx.args().get_string("out", "BENCH_search.json");

  const tfm::TransformerConfig base = tfm::model_by_name(model_name);
  SearchOptions options;
  options.max_candidates = 1 << 20;  // rank everything; no trim noise

  ctx.banner("search throughput",
             "joint heads x hidden design-space search through the "
             "parallel pipeline");

  // Candidate ranking ground truth: 1 thread.
  const std::vector<ShapeCandidate> reference =
      advisor::search_joint(base, ctx.sim(), radius, 0, options);
  CODESIGN_CHECK(!reference.empty(), "joint grid produced no candidates");

  // --- determinism: every thread count, same ranking --------------------
  bool deterministic = true;
  for (std::size_t t : {std::size_t{2}, threads}) {
    SearchOptions opt = options;
    opt.threads = t;
    deterministic =
        deterministic &&
        same_ranking(reference,
                     advisor::search_joint(base, ctx.sim(), radius, 0, opt));
  }

  // --- timings ----------------------------------------------------------
  const auto run_pipeline = [&](std::size_t nthreads) {
    SearchOptions opt = options;
    opt.threads = nthreads;
    return advisor::search_joint(base, ctx.sim(), radius, 0, opt).size();
  };
  const Timing pipe1 = best_of(repeat, [&] { return run_pipeline(1); });
  const Timing pipeN = best_of(repeat, [&] { return run_pipeline(threads); });

  // --- batched grid: run_grid_search raw throughput ---------------------
  // The joint sweep above has a few hundred candidates; the batched
  // estimation engine is sized for sweeps two orders of magnitude larger.
  // This phase pushes a >=1e5-candidate grid (2e3 under --smoke) through
  // run_grid_search and checks the ranking is identical at 1 and N
  // threads.
  const std::size_t grid_target = smoke ? 2000 : 100000;
  const std::vector<tfm::TransformerConfig> grid =
      batched_grid(base, grid_target);
  SearchOptions grid_opt;
  grid_opt.max_candidates = 64;  // rank everything, keep the head
  const auto run_grid = [&](std::size_t nthreads) {
    SearchOptions o = grid_opt;
    o.threads = nthreads;
    return advisor::run_grid_search(grid, base, ctx.sim(), o);
  };
  const advisor::SearchOutcome grid_ref = run_grid(1);
  CODESIGN_CHECK(grid_ref.evaluated == grid.size(),
                 "batched grid evaluation skipped candidates");
  const bool grid_deterministic =
      same_ranking(grid_ref.ranked, run_grid(threads).ranked);
  const Timing grid1 =
      best_of(repeat, [&] { return run_grid(1).evaluated; });
  const Timing gridN =
      best_of(repeat, [&] { return run_grid(threads).evaluated; });

  TableWriter t({"configuration", "threads", "time", "candidates",
                 "evals/s"});
  const auto row = [&](const std::string& name, std::size_t nthreads,
                       const Timing& timing) {
    t.new_row()
        .cell(name)
        .cell(static_cast<std::int64_t>(nthreads))
        .cell(human_time(timing.seconds))
        .cell(static_cast<std::int64_t>(timing.candidates))
        .cell(static_cast<double>(timing.candidates) / timing.seconds, 0);
  };
  row("pipeline", 1, pipe1);
  row("pipeline", threads, pipeN);
  row("grid (batched)", 1, grid1);
  row("grid (batched)", threads, gridN);
  ctx.emit(t);

  std::cout << str_format("deterministic ranking: %s (joint) / %s (grid)\n",
                          deterministic ? "yes" : "NO",
                          grid_deterministic ? "yes" : "NO");

  // --- JSON trajectory record (schema: codesign.bench_report) -----------
  // The reference ranking is the data checksum: every configuration must
  // reproduce it bit-for-bit, so all cases share one checksum and
  // checksum_stable mirrors the determinism assertion above.
  std::uint64_t ranking_checksum = benchlib::kChecksumSeed;
  ranking_checksum = benchlib::checksum_fold(
      ranking_checksum, static_cast<double>(reference.size()));
  for (const ShapeCandidate& cand : reference) {
    ranking_checksum = benchlib::checksum_fold(ranking_checksum,
                                               cand.layer_time);
  }

  benchlib::BenchReport report;
  report.run.suite = "trajectory";
  report.run.filter = "search_parallel";
  report.run.gpu = ctx.gpu().id;
  report.run.policy = benchlib::tile_policy_name(ctx.sim().policy());
  report.run.warmup = 0;
  report.run.repeats = repeat;
  report.run.threads = threads;
  report.host = benchlib::HostFingerprint::current();
  report.context["bench"] = "search_parallel";
  report.context["model"] = model_name;
  report.context["radius_frac"] = str_format("%g", radius);
  report.context["candidates"] = std::to_string(reference.size());
  report.context["deterministic"] = deterministic ? "true" : "false";
  report.context["grid_candidates"] = std::to_string(grid.size());
  report.context["grid_deterministic"] = grid_deterministic ? "true" : "false";
  report.context["grid_evals_per_sec_1t"] =
      str_format("%.0f", static_cast<double>(grid1.candidates) / grid1.seconds);
  report.context["grid_evals_per_sec_Nt"] =
      str_format("%.0f", static_cast<double>(gridN.candidates) / gridN.seconds);
  const auto add_case = [&](const std::string& name, const Timing& timing) {
    benchlib::CaseStats s;
    s.name = name;
    s.bench = "bench_search_parallel";
    s.suites = {benchlib::kSuitePerf};
    s.samples_ms = {timing.seconds * 1e3};
    s.checksum = ranking_checksum;
    s.checksum_stable = deterministic;
    benchlib::summarize(s);
    report.cases.push_back(std::move(s));
  };
  add_case("search.pipeline_1t_nocache", pipe1);
  add_case("search.pipeline_Nt_nocache", pipeN);

  // The batched grid ranks a different candidate set, so it carries its
  // own checksum (folded over the kept head of the ranking).
  std::uint64_t grid_checksum = benchlib::kChecksumSeed;
  grid_checksum = benchlib::checksum_fold(
      grid_checksum, static_cast<double>(grid_ref.evaluated));
  for (const ShapeCandidate& cand : grid_ref.ranked) {
    grid_checksum = benchlib::checksum_fold(grid_checksum, cand.layer_time);
  }
  benchlib::CaseStats gs;
  gs.name = "search.pipeline_batched";
  gs.bench = "bench_search_parallel";
  gs.suites = {benchlib::kSuitePerf, benchlib::kSuiteSmoke};
  gs.samples_ms = {gridN.seconds * 1e3};
  gs.checksum = grid_checksum;
  gs.checksum_stable = grid_deterministic;
  benchlib::summarize(gs);
  report.cases.push_back(std::move(gs));

  report.write_file(out_path);
  std::cout << "wrote " << out_path << "\n";

  if (!deterministic || !grid_deterministic) {
    std::cerr << "FAIL: ranking depends on thread count\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace codesign::bench

CODESIGN_BENCH_CASES(search_parallel) {
  using namespace codesign;
  reg.add({"search.joint_pipeline", "bench_search_parallel",
           "joint heads x hidden search on pythia-160m, two rounds",
           {benchlib::kSuitePerf, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             const auto base = tfm::model_by_name("pythia-160m");
             advisor::SearchOptions options;
             options.max_candidates = 1 << 20;
             for (int round = 0; round < 2; ++round) {
               const auto cands =
                   advisor::search_joint(base, c.sim(), 0.05, 0, options);
               c.consume(static_cast<std::int64_t>(cands.size()));
               for (const auto& cand : cands) c.consume(cand.layer_time);
             }
           }});
  reg.add({"search.pipeline_batched", "bench_search_parallel",
           "run_grid_search over a 1e5-candidate grid, 4 threads",
           {benchlib::kSuitePerf, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             const auto base = tfm::model_by_name("pythia-160m");
             const auto grid = bench::batched_grid(base, 100000);
             advisor::SearchOptions options;
             options.threads = 4;
             options.max_candidates = 64;
             const advisor::SearchOutcome outcome =
                 advisor::run_grid_search(grid, base, c.sim(), options);
             c.consume(static_cast<std::int64_t>(grid.size()));
             c.consume(static_cast<std::int64_t>(outcome.evaluated));
             for (const auto& cand : outcome.ranked) {
               c.consume(cand.layer_time);
             }
           }});
}

CODESIGN_BENCH_MAIN(codesign::bench::kSpec, codesign::bench::body);
