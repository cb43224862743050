#include "sweep/report.hpp"

#include <algorithm>
#include <ostream>

#include "advisor/attribution_report.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace codesign::sweep {

namespace {

/// One ranking row: a workload's cells ordered fastest-first.
struct RankRow {
  const SweepCell* cell;
  double time_per_token;
};

std::vector<RankRow> rank_workload(const SweepResult& r,
                                   const std::string& workload) {
  std::vector<RankRow> rows;
  rows.reserve(r.gpus.size());
  for (const SweepCell& c : r.cells) {
    if (c.workload != workload || c.variants.empty()) continue;
    rows.push_back({&c, c.variants.front().time_per_token});
  }
  // A workload has one cell per GPU, so (tpt, gpu) is a total order.
  std::sort(rows.begin(), rows.end(), [](const RankRow& a, const RankRow& b) {
    if (a.time_per_token != b.time_per_token) {
      return a.time_per_token < b.time_per_token;
    }
    return a.cell->gpu < b.cell->gpu;
  });
  return rows;
}

}  // namespace

std::string sweep_report_json(const SweepResult& r, bool compact) {
  const json::Writer::Style spine =
      compact ? json::Writer::Style::kCompact : json::Writer::Style::kPretty;

  std::size_t variant_count = 0;
  for (const SweepCell& c : r.cells) variant_count += c.variants.size();
  std::string out;
  out.reserve(1024 + 1024 * r.cells.size() + 384 * variant_count);
  json::Writer w(out);
  w.begin_object(spine)
      .member("report", kSweepReportName)
      .member("version", kSweepReportVersion)
      .member("name", r.name)
      .member("tile_policy",
              advisor::tile_policy_name(gemm::TilePolicy::kAuto))
      .member("truncated", r.truncated);

  w.key("hardware").begin_array();
  for (const std::string& g : r.gpus) w.value(g);
  w.end_array();

  w.key("workloads").begin_array(spine);
  for (const SweepResult::WorkloadMeta& m : r.workloads) {
    w.begin_object()
        .member("name", m.name)
        .member("family", m.family)
        .member("base", m.base)
        .member("variants", static_cast<unsigned long long>(m.variants))
        .end_object();
  }
  w.end_array();

  std::size_t total_skipped = 0;
  w.key("cells").begin_array(spine);
  for (const SweepCell& c : r.cells) {
    total_skipped += c.skipped.size();
    w.begin_object(spine)
        .member("workload", c.workload)
        .member("family", c.family)
        .member("gpu", c.gpu);
    if (c.variants.empty()) {
      w.key("winner").null();
    } else {
      w.member("winner", c.variants.front().label);
    }
    w.key("variants").begin_array(spine);
    for (const SweepVariantResult& v : c.variants) {
      w.begin_object()
          .member("label", v.label)
          .member("config", v.config.to_string())
          .member("note", v.note)
          .member("layer_time_s", v.layer_time)
          .member("time_per_token_s", v.time_per_token)
          .member("layer_tflops", v.layer_tflops)
          .member("params", static_cast<long long>(v.param_count))
          .member("rules_pass", v.rules_pass)
          .end_object();
    }
    w.end_array();
    w.key("skipped").begin_array();
    for (const SweepSkip& s : c.skipped) {
      w.begin_object()
          .member("label", s.label)
          .member("reason", s.reason)
          .member("attempts", s.attempts)
          .end_object();
    }
    w.end_array();
    if (!c.variants.empty()) {
      // The winner's forward-pass attribution (PR 9's rollup): which roof
      // the cell sits on, and the attention/MLP/other split of layer time.
      const double lt = c.attribution.layer.total_time;
      w.key("winner_attribution").begin_object();
      w.key("breakdown");
      advisor::write_breakdown(w, c.attribution.breakdown);
      w.key("layer_split")
          .begin_object()
          .member("attention",
                  lt > 0.0 ? c.attribution.layer.attention_time / lt : 0.0)
          .member("mlp", lt > 0.0 ? c.attribution.layer.mlp_time / lt : 0.0)
          .member("other",
                  lt > 0.0 ? c.attribution.layer.other_time / lt : 0.0)
          .end_object();
      w.member("total_time_s", c.attribution.total_time);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  // Cross-hardware comparative ranking, per workload: which part runs this
  // workload's best variant fastest, and by how much the others trail.
  w.key("rankings").begin_array(spine);
  for (const SweepResult::WorkloadMeta& m : r.workloads) {
    const std::vector<RankRow> rows = rank_workload(r, m.name);
    if (rows.empty()) continue;
    const double best = rows.front().time_per_token;
    w.begin_object(spine).member("workload", m.name);
    w.key("order").begin_array(spine);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      w.begin_object()
          .member("rank", static_cast<unsigned long long>(i + 1))
          .member("gpu", rows[i].cell->gpu)
          .member("winner", rows[i].cell->variants.front().label)
          .member("time_per_token_s", rows[i].time_per_token)
          .member("slowdown_vs_best",
                  best > 0.0 ? rows[i].time_per_token / best : 0.0)
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array();

  w.key("counters")
      .begin_object()
      .member("cells", static_cast<unsigned long long>(r.cells.size()))
      .member("variants", static_cast<unsigned long long>(variant_count))
      .member("skipped", static_cast<unsigned long long>(total_skipped))
      .end_object();

  w.end_object();
  if (!compact) out += '\n';
  return out;
}

void render_sweep_table(std::ostream& os, const SweepResult& r) {
  os << "sweep '" << r.name << "': " << r.workloads.size() << " workloads x "
     << r.gpus.size() << " GPUs = " << r.planned_cells << " cells ("
     << "tile policy " << advisor::tile_policy_name(gemm::TilePolicy::kAuto)
     << ")\n";
  for (const SweepResult::WorkloadMeta& m : r.workloads) {
    const std::vector<RankRow> rows = rank_workload(r, m.name);
    os << "\n== " << m.name << " (" << m.family << ", " << m.variants
       << " variants; base " << m.base << ")\n";
    if (rows.empty()) {
      os << "  (no completed cells)\n";
      continue;
    }
    const double best = rows.front().time_per_token;
    TableWriter table({"rank", "gpu", "winner", "time/token", "TFLOP/s",
                       "bound", "vs best"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepCell& c = *rows[i].cell;
      const SweepVariantResult& win = c.variants.front();
      table.new_row()
          .cell(static_cast<std::int64_t>(i + 1))
          .cell(c.gpu)
          .cell(win.label)
          .cell(human_time(win.time_per_token))
          .cell(win.layer_tflops, 1)
          .cell(std::string(gemm::bound_name(c.attribution.breakdown.bound)))
          .cell(str_format("%.2fx", best > 0.0
                                        ? rows[i].time_per_token / best
                                        : 0.0));
    }
    table.write(os);
    for (const SweepCell& c : r.cells) {
      if (c.workload != m.name || c.skipped.empty()) continue;
      for (const SweepSkip& s : c.skipped) {
        os << "  skipped " << s.label << "@" << c.gpu << " after "
           << s.attempts << " attempt(s): " << s.reason << "\n";
      }
    }
  }
  os << "\ncells " << r.cells.size() << "/" << r.planned_cells
     << ", evaluated " << r.evaluated << " variants (" << r.resumed
     << " from checkpoint), skipped " << r.skipped << ", retries "
     << r.retries << "\n";
  if (r.truncated) {
    os << "*** PARTIAL RESULTS: sweep cancelled ("
       << cancel_reason_name(r.cancel_reason)
       << ") — resume with --checkpoint/--resume ***\n";
  }
}

}  // namespace codesign::sweep
