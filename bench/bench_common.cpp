#include "bench_common.hpp"

#include <algorithm>
#include <bit>

#include "benchlib/runner.hpp"
#include "common/error.hpp"

namespace codesign::bench {

namespace {

// Flags every bench binary accepts, independent of its BenchSpec.
const char* const kStandardFlags[] = {"gpu", "policy", "format", "help"};

std::string usage_text(const BenchSpec& spec) {
  std::string name = spec.name.empty() ? "bench" : spec.name;
  std::string out = "usage: " + name + " [--gpu=<id>] [--policy=auto|fixed]"
                    " [--format=ascii|csv|markdown]";
  for (const auto& f : spec.flags) out += " [--" + f + "=<v>]";
  if (!spec.summary.empty()) out += "\n  " + spec.summary;
  return out;
}

void reject_unknown_flags(const CliArgs& args, const BenchSpec& spec) {
  std::vector<std::string> unknown;
  for (const auto& name : args.flag_names()) {
    const bool standard =
        std::find(std::begin(kStandardFlags), std::end(kStandardFlags), name) !=
        std::end(kStandardFlags);
    const bool declared =
        std::find(spec.flags.begin(), spec.flags.end(), name) !=
        spec.flags.end();
    if (!standard && !declared) unknown.push_back(name);
  }
  if (unknown.empty()) return;
  throw UsageError("unknown flag" + std::string(unknown.size() > 1 ? "s" : "") +
                   " --" + join(unknown, ", --") + "\n" + usage_text(spec));
}

int render_parts(BenchContext& ctx, const BenchSpec& spec) {
  ctx.banner(spec.figure, spec.description);
  for (const Part& part : spec.parts) render_part(ctx, part);
  return 0;
}

}  // namespace

void Rows::section(std::string_view title) {
  end();
  if (rendering()) render_->section(title);
}

void Rows::note(std::string_view text) {
  end();
  if (rendering()) std::cout << text;
}

void Rows::text(std::string_view block) {
  fold_bytes(block);
  note(block);
}

void Rows::table(std::initializer_list<std::string_view> header) {
  end();
  if (rendering()) {
    table_.emplace(std::vector<std::string>(header.begin(), header.end()));
  }
}

Rows& Rows::row() {
  if (table_) table_->new_row();
  return *this;
}

Rows& Rows::cell(std::string_view label) {
  fold_bytes(label);
  if (table_) table_->cell(std::string(label));
  return *this;
}

Rows& Rows::cell(std::int64_t v) {
  fold(static_cast<double>(v));
  if (table_) table_->cell(v);
  return *this;
}

Rows& Rows::cell(double v, int precision) {
  fold(v);
  if (table_) table_->cell(v, precision);
  return *this;
}

Rows& Rows::cell(double v, std::string (*format)(double)) {
  fold(v);
  if (table_) table_->cell(format(v));
  return *this;
}

Rows& Rows::cell(const gpu::TileConfig& tile) {
  fold(static_cast<double>(tile.tm));
  fold(static_cast<double>(tile.tn));
  if (table_) table_->cell(tile.name());
  return *this;
}

Rows& Rows::cell(const gemm::GemmProblem& p) {
  for (const std::int64_t d : {p.batch, p.m, p.n, p.k}) {
    fold(static_cast<double>(d));
  }
  fold(static_cast<double>(static_cast<int>(p.dtype)));
  if (table_) table_->cell(p.to_string());
  return *this;
}

void Rows::end() {
  if (table_) {
    render_->emit(*table_);
    table_.reset();
  }
  if (digest_open_) {
    fold_->consume(std::bit_cast<double>(digest_));
    digest_ = 0;
    digest_open_ = false;
  }
}

void Rows::mix(std::uint64_t word) {
  digest_ = (digest_ ^ word) * 0x9e3779b97f4a7c15ull;
  digest_ ^= digest_ >> 29;
  digest_open_ = true;
}

void Rows::fold(double v) {
  if (!fold_) return;
  if (v == 0.0) v = 0.0;  // -0.0 == 0.0, so this canonicalizes the sign bit
  mix(std::bit_cast<std::uint64_t>(v));
}

void Rows::fold_bytes(std::string_view bytes) {
  if (!fold_) return;
  for (std::size_t at = 0; at < bytes.size(); at += 8) {
    std::uint64_t word = 0;
    for (std::size_t i = at; i < std::min(at + 8, bytes.size()); ++i) {
      word = word << 8 | static_cast<unsigned char>(bytes[i]);
    }
    mix(word);
  }
  mix(bytes.size());
}

BenchContext BenchContext::from_args(int argc, const char* const* argv,
                                     const BenchSpec& spec) {
  CliArgs args = CliArgs::parse(argc, argv);
  reject_unknown_flags(args, spec);
  if (args.get_bool("help", false)) throw UsageError(usage_text(spec));

  const gpu::GpuSpec& g = gpu::gpu_by_name(args.get_string("gpu", "a100"));
  const gemm::TilePolicy policy =
      benchlib::parse_tile_policy(to_lower(args.get_string("policy", "auto")));
  const TableFormat format =
      parse_table_format(args.get_string("format", "ascii"));

  return BenchContext(std::move(args), g, policy, format);
}

void BenchContext::banner(const std::string& figure,
                          const std::string& description) const {
  const char* prefix = format_ == TableFormat::kCsv ? "# " : "";
  std::cout << prefix << "=== " << figure << " — " << description << " ===\n";
  std::cout << prefix << "GPU: " << gpu_->marketing_name << " ("
            << gpu_->sm_count << " SMs, "
            << str_format("%.0f TFLOP/s fp16 tensor, %.0f GB/s HBM",
                          gpu_->tensor_flops_fp16 / 1e12,
                          gpu_->hbm_bandwidth / 1e9)
            << "), tile policy: "
            << (sim_.policy() == gemm::TilePolicy::kAuto ? "auto" : "fixed 256x128")
            << "\n";
}

void BenchContext::section(std::string_view title) const {
  const char* prefix = format_ == TableFormat::kCsv ? "# " : "";
  std::cout << '\n' << prefix << "--- " << title << " ---\n";
}

void BenchContext::emit(const TableWriter& table) const {
  table.write(std::cout, format_);
}

void render_part(const BenchContext& ctx, const Part& part,
                 benchlib::CaseContext* fold) {
  Rows out(ctx, fold);
  part.fn(out, ctx.sim(), ctx.args());
  out.end();
}

void add_cases(benchlib::BenchRegistry& reg, const BenchSpec& spec) {
  static const CliArgs kDefaultFlags;
  for (auto first = spec.parts.begin(); first != spec.parts.end(); ++first) {
    const auto same_case = [&](const Part& p) { return p.name == first->name; };
    if (std::find_if(spec.parts.begin(), first, same_case) != first) continue;
    std::vector<FigureFn> fns;
    for (const Part& p : spec.parts) {
      if (same_case(p)) fns.push_back(p.fn);
    }
    reg.add({first->name, spec.name, first->description, first->suites,
             [fns](benchlib::CaseContext& c) {
               Rows out(c);
               for (const FigureFn fn : fns) {
                 fn(out, c.sim(), kDefaultFlags);
                 out.end();
               }
             },
             first->threshold_frac});
  }
}

int run_bench(int argc, const char* const* argv, int (*body)(BenchContext&),
              const BenchSpec& spec) {
  try {
    BenchContext ctx = BenchContext::from_args(argc, argv, spec);
    return body ? body(ctx) : render_parts(ctx, spec);
  } catch (const Error& e) {
    std::cerr << "bench error: " << e.what() << '\n';
    return exit_code_for_current_exception();
  }
}

}  // namespace codesign::bench
