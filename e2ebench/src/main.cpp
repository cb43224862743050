// main.cpp — e2ebench_runner: runs one workload of the end-to-end
// benchmark and prints a human report followed by one machine-readable
// JSON line (the metrics, the output checksum, the op counts). run.py
// builds this binary, passes it the seed and the fixed settings from
// design.json, compares the checksum with checksums.json, and prints the
// benchmark's result line.
//
//   e2ebench_runner --workload=<grid_search|sweep_matrix|serve_mix>
//       --seed=N --seconds=S --trace=0|1 --threads=W [--timed-threads=T]
//       --out-dir=DIR
//       [--rate-low=R --rate-high=R --limit-ms=L] [--checksum-only]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "workload.hpp"

namespace {

using e2ebench::Options;
using e2ebench::Report;

std::string json_line(const Report& report) {
  std::string out = codesign::str_format(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"checksum\":\"%016llx\",\"metrics\":{",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      static_cast<unsigned long long>(report.checksum));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    out += codesign::str_format("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                                i == 0 ? "" : ",", m.name.c_str(), m.value,
                                m.unit.c_str());
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const codesign::CliArgs args = codesign::CliArgs::parse(argc, argv);
    Options opt;
    opt.workload = args.get_string("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
    opt.seconds = args.get_double("seconds", 10.0);
    opt.trace = args.get_int("trace", 0) != 0;
    opt.checksum_only = args.get_bool("checksum-only", false);
    opt.threads = static_cast<std::size_t>(args.get_int("threads", 4));
    opt.timed_threads = static_cast<std::size_t>(
        args.get_int("timed-threads", static_cast<std::int64_t>(opt.threads)));
    opt.out_dir = args.get_string("out-dir", ".bench_out");
    opt.rate_low = args.get_double("rate-low", 0.0);
    opt.rate_high = args.get_double("rate-high", 0.0);
    opt.limit_ms = args.get_double("limit-ms", 5.0);
    if (opt.seconds <= 0.0 || opt.threads == 0 || opt.timed_threads == 0) {
      std::fprintf(stderr,
                   "error: --seconds, --threads and --timed-threads must be "
                   "> 0\n");
      return 2;
    }
    std::filesystem::create_directories(opt.out_dir);

    e2ebench::Tracer tracer(opt.trace);
    Report report;
    if (opt.workload == "grid_search") {
      report = e2ebench::run_grid_search(opt, tracer);
    } else if (opt.workload == "sweep_matrix") {
      report = e2ebench::run_sweep_matrix(opt, tracer);
    } else if (opt.workload == "serve_mix") {
      report = e2ebench::run_serve_mix(opt, tracer);
    } else {
      std::fprintf(stderr, "error: unknown --workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }

    if (opt.trace && !opt.checksum_only) {
      std::printf("\nper-layer spans (benchmark-side, self = total minus "
                  "child spans):\n  %-36s %9s %12s %12s %12s\n", "span",
                  "calls", "total_ms", "self_ms", "self_us/call");
      for (const auto& r : tracer.rollup()) {
        std::printf("  %-36s %9zu %12.3f %12.3f %12.3f\n", r.name.c_str(),
                    r.calls, r.total_us / 1e3, r.self_us / 1e3,
                    r.self_us / static_cast<double>(r.calls));
      }
      // One file per workload, overwritten by its next traced run.
      const std::string path = opt.out_dir + "/trace_" + opt.workload + ".json";
      if (!tracer.write_chrome_trace(path)) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("chrome trace: %s\n", path.c_str());
    }
    std::printf("%s\n", json_line(report).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
