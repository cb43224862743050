// Tests for common/cli.hpp — the flag parser every bench binary uses —
// plus the `codesign` binary's rejection of out-of-range flag values.
#include "common/cli.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"

namespace codesign {
namespace {

CliArgs parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, EqualsSyntax) {
  const CliArgs a = parse({"--gpu=a100", "--heads=32"});
  EXPECT_EQ(a.get_string("gpu", ""), "a100");
  EXPECT_EQ(a.get_int("heads", 0), 32);
}

TEST(CliArgs, SpaceSyntax) {
  const CliArgs a = parse({"--gpu", "v100", "--b", "4"});
  EXPECT_EQ(a.get_string("gpu", ""), "v100");
  EXPECT_EQ(a.get_int("b", 0), 4);
}

TEST(CliArgs, BooleanSwitch) {
  const CliArgs a = parse({"--verbose", "--csv"});
  EXPECT_TRUE(a.get_bool("verbose", false));
  EXPECT_TRUE(a.get_bool("csv", false));
  EXPECT_FALSE(a.get_bool("absent", false));
  EXPECT_TRUE(a.get_bool("absent", true));
}

TEST(CliArgs, BoolValues) {
  EXPECT_TRUE(parse({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=on"}).get_bool("x", false));
  EXPECT_FALSE(parse({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).get_bool("x", true));
  EXPECT_THROW(parse({"--x=maybe"}).get_bool("x", true), Error);
}

TEST(CliArgs, Defaults) {
  const CliArgs a = parse({});
  EXPECT_EQ(a.get_string("gpu", "a100"), "a100");
  EXPECT_EQ(a.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(a.get_double("f", 2.5), 2.5);
}

TEST(CliArgs, DoubleValues) {
  EXPECT_DOUBLE_EQ(parse({"--frac=0.25"}).get_double("frac", 0), 0.25);
  EXPECT_THROW(parse({"--frac=abc"}).get_double("frac", 0), Error);
}

TEST(CliArgs, IntList) {
  const CliArgs a = parse({"--heads=8,16,32"});
  const auto v = a.get_int_list("heads", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 8);
  EXPECT_EQ(v[2], 32);
  // Default when the flag is absent.
  const auto d = a.get_int_list("absent", {1, 2});
  ASSERT_EQ(d.size(), 2u);
}

TEST(CliArgs, Positional) {
  const CliArgs a = parse({"first", "--k=v", "second"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "first");
  EXPECT_EQ(a.positional()[1], "second");
}

TEST(CliArgs, Has) {
  const CliArgs a = parse({"--x=1"});
  EXPECT_TRUE(a.has("x"));
  EXPECT_FALSE(a.has("y"));
}

TEST(CliArgs, MalformedFlags) {
  EXPECT_THROW(parse({"--"}), Error);
  EXPECT_THROW(parse({"--name="}), Error);
}

TEST(CliArgs, FlagNames) {
  const CliArgs a = parse({"--b=1", "--a=2"});
  const auto names = a.flag_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // map order: sorted
  EXPECT_EQ(names[1], "b");
}

/// Run the built `codesign` with `args`; returns its exit code and
/// captures stderr (stdout is discarded).
int run_codesign(const std::string& args, std::string* err) {
  const std::string cmd =
      std::string(CODESIGN_CLI_BIN) + " " + args + " 2>&1 >/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[256];
  err->clear();
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) err->append(buf);
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CodesignSearch, MaxBelowOneIsAUsageError) {
  // --max=-1 used to wrap to "unlimited" through the size_t cast, and
  // --max=0 printed an empty table without the promised baseline row.
  std::string err;
  for (const char* max : {"--max=-1", "--max=0"}) {
    EXPECT_EQ(run_codesign(std::string("search gpt3-125m --mode=heads ") + max,
                           &err),
              2)
        << max;
    EXPECT_NE(err.find("--max must be at least 1"), std::string::npos)
        << err;
  }
  EXPECT_EQ(run_codesign("search gpt3-125m --mode=heads --max=1", &err), 0)
      << err;
}

TEST(CodesignCli, BadCommandLinesAreUsageErrors) {
  // Each is rejected before any work starts (serve before it binds).
  std::string err;
  for (const char* args :
       {"search", "advise", "search gpt3-125m --threads=-1",
        "search gpt3-125m --mode=heads --deadline-ms=0",
        "search gpt3-125m --resume", "compare gpt3-125m", "serve --threads=-1",
        "serve --queue=-1", "serve --deadline-ms=0",
        "serve --idle-timeout-ms=-1", "serve --write-timeout-ms=-1",
        "serve --brownout=-1", "serve --tail=-1", "serve --slo-p99-ms=-1"}) {
    EXPECT_EQ(run_codesign(args, &err), 2) << args << ": " << err;
    EXPECT_EQ(err.find("check failed"), std::string::npos) << args << ": "
                                                          << err;
  }
  run_codesign("search", &err);
  EXPECT_NE(err.find("expected a model name"), std::string::npos) << err;
}

TEST(CodesignCli, TheRemovedCacheFlagIsAUsageError) {
  // Only `codesign serve` memoizes estimates now; a leftover --cache must
  // fail loudly instead of being silently ignored.
  std::string err;
  for (const char* args : {"search gpt3-125m --mode=heads --cache",
                           "advise gpt3-125m --cache",
                           "sweep --config=x.conf --cache"}) {
    EXPECT_EQ(run_codesign(args, &err), 2) << args << ": " << err;
    EXPECT_NE(err.find("--cache was removed"), std::string::npos) << err;
  }
}

TEST(CodesignCli, UnwritableOutputFileIsAnIoError) {
  std::string err;
  for (const char* args :
       {"trace gpt3-125m --out=/nonexistent-dir/trace.json",
        "analyze gpt3-125m --out=/nonexistent-dir/report.json",
        "search gpt3-125m --mode=heads --metrics=/nonexistent-dir/m.txt"}) {
    EXPECT_EQ(run_codesign(args, &err), 7) << args << ": " << err;
    EXPECT_NE(err.find("cannot open '/nonexistent-dir/"), std::string::npos)
        << args << ": " << err;
  }
}

TEST(CodesignPlan, GqaKvHeadsMakeATensorDegreeInfeasibleNotAConfigError) {
  // t=8 does not divide kv=4: that layout is listed as infeasible, and the
  // plan still lists every other layout.
  std::string err;
  EXPECT_EQ(run_codesign("plan --custom=h=4096,a=32,L=32,kv=4 --gpus=32", &err),
            0)
      << err;
}

TEST(CodesignSearch, JointSearchOnGqaModelsExitsZero) {
  // Every joint head count keeps kv | a, so no generated candidate is an
  // invalid GQA config.
  std::string err;
  for (const char* model : {"mistral-7b", "llama2-70b"}) {
    EXPECT_EQ(run_codesign(std::string("search ") + model + " --mode=joint",
                           &err),
              0)
        << model << ": " << err;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// The value of the unlabeled series `name` in a --metrics file (-1 when
/// the file does not carry it).
double metric(const std::string& path, const std::string& name) {
  const json::Value doc = json::Value::parse(slurp(path));
  for (const json::Value& s : doc.at("metrics").as_array()) {
    if (s.at("name").as_string() == name && s.at("labels").as_string().empty()) {
      return s.at("value").as_number();
    }
  }
  return -1.0;
}

TEST(CodesignSearch, AttributionRunsOneSensitivityRoundAtAnyThreadCount) {
  const std::string dir = ::testing::TempDir() + "codesign_cli_attr_";
  std::string err;
  for (const char* threads : {"1", "8"}) {
    const std::string t = threads;
    EXPECT_EQ(run_codesign("search gpt3-2.7b --mode=joint --threads=" + t +
                               " --attribution=" + dir + "f" + t +
                               ".json --metrics=" + dir + "m" + t + ".json",
                           &err),
              0)
        << err;
  }
  EXPECT_EQ(slurp(dir + "f1.json"), slurp(dir + "f8.json"));
  EXPECT_EQ(slurp(dir + "m1.json"), slurp(dir + "m8.json"));
  EXPECT_EQ(metric(dir + "m1.json", "advisor.sensitivity.rounds"), 1.0);
  ASSERT_EQ(run_codesign("analyze gpt3-2.7b --out=" + dir + "analyze.json",
                         &err),
            0)
      << err;
  EXPECT_EQ(slurp(dir + "f1.json"), slurp(dir + "analyze.json"));

  // advise probes for its --attribution file, and counts the round too.
  ASSERT_EQ(run_codesign("advise gpt3-2.7b --attribution=" + dir +
                             "advise.json --metrics=" + dir + "advise_m.json",
                         &err),
            0)
      << err;
  EXPECT_EQ(slurp(dir + "advise.json"), slurp(dir + "analyze.json"));
  EXPECT_EQ(metric(dir + "advise_m.json", "advisor.sensitivity.rounds"), 1.0);
  for (const char* f : {"f1.json", "f8.json", "m1.json", "m8.json",
                        "analyze.json", "advise.json", "advise_m.json"}) {
    std::remove((dir + f).c_str());
  }
}

}  // namespace
}  // namespace codesign
