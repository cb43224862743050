// Tests for the search pipeline's robustness layer: graceful degradation
// under injected faults, strict mode, bounded retry, cooperative
// cancellation (deadline and SIGINT), checkpoint/resume byte-identity, and
// the exit-code taxonomy at the API boundary.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "advisor/checkpoint.hpp"
#include "advisor/search.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::advisor {
namespace {

using tfm::model_by_name;

gemm::GemmSimulator sim() { return gemm::GemmSimulator::for_gpu("a100"); }

/// Failpoints are process-global: every test starts and ends disarmed.
class SearchFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::clear();
    SigintGuard::reset();
  }
  void TearDown() override { fail::clear(); }
};

/// Names of a sweep's skipped candidates, in report (= generation) order.
template <typename Outcome>
std::vector<std::string> skipped_names(const Outcome& o) {
  std::vector<std::string> out;
  out.reserve(o.skipped.size());
  for (const SkippedCandidate& s : o.skipped) out.push_back(s.config.name);
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// A temp path that cleans up after the test.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Graceful degradation

TEST_F(SearchFaultsTest, FaultFreeSweepReportsFullCoverage) {
  const SearchOutcome o = run_shape_search(SearchMode::kJoint,
                                           model_by_name("gpt3-2.7b"), sim());
  EXPECT_GT(o.total_candidates, 0u);
  EXPECT_EQ(o.evaluated, o.total_candidates);
  EXPECT_TRUE(o.skipped.empty());
  EXPECT_EQ(o.unreached(), 0u);
  EXPECT_FALSE(o.truncated);
  EXPECT_EQ(o.cancel_reason, CancelReason::kNone);
  // And the ranked list matches the legacy entry point exactly.
  EXPECT_EQ(o.ranked, search_joint(model_by_name("gpt3-2.7b"), sim()));
}

TEST_F(SearchFaultsTest, InjectedFaultsBecomeTypedSkipsNotAborts) {
  fail::configure("advisor.search.evaluate=prob:0.1:42:fatal");
  const SearchOutcome o = run_shape_search(SearchMode::kJoint,
                                           model_by_name("gpt3-2.7b"), sim());
  ASSERT_FALSE(o.skipped.empty());
  EXPECT_EQ(o.evaluated + o.skipped.size(), o.total_candidates);
  EXPECT_FALSE(o.truncated);
  for (const SkippedCandidate& s : o.skipped) {
    EXPECT_NE(s.reason.find("advisor.search.evaluate"), std::string::npos);
    EXPECT_EQ(s.attempts, 1);  // fatal faults are never retried
    // The skipped config must not appear in the ranking.
    for (const ShapeCandidate& c : o.ranked) {
      EXPECT_NE(c.config.name, s.config.name);
    }
  }
}

TEST_F(SearchFaultsTest, SkippedSetIsByteIdenticalAcrossThreadCounts) {
  // The acceptance criterion: a 5% failpoint sweep at --threads 1 and
  // --threads 8 produces identical rankings AND identical skip reports.
  const auto run = [](std::size_t threads) {
    fail::clear();
    fail::configure("advisor.search.evaluate=prob:0.05:42");
    SearchOptions options;
    options.threads = threads;
    return run_shape_search(SearchMode::kJoint, model_by_name("gpt3-2.7b"),
                            sim(), 0.1, 0, options);
  };
  const SearchOutcome a = run(1);
  const SearchOutcome b = run(8);
  ASSERT_FALSE(a.skipped.empty());
  EXPECT_EQ(a.ranked, b.ranked);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.backoff_units, b.backoff_units);
}

TEST_F(SearchFaultsTest, StrictModeRestoresTheRethrow) {
  fail::configure("advisor.search.evaluate=prob:0.05:42:fatal");
  SearchOptions options;
  options.faults.strict = true;
  EXPECT_THROW(run_shape_search(SearchMode::kJoint, model_by_name("gpt3-2.7b"),
                                sim(), 0.1, 0, options),
               fail::InjectedFault);
  // Parallel strict sweeps propagate too (via the pool's first_error).
  options.threads = 4;
  EXPECT_THROW(run_shape_search(SearchMode::kJoint, model_by_name("gpt3-2.7b"),
                                sim(), 0.1, 0, options),
               fail::InjectedFault);
}

TEST_F(SearchFaultsTest, FaultsInTheSimulatorLayerAreIsolatedToo) {
  // Inject below the search layer — kernel selection — to prove the whole
  // evaluation stack is covered by per-candidate isolation.
  fail::configure("gemmsim.select_kernel=prob:0.05:7:fatal");
  const SearchOutcome o = run_shape_search(SearchMode::kJoint,
                                           model_by_name("gpt3-2.7b"), sim());
  EXPECT_EQ(o.evaluated + o.skipped.size(), o.total_candidates);
  ASSERT_FALSE(o.skipped.empty());
  EXPECT_NE(o.skipped.front().reason.find("gemmsim.select_kernel"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Bounded retry

TEST_F(SearchFaultsTest, TransientFaultRecoversWithinTheRetryBudget) {
  // once:1 fires on the first hit only: the retry must succeed, leaving a
  // complete ranking and a nonzero retry count.
  fail::configure("advisor.search.evaluate=once:1:transient");
  SearchOptions options;  // default budget: 2 retries
  const SearchOutcome o = run_shape_search(
      SearchMode::kHeads, model_by_name("gpt3-2.7b"), sim(), 0.1, 0, options);
  EXPECT_TRUE(o.skipped.empty());
  EXPECT_EQ(o.evaluated, o.total_candidates);
  EXPECT_EQ(o.retries, 1u);
  EXPECT_EQ(o.backoff_units, 1u);  // 2^0 for the single first-attempt retry
}

TEST_F(SearchFaultsTest, RetryExhaustionSkipsWithAttemptAccounting) {
  // A probability fault keyed on the candidate token re-fires on every
  // retry, so the budget must run dry and the skip record the attempts.
  fail::configure("advisor.search.evaluate=prob:0.05:42:transient");
  SearchOptions options;
  options.faults.max_retries = 3;
  const SearchOutcome o = run_shape_search(
      SearchMode::kJoint, model_by_name("gpt3-2.7b"), sim(), 0.1, 0, options);
  ASSERT_FALSE(o.skipped.empty());
  for (const SkippedCandidate& s : o.skipped) {
    EXPECT_EQ(s.attempts, 4);  // 1 initial + 3 retries
  }
  EXPECT_EQ(o.retries, 3 * o.skipped.size());
  // Deterministic backoff accounting: each skip burned 2^0 + 2^1 + 2^2.
  EXPECT_EQ(o.backoff_units, 7 * o.skipped.size());
}

TEST_F(SearchFaultsTest, FatalFaultsAreNeverRetried) {
  fail::configure("advisor.search.evaluate=prob:0.05:42:fatal");
  SearchOptions options;
  options.faults.max_retries = 5;
  const SearchOutcome o = run_shape_search(
      SearchMode::kJoint, model_by_name("gpt3-2.7b"), sim(), 0.1, 0, options);
  ASSERT_FALSE(o.skipped.empty());
  EXPECT_EQ(o.retries, 0u);
  for (const SkippedCandidate& s : o.skipped) EXPECT_EQ(s.attempts, 1);
}

// ---------------------------------------------------------------------------
// Cancellation

TEST_F(SearchFaultsTest, PreCancelledTokenTruncatesImmediately) {
  CancelToken cancel;
  cancel.cancel(CancelReason::kUser);  // the SIGINT-equivalent trip
  SearchOptions options;
  options.cancel = &cancel;
  const SearchOutcome o = run_shape_search(
      SearchMode::kJoint, model_by_name("gpt3-2.7b"), sim(), 0.1, 0, options);
  EXPECT_TRUE(o.truncated);
  EXPECT_EQ(o.cancel_reason, CancelReason::kUser);
  EXPECT_EQ(o.evaluated, 0u);
  EXPECT_EQ(o.unreached(), o.total_candidates);
  EXPECT_TRUE(o.ranked.empty());  // partial = empty here, but never silent
}

TEST_F(SearchFaultsTest, ExpiredDeadlineTruncatesMidSweep) {
  CancelToken cancel;
  cancel.deadline_after(std::chrono::milliseconds(0));  // already expired
  SearchOptions options;
  options.cancel = &cancel;
  const SearchOutcome o = run_shape_search(
      SearchMode::kJoint, model_by_name("gpt3-2.7b"), sim(), 0.1, 0, options);
  EXPECT_TRUE(o.truncated);
  EXPECT_EQ(o.cancel_reason, CancelReason::kDeadline);
  EXPECT_GT(o.unreached(), 0u);
}

TEST_F(SearchFaultsTest, SigintLinkedTokenObservesTheRaisedSignal) {
  SigintGuard guard;
  CancelToken cancel;
  cancel.link_to_sigint();
  EXPECT_FALSE(cancel.cancelled());
  ASSERT_EQ(std::raise(SIGINT), 0);  // the real delivery path, to ourselves
  EXPECT_TRUE(SigintGuard::interrupted());
  EXPECT_TRUE(cancel.cancelled());
  EXPECT_EQ(cancel.reason(), CancelReason::kUser);

  SearchOptions options;
  options.cancel = &cancel;
  const SearchOutcome o = run_shape_search(
      SearchMode::kJoint, model_by_name("gpt3-2.7b"), sim(), 0.1, 0, options);
  EXPECT_TRUE(o.truncated);
  EXPECT_EQ(o.cancel_reason, CancelReason::kUser);
}

TEST_F(SearchFaultsTest, SigintWakesTheRegisteredFd) {
  // A poll loop (the serve loop under watch_sigint) registers a pipe's
  // write end; ^C must make the read end readable with one byte, so the
  // loop wakes without a tick.
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK), 0);
  SigintGuard guard;
  SigintGuard::set_wake_fd(fds[1]);
  pollfd pfd{fds[0], POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "readable before the signal";
  ASSERT_EQ(std::raise(SIGINT), 0);
  SigintGuard::set_wake_fd(-1);
  EXPECT_TRUE(SigintGuard::interrupted());
  EXPECT_EQ(::poll(&pfd, 1, 0), 1);
  char buf[8];
  EXPECT_EQ(::read(fds[0], buf, sizeof(buf)), 1);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(SearchFaultsTest, DeadlineExpiryRacingSigintDrainsOnce) {
  // Both trip sources fire before the sweep starts: an already-expired
  // deadline and a delivered SIGINT. The token must latch exactly one
  // reason (first poll wins, later trips are no-ops) and the sweep must
  // drain through a single truncation path — one banner's worth of
  // accounting, evaluated + unreached == total, no double-counting.
  SigintGuard guard;
  CancelToken cancel;
  cancel.link_to_sigint();
  cancel.deadline_after(std::chrono::milliseconds(0));  // expired at poll
  ASSERT_EQ(std::raise(SIGINT), 0);
  EXPECT_TRUE(SigintGuard::interrupted());

  EXPECT_TRUE(cancel.cancelled());
  const CancelReason first = cancel.reason();
  EXPECT_NE(first, CancelReason::kNone);
  // Whichever source won the race, the latched reason never flips.
  EXPECT_TRUE(cancel.cancelled());
  EXPECT_EQ(cancel.reason(), first);

  SearchOptions options;
  options.cancel = &cancel;
  const SearchOutcome o = run_shape_search(
      SearchMode::kJoint, model_by_name("gpt3-2.7b"), sim(), 0.1, 0, options);
  EXPECT_TRUE(o.truncated);
  EXPECT_EQ(o.cancel_reason, first);
  EXPECT_EQ(o.evaluated + o.unreached(), o.total_candidates);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

TEST_F(SearchFaultsTest, CheckpointRoundTripsBitExactly) {
  TempFile cp("codesign_cp_roundtrip.txt");
  {
    CheckpointWriter w(cp.path(), "fp-test", 1);
    w.record_shape("cand-a", {1.25e-3, 312.0, 1.0675, 2.65e9, -0.031, true});
    w.record_mlp(11008, {3.5e-4, 298.5, 2.6875});
    w.record_skip("cand-b", {3, "injected fault at failpoint 'x' (fatal)"});
  }
  const SearchCheckpoint cp1 = SearchCheckpoint::load(cp.path());
  EXPECT_EQ(cp1.fingerprint(), "fp-test");
  ASSERT_NE(cp1.shape("cand-a"), nullptr);
  EXPECT_EQ(cp1.shape("cand-a")->layer_time, 1.25e-3);  // bit-exact
  EXPECT_EQ(cp1.shape("cand-a")->param_delta_frac, -0.031);
  EXPECT_TRUE(cp1.shape("cand-a")->rules_pass);
  ASSERT_NE(cp1.mlp(11008), nullptr);
  EXPECT_EQ(cp1.mlp(11008)->coefficient, 2.6875);
  ASSERT_NE(cp1.skip("cand-b"), nullptr);
  EXPECT_EQ(cp1.skip("cand-b")->attempts, 3);
  EXPECT_EQ(cp1.shape("missing"), nullptr);

  // Rewriting the same set produces the same bytes (sorted, hexfloat).
  const std::string first = slurp(cp.path());
  {
    CheckpointWriter w(cp.path(), "fp-test", 1);
    w.seed_from(cp1);
    w.flush();
  }
  EXPECT_EQ(slurp(cp.path()), first);
}

TEST_F(SearchFaultsTest, CheckpointFileBytesArePinned) {
  // The exact file layout: sorted C, then M, then S records; hexfloat
  // payloads; tabs and newlines in keys and reasons collapsed to spaces.
  TempFile cp("codesign_cp_bytes.txt");
  {
    CheckpointWriter w(cp.path(), "fp-test");
    w.record_skip("cand\tb", {3, "bad\nthing"});
    w.record_mlp(11008, {0.5, 0.75, 2.6875});
    w.record_shape("cand-z", {1.0, 2.0, 1.0, 4.0, 0.0, false});
    w.record_shape("cand-a", {0.5, 312.0, 1.0, 2.0, -0.25, true});
  }
  EXPECT_EQ(slurp(cp.path()),
            "codesign-checkpoint\tv1\n"
            "F\tfp-test\n"
            "C\tcand-a\t0x1p-1\t0x1.38p+8\t0x1p+0\t0x1p+1\t-0x1p-2\t1\n"
            "C\tcand-z\t0x1p+0\t0x1p+1\t0x1p+0\t0x1p+2\t0x0p+0\t0\n"
            "M\t11008\t0x1p-1\t0x1.8p-1\t0x1.58p+1\n"
            "S\tcand b\t3\tbad thing\n");
}

TEST_F(SearchFaultsTest, CheckpointWriterPersistsOnlyNewWorkAtItsCadence) {
  TempFile cp("codesign_cp_cadence.txt");
  const auto exists = [&] { return std::ifstream(cp.path()).good(); };
  const CheckpointShapeEntry a{1.0, 2.0, 1.0, 3.0, 0.0, true};
  {
    CheckpointWriter w(cp.path(), "fp-test", 3);
    w.record_shape("a", a);
    w.record_mlp(4096, {0.5, 1.0, 2.0});
    EXPECT_EQ(w.persists(), 0u);
    EXPECT_FALSE(exists());
    w.record_skip("b", {1, "boom"});  // the third new record
    EXPECT_EQ(w.persists(), 1u);
    EXPECT_EQ(SearchCheckpoint::load(cp.path()).size(), 3u);

    // Re-recording an identical payload is not new work: the flush is a
    // no-op (the file is removed to prove nothing rewrites it).
    std::remove(cp.path().c_str());
    w.record_shape("a", a);
    w.flush();
    EXPECT_EQ(w.persists(), 1u);
    EXPECT_FALSE(exists());

    // A changed payload is: it persists on the next flush, once.
    w.record_shape("a", {1.5, 2.0, 1.0, 3.0, 0.0, true});
    w.flush();
    w.flush();
    EXPECT_EQ(w.persists(), 2u);
    EXPECT_EQ(SearchCheckpoint::load(cp.path()).shape("a")->layer_time, 1.5);
    std::remove(cp.path().c_str());
  }
  EXPECT_FALSE(exists());  // the destructor found nothing to write

  // A writer that recorded nothing still leaves a loadable file behind.
  { CheckpointWriter w(cp.path(), "fp-test", 3); }
  EXPECT_EQ(SearchCheckpoint::load(cp.path()).size(), 0u);

  // Seeded entries are new to this writer's file: one flush carries them
  // over, a second has nothing to add.
  {
    CheckpointWriter w(cp.path(), "fp-test", 3);
    w.record_shape("a", a);
  }
  TempFile other("codesign_cp_cadence_other.txt");
  CheckpointWriter w(other.path(), "fp-test", 3);
  w.seed_from(SearchCheckpoint::load(cp.path()));
  w.flush();
  w.flush();
  EXPECT_EQ(w.persists(), 1u);
  EXPECT_EQ(slurp(other.path()), slurp(cp.path()));
}

TEST_F(SearchFaultsTest, LoadRejectsGarbageAndWrongFingerprints) {
  TempFile cp("codesign_cp_garbage.txt");
  EXPECT_THROW(SearchCheckpoint::load(cp.path()), ConfigError);  // missing
  {
    std::ofstream f(cp.path());
    f << "not a checkpoint\n";
  }
  EXPECT_THROW(SearchCheckpoint::load(cp.path()), ConfigError);
  {
    std::ofstream f(cp.path());
    f << "codesign-checkpoint\tv1\nF\tother-fingerprint\n";
  }
  const SearchCheckpoint other = SearchCheckpoint::load(cp.path());
  CheckpointWriter w(cp.path(), "this-fingerprint", 1);
  EXPECT_THROW(w.seed_from(other), ConfigError);

  SearchOptions options;
  options.resume = &other;
  EXPECT_THROW(run_shape_search(SearchMode::kJoint, model_by_name("gpt3-2.7b"),
                                sim(), 0.1, 0, options),
               ConfigError);
}

TEST_F(SearchFaultsTest, InterruptedThenResumedSweepIsByteIdentical) {
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  const auto s = sim();
  const std::string fp =
      shape_search_fingerprint(SearchMode::kJoint, base, s, 0.1, 0);

  // The uninterrupted reference run.
  const SearchOutcome reference =
      run_shape_search(SearchMode::kJoint, base, s);

  // Run 1: killed mid-sweep by an already-expired deadline. The truncated
  // sweep must still flush a loadable checkpoint.
  TempFile cp("codesign_cp_resume.txt");
  {
    CancelToken cancel;
    cancel.deadline_after(std::chrono::milliseconds(0));
    CheckpointWriter writer(cp.path(), fp, 1);
    SearchOptions options;
    options.cancel = &cancel;
    options.checkpoint = &writer;
    const SearchOutcome partial =
        run_shape_search(SearchMode::kJoint, base, s, 0.1, 0, options);
    EXPECT_TRUE(partial.truncated);
    EXPECT_LT(partial.evaluated, reference.evaluated);
    EXPECT_NO_THROW(SearchCheckpoint::load(cp.path()));
  }

  // Simulate a kill that landed mid-sweep: checkpoint the complete run,
  // then drop every other completed-candidate record from the file. The
  // survivors exercise the resume prefill; the dropped half re-evaluates.
  {
    CheckpointWriter writer(cp.path(), fp, 1);
    SearchOptions options;
    options.checkpoint = &writer;
    (void)run_shape_search(SearchMode::kJoint, base, s, 0.1, 0, options);
  }
  {
    std::istringstream in(slurp(cp.path()));
    std::ofstream out(cp.path(), std::ios::trunc);
    std::string line;
    int nth_record = 0;
    while (std::getline(in, line)) {
      if (line.rfind("C\t", 0) == 0 && ++nth_record % 2 == 0) continue;
      out << line << '\n';
    }
  }
  const std::size_t kept = SearchCheckpoint::load(cp.path()).size();
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, reference.evaluated);

  // Run 2: resume from the pruned file. Must complete and match the
  // reference field-for-field (ShapeCandidate equality is bit-exact
  // doubles, so a resumed slot is indistinguishable from a fresh one).
  const SearchCheckpoint resumed = SearchCheckpoint::load(cp.path());
  CheckpointWriter writer(cp.path(), fp, 1);
  SearchOptions options;
  options.checkpoint = &writer;
  options.resume = &resumed;
  const SearchOutcome final_run =
      run_shape_search(SearchMode::kJoint, base, s, 0.1, 0, options);
  EXPECT_FALSE(final_run.truncated);
  EXPECT_EQ(final_run.resumed, kept);
  EXPECT_EQ(final_run.evaluated, reference.evaluated);
  EXPECT_EQ(final_run.ranked, reference.ranked);
  EXPECT_TRUE(final_run.skipped.empty());
}

TEST_F(SearchFaultsTest, ResumeIsByteIdenticalUnderThreadsAndFaults) {
  // Resume + parallelism + injected faults together: the resumed multi-
  // thread sweep must reproduce the uninterrupted single-thread outcome,
  // skips included.
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  const auto s = sim();
  const std::string fp =
      shape_search_fingerprint(SearchMode::kJoint, base, s, 0.1, 0);
  const char* kSpec = "advisor.search.evaluate=prob:0.05:42:fatal";

  fail::configure(kSpec);
  const SearchOutcome reference =
      run_shape_search(SearchMode::kJoint, base, s);
  ASSERT_FALSE(reference.skipped.empty());

  TempFile cp("codesign_cp_resume_mt.txt");
  {
    fail::clear();
    fail::configure(kSpec);
    CancelToken cancel;
    cancel.deadline_after(std::chrono::milliseconds(0));
    CheckpointWriter writer(cp.path(), fp, 1);
    SearchOptions options;
    options.cancel = &cancel;
    options.checkpoint = &writer;
    (void)run_shape_search(SearchMode::kJoint, base, s, 0.1, 0, options);
  }

  fail::clear();
  fail::configure(kSpec);
  const SearchCheckpoint resumed = SearchCheckpoint::load(cp.path());
  SearchOptions options;
  options.threads = 8;
  options.resume = &resumed;
  const SearchOutcome final_run =
      run_shape_search(SearchMode::kJoint, base, s, 0.1, 0, options);
  EXPECT_EQ(final_run.ranked, reference.ranked);
  EXPECT_EQ(skipped_names(final_run), skipped_names(reference));
}

TEST_F(SearchFaultsTest, MlpScanSupportsTheSameRobustnessSurface) {
  const tfm::TransformerConfig base = model_by_name("llama2-7b");
  const auto s = sim();
  const std::int64_t lo = 10752, hi = 11264;

  const MlpSearchOutcome reference = run_mlp_search(base, s, lo, hi);
  EXPECT_EQ(reference.evaluated, reference.total_candidates);
  EXPECT_EQ(reference.ranked, search_mlp_intermediate(base, s, lo, hi));

  // Faulted + threaded: deterministic skips keyed by "dff:<n>".
  fail::configure("advisor.search.evaluate=prob:0.05:42:fatal");
  const auto faulted = [&](std::size_t threads) {
    SearchOptions options;
    options.threads = threads;
    return run_mlp_search(base, s, lo, hi, options);
  };
  const MlpSearchOutcome f1 = faulted(1);
  const MlpSearchOutcome f8 = faulted(8);
  EXPECT_EQ(f1.ranked, f8.ranked);
  EXPECT_EQ(f1.skipped, f8.skipped);
  fail::clear();

  // Checkpoint/resume round-trip.
  TempFile cp("codesign_cp_mlp.txt");
  const std::string fp = mlp_search_fingerprint(base, s, lo, hi);
  {
    CancelToken cancel;
    cancel.deadline_after(std::chrono::milliseconds(0));
    CheckpointWriter writer(cp.path(), fp, 1);
    SearchOptions options;
    options.cancel = &cancel;
    options.checkpoint = &writer;
    const MlpSearchOutcome partial =
        run_mlp_search(base, s, lo, hi, options);
    EXPECT_TRUE(partial.truncated);
  }
  const SearchCheckpoint resumed = SearchCheckpoint::load(cp.path());
  SearchOptions options;
  options.resume = &resumed;
  const MlpSearchOutcome final_run = run_mlp_search(base, s, lo, hi, options);
  EXPECT_EQ(final_run.ranked, reference.ranked);
}

// ---------------------------------------------------------------------------
// Exit-code taxonomy (the CLI boundary contract)

int code_for(void (*thrower)()) {
  try {
    thrower();
  } catch (...) {
    return exit_code_for_current_exception();
  }
  return -1;
}

TEST_F(SearchFaultsTest, EveryErrorSubclassMapsToItsExitCode) {
  EXPECT_EQ(code_for([] { throw ConfigError("c"); }), kExitConfig);
  EXPECT_EQ(code_for([] { throw ShapeError("s"); }), kExitShape);
  EXPECT_EQ(code_for([] { throw LookupError("l"); }), kExitLookup);
  EXPECT_EQ(code_for([] { throw CancelledError("x"); }), kExitCancelled);
  EXPECT_EQ(code_for([] { throw IoError("bind: address in use"); }), kExitIo);
  EXPECT_EQ(code_for([] { throw fail::InjectedFault("f", true); }),
            kExitError);  // plain Error subclass without its own code
  EXPECT_EQ(code_for([] { throw Error("e"); }), kExitError);
  EXPECT_EQ(code_for([] { throw std::runtime_error("r"); }), kExitInternal);
  EXPECT_EQ(code_for([] { throw 42; }), kExitInternal);
  // Outside any catch block the helper reports internal, not UB.
  EXPECT_EQ(exit_code_for_current_exception(), kExitInternal);
}

}  // namespace
}  // namespace codesign::advisor
