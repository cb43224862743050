// Tests for the search pipeline's robustness layer: graceful degradation
// under injected faults, strict mode, bounded retry, cooperative
// cancellation (deadline and SIGINT), checkpoint/resume byte-identity, and
// the exit-code taxonomy at the API boundary.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
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
#include "common/strings.hpp"
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

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST_F(SearchFaultsTest, CheckpointWriterPersistsOnlyNewWorkAtItsCadence) {
  // Cadence persists append the new records to <path>.journal and rewrite
  // no file; flush() compacts the set into the sorted file and removes the
  // journal.
  TempFile cp("codesign_cp_cadence.txt");
  TempFile journal("codesign_cp_cadence.txt.journal");
  const CheckpointShapeEntry a{1.0, 2.0, 1.0, 3.0, 0.0, true};
  {
    CheckpointWriter w(cp.path(), "fp-test", 3);
    w.record_shape("a", a);
    w.record_mlp(4096, {0.5, 1.0, 2.0});
    EXPECT_EQ(w.persists(), 0u);
    EXPECT_FALSE(file_exists(journal.path()));
    w.record_skip("b", {1, "boom"});  // the third new record
    EXPECT_EQ(w.persists(), 1u);
    EXPECT_FALSE(file_exists(cp.path()));  // appended, not compacted
    EXPECT_EQ(SearchCheckpoint::load(cp.path()).size(), 3u);

    // Re-recording an identical payload is not new work: nothing is
    // appended, however often it repeats.
    const std::string journaled = slurp(journal.path());
    for (int i = 0; i < 3; ++i) w.record_shape("a", a);
    EXPECT_EQ(w.persists(), 1u);
    EXPECT_EQ(slurp(journal.path()), journaled);

    // New work (a changed payload counts) appends only its own lines.
    w.record_shape("a", {1.5, 2.0, 1.0, 3.0, 0.0, true});
    w.record_shape("c", a);
    w.record_mlp(8192, {0.5, 1.0, 2.0});
    EXPECT_EQ(w.persists(), 2u);
    const std::string grown = slurp(journal.path());
    ASSERT_EQ(grown.compare(0, journaled.size(), journaled), 0);
    EXPECT_EQ(std::count(grown.begin() + static_cast<std::ptrdiff_t>(
                                             journaled.size()),
                         grown.end(), '\n'),
              3);
    EXPECT_EQ(SearchCheckpoint::load(cp.path()).shape("a")->layer_time, 1.5);

    // flush() compacts once; a second flush has nothing to write.
    w.flush();
    w.flush();
    EXPECT_EQ(w.persists(), 3u);
    EXPECT_FALSE(file_exists(journal.path()));
    EXPECT_EQ(SearchCheckpoint::load(cp.path()).size(), 5u);

    // After compaction an identical re-record is still no work (the file
    // is removed to prove nothing rewrites it).
    std::remove(cp.path().c_str());
    w.record_shape("c", a);
    w.flush();
    EXPECT_EQ(w.persists(), 3u);
    EXPECT_FALSE(file_exists(cp.path()));
  }
  EXPECT_FALSE(file_exists(cp.path()));  // the destructor found nothing

  // A writer that recorded nothing still leaves a loadable file behind.
  { CheckpointWriter w(cp.path(), "fp-test", 3); }
  EXPECT_EQ(SearchCheckpoint::load(cp.path()).size(), 0u);

  // Seeded entries are new to this writer's files: one flush carries them
  // over, a second has nothing to add...
  {
    CheckpointWriter w(cp.path(), "fp-test", 3);
    w.record_shape("a", a);
  }
  const SearchCheckpoint seed = SearchCheckpoint::load(cp.path());
  TempFile other("codesign_cp_cadence_other.txt");
  {
    CheckpointWriter w(other.path(), "fp-test", 3);
    w.seed_from(seed);
    w.flush();
    w.flush();
    EXPECT_EQ(w.persists(), 1u);
  }
  EXPECT_EQ(slurp(other.path()), slurp(cp.path()));

  // ...and the journal's first append carries them too, so the journal
  // alone is the checkpoint.
  TempFile third("codesign_cp_cadence_third.txt");
  TempFile third_journal("codesign_cp_cadence_third.txt.journal");
  CheckpointWriter w(third.path(), "fp-test", 1);
  w.seed_from(seed);
  w.record_shape("z", a);
  EXPECT_TRUE(file_exists(third_journal.path()));
  const SearchCheckpoint from_journal = SearchCheckpoint::load(third.path());
  EXPECT_EQ(from_journal.size(), 2u);
  EXPECT_NE(from_journal.shape("a"), nullptr);
  EXPECT_NE(from_journal.shape("z"), nullptr);
}

TEST_F(SearchFaultsTest, JournalWritesEachRecordOnceBeforeCompaction) {
  // The bytes a run writes to its journal grow linearly with its length:
  // every persist only appends (each snapshot of the journal is a prefix
  // of the next), and the final journal holds the header once and each
  // record exactly once — so it is all that was written. Counted, not
  // timed.
  const CheckpointShapeEntry e{1.0, 2.0, 1.0, 3.0, 0.0, true};
  const auto journal_of_run = [&](std::size_t n) {
    TempFile cp("codesign_cp_linear.txt");
    TempFile journal("codesign_cp_linear.txt.journal");
    CheckpointWriter w(cp.path(), "fp-test", 8);
    std::string before;
    for (std::size_t i = 0; i < n; ++i) {
      // Descending keys: a sorted rewrite would not keep the prefix.
      w.record_shape(str_format("c%zu", 2000 - i), e);
      if ((i + 1) % 8 != 0) continue;
      const std::string now = slurp(journal.path());
      EXPECT_EQ(now.compare(0, before.size(), before), 0) << "record " << i;
      before = now;
    }
    EXPECT_EQ(w.persists(), n / 8);
    EXPECT_FALSE(file_exists(cp.path()));
    return before;
  };
  const std::string header = "codesign-checkpoint\tv1\nF\tfp-test\n";
  std::size_t previous = 0;
  for (const std::size_t n : {64u, 128u, 256u}) {
    const std::string bytes = journal_of_run(n);
    ASSERT_EQ(bytes.compare(0, header.size(), header), 0);
    std::set<std::string> keys;
    std::istringstream in(bytes.substr(header.size()));
    std::string line;
    std::size_t records = 0;
    while (std::getline(in, line)) {
      ++records;
      keys.insert(line.substr(0, line.find('\t', 2)));
    }
    EXPECT_EQ(records, n);      // each record once...
    EXPECT_EQ(keys.size(), n);  // ...and no key twice
    if (previous > 0) {
      EXPECT_EQ(bytes.size() - header.size(), 2 * previous);
    }
    previous = bytes.size() - header.size();
  }
}

TEST_F(SearchFaultsTest, KilledRunResumesFromItsJournalByteIdentically) {
  // A forked child records past two cadences (4 records each) and dies at
  // its 11th evaluation without flushing: the :exit failpoint _Exits, so
  // no destructor compacts. Its journal alone resumes the search into the
  // results and the final checkpoint bytes of an uninterrupted run.
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  const auto s = sim();
  const std::string fp =
      shape_search_fingerprint(SearchMode::kJoint, base, s, 0.1, 0);
  const auto run = [&](const std::string& path,
                       const SearchCheckpoint* resume) {
    CheckpointWriter writer(path, fp, 4);
    SearchOptions options;
    options.checkpoint = &writer;
    options.resume = resume;
    return run_shape_search(SearchMode::kJoint, base, s, 0.1, 0, options);
  };
  TempFile ref("codesign_cp_kill_ref.txt");
  const SearchOutcome reference = run(ref.path(), nullptr);
  ASSERT_GT(reference.evaluated, 11u);

  TempFile cp("codesign_cp_kill.txt");
  TempFile journal("codesign_cp_kill.txt.journal");
  EXPECT_EXIT(
      {
        fail::configure("advisor.search.evaluate=once:11:exit");
        (void)run(cp.path(), nullptr);
        std::exit(0);
      },
      ::testing::ExitedWithCode(137), "");
  EXPECT_FALSE(file_exists(cp.path()));
  ASSERT_TRUE(file_exists(journal.path()));
  const SearchCheckpoint killed = SearchCheckpoint::load(cp.path());
  EXPECT_EQ(killed.size(), 8u);  // records 9 and 10 were never persisted
  EXPECT_EQ(killed.torn_records(), 0u);

  const SearchOutcome resumed = run(cp.path(), &killed);
  EXPECT_EQ(resumed.resumed, 8u);
  EXPECT_EQ(resumed.ranked, reference.ranked);
  EXPECT_EQ(slurp(cp.path()), slurp(ref.path()));
  EXPECT_FALSE(file_exists(journal.path()));
}

TEST_F(SearchFaultsTest, CompactionFaultsLeaveEveryPersistedRecordLoadable) {
  // With this writer's journal on disk, compaction retires the old sorted
  // file, renames the new one onto the free name, then removes the
  // journal. A fault at either step leaves the journal, which alone holds
  // every persisted record; the next flush completes the compaction.
  TempFile cp("codesign_cp_compact_fault.txt");
  TempFile journal("codesign_cp_compact_fault.txt.journal");
  const CheckpointShapeEntry e{1.0, 2.0, 1.0, 3.0, 0.0, true};
  CheckpointWriter w(cp.path(), "fp-test", 1);
  w.record_shape("a", e);
  w.flush();  // an old sorted file for the next compaction to retire
  w.record_shape("b", e);  // creates the journal: a, b
  w.record_shape("c", e);  // appends c
  ASSERT_TRUE(file_exists(cp.path()));
  const auto expect_every_record = [&] {
    const SearchCheckpoint loaded = SearchCheckpoint::load(cp.path());
    EXPECT_EQ(loaded.size(), 3u);
    for (const char* key : {"a", "b", "c"}) {
      EXPECT_NE(loaded.shape(key), nullptr) << key;
    }
  };

  fail::configure("advisor.checkpoint.compact=once:1:fatal");
  EXPECT_THROW(w.flush(), fail::InjectedFault);
  EXPECT_FALSE(file_exists(cp.path()));  // retired before the rename
  EXPECT_TRUE(file_exists(journal.path()));
  expect_every_record();

  fail::configure("advisor.checkpoint.journal_remove=once:1:fatal");
  EXPECT_THROW(w.flush(), fail::InjectedFault);
  EXPECT_TRUE(file_exists(cp.path()));
  EXPECT_TRUE(file_exists(journal.path()));
  expect_every_record();

  fail::clear();
  w.flush();
  EXPECT_FALSE(file_exists(journal.path()));
  expect_every_record();
  EXPECT_EQ(w.persists(), 5u);  // failed compactions are not persists
}

TEST_F(SearchFaultsTest, WriterWithoutAJournalKeepsItsResumeSourceToTheRename) {
  // A resumed run with fewer new records than the cadence never writes a
  // journal: its old sorted file is the resume source, so compaction
  // replaces it by rename, and a fault before that rename leaves it whole.
  TempFile cp("codesign_cp_no_journal.txt");
  TempFile journal("codesign_cp_no_journal.txt.journal");
  const CheckpointShapeEntry e{1.0, 2.0, 1.0, 3.0, 0.0, true};
  {
    CheckpointWriter w(cp.path(), "fp-test", 8);
    w.record_shape("a", e);
  }
  const std::string source = slurp(cp.path());
  const SearchCheckpoint resume = SearchCheckpoint::load(cp.path());
  CheckpointWriter w(cp.path(), "fp-test", 8);
  w.seed_from(resume);
  w.record_shape("b", e);
  ASSERT_FALSE(file_exists(journal.path()));

  fail::configure("advisor.checkpoint.compact=once:1:fatal");
  EXPECT_THROW(w.flush(), fail::InjectedFault);
  EXPECT_EQ(slurp(cp.path()), source);
  EXPECT_EQ(SearchCheckpoint::load(cp.path()).size(), 1u);

  // Nor has a writer whose journal could not be created.
  TempFile blocker("codesign_cp_no_journal.txt.journal.tmp");
  ASSERT_EQ(::mkdir(blocker.path().c_str(), 0700), 0);
  CheckpointWriter unjournaled(cp.path(), "fp-test", 1);
  unjournaled.seed_from(resume);
  EXPECT_THROW(unjournaled.record_shape("b", e), Error);
  ASSERT_FALSE(file_exists(journal.path()));
  fail::configure("advisor.checkpoint.compact=once:1:fatal");
  EXPECT_THROW(unjournaled.flush(), fail::InjectedFault);
  EXPECT_EQ(slurp(cp.path()), source);

  fail::clear();
  w.flush();
  EXPECT_EQ(SearchCheckpoint::load(cp.path()).size(), 2u);
  EXPECT_FALSE(file_exists(journal.path()));
}

TEST_F(SearchFaultsTest, FlushOntoADirectoryFailsAtTheRenameAndKeepsIt) {
  // An empty directory at the checkpoint path survives either compaction
  // order: unlink() refuses it (std::remove would delete it), and the
  // rename reports the failure.
  TempFile dir("codesign_cp_dir");
  TempFile journal("codesign_cp_dir.journal");
  TempFile tmp("codesign_cp_dir.tmp");
  const CheckpointShapeEntry e{1.0, 2.0, 1.0, 3.0, 0.0, true};
  for (const std::size_t cadence : {1u, 8u}) {  // with and without journal
    SCOPED_TRACE("cadence " + std::to_string(cadence));
    ASSERT_EQ(::mkdir(dir.path().c_str(), 0700), 0);
    {
      CheckpointWriter w(dir.path(), "fp-test", cadence);
      w.record_shape("a", e);
      EXPECT_EQ(file_exists(journal.path()), cadence == 1);
      try {
        w.flush();
        ADD_FAILURE() << "flush onto a directory succeeded";
      } catch (const Error& err) {
        EXPECT_NE(std::string(err.what()).find("cannot rename"),
                  std::string::npos)
            << err.what();
      }
    }
    struct stat st {};
    ASSERT_EQ(::stat(dir.path().c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    ASSERT_EQ(::rmdir(dir.path().c_str()), 0);
    std::remove(journal.path().c_str());
  }
}

TEST_F(SearchFaultsTest, TruncatedJournalLoadsAPrefixOrThrowsAtEveryOffset) {
  // A kill can stop an append at any byte. Cut a 3-record journal at every
  // offset: the load either keeps the complete records (dropping and
  // counting a torn last line) or, without a complete header line, throws
  // ConfigError. It never crashes and never keeps a partial record.
  TempFile cp("codesign_cp_trunc.txt");
  TempFile journal("codesign_cp_trunc.txt.journal");
  const CheckpointShapeEntry shape{1.25e-3, 312.0, 1.0675, 2.65e9, -0.031,
                                   true};
  const CheckpointMlpEntry mlp{3.5e-4, 298.5, 2.6875};
  std::string bytes;
  {
    CheckpointWriter w(cp.path(), "fp-test", 1);  // every record appends
    w.record_shape("cand-a", shape);
    w.record_mlp(11008, mlp);
    w.record_skip("cand-b", {3, "injected fault"});
    bytes = slurp(journal.path());
  }
  ASSERT_EQ(std::count(bytes.begin(), bytes.end(), '\n'), 5);
  std::remove(cp.path().c_str());  // leave only the journal to load

  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    SCOPED_TRACE("journal cut at byte " + std::to_string(len));
    const std::string prefix = bytes.substr(0, len);
    {
      std::ofstream f(journal.path(), std::ios::trunc);
      f << prefix;
    }
    const auto lines =
        static_cast<std::size_t>(std::count(prefix.begin(), prefix.end(), '\n'));
    try {
      const SearchCheckpoint loaded = SearchCheckpoint::load(cp.path());
      EXPECT_EQ(loaded.size(), lines > 2 ? lines - 2 : 0);
      EXPECT_LE(loaded.size(), 3u);
      EXPECT_EQ(loaded.torn_records(),
                prefix.empty() || prefix.back() == '\n' ? 0u : 1u);
      if (const CheckpointShapeEntry* e = loaded.shape("cand-a")) {
        EXPECT_EQ(e->layer_time, shape.layer_time);
        EXPECT_EQ(e->param_delta_frac, shape.param_delta_frac);
        EXPECT_TRUE(e->rules_pass);
      }
      if (const CheckpointMlpEntry* e = loaded.mlp(11008)) {
        EXPECT_EQ(e->coefficient, mlp.coefficient);
      }
      if (const CheckpointSkipEntry* e = loaded.skip("cand-b")) {
        EXPECT_EQ(e->attempts, 3);
        EXPECT_EQ(e->reason, "injected fault");
      }
    } catch (const ConfigError&) {
      EXPECT_EQ(lines, 0u);
    }
  }
}

TEST_F(SearchFaultsTest, JournalWithAWrongFingerprintIsRejected) {
  // The journal carries its own fingerprint, and while it exists it is the
  // checkpoint: another search's journal is refused even next to a sorted
  // file of the right search.
  TempFile cp("codesign_cp_journal_fp.txt");
  TempFile journal("codesign_cp_journal_fp.txt.journal");
  const tfm::TransformerConfig base = model_by_name("gpt3-2.7b");
  const std::string fp =
      shape_search_fingerprint(SearchMode::kJoint, base, sim(), 0.1, 0);
  const CheckpointShapeEntry e{1.0, 2.0, 1.0, 3.0, 0.0, true};
  {
    CheckpointWriter w(cp.path(), fp, 1);
    w.record_shape("a", e);
  }
  CheckpointWriter other(cp.path(), "other-fingerprint", 1);
  other.record_shape("b", e);
  ASSERT_TRUE(file_exists(journal.path()));
  const SearchCheckpoint loaded = SearchCheckpoint::load(cp.path());
  EXPECT_EQ(loaded.fingerprint(), "other-fingerprint");

  TempFile out("codesign_cp_journal_fp_out.txt");
  CheckpointWriter w(out.path(), fp, 1);
  EXPECT_THROW(w.seed_from(loaded), ConfigError);
  SearchOptions options;
  options.resume = &loaded;
  EXPECT_THROW(run_shape_search(SearchMode::kJoint, base, sim(), 0.1, 0,
                                options),
               ConfigError);
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
