// Tests for common/thread_pool.hpp — the fixed-size worker pool behind the
// parallel design-space searches, including the determinism contract:
// an N-thread search reproduces the 1-thread output exactly.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "advisor/search.hpp"
#include "common/error.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++counts[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ZeroThreadsResolvesToHardware) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExplicitGrainCoversTail) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(10);
  pool.parallel_for(10, [&](std::size_t i) { ++counts[i]; }, /*grain=*/4);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, PropagatesTheFirstExceptionAndFastFails) {
  // One worker drains the chunk queue in submission order, which makes the
  // fast-fail cutoff exact: every index before the throwing one ran, and
  // none after it (their chunks observe the failed flag and skip).
  ThreadPool pool(1);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(
          100,
          [&](std::size_t i) {
            if (i == 37) throw Error("boom at 37");
            ++completed;
          },
          /*grain=*/1),
      Error);
  EXPECT_EQ(completed.load(), 37);
}

TEST(ThreadPool, FastFailNeverRunsMoreThanTheNonThrowingIndices) {
  // Concurrent version: how many chunks start before the flag is observed
  // is scheduling-dependent, but the failing index's own chunk must not
  // count and the call still reports the first error.
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(
          100,
          [&](std::size_t i) {
            if (i == 0) throw Error("boom at 0");
            ++completed;
          },
          /*grain=*/1),
      Error);
  EXPECT_LE(completed.load(), 99);
}

TEST(ThreadPool, UsableAfterAnException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8, [](std::size_t) { throw Error("always"); }), Error);
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

// --- the determinism contract on a real search ---------------------------

advisor::SearchOptions with_threads(std::size_t threads) {
  advisor::SearchOptions opt;
  opt.threads = threads;
  return opt;
}

TEST(ThreadPool, SearchHeadsIdenticalAt1And8Threads) {
  const auto base = tfm::model_by_name("pythia-160m");
  const auto sim = gemm::GemmSimulator::for_gpu("a100");
  const auto seq = advisor::search_heads(base, sim, with_threads(1));
  const auto par = advisor::search_heads(base, sim, with_threads(8));
  ASSERT_FALSE(seq.empty());
  EXPECT_EQ(seq, par);  // field-exact, every double included
}

TEST(ThreadPool, SearchJointIdenticalAt1And8ThreadsAndWithCache) {
  const auto base = tfm::model_by_name("pythia-160m");
  const auto plain = gemm::GemmSimulator::for_gpu("a100");
  gemm::GemmSimulator cached = plain;
  cached.enable_cache();

  const auto reference = advisor::search_joint(base, plain, 0.1, 0,
                                               with_threads(1));
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference,
            advisor::search_joint(base, plain, 0.1, 0, with_threads(8)));
  EXPECT_EQ(reference,
            advisor::search_joint(base, cached, 0.1, 0, with_threads(8)));
  // Warm cache, again: hits must reproduce the same bits.
  EXPECT_EQ(reference,
            advisor::search_joint(base, cached, 0.1, 0, with_threads(8)));
  EXPECT_GT(cached.cache()->stats().hits, 0u);
}

TEST(ThreadPool, MlpScanIdenticalAt1And8Threads) {
  const auto base = tfm::model_by_name("pythia-160m");
  const auto sim = gemm::GemmSimulator::for_gpu("a100");
  const auto seq =
      advisor::search_mlp_intermediate(base, sim, 3000, 3200, with_threads(1));
  const auto par =
      advisor::search_mlp_intermediate(base, sim, 3000, 3200, with_threads(8));
  ASSERT_FALSE(seq.empty());
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace codesign
