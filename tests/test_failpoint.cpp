// Tests for the deterministic fault-injection subsystem (common/failpoint).
#include "common/failpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace codesign::fail {
namespace {

/// Every test starts and ends disarmed; clear() also zeroes the counters.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override {
    clear();
    EXPECT_FALSE(any_armed());
  }
};

TEST_F(FailpointTest, DisarmedSitesAreFreeAndSilent) {
  EXPECT_FALSE(any_armed());
  // Unarmed (and even unknown) sites are no-ops on the hit path.
  EXPECT_NO_THROW(hit("gemmsim.cache.lookup"));
  EXPECT_NO_THROW(hit("no.such.site", 42));
  EXPECT_EQ(stats("gemmsim.cache.lookup").hits, 0u);
}

TEST_F(FailpointTest, AlwaysFiresOnEveryHit) {
  configure("advisor.search.evaluate=always");
  EXPECT_TRUE(any_armed());
  EXPECT_THROW(hit("advisor.search.evaluate"), InjectedFault);
  EXPECT_THROW(hit("advisor.search.evaluate"), InjectedFault);
  const SiteStats s = stats("advisor.search.evaluate");
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.fires, 2u);
}

TEST_F(FailpointTest, FaultCarriesSiteNameAndTransience) {
  configure("gemmsim.select_kernel=always");
  try {
    hit("gemmsim.select_kernel");
    FAIL() << "armed always-failpoint did not throw";
  } catch (const InjectedFault& e) {
    EXPECT_NE(std::string(e.what()).find("gemmsim.select_kernel"),
              std::string::npos);
    EXPECT_TRUE(e.transient());  // the default classification
  }
  configure("gemmsim.select_kernel=always:fatal");
  try {
    hit("gemmsim.select_kernel");
    FAIL() << "re-armed failpoint did not throw";
  } catch (const InjectedFault& e) {
    EXPECT_FALSE(e.transient());
  }
}

TEST_F(FailpointTest, ExitActionEndsTheProcessAtTheHit) {
  // :exit is a kill at an exact point: the Nth hit ends the process with
  // status 137 and nothing after it runs — no throw, no unwinding.
  EXPECT_EXIT(
      {
        configure("sweep.cell=once:2:exit");
        hit("sweep.cell");
        std::fputs("first hit passed\n", stderr);
        hit("sweep.cell");
        std::fputs("second hit returned\n", stderr);
        std::exit(0);
      },
      ::testing::ExitedWithCode(137), "first hit passed");
  EXPECT_FALSE(any_armed());  // armed only in the child
}

TEST_F(FailpointTest, InjectedFaultIsACodesignError) {
  configure("gemmsim.des.simulate=always");
  // The search layer catches Error subclasses; InjectedFault must be one.
  EXPECT_THROW(hit("gemmsim.des.simulate"), Error);
}

TEST_F(FailpointTest, OnceFiresExactlyOnTheNthHit) {
  configure("advisor.search.evaluate=once:3");
  EXPECT_NO_THROW(hit("advisor.search.evaluate"));
  EXPECT_NO_THROW(hit("advisor.search.evaluate"));
  EXPECT_THROW(hit("advisor.search.evaluate"), InjectedFault);
  EXPECT_NO_THROW(hit("advisor.search.evaluate"));
  EXPECT_EQ(stats("advisor.search.evaluate").fires, 1u);
}

TEST_F(FailpointTest, EveryFiresPeriodically) {
  configure("advisor.search.evaluate=every:2");
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      hit("advisor.search.evaluate");
    } catch (const InjectedFault&) {
      ++fires;
    }
  }
  EXPECT_EQ(fires, 5);
}

TEST_F(FailpointTest, ProbZeroNeverFiresProbOneAlwaysFires) {
  configure("advisor.search.evaluate=prob:0");
  for (std::uint64_t t = 0; t < 100; ++t) {
    EXPECT_NO_THROW(hit("advisor.search.evaluate", t));
  }
  configure("advisor.search.evaluate=prob:1");
  for (std::uint64_t t = 0; t < 100; ++t) {
    EXPECT_THROW(hit("advisor.search.evaluate", t), InjectedFault);
  }
}

TEST_F(FailpointTest, ProbDecisionIsAPureFunctionOfSeedAndToken) {
  const auto fired_set = [](const std::string& spec) {
    clear();
    configure(spec);
    std::set<std::uint64_t> fired;
    for (std::uint64_t t = 0; t < 1000; ++t) {
      try {
        hit("advisor.search.evaluate", t);
      } catch (const InjectedFault&) {
        fired.insert(t);
      }
    }
    return fired;
  };
  const auto a = fired_set("advisor.search.evaluate=prob:0.05:42");
  const auto b = fired_set("advisor.search.evaluate=prob:0.05:42");
  EXPECT_EQ(a, b);  // same seed: identical decisions, any order
  EXPECT_FALSE(a.empty());
  EXPECT_LT(a.size(), 200u);  // ~5%, loose bound
  const auto c = fired_set("advisor.search.evaluate=prob:0.05:43");
  EXPECT_NE(a, c);  // different seed: a different fire set
}

TEST_F(FailpointTest, TokenedProbIsHitOrderIndependent) {
  configure("advisor.search.evaluate=prob:0.5:7");
  std::vector<std::uint64_t> order(64);
  for (std::uint64_t t = 0; t < order.size(); ++t) order[t] = t;
  const auto run = [&] {
    std::set<std::uint64_t> fired;
    for (std::uint64_t t : order) {
      try {
        hit("advisor.search.evaluate", t);
      } catch (const InjectedFault&) {
        fired.insert(t);
      }
    }
    return fired;
  };
  const auto forward = run();
  std::reverse(order.begin(), order.end());
  EXPECT_EQ(run(), forward);
}

TEST_F(FailpointTest, ConcurrentHitsAreTSanCleanAndCounted) {
  configure("advisor.search.evaluate=prob:0.5:11");
  std::atomic<int> fires{0};
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kHitsPerThread = 250;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&fires, w] {
      for (int i = 0; i < kHitsPerThread; ++i) {
        try {
          hit("advisor.search.evaluate",
              static_cast<std::uint64_t>(w * kHitsPerThread + i));
        } catch (const InjectedFault&) {
          fires.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const SiteStats s = stats("advisor.search.evaluate");
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads * kHitsPerThread));
  EXPECT_EQ(s.fires, static_cast<std::uint64_t>(fires.load()));
}

TEST_F(FailpointTest, OffDisarmsAndStatsSurviveRetirement) {
  configure("advisor.search.evaluate=always");
  EXPECT_THROW(hit("advisor.search.evaluate"), InjectedFault);
  configure("advisor.search.evaluate=off");
  EXPECT_FALSE(any_armed());
  EXPECT_NO_THROW(hit("advisor.search.evaluate"));
  // The counters from the armed period are retired, not lost.
  const SiteStats s = stats("advisor.search.evaluate");
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.fires, 1u);
}

TEST_F(FailpointTest, SpecsAccumulateAcrossConfigureCalls) {
  configure("advisor.search.evaluate=always");
  configure("gemmsim.cache.lookup=always");
  EXPECT_THROW(hit("advisor.search.evaluate"), InjectedFault);
  EXPECT_THROW(hit("gemmsim.cache.lookup"), InjectedFault);
  configure("advisor.search.evaluate=off");
  EXPECT_NO_THROW(hit("advisor.search.evaluate"));
  EXPECT_THROW(hit("gemmsim.cache.lookup"), InjectedFault);
}

TEST_F(FailpointTest, CommaSeparatedSpecArmsMultipleSites) {
  configure(
      "advisor.search.evaluate=once:1 , gemmsim.des.simulate=always:fatal");
  EXPECT_THROW(hit("advisor.search.evaluate"), InjectedFault);
  EXPECT_THROW(hit("gemmsim.des.simulate"), InjectedFault);
}

TEST_F(FailpointTest, RegisteredSitesBecomeConfigurable) {
  EXPECT_THROW(configure("tests.custom.site=always"), ConfigError);
  register_site("tests.custom.site");
  const auto sites = known_sites();
  EXPECT_NE(std::find(sites.begin(), sites.end(), "tests.custom.site"),
            sites.end());
  configure("tests.custom.site=always");
  EXPECT_THROW(hit("tests.custom.site"), InjectedFault);
}

TEST_F(FailpointTest, BadSpecsAreTypedConfigErrors) {
  EXPECT_THROW(configure("no.such.site=always"), ConfigError);
  EXPECT_THROW(configure("advisor.search.evaluate"), ConfigError);
  EXPECT_THROW(configure("advisor.search.evaluate="), ConfigError);
  EXPECT_THROW(configure("advisor.search.evaluate=banana"), ConfigError);
  EXPECT_THROW(configure("advisor.search.evaluate=once"), ConfigError);
  EXPECT_THROW(configure("advisor.search.evaluate=once:0"), ConfigError);
  EXPECT_THROW(configure("advisor.search.evaluate=prob:1.5"), ConfigError);
  EXPECT_THROW(configure("advisor.search.evaluate=prob"), ConfigError);
  EXPECT_FALSE(any_armed());  // nothing half-armed by a failed spec
}

TEST_F(FailpointTest, ConfigureFromEnvReadsTheVariable) {
  ::setenv("CODESIGN_FAILPOINTS", "advisor.search.evaluate=always", 1);
  configure_from_env();
  ::unsetenv("CODESIGN_FAILPOINTS");
  EXPECT_THROW(hit("advisor.search.evaluate"), InjectedFault);
}

TEST_F(FailpointTest, StableTokenIsFnv1a) {
  // Pinned values: the token function must stay stable across builds, or
  // recorded failure sets stop reproducing.
  EXPECT_EQ(token(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(token("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(token("gpt3-2.7b-a32-h2560"), token("gpt3-2.7b-a32-h2560"));
  EXPECT_NE(token("gpt3-2.7b-a32-h2560"), token("gpt3-2.7b-a32-h2561"));
}

}  // namespace
}  // namespace codesign::fail
