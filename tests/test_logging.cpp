// Tests for the leveled logger: CODESIGN_LOG parsing (including the
// one-time warning on an unrecognized value), level filtering, and
// thread-safety of concurrent logging / lazy initialization.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/strings.hpp"

namespace codesign {
namespace {

/// Restores the log level (and its lazy-init state) around each test, and
/// scrubs CODESIGN_LOG so tests don't inherit the harness environment.
class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("CODESIGN_LOG");
    reset_log_level_for_testing();
  }
  void TearDown() override {
    ::unsetenv("CODESIGN_LOG");
    reset_log_level_for_testing();
  }
};

TEST_F(LoggingTest, ParseLogLevelAcceptsKnownNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  // Case and surrounding whitespace are forgiven.
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("  Warn \t"), LogLevel::kWarn);
}

TEST_F(LoggingTest, ParseLogLevelRejectsUnknownNames) {
  EXPECT_EQ(parse_log_level(""), std::nullopt);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level("infoo"), std::nullopt);
  EXPECT_EQ(parse_log_level("2"), std::nullopt);
}

TEST_F(LoggingTest, DefaultsToInfoWithoutEnv) {
  EXPECT_EQ(log_level(), LogLevel::kInfo);
}

TEST_F(LoggingTest, ReadsLevelFromEnvironment) {
  ::setenv("CODESIGN_LOG", "error", 1);
  reset_log_level_for_testing();
  EXPECT_EQ(log_level(), LogLevel::kError);

  ::setenv("CODESIGN_LOG", "debug", 1);
  reset_log_level_for_testing();
  EXPECT_EQ(log_level(), LogLevel::kDebug);
}

TEST_F(LoggingTest, UnknownEnvValueWarnsOnceAndFallsBackToInfo) {
  ::setenv("CODESIGN_LOG", "bogus", 1);
  reset_log_level_for_testing();

  ::testing::internal::CaptureStderr();
  const LogLevel first = log_level();
  const LogLevel second = log_level();  // cached: must not warn again
  const std::string err = ::testing::internal::GetCapturedStderr();

  EXPECT_EQ(first, LogLevel::kInfo);
  EXPECT_EQ(second, LogLevel::kInfo);
  EXPECT_NE(err.find("unknown CODESIGN_LOG value 'bogus'"), std::string::npos);
  EXPECT_NE(err.find("using info"), std::string::npos);
  // Exactly one warning line.
  EXPECT_EQ(err.find("unknown CODESIGN_LOG"),
            err.rfind("unknown CODESIGN_LOG"));
}

TEST_F(LoggingTest, SetLogLevelSuppressesEnvAndWarning) {
  ::setenv("CODESIGN_LOG", "bogus", 1);
  reset_log_level_for_testing();
  set_log_level(LogLevel::kError);

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(log_level(), LogLevel::kError);
  log_message(LogLevel::kWarn, "dropped");
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(LoggingTest, MessagesBelowLevelAreDropped) {
  set_log_level(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  log_message(LogLevel::kDebug, "quiet");
  log_message(LogLevel::kInfo, "quiet");
  log_message(LogLevel::kWarn, "loud warn");
  log_message(LogLevel::kError, "loud error");
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("quiet"), std::string::npos);
  EXPECT_NE(err.find("[WARN] loud warn\n"), std::string::npos);
  EXPECT_NE(err.find("[ERROR] loud error\n"), std::string::npos);
}

TEST_F(LoggingTest, LogLineStreamsToStderr) {
  set_log_level(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  LOG_INFO << "x = " << 42;
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[INFO] x = 42\n"), std::string::npos);
}

// Exercised under CODESIGN_SANITIZE=thread by tools/check.sh: concurrent
// lazy initialization of the level plus concurrent emission must be clean.
TEST_F(LoggingTest, ConcurrentLoggingAndInitIsSafe) {
  ::setenv("CODESIGN_LOG", "bogus", 1);
  reset_log_level_for_testing();

  ::testing::internal::CaptureStderr();
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        log_message(LogLevel::kInfo, str_format("t%d i%d", t, i));
        (void)log_level();
      }
    });
  }
  for (auto& w : workers) w.join();
  const std::string err = ::testing::internal::GetCapturedStderr();

  // The init race resolved to exactly one warning, and every line arrived
  // whole (the io mutex kept fprintf calls from interleaving).
  EXPECT_EQ(err.find("unknown CODESIGN_LOG"),
            err.rfind("unknown CODESIGN_LOG"));
  std::size_t lines = 0;
  for (char c : err) lines += (c == '\n');
  EXPECT_EQ(lines, static_cast<std::size_t>(kThreads * 50 + 1));
}

}  // namespace
}  // namespace codesign
