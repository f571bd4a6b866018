/** @file Unit tests for logging, log levels and error paths. */

#include <gtest/gtest.h>

#include "sim/logging.hh"

using namespace mscp;

TEST(Csprintf, FormatsLikePrintf)
{
    EXPECT_EQ(csprintf("x=%d y=%s", 7, "ok"), "x=7 y=ok");
    EXPECT_EQ(csprintf("%05u", 42u), "00042");
    EXPECT_EQ(csprintf("plain"), "plain");
}

TEST(Panic, ThrowsWithLocationAndMessage)
{
    try {
        panic("boom %d", 3);
        FAIL() << "panic returned";
    } catch (const PanicError &e) {
        EXPECT_NE(e.message.find("boom 3"), std::string::npos);
        EXPECT_NE(e.message.find("test_logging.cc"),
                  std::string::npos);
    }
}

TEST(Panic, IsAStdException)
{
    // An uncaught panic/fatal reaches the terminate handler, which
    // prints what(): the message must be there, not just the type.
    try {
        panic("lost %s", "token");
        FAIL() << "panic returned";
    } catch (const std::exception &e) {
        EXPECT_NE(dynamic_cast<const PanicError *>(&e), nullptr);
        EXPECT_EQ(std::string(e.what()).rfind("panic: lost token", 0),
                  0u);
    }
    try {
        fatal("bad config");
        FAIL() << "fatal returned";
    } catch (const std::exception &e) {
        EXPECT_NE(dynamic_cast<const FatalError *>(&e), nullptr);
        EXPECT_EQ(std::string(e.what()).rfind("fatal: bad config", 0),
                  0u);
    }
}

TEST(Fatal, ThrowsFatalError)
{
    EXPECT_THROW(fatal("user error"), FatalError);
}

TEST(PanicIf, FiresOnlyWhenConditionHolds)
{
    EXPECT_NO_THROW(panic_if(false, "no"));
    EXPECT_THROW(panic_if(true, "yes"), PanicError);
    EXPECT_NO_THROW(fatal_if(false, "no"));
    EXPECT_THROW(fatal_if(true, "yes"), FatalError);
}

TEST(LogLevel, ParseAcceptsNamesAndNumbers)
{
    using mscp::LogLevel;
    EXPECT_EQ(parseLogLevel("silent", LogLevel::Info),
              LogLevel::Silent);
    EXPECT_EQ(parseLogLevel("error", LogLevel::Info),
              LogLevel::Silent);
    EXPECT_EQ(parseLogLevel("1", LogLevel::Info), LogLevel::Silent);
    EXPECT_EQ(parseLogLevel("warn", LogLevel::Info), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("warning", LogLevel::Info),
              LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("info", LogLevel::Silent),
              LogLevel::Info);
    EXPECT_EQ(parseLogLevel("debug", LogLevel::Silent),
              LogLevel::Info);
    EXPECT_EQ(parseLogLevel("4", LogLevel::Silent), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("2", LogLevel::Info), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("bogus", LogLevel::Warn),
              LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("", LogLevel::Silent), LogLevel::Silent);
}

TEST(LogLevel, RuntimeSetAndGetRoundTrips)
{
    using mscp::LogLevel;
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    // Suppressed warn/inform must not throw or print; panic/fatal
    // stay fatal at every level.
    warn("suppressed warning %d", 1);
    inform("suppressed inform");
    EXPECT_THROW(panic("still fatal"), PanicError);
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    setLogLevel(before);
    EXPECT_EQ(logLevel(), before);
}
