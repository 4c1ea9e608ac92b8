/**
 * @file
 * Subprocess wrapper tests: stdout capture, exit-status reporting
 * (including death-by-signal and exec failure), read timeouts, EINTR
 * reporting under the no-SA_RESTART shutdown handlers, and the
 * destructor's leak-proof reaping.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <string>
#include <thread>

#include <pthread.h>
#include <sys/types.h>

#include "base/shutdown.hh"
#include "base/subprocess.hh"

namespace
{

using statsched::base::Subprocess;
using ReadStatus = Subprocess::ReadStatus;

/** Reads until `n` bytes arrived or a non-Data status shows up. */
std::string
readExactly(Subprocess &process, std::size_t n)
{
    std::string data;
    char buffer[4096];
    while (data.size() < n) {
        const auto result =
            process.read(buffer, sizeof buffer, 2000);
        if (result.status != ReadStatus::Data)
            break;
        data.append(buffer, result.bytes);
    }
    return data;
}

TEST(Subprocess, EchoRoundTripAndCleanExit)
{
    Subprocess process;
    std::string error;
    const std::string message = "hello across the pipe";
    ASSERT_TRUE(process.spawn({"echo", message}, error)) << error;
    EXPECT_GT(process.pid(), 0);

    EXPECT_EQ(readExactly(process, message.size() + 1),
              message + "\n");

    // echo exits after writing; its stdout then reports Eof.
    char buffer[64];
    Subprocess::ReadResult result;
    do {
        result = process.read(buffer, sizeof buffer, 2000);
    } while (result.status == ReadStatus::Data);
    EXPECT_EQ(result.status, ReadStatus::Eof);
    EXPECT_EQ(process.wait(), 0);
    EXPECT_FALSE(process.running());
}

TEST(Subprocess, StdinReadsEndOfFile)
{
    // The child's stdin is /dev/null: cat sees EOF at once, writes
    // nothing and exits cleanly instead of waiting on a terminal.
    Subprocess process;
    std::string error;
    ASSERT_TRUE(process.spawn({"cat"}, error)) << error;
    char buffer[16];
    const auto result = process.read(buffer, sizeof buffer, 10000);
    EXPECT_EQ(result.status, ReadStatus::Eof);
    EXPECT_EQ(process.wait(), 0);
}

TEST(Subprocess, ExitCodeIsReported)
{
    Subprocess process;
    std::string error;
    ASSERT_TRUE(process.spawn({"sh", "-c", "exit 7"}, error))
        << error;
    EXPECT_EQ(process.wait(), 7);
    // wait() is idempotent.
    EXPECT_EQ(process.wait(), 7);
}

TEST(Subprocess, KillReportsDeathBySignal)
{
    Subprocess process;
    std::string error;
    ASSERT_TRUE(process.spawn({"sleep", "30"}, error)) << error;
    process.kill();
    EXPECT_EQ(process.wait(), 128 + SIGKILL);
}

TEST(Subprocess, ExecFailureReportsShellConvention127)
{
    Subprocess process;
    std::string error;
    // fork/exec pattern: the spawn succeeds, the exec fails in the
    // child, which exits 127 (the shell's command-not-found code).
    ASSERT_TRUE(process.spawn(
        {"statsched-no-such-binary-exists"}, error));
    char buffer[16];
    Subprocess::ReadResult result;
    do {
        result = process.read(buffer, sizeof buffer, 2000);
    } while (result.status == ReadStatus::Data);
    EXPECT_EQ(result.status, ReadStatus::Eof);
    EXPECT_EQ(process.wait(), 127);
}

TEST(Subprocess, SpawnRejectsEmptyArgvAndDoubleSpawn)
{
    Subprocess process;
    std::string error;
    EXPECT_FALSE(process.spawn({}, error));
    EXPECT_FALSE(error.empty());

    ASSERT_TRUE(process.spawn({"sleep", "30"}, error)) << error;
    EXPECT_FALSE(process.spawn({"cat"}, error));
    process.kill();
    process.wait();
}

TEST(Subprocess, ReadTimesOutOnASilentChild)
{
    Subprocess process;
    std::string error;
    ASSERT_TRUE(process.spawn({"sleep", "30"}, error)) << error;
    char buffer[16];
    const auto result = process.read(buffer, sizeof buffer, 50);
    EXPECT_EQ(result.status, ReadStatus::Timeout);
    EXPECT_TRUE(process.running());
    process.kill();
    EXPECT_EQ(process.wait(), 128 + SIGKILL);
}

TEST(Subprocess, ReadReportsInterruptedWhenAShutdownSignalLands)
{
    // The whole point of installing the handlers without SA_RESTART:
    // a blocking read on a silent child observes Ctrl-C as an
    // Interrupted result instead of sleeping through it.
    statsched::base::resetShutdown();
    statsched::base::installShutdownHandlers();

    Subprocess process;
    std::string error;
    ASSERT_TRUE(process.spawn({"sleep", "30"}, error)) << error;

    const pthread_t reader = pthread_self();
    std::thread interrupter([reader] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        pthread_kill(reader, SIGINT);
    });
    char buffer[16];
    const auto result = process.read(buffer, sizeof buffer, 10000);
    interrupter.join();

    EXPECT_EQ(result.status, ReadStatus::Interrupted);
    EXPECT_TRUE(statsched::base::shutdownRequested());
    statsched::base::resetShutdown();
    process.kill();
    process.wait();
}

TEST(Subprocess, DestructorKillsAndReapsARunningChild)
{
    pid_t pid = -1;
    {
        Subprocess process;
        std::string error;
        ASSERT_TRUE(process.spawn({"sleep", "30"}, error)) << error;
        pid = process.pid();
        ASSERT_GT(pid, 0);
    }
    // The child is gone — killed AND reaped (a zombie would still
    // answer signal 0).
    errno = 0;
    EXPECT_EQ(::kill(pid, 0), -1);
    EXPECT_EQ(errno, ESRCH);
}

TEST(Subprocess, MoveTransfersOwnership)
{
    Subprocess a;
    std::string error;
    ASSERT_TRUE(a.spawn({"echo", "moved"}, error)) << error;
    const pid_t pid = a.pid();

    Subprocess b(std::move(a));
    EXPECT_FALSE(a.running());
    EXPECT_TRUE(b.running());
    EXPECT_EQ(b.pid(), pid);

    EXPECT_EQ(readExactly(b, 6), "moved\n");
    EXPECT_EQ(b.wait(), 0);
}

} // anonymous namespace
