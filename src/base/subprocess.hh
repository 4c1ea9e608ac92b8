/**
 * @file
 * The sanctioned child-process wrapper.
 *
 * Subprocess owns the raw POSIX process plumbing — fork/execvp, the
 * stdout pipe, polled reads, signals and waitpid — behind an
 * interface the rest of the tree can use without touching those calls
 * directly. The statsched-no-raw-process lint
 * rule enforces the boundary: this header is the only place outside
 * NOLINT suppressions where the raw calls may appear, so process
 * lifecycle bugs (leaked fds, unreaped zombies, missed EINTR) have
 * exactly one home.
 *
 * EINTR discipline (the reason src/base/shutdown.hh installs its
 * handlers without SA_RESTART): read() returns ReadStatus::Interrupted
 * when a signal lands mid-wait instead of silently retrying, so a
 * caller blocked on a silent child observes Ctrl-C deterministically
 * and can re-check base::shutdownRequested() before waiting again.
 *
 * The wrapper is header-only because src/base is a header-only
 * library; everything here is thin glue over the syscalls.
 */

#ifndef STATSCHED_BASE_SUBPROCESS_HH
#define STATSCHED_BASE_SUBPROCESS_HH

#include <cerrno>
#include <csignal>
#include <cstddef>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace statsched
{
namespace base
{

/**
 * One spawned child process with its stdout on a pipe, its stdin on
 * /dev/null and its stderr inherited (so diagnostics reach the
 * operator's terminal). Movable, not copyable; the destructor
 * SIGKILLs and reaps anything still running so a parent can never
 * leak children.
 */
class Subprocess
{
  public:
    /** How a read() attempt ended. */
    enum class ReadStatus
    {
        Data,        //!< bytes were read (see ReadResult::bytes)
        Eof,         //!< child closed its stdout (usually: it died)
        Timeout,     //!< no bytes within the allotted wait
        Interrupted, //!< a signal landed (EINTR); caller re-checks
                     //!< shutdown state and decides whether to retry
        Error,       //!< unrecoverable pipe error
    };

    struct ReadResult
    {
        ReadStatus status = ReadStatus::Error;
        std::size_t bytes = 0;
    };

    Subprocess() = default;
    Subprocess(const Subprocess &) = delete;
    Subprocess &operator=(const Subprocess &) = delete;

    Subprocess(Subprocess &&other) noexcept { moveFrom(other); }

    Subprocess &
    operator=(Subprocess &&other) noexcept
    {
        if (this != &other) {
            kill();
            wait();
            moveFrom(other);
        }
        return *this;
    }

    ~Subprocess()
    {
        kill();
        wait();
    }

    /**
     * Forks and execs `argv` (argv[0] resolved through PATH) with
     * this object's pipe as the child's stdout.
     *
     * @param argv  Program and arguments; must be non-empty.
     * @param error Receives a description on failure.
     * @return true when the child is running.
     */
    bool
    spawn(const std::vector<std::string> &argv, std::string &error)
    {
        if (running()) {
            error = "subprocess already running";
            return false;
        }
        if (argv.empty()) {
            error = "empty argv";
            return false;
        }
        int fromChild[2] = {-1, -1};
        if (::pipe(fromChild) != 0) {
            error = "pipe() failed";
            return false;
        }
        // The parent's read end must not leak into children spawned
        // later.
        ::fcntl(fromChild[0], F_SETFD, FD_CLOEXEC);

        std::vector<char *> cargv;
        cargv.reserve(argv.size() + 1);
        for (const std::string &arg : argv)
            cargv.push_back(const_cast<char *>(arg.c_str()));
        cargv.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fromChild[0]);
            ::close(fromChild[1]);
            error = "fork() failed";
            return false;
        }
        if (pid == 0) {
            // Child: stdin from /dev/null, stdout into the pipe, exec.
            const int devNull = ::open("/dev/null", O_RDONLY);
            if (devNull >= 0) {
                ::dup2(devNull, STDIN_FILENO);
                ::close(devNull);
            }
            ::dup2(fromChild[1], STDOUT_FILENO);
            ::close(fromChild[0]);
            ::close(fromChild[1]);
            ::execvp(cargv[0], cargv.data());
            _exit(127); // exec failed; 127 is the shell convention
        }
        ::close(fromChild[1]);
        pid_ = pid;
        stdoutFd_ = fromChild[0];
        exitStatus_ = -1;
        reaped_ = false;
        return true;
    }

    /** @return true while the child exists and was not reaped. */
    bool running() const { return pid_ > 0 && !reaped_; }

    /** @return the child pid, or -1 when none. */
    pid_t pid() const { return pid_; }

    /**
     * Reads up to `capacity` bytes from the child's stdout, waiting
     * at most `timeoutMs` milliseconds for the first byte.
     *
     * EINTR (from either poll or read) reports Interrupted without
     * retrying — see the file comment.
     */
    ReadResult
    read(void *buffer, std::size_t capacity, int timeoutMs)
    {
        if (stdoutFd_ < 0)
            return {ReadStatus::Error, 0};
        struct pollfd pfd = {};
        pfd.fd = stdoutFd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, timeoutMs);
        if (ready < 0) {
            return {errno == EINTR ? ReadStatus::Interrupted
                                   : ReadStatus::Error,
                    0};
        }
        if (ready == 0)
            return {ReadStatus::Timeout, 0};
        const ssize_t n = ::read(stdoutFd_, buffer, capacity);
        if (n < 0) {
            return {errno == EINTR ? ReadStatus::Interrupted
                                   : ReadStatus::Error,
                    0};
        }
        if (n == 0)
            return {ReadStatus::Eof, 0};
        return {ReadStatus::Data, static_cast<std::size_t>(n)};
    }

    /** SIGKILLs the child (no-op when not running). */
    void
    kill()
    {
        if (running())
            ::kill(pid_, SIGKILL);
    }

    /** Sends `sig` to the child without reaping it — the chaos
     *  harness uses this for SIGTERM injection.
     *  @return false when there is no live child or kill failed. */
    bool
    signalChild(int sig)
    {
        if (!running())
            return false;
        return ::kill(pid_, sig) == 0;
    }

    /**
     * Reaps the child (blocking, EINTR-retried — the child is either
     * dead or dying, so the wait is bounded).
     *
     * @return the exit code; 128 + N for death by signal N; -1 when
     *         nothing was spawned. Idempotent after the first reap.
     */
    int
    wait()
    {
        if (pid_ <= 0)
            return -1;
        if (!reaped_) {
            int status = 0;
            pid_t r;
            do {
                r = ::waitpid(pid_, &status, 0);
            } while (r < 0 && errno == EINTR);
            if (r == pid_) {
                exitStatus_ = WIFEXITED(status)
                    ? WEXITSTATUS(status)
                    : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                          : -1;
            }
            reaped_ = true;
            if (stdoutFd_ >= 0) {
                ::close(stdoutFd_);
                stdoutFd_ = -1;
            }
        }
        return exitStatus_;
    }

  private:
    void
    moveFrom(Subprocess &other)
    {
        pid_ = other.pid_;
        stdoutFd_ = other.stdoutFd_;
        exitStatus_ = other.exitStatus_;
        reaped_ = other.reaped_;
        other.pid_ = -1;
        other.stdoutFd_ = -1;
        other.reaped_ = true;
    }

    pid_t pid_ = -1;
    int stdoutFd_ = -1;
    int exitStatus_ = -1;
    bool reaped_ = true;
};

} // namespace base
} // namespace statsched

#endif // STATSCHED_BASE_SUBPROCESS_HH
