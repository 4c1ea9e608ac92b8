/**
 * @file
 * Process-wide graceful-shutdown flag.
 *
 * A production campaign must survive operator interruption: SIGINT /
 * SIGTERM set a flag, in-flight measurement batches drain, and the
 * campaign runner emits a final checkpoint and a partial report
 * instead of dying mid-write. The flag lives here, in src/base,
 * because signal disposition is process state: core code never reads
 * it directly — the campaign runner receives it as an injected
 * `stopRequested` callback (see core/campaign.hh), so tests can
 * script interruption deterministically without touching signals.
 *
 * Handlers are installed with sigaction() and deliberately WITHOUT
 * SA_RESTART: a process blocked in a read (say, on a child's pipe
 * through base::Subprocess) must observe Ctrl-C as an EINTR return
 * from the read, not sleep through it until the other end happens to
 * produce bytes. Every blocking syscall in the process therefore has
 * explicit EINTR semantics: base::Subprocess reads report
 * ReadStatus::Interrupted and their callers re-check
 * shutdownRequested() before retrying.
 *
 * Escalation: the FIRST signal of a kind requests the graceful drain.
 * The SECOND signal of the same kind restores the default disposition
 * and re-raises itself, so the process dies immediately with the
 * conventional signal exit status — an operator whose drain is stuck
 * never needs SIGKILL.
 */

#ifndef STATSCHED_BASE_SHUTDOWN_HH
#define STATSCHED_BASE_SHUTDOWN_HH

#include <csignal>

namespace statsched
{
namespace base
{

namespace detail
{
/** The only state a signal handler may touch. */
inline volatile std::sig_atomic_t g_shutdownRequested = 0;
/** Per-kind second-signal escalation state. */
inline volatile std::sig_atomic_t g_sigintSeen = 0;
inline volatile std::sig_atomic_t g_sigtermSeen = 0;

extern "C" inline void
shutdownSignalHandler(int sig)
{
    volatile std::sig_atomic_t &seen =
        sig == SIGINT ? g_sigintSeen : g_sigtermSeen;
    if (seen) {
        // Second request of this kind: the operator wants out NOW.
        // Restore the default disposition and re-raise, so the
        // process reports the conventional killed-by-signal status.
        // std::signal and std::raise are async-signal-safe.
        std::signal(sig, SIG_DFL);
        std::raise(sig);
        return;
    }
    seen = 1;
    g_shutdownRequested = 1;
}
} // namespace detail

/** @return true once a shutdown was requested (signal or manual). */
inline bool
shutdownRequested()
{
    return detail::g_shutdownRequested != 0;
}

/** Requests a shutdown programmatically (tests, embedders). */
inline void
requestShutdown()
{
    detail::g_shutdownRequested = 1;
}

/** Clears the flag and the escalation state (tests re-using one
 *  process). */
inline void
resetShutdown()
{
    detail::g_shutdownRequested = 0;
    detail::g_sigintSeen = 0;
    detail::g_sigtermSeen = 0;
}

/**
 * Routes SIGINT and SIGTERM to the shutdown flag via sigaction(),
 * explicitly WITHOUT SA_RESTART: blocking reads return EINTR when a
 * shutdown signal lands, so a process waiting on a silent pipe
 * reacts to Ctrl-C immediately. Call once from the driver
 * before starting a campaign. The second signal of the same kind
 * hard-exits (see file comment); a mixed pair (SIGINT then SIGTERM)
 * keeps draining until either kind repeats.
 */
inline void
installShutdownHandlers()
{
    struct sigaction action = {};
    action.sa_handler = detail::shutdownSignalHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: reads must see EINTR
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
}

} // namespace base
} // namespace statsched

#endif // STATSCHED_BASE_SHUTDOWN_HH
