/**
 * @file
 * statsched_chaos — environment-hostility orchestrator.
 *
 * The robustness claims of the campaign runtime (journal recovery,
 * graceful degradation) are easy to state and easy to silently
 * regress, because none of the unit tests exercise real processes
 * dying at real syscall boundaries. This tool closes that gap: it
 * runs full statsched_cli campaigns as subprocesses, injects one
 * calamity per scenario — SIGKILL mid-campaign, SIGTERM, a disk
 * that fills mid-journal — and asserts what every layer promises: the
 * final stdout report is byte-identical to the undisturbed run, and
 * the exit code tells the truth about how the campaign got there
 * (0/3 clean, 5 interrupted, 7 completed degraded).
 *
 * Scenarios (one per ctest entry, label "chaos"):
 *
 *   disk-full      journal sink fails at a byte offset; degrade
 *                  policy completes bit-identically with exit 7 and a
 *                  "health: journal" line, abort policy exits 2,
 *                  and a resume against the latched journal finishes
 *                  clean.
 *   kill-resume    SIGKILL the campaign mid-run (exit 137), resume
 *                  from the torn journal, same final report.
 *   term-checkpoint
 *                  one SIGTERM to a 48-task campaign (a shape the
 *                  rejection sampler cannot draw) exits 5 within a
 *                  bound and leaves an Aborted checkpoint.
 *   all            every scenario above, in order.
 *
 * Children are spawned through base::Subprocess (via `/bin/sh -c
 * "exec ..."` so stderr can be captured to a file while stdout stays
 * on the pipe for the bit-identity diff).
 *
 * Exit codes: 0 all expectations held, 1 at least one failed,
 * 2 usage error.
 */

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <time.h>

#include "base/cli.hh"
#include "base/io.hh"
#include "base/subprocess.hh"
#include "core/journal.hh"

namespace
{

using namespace statsched;

void
sleepMs(long ms)
{
    struct timespec ts;
    ts.tv_sec = ms / 1000;
    ts.tv_nsec = (ms % 1000) * 1000000L;
    ::nanosleep(&ts, nullptr);
}

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** @return the file's size in bytes, or -1 when it does not exist. */
long
fileSize(const std::string &path)
{
    struct stat st = {};
    if (::stat(path.c_str(), &st) != 0)
        return -1;
    return static_cast<long>(st.st_size);
}

std::string
readWholeFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    base::io::readFileBytes(path, bytes);
    return std::string(bytes.begin(), bytes.end());
}

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

/** Single-quotes `arg` for /bin/sh. */
std::string
shellQuote(const std::string &arg)
{
    std::string quoted = "'";
    for (const char c : arg) {
        if (c == '\'')
            quoted += "'\\''";
        else
            quoted += c;
    }
    quoted += "'";
    return quoted;
}

/**
 * One campaign process. The command is wrapped in `/bin/sh -c
 * "exec ..."` — exec keeps the child's pid equal to the campaign's
 * pid (so signals and /proc ppid scans hit the right process) while
 * the shell redirects stderr to a file the scenarios can grep for
 * health lines. stdout stays on the Subprocess pipe, captured
 * byte-exactly for the identity diffs.
 */
class CliProcess
{
  public:
    bool
    start(const std::vector<std::string> &argv,
          const std::string &stderrPath, std::string &error)
    {
        std::string cmd = "exec";
        for (const std::string &arg : argv) {
            cmd += ' ';
            cmd += shellQuote(arg);
        }
        if (!stderrPath.empty()) {
            cmd += " 2> ";
            cmd += shellQuote(stderrPath);
        }
        return child_.spawn({"/bin/sh", "-c", cmd}, error);
    }

    base::Subprocess &proc() { return child_; }

    /** Drains stdout into `out` until EOF, then reaps.
     *  @return the exit code (128 + N for death by signal N). */
    int
    finish(std::string &out)
    {
        char buffer[4096];
        while (true) {
            const base::Subprocess::ReadResult r =
                child_.read(buffer, sizeof buffer, 1000);
            switch (r.status) {
              case base::Subprocess::ReadStatus::Data:
                out.append(buffer, r.bytes);
                break;
              case base::Subprocess::ReadStatus::Eof:
                return child_.wait();
              case base::Subprocess::ReadStatus::Timeout:
              case base::Subprocess::ReadStatus::Interrupted:
                break; // child still running (or signal); keep going
              case base::Subprocess::ReadStatus::Error:
                return child_.wait();
            }
        }
    }

  private:
    base::Subprocess child_;
};

struct RunResult
{
    int exitCode = -1;
    std::string out;
};

/** Paths and scoreboard shared by every scenario. */
struct Context
{
    std::string cli;
    std::string workdir;
    int failures = 0;

    void
    expect(bool ok, const std::string &what)
    {
        std::fprintf(stderr, "chaos: %s  %s\n", ok ? "ok  " : "FAIL",
                     what.c_str());
        if (!ok)
            ++failures;
    }

    std::string
    path(const std::string &name) const
    {
        return workdir + "/" + name;
    }
};

/** Runs a campaign to completion. */
RunResult
runCli(Context &ctx, const std::vector<std::string> &args,
       const std::string &stderrPath)
{
    std::vector<std::string> argv;
    argv.push_back(ctx.cli);
    argv.insert(argv.end(), args.begin(), args.end());
    CliProcess p;
    std::string error;
    RunResult result;
    if (!p.start(argv, stderrPath, error)) {
        std::fprintf(stderr, "chaos: spawn failed: %s\n",
                     error.c_str());
        return result;
    }
    result.exitCode = p.finish(result.out);
    return result;
}

/** The fast campaign: deterministic, target met (exit 0), one
 *  ninit batch — small enough to run several times per scenario. */
std::vector<std::string>
fastCampaign()
{
    return {"iterate",  "--benchmark", "aho",   "--loss",
            "10",       "--ninit",     "300",   "--ndelta",
            "100",      "--max",       "2000",  "--threads", "2"};
}

/** The long campaign: deterministically runs to its sample cap
 *  (documented exit 3) over a couple of seconds — wide enough a
 *  window for mid-campaign signal injection. */
std::vector<std::string>
longCampaign()
{
    return {"iterate",      "--benchmark", "ipfwd-l1", "--ninit",
            "2000",         "--ndelta",    "500",      "--max",
            "20000",        "--loss",      "0.1",      "--fault-rate",
            "10",           "--threads",   "2"};
}

std::vector<std::string>
withArgs(std::vector<std::string> base,
         const std::vector<std::string> &extra)
{
    base.insert(base.end(), extra.begin(), extra.end());
    return base;
}

// --- scenarios ------------------------------------------------------

/**
 * The journal's medium fills mid-campaign. Degrade policy: the run
 * completes bit-identically, exits 7 and reports the degraded journal
 * on stderr; a later resume against the latched (valid-prefix)
 * journal completes clean. Abort policy: the same fault is fatal,
 * documented exit 2.
 */
void
scenarioDiskFull(Context &ctx)
{
    std::fprintf(stderr, "chaos: --- disk-full ---\n");
    const RunResult baseline =
        runCli(ctx, fastCampaign(), ctx.path("baseline.err"));
    ctx.expect(baseline.exitCode == 0, "baseline campaign exits 0");

    base::io::removeFile(ctx.path("degrade.journal"));
    const RunResult degraded = runCli(
        ctx,
        withArgs(fastCampaign(),
                 {"--journal", ctx.path("degrade.journal"),
                  "--journal-fault-at", "2048", "--journal-on-error",
                  "degrade"}),
        ctx.path("degrade.err"));
    ctx.expect(degraded.exitCode == 7,
               "disk-full under degrade policy exits 7 "
               "(completed degraded)");
    ctx.expect(degraded.out == baseline.out,
               "degraded run's report is byte-identical to the "
               "baseline");
    const std::string degradeErr =
        readWholeFile(ctx.path("degrade.err"));
    ctx.expect(contains(degradeErr, "health: journal"),
               "stderr reports the degraded journal");
    ctx.expect(contains(degradeErr, "DEGRADED"),
               "stderr reports the degraded completion summary");

    const RunResult resumed = runCli(
        ctx,
        withArgs(fastCampaign(),
                 {"--journal", ctx.path("degrade.journal"),
                  "--resume"}),
        ctx.path("resume.err"));
    ctx.expect(resumed.exitCode == 0,
               "resume against the latched journal exits 0");
    ctx.expect(resumed.out == baseline.out,
               "resumed run's report matches the baseline");

    base::io::removeFile(ctx.path("abort.journal"));
    const RunResult aborted = runCli(
        ctx,
        withArgs(fastCampaign(),
                 {"--journal", ctx.path("abort.journal"),
                  "--journal-fault-at", "2048", "--journal-on-error",
                  "abort"}),
        ctx.path("abort.err"));
    ctx.expect(aborted.exitCode == 2,
               "disk-full under abort policy exits 2");
}

/**
 * SIGKILL lands mid-campaign (no warning, no flush — the journal is
 * torn at an arbitrary byte). Resume must replay the durable prefix
 * and finish with the exact report of the undisturbed run.
 */
void
scenarioKillResume(Context &ctx)
{
    std::fprintf(stderr, "chaos: --- kill-resume ---\n");
    base::io::removeFile(ctx.path("full.journal"));
    const RunResult full = runCli(
        ctx,
        withArgs(longCampaign(),
                 {"--journal", ctx.path("full.journal")}),
        ctx.path("full.err"));
    ctx.expect(full.exitCode == 3,
               "uninterrupted long campaign exits 3 (sample cap)");

    base::io::removeFile(ctx.path("torn.journal"));
    CliProcess victim;
    std::string error;
    std::vector<std::string> argv;
    argv.push_back(ctx.cli);
    for (const std::string &arg :
         withArgs(longCampaign(),
                  {"--journal", ctx.path("torn.journal")}))
        argv.push_back(arg);
    if (!victim.start(argv, ctx.path("torn.err"), error)) {
        ctx.expect(false, "spawn victim campaign: " + error);
        return;
    }
    // Kill only once the journal proves the campaign is mid-flight;
    // the budget below is far beyond the campaign's normal runtime,
    // so a miss means the journal never grew — itself a failure.
    const std::int64_t deadline = nowMs() + 30000;
    bool midFlight = false;
    while (nowMs() < deadline) {
        if (fileSize(ctx.path("torn.journal")) >= 16384) {
            midFlight = true;
            break;
        }
        sleepMs(5);
    }
    ctx.expect(midFlight, "journal grew past the kill threshold "
                          "while the campaign ran");
    victim.proc().kill();
    std::string tornOut;
    const int tornExit = victim.finish(tornOut);
    ctx.expect(tornExit == 137,
               "SIGKILLed campaign reports death by signal 9");

    const RunResult resumed = runCli(
        ctx,
        withArgs(longCampaign(),
                 {"--journal", ctx.path("torn.journal"), "--resume"}),
        ctx.path("resumed.err"));
    ctx.expect(resumed.exitCode == 3,
               "resumed campaign exits 3 (sample cap)");
    ctx.expect(resumed.out == full.out,
               "resumed report is byte-identical to the "
               "uninterrupted run");
    ctx.expect(contains(readWholeFile(ctx.path("resumed.err")),
                        "journal: resumed"),
               "stderr confirms measurements were replayed");
}

/**
 * One SIGTERM lands while a 48-task campaign (48 of the T2's 64
 * contexts) is mid-flight. The campaign must drain at its next round
 * boundary, exit 5 within a bound, and leave a journal whose last
 * checkpoint records the abort.
 */
void
scenarioTermCheckpoint(Context &ctx)
{
    std::fprintf(stderr, "chaos: --- term-checkpoint ---\n");
    const std::string journal = ctx.path("term.journal");
    base::io::removeFile(journal);
    std::vector<std::string> argv = {
        ctx.cli,    "iterate", "--benchmark", "ipfwd-l1",
        "--instances", "16",   "--loss",      "0.001",
        "--max",    "200000",  "--threads",   "2",
        "--journal", journal};
    CliProcess victim;
    std::string error;
    if (!victim.start(argv, ctx.path("term.err"), error)) {
        ctx.expect(false, "spawn 48-task campaign: " + error);
        return;
    }
    const std::int64_t deadline = nowMs() + 30000;
    bool midFlight = false;
    while (nowMs() < deadline) {
        if (fileSize(journal) >= 65536) {
            midFlight = true;
            break;
        }
        sleepMs(5);
    }
    ctx.expect(midFlight, "48-task journal grew past the signal "
                          "threshold while the campaign ran");
    const std::int64_t signalled = nowMs();
    ctx.expect(victim.proc().signalChild(SIGTERM),
               "SIGTERM delivered to the campaign");
    std::string out;
    const int exitCode = victim.finish(out);
    ctx.expect(exitCode == 5, "one SIGTERM exits 5 (interrupted)");
    ctx.expect(nowMs() - signalled < 10000,
               "the campaign stopped within 10 s of the signal");

    const core::JournalRecovery recovery = core::recoverJournal(journal);
    ctx.expect(recovery.error.empty() && !recovery.batches.empty(),
               "the interrupted journal recovers with its batches");
    ctx.expect(!recovery.checkpoints.empty() &&
                   recovery.checkpoints.back().kind ==
                       core::CheckpointKind::Aborted,
               "the journal ends with an Aborted checkpoint");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    base::OptionParser args;
    args.addOption("cli", "", "path to the statsched_cli binary");
    args.addOption("workdir", "",
                   "scratch directory for journals and captures");
    args.addOption("scenario", "all",
                   "disk-full | kill-resume | term-checkpoint | "
                   "all");
    if (!args.parse(argc, argv, 1)) {
        std::fprintf(stderr, "statsched_chaos: %s\noptions:\n%s",
                     args.error().c_str(), args.usage().c_str());
        return 2;
    }

    Context ctx;
    ctx.cli = args.get("cli");
    ctx.workdir = args.get("workdir");
    const std::string scenario = args.get("scenario");
    if (ctx.cli.empty() || ctx.workdir.empty()) {
        std::fprintf(stderr, "statsched_chaos: --cli and --workdir "
                             "are required\n");
        return 2;
    }
    if (::mkdir(ctx.workdir.c_str(), 0755) != 0 && errno != EEXIST) {
        std::fprintf(stderr,
                     "statsched_chaos: cannot create workdir '%s'\n",
                     ctx.workdir.c_str());
        return 2;
    }

    bool known = false;
    if (scenario == "disk-full" || scenario == "all") {
        scenarioDiskFull(ctx);
        known = true;
    }
    if (scenario == "kill-resume" || scenario == "all") {
        scenarioKillResume(ctx);
        known = true;
    }
    if (scenario == "term-checkpoint" || scenario == "all") {
        scenarioTermCheckpoint(ctx);
        known = true;
    }
    if (!known) {
        std::fprintf(stderr,
                     "statsched_chaos: unknown scenario '%s'\n",
                     scenario.c_str());
        return 2;
    }

    if (ctx.failures > 0) {
        std::fprintf(stderr, "chaos: %d expectation(s) FAILED\n",
                     ctx.failures);
        return 1;
    }
    std::fprintf(stderr, "chaos: all expectations held\n");
    return 0;
}
