/**
 * @file
 * Campaign benchmark: whole core::runCampaign campaigns over the
 * simulator, timed end to end, and a traced run that splits campaign
 * time across the layers of the engine stack.
 *
 *   campaign_bench --workload paper24|paper6|durable24 --seed N
 *                  --seconds S --trace 0|1
 *                  --golden perfbench/golden.tsv --workdir DIR
 *
 * Untraced (--trace 0): repeats the workload's search until S seconds
 * have passed and reports the end-to-end metrics. Traced (--trace 1):
 * alternates an untraced search with a traced one, checks that both
 * produce bit-identical outcomes, and reports the per-layer split.
 * Every search's outcome is checked against the golden outcome that
 * statsched_cli iterate prints for the same arguments and seed.
 *
 * Layers are measured from outside: the traced stack is assembled
 * from the public classes exactly as runCampaign assembles it, with a
 * pass-through TracingEngine between each pair of layers. The last
 * line of stdout is one JSON object; see perfbench/BENCHMARK.md.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/campaign.hh"
#include "core/fault_injection.hh"
#include "core/journal.hh"
#include "core/memoizing_engine.hh"
#include "core/parallel_engine.hh"
#include "core/resilient_engine.hh"
#include "core/sampler.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"

namespace fs = std::filesystem;
using namespace statsched;

namespace
{

using SteadyClock = std::chrono::steady_clock;

double
secondsBetween(SteadyClock::time_point from, SteadyClock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/**
 * One benchmark workload: a statsched_cli iterate configuration on
 * the 8x2x4 T2 with the paper's Ninit = 1000 and Ndelta = 100.
 * perfbench/make_golden.py holds the same configurations as CLI
 * arguments; golden.tsv is what the CLI prints for them.
 */
struct Workload
{
    const char *name;
    std::uint32_t instances;  //!< ipfwd-l1 instances, 3 tasks each
    unsigned threads;         //!< ParallelEngine threads
    std::size_t maxSample;    //!< measurement cap
    /** Round budget of a first, journaled campaign that a second one
     *  resumes; 0 runs one campaign without a journal. */
    std::size_t firstRounds;
    double transientPercent;  //!< injected transient faults
    double garbagePercent;    //!< injected NaN readings
};

const Workload kWorkloads[] = {
    {"paper24", 8, 1, 12000, 0, 0.0, 0.0},
    {"paper6", 2, 1, 50000, 0, 0.0, 0.0},
    {"durable24", 8, 2, 12000, 56, 5.0, 2.0},
};

/** Below reach, so the cap ends every campaign whose tail fit does
 *  not degrade (see BENCHMARK.md). */
constexpr double kLossPercent = 0.001;
constexpr std::uint32_t kRetries = 3;
constexpr std::uint64_t kFaultSeed = 1024023; // statsched_cli default

bool
hasFaults(const Workload &w)
{
    return w.transientPercent > 0.0 || w.garbagePercent > 0.0;
}

const core::Topology kTopology = core::Topology::ultraSparcT2();

/** Parallel(FaultInjecting?(Simulated)), as statsched_cli builds the
 *  substrate below the campaign runner's journal. */
struct Substrate
{
    std::unique_ptr<sim::SimulatedEngine> simulated;
    std::unique_ptr<core::FaultInjectingEngine> faulty;
    std::unique_ptr<core::ParallelEngine> parallel;

    explicit Substrate(const Workload &w)
    {
        simulated = std::make_unique<sim::SimulatedEngine>(
            sim::makeWorkload(sim::Benchmark::IpfwdL1, w.instances));
        core::PerformanceEngine *below = simulated.get();
        if (hasFaults(w)) {
            core::FaultOptions faults;
            faults.transientRate = w.transientPercent / 100.0;
            faults.garbageRate = w.garbagePercent / 100.0;
            faults.seed = kFaultSeed;
            faulty = std::make_unique<core::FaultInjectingEngine>(
                *below, faults);
            below = faulty.get();
        }
        parallel = std::make_unique<core::ParallelEngine>(*below,
                                                          w.threads);
    }

    std::uint32_t
    tasks() const
    {
        return simulated->workload().taskCount();
    }
};

/** The CampaignOptions statsched_cli iterate builds for `w`. */
core::CampaignOptions
campaignOptions(const Workload &w, const std::string &journal,
                bool resume, std::size_t maxRounds)
{
    core::CampaignOptions options;
    options.iterative.initialSample = 1000;
    options.iterative.incrementSample = 100;
    options.iterative.acceptableLoss = kLossPercent / 100.0;
    options.iterative.maxSample = w.maxSample;
    options.journalPath = journal;
    options.resume = resume;
    options.maxRounds = maxRounds;
    options.memoize = true;
    options.resilient = hasFaults(w);
    options.resilience.maxAttempts = kRetries + 1;
    return options;
}

/** The deterministic outcome of a search. The text fields are
 *  formatted as statsched_cli iterate prints them; `bits`
 *  fingerprints every step of the run for the traced-run guard. */
struct Outcome
{
    std::size_t samples = 0;
    std::size_t iterations = 0;
    std::size_t failed = 0;
    std::string best;
    std::string upb;
    std::string assignment;
    std::uint64_t bits = 0;

    bool
    sameAsCli(const Outcome &o) const
    {
        return samples == o.samples && iterations == o.iterations &&
            failed == o.failed && best == o.best && upb == o.upb &&
            assignment == o.assignment;
    }
};

void
mix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

void
mix(std::uint64_t &h, double v)
{
    mix(h, std::bit_cast<std::uint64_t>(v));
}

Outcome
outcomeOf(const core::IterativeResult &r)
{
    Outcome o;
    o.samples = r.totalSampled;
    o.iterations = r.steps.size();
    o.failed = r.totalFailed;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.0f", r.final.bestObserved);
    o.best = buf;
    std::snprintf(buf, sizeof buf, "%.0f", r.final.pot.upb);
    o.upb = buf;
    if (r.final.bestAssignment)
        o.assignment = r.final.bestAssignment->toString();
    o.bits = 0xcbf29ce484222325ull;
    mix(o.bits, std::uint64_t{r.totalAttempted});
    mix(o.bits, std::uint64_t{r.totalFailed});
    mix(o.bits, std::uint64_t{r.satisfied});
    mix(o.bits, static_cast<std::uint64_t>(r.abortKind));
    for (const core::IterativeStep &s : r.steps) {
        mix(o.bits, std::uint64_t{s.sampleSize});
        mix(o.bits, s.bestObserved);
        mix(o.bits, s.upb);
        mix(o.bits, s.upbUpper);
        mix(o.bits, s.loss);
        mix(o.bits, std::uint64_t{s.attempted});
        mix(o.bits, std::uint64_t{s.failed});
        mix(o.bits, std::uint64_t{s.topUps});
    }
    for (const char c : o.assignment)
        mix(o.bits, std::uint64_t{static_cast<unsigned char>(c)});
    return o;
}

/** Counters of one campaign that the traced stack must reproduce. */
using Counts = std::array<std::uint64_t, 11>;

Counts
countsOf(const core::EngineStats &s, std::uint64_t replayed,
         std::uint64_t recorded)
{
    return {s.measurements, s.batches, s.cacheHits, s.cacheMisses,
            s.failures, s.retries, s.quarantined, s.solves,
            s.solverIterations, replayed, recorded};
}

/** A fresh directory for one search's journal, removed on scope
 *  exit. */
class JournalDir
{
  public:
    explicit JournalDir(const fs::path &workdir)
    {
        static unsigned serial = 0;
        dir_ = workdir /
            ("journal-" + std::to_string(::getpid()) + "-" +
             std::to_string(serial++));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    JournalDir(const JournalDir &) = delete;
    JournalDir &operator=(const JournalDir &) = delete;
    ~JournalDir()
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    std::string journal() const { return (dir_ / "campaign.jnl").string(); }

    /** @return bytes of every journal file in the directory. */
    std::uint64_t
    bytes() const
    {
        std::uint64_t total = 0;
        for (const fs::directory_entry &e : fs::directory_iterator(dir_))
            if (e.is_regular_file())
                total += e.file_size();
        return total;
    }

  private:
    fs::path dir_;
};

// ------------------------------------------------------------------
// Untraced searches
// ------------------------------------------------------------------

struct Campaign
{
    core::CampaignResult result;
    Outcome outcome;
};

/** One search of a workload: one campaign, or for a journaled
 *  workload a campaign stopped on its round budget plus a second that
 *  resumes it from the journal, in one process. */
struct Search
{
    double setupSeconds = 0.0;
    double campaignSeconds = 0.0;
    std::vector<double> roundMs;
    std::uint64_t requested = 0;
    std::uint64_t journalBytes = 0;
    std::vector<Campaign> campaigns;

    const Outcome &outcome() const { return campaigns.back().outcome; }
};

/**
 * Runs one campaign timed from outside: setup is substrate
 * construction plus runCampaign's own set-up up to its first
 * stopRequested probe (journal open, recovery on resume); each round
 * runs from one probe to the next, the last to the CampaignResult.
 */
void
timedCampaign(const Workload &w, std::uint64_t seed,
              const std::string &journal, bool resume,
              std::size_t maxRounds, Search &search)
{
    const SteadyClock::time_point start = SteadyClock::now();
    Substrate substrate(w);
    std::vector<SteadyClock::time_point> probes;
    probes.reserve(w.maxSample / 100 + 16);
    core::CampaignOptions options =
        campaignOptions(w, journal, resume, maxRounds);
    options.stopRequested = [&probes] {
        probes.push_back(SteadyClock::now());
        return false;
    };
    core::CampaignResult result = core::runCampaign(
        *substrate.parallel, kTopology, substrate.tasks(), seed,
        options);
    const SteadyClock::time_point end = SteadyClock::now();
    if (!result.ran || !result.journalError.empty() || probes.empty())
        throw std::runtime_error("campaign failed to run: " +
                                 result.journalError);

    search.setupSeconds += secondsBetween(start, probes.front());
    search.campaignSeconds += secondsBetween(probes.front(), end);
    for (std::size_t i = 0; i < result.search.steps.size(); ++i) {
        const SteadyClock::time_point next =
            i + 1 < probes.size() ? probes[i + 1] : end;
        search.roundMs.push_back(1e3 * secondsBetween(probes[i], next));
    }
    search.requested += result.engineStats.measurements;
    Outcome outcome = outcomeOf(result.search);
    search.campaigns.push_back({std::move(result), std::move(outcome)});
}

/** Throws unless the search ended as the workload says it must: a
 *  journaled first campaign stops on its round budget (or meets the
 *  target before it), and the search's last campaign is not
 *  aborted. */
void
checkShape(const Workload &w, const std::vector<core::AbortKind> &kinds)
{
    const std::size_t expected = w.firstRounds > 0 ? 2 : 1;
    bool ok = kinds.size() == expected &&
        kinds.back() == core::AbortKind::None;
    if (expected == 2)
        ok = ok && (kinds.front() == core::AbortKind::RoundLimit ||
                    kinds.front() == core::AbortKind::None);
    if (!ok)
        throw std::runtime_error("search did not follow the "
                                 "workload's campaign shape");
}

Search
untracedSearch(const Workload &w, std::uint64_t seed,
               const fs::path &workdir)
{
    Search search;
    if (w.firstRounds == 0) {
        timedCampaign(w, seed, "", false, 0, search);
    } else {
        JournalDir dir(workdir);
        timedCampaign(w, seed, dir.journal(), false, w.firstRounds,
                      search);
        timedCampaign(w, seed, dir.journal(), true, 0, search);
        search.journalBytes = dir.bytes();
    }
    std::vector<core::AbortKind> kinds;
    for (const Campaign &c : search.campaigns)
        kinds.push_back(c.result.search.abortKind);
    checkShape(w, kinds);
    return search;
}

// ------------------------------------------------------------------
// Traced searches
// ------------------------------------------------------------------

/** Stack layers, named after their src/ modules. */
enum Layer : std::uint8_t
{
    kTop,       //!< MeteredEngine, the layer the search calls
    kMemo,      //!< core.memoizing_engine
    kResilient, //!< core.resilient_engine (+ core.fault_injection)
    kJournal,   //!< core.journal
    kEngine,    //!< core.parallel_engine + sim (the substrate)
    kStopCheck, //!< core.campaign round-boundary check + checkpoints
    kLayers
};

constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span
{
    double start = 0.0;
    double end = 0.0;
    std::uint32_t parent = kNoParent;
    std::uint32_t items = 0;
    Layer layer = kTop;
};

/** In-memory span store; spans nest by call, one thread only. */
class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(SteadyClock::now()) {}

    double
    now() const
    {
        return secondsBetween(epoch_, SteadyClock::now());
    }

    std::uint32_t
    open(Layer layer, std::size_t items)
    {
        Span span;
        span.layer = layer;
        span.items = static_cast<std::uint32_t>(items);
        span.parent = open_.empty() ? kNoParent : open_.back();
        const auto id = static_cast<std::uint32_t>(spans_.size());
        open_.push_back(id);
        span.start = now();
        spans_.push_back(span);
        return id;
    }

    void
    close(std::uint32_t id)
    {
        spans_[id].end = now();
        open_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    void clear() { spans_.clear(); }

  private:
    SteadyClock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
};

class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, Layer layer, std::size_t items)
        : recorder_(recorder), id_(recorder.open(layer, items))
    {
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    ~ScopedSpan() { recorder_.close(id_); }

  private:
    SpanRecorder &recorder_;
    std::uint32_t id_;
};

/**
 * Pass-through engine placed above a layer. It forwards every entry
 * point unchanged, so the stack takes the paths it takes untraced,
 * and records a span around each call that does work.
 */
class TracingEngine final : public core::PerformanceEngine
{
  public:
    TracingEngine(core::PerformanceEngine &inner, Layer layer,
                  SpanRecorder &recorder)
        : inner_(inner), layer_(layer), recorder_(recorder)
    {
    }

    double
    measure(const core::Assignment &assignment) override
    {
        ScopedSpan span(recorder_, layer_, 1);
        return inner_.measure(assignment);
    }

    void
    measureBatch(std::span<const core::Assignment> batch,
                 std::span<double> out) override
    {
        ScopedSpan span(recorder_, layer_, batch.size());
        inner_.measureBatch(batch, out);
    }

    core::BatchKernel
    parallelKernel(std::size_t batchSize) override
    {
        return inner_.parallelKernel(batchSize);
    }

    core::MeasurementOutcome
    measureOutcome(const core::Assignment &assignment) override
    {
        ScopedSpan span(recorder_, layer_, 1);
        return inner_.measureOutcome(assignment);
    }

    void
    measureBatchOutcome(std::span<const core::Assignment> batch,
                        std::span<core::MeasurementOutcome> out) override
    {
        ScopedSpan span(recorder_, layer_, batch.size());
        inner_.measureBatchOutcome(batch, out);
    }

    core::OutcomeKernel
    outcomeKernel(std::size_t batchSize) override
    {
        return inner_.outcomeKernel(batchSize);
    }

    void
    reserveMeasurementIndices(std::size_t count) override
    {
        ScopedSpan span(recorder_, layer_, 0);
        inner_.reserveMeasurementIndices(count);
    }

    std::string name() const override { return inner_.name(); }

    double
    secondsPerMeasurement() const override
    {
        return inner_.secondsPerMeasurement();
    }

    void
    collectStats(core::EngineStats &stats) const override
    {
        inner_.collectStats(stats);
    }

  private:
    core::PerformanceEngine &inner_;
    Layer layer_;
    SpanRecorder &recorder_;
};

/** Per-layer split of one traced search (summed over campaigns). */
struct Split
{
    double wall = 0.0;
    std::array<double, kLayers> self{};
    double sampler = 0.0;
    double estimate = 0.0;
    double other = 0.0;
    double lastEstimateMs = 0.0;
    std::uint64_t estimateIntervals = 0;
    std::uint64_t drawsMeasured = 0;
    std::uint64_t engineItems = 0;
    std::uint64_t journalBatches = 0;
    double recoverSeconds = 0.0;
    double setupWorkload = 0.0;
    double setupJournal = 0.0;
    std::uint64_t memoEntries = 0;
    std::vector<Outcome> outcomes;
    std::vector<Counts> counts;
};

/**
 * Attributes the spans of one campaign, recorded from `first` on and
 * ending at `end`. Self time is a span minus its children. Between
 * top-level spans, the gap from a stop check to the search's call
 * into the top layer is sampling; the gap after the top layer
 * returns is estimation (for top-up draws of a faulty round it also
 * holds their sampling); anything else is left for other_s.
 */
void
attribute(const std::vector<Span> &spans, std::size_t first, double end,
          Split &split)
{
    double wall = 0.0;
    double named = 0.0;
    const auto estimated = [&](double from, double to) {
        split.estimate += to - from;
        named += to - from;
        split.lastEstimateMs = 1e3 * (to - from);
        ++split.estimateIntervals;
    };
    const Span *prev = nullptr;
    for (std::size_t i = first; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double d = s.end - s.start;
        split.self[s.layer] += d;
        if (s.layer != kTop)
            named += d;
        if (s.parent != kNoParent) {
            split.self[spans[s.parent].layer] -= d;
            if (spans[s.parent].layer != kTop)
                named -= d;
        }
        if (s.layer == kEngine && s.items > 0)
            split.engineItems += s.items;
        if (s.layer == kJournal && s.items > 0)
            ++split.journalBatches;
        if (s.parent != kNoParent)
            continue;
        if (prev == nullptr) {
            wall = end - s.start;
        } else if (prev->layer == kTop) {
            estimated(prev->end, s.start);
        } else if (s.layer == kTop) {
            split.sampler += s.start - prev->end;
            named += s.start - prev->end;
        }
        if (s.layer == kTop)
            split.drawsMeasured += s.items;
        prev = &s;
    }
    // Without a final checkpoint, the last estimate runs until the
    // search returns.
    if (prev != nullptr && prev->layer == kTop)
        estimated(prev->end, end);
    split.wall += wall;
    split.other += wall - named;
}

/**
 * One traced campaign: the stack runCampaign documents,
 * Metered(Memoizing([Resilient](Journaling(substrate)))), built from
 * the public classes with a TracingEngine above each layer, driven by
 * iterativeAssignmentSearch with a stop check that mirrors
 * campaign.cc, per-round and final journal checkpoints included.
 */
core::IterativeResult
tracedCampaign(const Workload &w, std::uint64_t seed,
               const std::string &journal, bool resume,
               std::size_t maxRounds, SpanRecorder &recorder,
               Split &split)
{
    const double setupStart = recorder.now();
    Substrate substrate(w);
    split.setupWorkload += recorder.now() - setupStart;
    const std::uint32_t tasks = substrate.tasks();

    const core::CampaignOptions options =
        campaignOptions(w, journal, resume, maxRounds);
    TracingEngine engineT(*substrate.parallel, kEngine, recorder);
    core::PerformanceEngine *stack = &engineT;

    std::optional<core::JournalingEngine> journaling;
    std::optional<TracingEngine> journalT;
    if (!journal.empty()) {
        const double journalStart = recorder.now();
        const core::JournalHeader header =
            core::JournalHeader::forCampaign(kTopology, tasks, seed,
                                             options.configHash);
        if (resume) {
            core::JournalRecovery recovery = core::recoverJournal(journal);
            split.recoverSeconds += recorder.now() - journalStart;
            if (!recovery.headerValid || !(recovery.header == header))
                throw std::runtime_error("traced resume: journal "
                                         "unusable: " + recovery.error);
            journaling.emplace(*stack,
                               core::MeasurementJournal(
                                   journal, recovery,
                                   core::JournalConfig{}));
            journaling->queueReplay(std::move(recovery.batches));
        } else {
            journaling.emplace(*stack,
                               core::MeasurementJournal(
                                   journal, header,
                                   core::JournalConfig{}));
        }
        split.setupJournal += recorder.now() - journalStart;
        journalT.emplace(*journaling, kJournal, recorder);
        stack = &*journalT;
    }

    std::optional<core::ResilientEngine> resilient;
    std::optional<TracingEngine> resilientT;
    if (options.resilient) {
        resilient.emplace(*stack, options.resilience);
        resilientT.emplace(*resilient, kResilient, recorder);
        stack = &*resilientT;
    }
    core::MemoizingEngine memoizing(*stack);
    TracingEngine memoT(memoizing, kMemo, recorder);
    core::MeteredEngine metered(memoT);
    TracingEngine topT(metered, kTop, recorder);

    const std::size_t first = recorder.spans().size();
    core::IterativeOptions iterative = options.iterative;
    iterative.stopCheck =
        [&](std::size_t round) -> core::IterativeStop {
        ScopedSpan span(recorder, kStopCheck, 0);
        if (journaling) {
            journaling->setRound(static_cast<std::uint32_t>(round));
            if (round > 0 && !journaling->replaying()) {
                core::JournalCheckpoint progress;
                progress.kind = core::CheckpointKind::Progress;
                progress.round = static_cast<std::uint32_t>(round);
                progress.attempted = metered.stats().measurements;
                journaling->checkpoint(progress);
            }
        }
        if (options.maxRounds > 0 && round >= options.maxRounds)
            return {core::AbortKind::RoundLimit,
                    "round budget of " +
                        std::to_string(options.maxRounds) +
                        " exhausted"};
        return {};
    };

    core::IterativeResult result = core::iterativeAssignmentSearch(
        topT, kTopology, tasks, seed, iterative);
    if (journaling) {
        ScopedSpan span(recorder, kStopCheck, 0);
        core::JournalCheckpoint checkpoint;
        checkpoint.kind = result.abortKind != core::AbortKind::None
            ? core::CheckpointKind::Aborted
            : core::CheckpointKind::Complete;
        checkpoint.round = static_cast<std::uint32_t>(result.steps.size());
        checkpoint.attempted = result.totalAttempted;
        checkpoint.sampled = result.totalSampled;
        checkpoint.best = result.final.bestObserved;
        journaling->checkpoint(checkpoint);
    }
    const double end = recorder.now();
    if (journaling && (journaling->mismatch() ||
                       journaling->journalFailed()))
        throw std::runtime_error("traced campaign: journal failed");

    attribute(recorder.spans(), first, end, split);
    split.memoEntries = memoizing.size();
    split.outcomes.push_back(outcomeOf(result));
    split.counts.push_back(countsOf(
        metered.stats(),
        journaling ? journaling->replayedMeasurements() : 0,
        journaling ? journaling->recordedMeasurements() : 0));
    return result;
}

Split
tracedSearch(const Workload &w, std::uint64_t seed,
             const fs::path &workdir, SpanRecorder &recorder)
{
    recorder.clear();
    Split split;
    std::vector<core::AbortKind> kinds;
    if (w.firstRounds == 0) {
        kinds.push_back(
            tracedCampaign(w, seed, "", false, 0, recorder, split)
                .abortKind);
    } else {
        JournalDir dir(workdir);
        kinds.push_back(tracedCampaign(w, seed, dir.journal(), false,
                                       w.firstRounds, recorder, split)
                            .abortKind);
        kinds.push_back(tracedCampaign(w, seed, dir.journal(), true, 0,
                                       recorder, split)
                            .abortKind);
    }
    checkShape(w, kinds);
    return split;
}

/**
 * Replays a standalone RandomAssignmentSampler with the campaign seed
 * for each campaign's draw count (campaigns of one search share the
 * stream from its start) and returns {draws, attempts}.
 */
std::pair<std::uint64_t, std::uint64_t>
replaySampler(std::uint32_t tasks, std::uint64_t seed,
              const std::vector<std::uint64_t> &drawsPerCampaign)
{
    std::vector<std::uint64_t> sorted = drawsPerCampaign;
    std::sort(sorted.begin(), sorted.end());
    core::RandomAssignmentSampler sampler(kTopology, tasks, seed);
    std::map<std::uint64_t, std::uint64_t> attemptsAt;
    for (const std::uint64_t n : sorted) {
        while (sampler.produced() < n)
            (void)sampler.draw();
        attemptsAt[n] = sampler.attempts();
    }
    std::uint64_t draws = 0;
    std::uint64_t attempts = 0;
    for (const std::uint64_t n : drawsPerCampaign) {
        draws += n;
        attempts += attemptsAt[n];
    }
    return {draws, attempts};
}

/** @return the rejection loop's acceptance probability: T distinct
 *  contexts out of V drawn uniformly with replacement. */
double
acceptanceProbability(std::uint32_t tasks)
{
    const double v = kTopology.contexts();
    double p = 1.0;
    for (std::uint32_t i = 0; i < tasks; ++i)
        p *= (v - i) / v;
    return p;
}

// ------------------------------------------------------------------
// Reporting
// ------------------------------------------------------------------

/** Writes spans as TSV: layer, start and end seconds, parent row
 *  (-1 for none), items. */
void
writeSpans(const fs::path &path, const std::vector<Span> &spans)
{
    static const char *const names[kLayers] = {
        "top", "memo", "resilient", "journal", "engine", "stopcheck"};
    std::ofstream out(path);
    out << "layer\tstart_s\tend_s\tparent\titems\n";
    char line[160];
    for (const Span &s : spans) {
        std::snprintf(line, sizeof line, "%s\t%.9f\t%.9f\t%lld\t%u\n",
                      names[s.layer], s.start, s.end,
                      s.parent == kNoParent
                          ? -1LL
                          : static_cast<long long>(s.parent),
                      s.items);
        out << line;
    }
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** @return this process's peak resident set (VmHWM). Unlike
 *  getrusage's ru_maxrss it does not carry over the peak of the
 *  program that exec'd this one. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

void
printTiming(const char *name, const std::vector<double> &values,
            double tailQ, const char *unit)
{
    std::printf("  %-14s median %.6g  p%.0f %.6g  n=%zu  [%s]\n", name,
                median(values), 100.0 * tailQ, quantile(values, tailQ),
                values.size(), unit);
}

/** Golden outcomes by campaign seed for one workload. */
std::map<std::uint64_t, Outcome>
readGolden(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden file " + path);
    std::map<std::uint64_t, Outcome> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, seed, samples, iterations, failed;
        Outcome o;
        std::getline(fields, name, '\t');
        std::getline(fields, seed, '\t');
        std::getline(fields, samples, '\t');
        std::getline(fields, iterations, '\t');
        std::getline(fields, o.best, '\t');
        std::getline(fields, o.upb, '\t');
        std::getline(fields, failed, '\t');
        std::getline(fields, o.assignment);
        if (name != workload)
            continue;
        o.samples = std::stoull(samples);
        o.iterations = std::stoull(iterations);
        o.failed = std::stoull(failed);
        golden[std::stoull(seed)] = o;
    }
    if (golden.empty())
        throw std::runtime_error("no golden outcomes for " + workload);
    return golden;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string golden;
    std::string workdir;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            args.workload = value;
            haveWorkload = true;
        } else if (key == "--seed") {
            args.seed = std::stoull(value);
        } else if (key == "--seconds") {
            args.seconds = std::stod(value);
        } else if (key == "--trace") {
            args.trace = std::stoi(value);
        } else if (key == "--golden") {
            args.golden = value;
        } else if (key == "--workdir") {
            args.workdir = value;
        } else {
            throw std::invalid_argument("unknown option " + key);
        }
    }
    if (argc % 2 != 1 || !haveWorkload || args.golden.empty() ||
        args.workdir.empty() || args.seconds <= 0.0 ||
        (args.trace != 0 && args.trace != 1))
        throw std::invalid_argument(
            "usage: campaign_bench --workload NAME --seed N --seconds S "
            "--trace 0|1 --golden FILE --workdir DIR");
    return args;
}

int
run(const Args &args)
{
    const Workload *workload = nullptr;
    for (const Workload &w : kWorkloads)
        if (args.workload == w.name)
            workload = &w;
    if (workload == nullptr)
        throw std::invalid_argument("unknown workload " + args.workload);
    const Workload &w = *workload;

    // The driver's seed picks where to start in the pool of campaign
    // seeds that have golden outcomes. Untraced runs cycle through the
    // pool from there; a traced run stays on the first campaign seed.
    const std::map<std::uint64_t, Outcome> golden =
        readGolden(args.golden, w.name);
    std::vector<std::uint64_t> pool;
    for (const auto &entry : golden)
        pool.push_back(entry.first);
    const std::size_t first =
        (args.seed % pool.size() + pool.size() - 1) % pool.size();
    const auto campaignSeed = [&](std::size_t i) {
        return args.trace ? pool[first] : pool[(first + i) % pool.size()];
    };
    fs::create_directories(args.workdir);

    std::printf("workload %s, seed %llu -> first campaign seed %llu, "
                "%s\n",
                w.name, static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(campaignSeed(0)),
                args.trace ? "traced" : "untraced");

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    const auto check = [&](const Search &search, std::uint64_t seed) {
        ++attempted;
        const bool match = search.outcome().sameAsCli(golden.at(seed));
        if (!match) {
            ++failed;
            correct = false;
            std::printf("OUTPUT CHECK FAILED for campaign seed %llu: "
                        "%zu samples, %zu iterations, best %s, UPB %s, "
                        "failed %zu, %s\n",
                        static_cast<unsigned long long>(seed),
                        search.outcome().samples,
                        search.outcome().iterations,
                        search.outcome().best.c_str(),
                        search.outcome().upb.c_str(),
                        search.outcome().failed,
                        search.outcome().assignment.c_str());
        }
        return match;
    };

    const SteadyClock::time_point start = SteadyClock::now();
    const auto timeLeft = [&] {
        return secondsBetween(start, SteadyClock::now()) < args.seconds;
    };

    if (args.trace == 0) {
        std::vector<double> campaignS, setupS, measPerS, roundMs;
        std::uint64_t measured = 0;
        std::uint64_t valid = 0;
        for (std::size_t i = 0; i == 0 || timeLeft(); ++i) {
            const std::uint64_t seed = campaignSeed(i);
            const Search search = untracedSearch(w, seed, args.workdir);
            const bool match = check(search, seed);
            campaignS.push_back(search.campaignSeconds);
            setupS.push_back(search.setupSeconds);
            measPerS.push_back(static_cast<double>(search.requested) /
                               search.campaignSeconds);
            roundMs.insert(roundMs.end(), search.roundMs.begin(),
                           search.roundMs.end());
            const core::IterativeResult &r =
                search.campaigns.back().result.search;
            measured += r.totalAttempted;
            if (match)
                valid += r.totalAttempted - r.totalFailed;
        }

        printTiming("campaign_s", campaignS, 1.0, "s");
        printTiming("round_ms", roundMs, 0.9, "ms");
        printTiming("setup_s", setupS, 1.0, "s");
        printResult(correct, attempted, failed,
                    {{"campaign_s", median(campaignS), "s"},
                     {"meas_per_s", median(measPerS), "1/s"},
                     {"round_ms_p50", quantile(roundMs, 0.5), "ms"},
                     {"round_ms_p90", quantile(roundMs, 0.9), "ms"},
                     {"setup_s", median(setupS), "s"},
                     {"peak_rss_mb", peakRssMb(), "MB"},
                     {"valid_share",
                      static_cast<double>(valid) /
                          static_cast<double>(measured),
                      "ratio"}});
        return 0;
    }

    // Traced run: alternate untraced and traced searches of the same
    // campaign seed; the traced one must reproduce the untraced one.
    const std::uint64_t seed = campaignSeed(0);
    SpanRecorder recorder;
    std::vector<double> untracedS;
    std::vector<Split> splits;
    Search lastUntraced;
    do {
        Search search = untracedSearch(w, seed, args.workdir);
        check(search, seed);
        Split split = tracedSearch(w, seed, args.workdir, recorder);
        ++attempted;
        bool same = split.outcomes.size() == search.campaigns.size();
        for (std::size_t i = 0; same && i < split.outcomes.size(); ++i) {
            const core::CampaignResult &c = search.campaigns[i].result;
            same = split.outcomes[i].bits ==
                    search.campaigns[i].outcome.bits &&
                split.counts[i] ==
                    countsOf(c.engineStats, c.replayedMeasurements,
                             c.recordedMeasurements);
        }
        // Layer self times plus the intervals between layers must
        // fit in the wall time; other_s is what is left.
        const bool fits = split.other >= -1e-6 * split.wall;
        if (!same || !fits) {
            ++failed;
            correct = false;
            std::printf("TRACE GUARD FAILED: %s\n",
                        !same ? "traced outcome differs from untraced"
                              : "layer times exceed wall time");
        }
        untracedS.push_back(search.campaignSeconds);
        splits.push_back(std::move(split));
        lastUntraced = std::move(search);
    } while (timeLeft());

    // Exact counts from outside the program.
    std::vector<std::uint64_t> drawsPerCampaign;
    std::uint64_t journalReplayed = 0, journalRecorded = 0;
    core::EngineStats stats;
    for (const Campaign &c : lastUntraced.campaigns) {
        drawsPerCampaign.push_back(c.result.search.totalAttempted);
        journalReplayed += c.result.replayedMeasurements;
        journalRecorded += c.result.recordedMeasurements;
        const core::EngineStats &s = c.result.engineStats;
        stats.cacheHits += s.cacheHits;
        stats.cacheMisses += s.cacheMisses;
        stats.solves += s.solves;
        stats.solverIterations += s.solverIterations;
        stats.failures += s.failures;
        stats.retries += s.retries;
        stats.quarantined += s.quarantined;
    }
    const Split &last = splits.back();
    const std::uint32_t tasks =
        sim::makeWorkload(sim::Benchmark::IpfwdL1, w.instances)
            .taskCount();
    const auto [draws, attempts] =
        replaySampler(tasks, seed, drawsPerCampaign);
    const double perDraw = static_cast<double>(attempts) /
        static_cast<double>(draws);
    const double expectedPerDraw = 1.0 / acceptanceProbability(tasks);
    std::printf("  sampler: %.2f attempts per draw, %.2f expected\n",
                perDraw, expectedPerDraw);
    if (draws != last.drawsMeasured ||
        std::abs(perDraw / expectedPerDraw - 1.0) > 0.1) {
        correct = false;
        ++failed;
        std::printf("SAMPLER CHECK FAILED: %llu draws replayed, %llu "
                    "measured\n",
                    static_cast<unsigned long long>(draws),
                    static_cast<unsigned long long>(last.drawsMeasured));
    }
    if (w.firstRounds == 0 &&
        (last.journalBatches != 0 || journalReplayed != 0 ||
         journalRecorded != 0 || lastUntraced.journalBytes != 0)) {
        correct = false;
        ++failed;
        std::printf("JOURNAL CHECK FAILED: journal activity on a "
                    "workload without a journal\n");
    }

    const auto medianOf = [&](auto field) {
        std::vector<double> values;
        for (const Split &s : splits)
            values.push_back(field(s));
        return median(values);
    };
    std::vector<double> tracedS;
    for (const Split &s : splits)
        tracedS.push_back(s.wall);
    printTiming("untraced_s", untracedS, 1.0, "s");
    printTiming("traced_s", tracedS, 1.0, "s");

    const auto self = [&](Layer layer) {
        return medianOf([layer](const Split &s) { return s.self[layer]; });
    };
    const double lookups =
        static_cast<double>(stats.cacheHits + stats.cacheMisses);
    const auto count = [](std::uint64_t n) {
        return static_cast<double>(n);
    };
    const std::vector<Metric> metrics = {
        {"sampler.self_s",
         medianOf([](const Split &s) { return s.sampler; }), "s"},
        {"sampler.draws", count(draws), "count"},
        {"sampler.attempts", count(attempts), "count"},
        {"sampler.accept_ratio", 1.0 / perDraw, "ratio"},
        {"memo.self_s", self(kMemo), "s"},
        {"memo.hits", count(stats.cacheHits), "count"},
        {"memo.misses", count(stats.cacheMisses), "count"},
        {"memo.hit_ratio",
         lookups > 0 ? count(stats.cacheHits) / lookups : 0.0, "ratio"},
        {"memo.entries", count(last.memoEntries), "count"},
        {"estimate.self_s",
         medianOf([](const Split &s) { return s.estimate; }), "s"},
        {"estimate.rounds", count(last.estimateIntervals), "count"},
        {"estimate.last_round_ms",
         medianOf([](const Split &s) { return s.lastEstimateMs; }),
         "ms"},
        {"engine.self_s", self(kEngine), "s"},
        {"engine.measurements", count(last.engineItems), "count"},
        {"sim.solves", count(stats.solves), "count"},
        {"sim.iters_per_solve", stats.solverIterationsPerSolve(),
         "count"},
        {"journal.self_s", self(kJournal), "s"},
        {"journal.bytes", count(lastUntraced.journalBytes), "B"},
        {"journal.batches", count(last.journalBatches), "count"},
        {"journal.recover_s",
         medianOf([](const Split &s) { return s.recoverSeconds; }), "s"},
        {"journal.replayed", count(journalReplayed), "count"},
        {"journal.recorded", count(journalRecorded), "count"},
        {"resilient.self_s", self(kResilient), "s"},
        {"resilient.failures", count(stats.failures), "count"},
        {"resilient.retries", count(stats.retries), "count"},
        {"resilient.quarantined", count(stats.quarantined), "count"},
        {"campaign.stopcheck_s", self(kStopCheck), "s"},
        {"campaign.other_s",
         medianOf([](const Split &s) { return s.other; }), "s"},
        {"setup.workload_s",
         medianOf([](const Split &s) { return s.setupWorkload; }), "s"},
        {"setup.journal_s",
         medianOf([](const Split &s) { return s.setupJournal; }), "s"},
        {"trace.overhead_ratio", median(tracedS) / median(untracedS),
         "ratio"},
    };
    for (const Metric &m : metrics)
        std::printf("  %-24s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    const fs::path spansPath = fs::path(args.workdir) /
        ("spans-" + args.workload + "-" + std::to_string(seed) + ".tsv");
    writeSpans(spansPath, recorder.spans());
    std::printf("  spans of the last traced search: %s\n",
                spansPath.string().c_str());
    printResult(correct, attempted, failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign_bench: %s\n", e.what());
        return 2;
    }
}
