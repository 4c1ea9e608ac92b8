/**
 * @file
 * Iterative algorithm implementation.
 */

#include "core/iterative.hh"

#include <cmath>
#include "base/check.hh"

namespace statsched
{
namespace core
{

namespace
{

/** Bound on replacement draws per round when measurements fail (see
 *  the top-up loop below). */
constexpr std::size_t kMaxTopUpRounds = 3;

} // anonymous namespace

IterativeResult
iterativeAssignmentSearch(PerformanceEngine &engine,
                          const Topology &topology, std::uint32_t tasks,
                          std::uint64_t seed,
                          const IterativeOptions &options)
{
    SCHED_REQUIRE(options.acceptableLoss > 0.0 &&
                  options.acceptableLoss < 1.0,
                  "acceptable loss out of (0,1)");
    SCHED_REQUIRE(options.initialSample >= 1 &&
                  options.incrementSample >= 1,
                  "sample sizes must be positive");

    OptimalPerformanceEstimator estimator(engine, topology, tasks, seed,
                                          options.pot);

    IterativeResult result;
    std::size_t to_draw = options.initialSample;
    std::size_t round = 0;

    for (;; ++round) {
        // External stop conditions (shutdown, deadline, budgets) are
        // probed at round boundaries only: a round's batches always
        // drain, so stopping never tears a batch and a journaled run
        // resumes on a group boundary.
        if (options.stopCheck) {
            IterativeStop stop = options.stopCheck(round);
            if (stop.kind != AbortKind::None) {
                result.abortKind = stop.kind;
                result.abortReason = stop.reason.empty()
                    ? abortKindName(stop.kind) : stop.reason;
                return result;
            }
        }

        const std::size_t valid_before = estimator.sampleSize();
        const std::size_t attempted_before = estimator.attempted();
        const std::size_t failed_before = estimator.failedCount();

        result.final = estimator.extend(to_draw);

        // Top the round back up to its quota of *valid* points
        // (Ninit / Ndelta count valid measurements, not attempts): a
        // failed measurement carries no information, so without
        // replacement draws a faulty testbed would silently shrink
        // Ndelta and slow convergence. Bounded top-ups keep a
        // mostly-dead engine from retrying forever.
        std::size_t top_ups = 0;
        for (std::size_t top_up = 0; top_up < kMaxTopUpRounds;
             ++top_up) {
            const std::size_t gained =
                estimator.sampleSize() - valid_before;
            if (gained >= to_draw)
                break;
            const std::size_t deficit = to_draw - gained;
            top_ups += deficit;
            result.final = estimator.extend(deficit);
        }

        result.totalSampled = estimator.sampleSize();
        result.totalAttempted = estimator.attempted();
        result.totalFailed = estimator.failedCount();

        // Step 3: compare the best observed assignment with the
        // estimated optimal performance.
        double target = options.useUpperConfidenceBound
            ? result.final.pot.upbUpper : result.final.pot.upb;
        if (!result.final.pot.valid || !std::isfinite(target)) {
            // The tail estimate is unusable (e.g. xi >= 0 or an
            // unbounded CI); keep sampling, more data regularizes
            // the fit.
            target = std::numeric_limits<double>::infinity();
        }

        IterativeStep step;
        step.sampleSize = result.totalSampled;
        step.bestObserved = result.final.bestObserved;
        step.upb = result.final.pot.upb;
        step.upbUpper = result.final.pot.upbUpper;
        step.lossTarget = target;
        step.loss = std::isfinite(target) && target > 0.0
            ? (target - result.final.bestObserved) / target : 1.0;
        step.attempted = estimator.attempted() - attempted_before;
        step.failed = estimator.failedCount() - failed_before;
        step.topUps = top_ups;
        result.steps.push_back(step);

        if (step.loss <= options.acceptableLoss &&
            result.totalSampled > 0) {
            result.satisfied = true;
            return result;
        }
        if (estimator.sampleSize() == valid_before) {
            // Every attempt in a full round (including top-ups)
            // failed; more rounds would spin against a dead engine.
            result.abortKind = AbortKind::EngineFailure;
            result.abortReason =
                "every measurement in a full round failed";
            return result;
        }
        // The safety cap counts attempts: failed measurements consume
        // testbed time too, and a high fault rate must not extend the
        // experiment unboundedly.
        if (result.totalAttempted >= options.maxSample)
            return result;

        to_draw = options.incrementSample;
    }
}

} // namespace core
} // namespace statsched
