/**
 * @file
 * Baseline assignment implementations.
 */

#include "core/baselines.hh"

#include <cmath>
#include <limits>
#include <vector>

#include "base/check.hh"
#include "core/sampler.hh"
#include "stats/descriptive.hh"

namespace statsched
{
namespace core
{

Assignment
linuxLikeAssignment(const Topology &topology, std::uint32_t tasks)
{
    SCHED_REQUIRE(tasks >= 1 && tasks <= topology.contexts(),
                  "workload size out of range");

    // Round-robin over cores; within each core, round-robin over
    // pipes; within each pipe, strands fill in order. Track per-pipe
    // occupancy to translate to concrete contexts.
    std::vector<std::uint32_t> pipe_fill(topology.pipes(), 0);
    std::vector<std::uint32_t> core_next_pipe(topology.cores, 0);
    std::vector<ContextId> contexts(tasks);

    std::uint32_t core = 0;
    for (TaskId t = 0; t < tasks; ++t) {
        // Find the next core (round-robin) with a free context.
        for (std::uint32_t probe = 0; probe < topology.cores; ++probe) {
            const std::uint32_t c = (core + probe) % topology.cores;
            // Try that core's pipes round-robin.
            bool placed = false;
            for (std::uint32_t pp = 0; pp < topology.pipesPerCore;
                 ++pp) {
                const std::uint32_t p_in_core =
                    (core_next_pipe[c] + pp) % topology.pipesPerCore;
                const std::uint32_t pipe =
                    c * topology.pipesPerCore + p_in_core;
                if (pipe_fill[pipe] < topology.strandsPerPipe) {
                    contexts[t] = pipe * topology.strandsPerPipe +
                        pipe_fill[pipe];
                    ++pipe_fill[pipe];
                    core_next_pipe[c] =
                        (p_in_core + 1) % topology.pipesPerCore;
                    placed = true;
                    break;
                }
            }
            if (placed) {
                core = (c + 1) % topology.cores;
                break;
            }
        }
    }
    return Assignment(topology, contexts);
}

Assignment
packedAssignment(const Topology &topology, std::uint32_t tasks)
{
    SCHED_REQUIRE(tasks >= 1 && tasks <= topology.contexts(),
                  "workload size out of range");
    std::vector<ContextId> contexts(tasks);
    for (TaskId t = 0; t < tasks; ++t)
        contexts[t] = t;
    return Assignment(topology, contexts);
}

double
naiveExpectedPerformance(PerformanceEngine &engine,
                         const Topology &topology, std::uint32_t tasks,
                         std::size_t draws, std::uint64_t seed)
{
    SCHED_REQUIRE(draws >= 1, "need at least one draw");
    RandomAssignmentSampler sampler(topology, tasks, seed);
    const std::vector<Assignment> batch = sampler.drawSample(draws);
    std::vector<double> values(batch.size());
    engine.measureBatch(batch, values);
    // NaN is the double channel's failure marker (a reading the stack
    // could not recover); it says nothing about the scheduler.
    std::erase_if(values, [](double v) { return !std::isfinite(v); });
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return stats::mean(values);
}

} // namespace core
} // namespace statsched
