/**
 * @file
 * Baseline task-assignment policies (Section 2, Figure 1 of the
 * paper).
 *
 * The paper compares against the two baselines commonly used to
 * evaluate task-assignment proposals:
 *
 *  - Naive: tasks are randomly assigned to virtual CPUs; its expected
 *    performance is the population mean, estimated here by averaging
 *    random draws.
 *  - Linux-like: the number of tasks per core / scheduling domain is
 *    balanced; within that constraint the placement is deterministic
 *    round-robin over cores, then pipes.
 *
 * A "packed" policy (fill contexts in order, the densest legal
 * placement) is included as a pessimistic reference for tests and
 * ablations.
 */

#ifndef STATSCHED_CORE_BASELINES_HH
#define STATSCHED_CORE_BASELINES_HH

#include <cstdint>

#include "core/assignment.hh"
#include "core/performance_engine.hh"

namespace statsched
{
namespace core
{

/**
 * Linux-like balanced assignment: tasks are dealt round-robin across
 * cores, and round-robin across the pipes inside each core, so the
 * per-core (and per-pipe) task counts differ by at most one.
 *
 * @param topology Processor shape.
 * @param tasks    Workload size.
 */
Assignment linuxLikeAssignment(const Topology &topology,
                               std::uint32_t tasks);

/**
 * Packed assignment: tasks fill hardware contexts in linear order
 * (strand 0..3 of pipe 0 of core 0 first), maximizing sharing at
 * every level.
 */
Assignment packedAssignment(const Topology &topology,
                            std::uint32_t tasks);

/**
 * Expected performance of the Naive (random) scheduler: the mean
 * measured performance over `draws` iid random assignments. Failed
 * measurements (non-finite readings) are left out of the mean; NaN
 * when every measurement failed.
 *
 * @param engine  Measurement engine.
 * @param topology Processor shape.
 * @param tasks   Workload size.
 * @param draws   Number of random assignments to average.
 * @param seed    Sampler seed.
 */
double naiveExpectedPerformance(PerformanceEngine &engine,
                                const Topology &topology,
                                std::uint32_t tasks, std::size_t draws,
                                std::uint64_t seed);

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_BASELINES_HH
