/**
 * @file
 * Baseline scheduler tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/baselines.hh"

namespace
{

using namespace statsched::core;

const Topology t2 = Topology::ultraSparcT2();

/** Trivial engine: performance = number of distinct cores used. */
class CoreSpreadEngine : public PerformanceEngine
{
  public:
    double
    measure(const Assignment &assignment) override
    {
        std::vector<bool> used(assignment.topology().cores, false);
        for (TaskId t = 0; t < assignment.size(); ++t)
            used[assignment.coreOf(t)] = true;
        return static_cast<double>(
            std::count(used.begin(), used.end(), true));
    }

    std::string name() const override { return "core-spread"; }
};

TEST(Baselines, LinuxLikeBalancesCores)
{
    for (std::uint32_t tasks : {3u, 6u, 8u, 15u, 24u, 64u}) {
        const Assignment a = linuxLikeAssignment(t2, tasks);
        std::vector<int> per_core(t2.cores, 0);
        for (TaskId t = 0; t < tasks; ++t)
            ++per_core[a.coreOf(t)];
        const auto [lo, hi] =
            std::minmax_element(per_core.begin(), per_core.end());
        EXPECT_LE(*hi - *lo, 1) << "tasks=" << tasks;
    }
}

TEST(Baselines, LinuxLikeBalancesPipesWithinCores)
{
    const Assignment a = linuxLikeAssignment(t2, 24);
    std::vector<int> per_pipe(t2.pipes(), 0);
    for (TaskId t = 0; t < 24; ++t)
        ++per_pipe[a.pipeOf(t)];
    // 24 tasks over 16 pipes, balanced: loads of 1 or 2.
    for (int load : per_pipe) {
        EXPECT_GE(load, 1);
        EXPECT_LE(load, 2);
    }
}

TEST(Baselines, LinuxLikeSixTasksOneCoreEach)
{
    // Six tasks on eight cores: each on its own core (like the CFS
    // domain balancer would do).
    const Assignment a = linuxLikeAssignment(t2, 6);
    std::vector<int> per_core(t2.cores, 0);
    for (TaskId t = 0; t < 6; ++t)
        ++per_core[a.coreOf(t)];
    EXPECT_EQ(*std::max_element(per_core.begin(), per_core.end()), 1);
}

TEST(Baselines, LinuxLikeFillsWholeMachine)
{
    const Assignment a = linuxLikeAssignment(t2, 64);
    EXPECT_TRUE(Assignment::isValid(t2, a.contexts()));
}

TEST(Baselines, PackedFillsContextsInOrder)
{
    const Assignment a = packedAssignment(t2, 9);
    for (TaskId t = 0; t < 9; ++t)
        EXPECT_EQ(a.contextOf(t), t);
    // First 8 tasks land on core 0, the 9th on core 1.
    EXPECT_EQ(a.coreOf(7), 0u);
    EXPECT_EQ(a.coreOf(8), 1u);
}

TEST(Baselines, NaiveExpectedPerformanceIsMeanOverDraws)
{
    CoreSpreadEngine engine;
    // With 6 tasks, Linux-like spreads to 6 cores; the naive random
    // average must be strictly below that (collisions happen).
    const double naive =
        naiveExpectedPerformance(engine, t2, 6, 500, 17);
    const double linux_like =
        engine.measure(linuxLikeAssignment(t2, 6));
    EXPECT_LT(naive, linux_like);
    EXPECT_GT(naive, 4.0);
    EXPECT_EQ(linux_like, 6.0);
}

TEST(Baselines, DeterministicBySeed)
{
    CoreSpreadEngine engine;
    const double a = naiveExpectedPerformance(engine, t2, 6, 100, 5);
    const double b = naiveExpectedPerformance(engine, t2, 6, 100, 5);
    EXPECT_DOUBLE_EQ(a, b);
}

/** Fails (NaN, the double channel's failure marker) whenever task 0
 *  sits on core 0 — or always — and reads 5 otherwise. */
class PartlyFailingEngine : public PerformanceEngine
{
  public:
    explicit PartlyFailingEngine(bool failAll) : failAll_(failAll) {}

    double
    measure(const Assignment &assignment) override
    {
        ++measured;
        if (failAll_ || assignment.coreOf(0) == 0) {
            ++failed;
            return std::numeric_limits<double>::quiet_NaN();
        }
        return 5.0;
    }

    std::string name() const override { return "partly-failing"; }

    int measured = 0;
    int failed = 0;

  private:
    bool failAll_;
};

TEST(Baselines, NaiveExpectedPerformanceSkipsFailedMeasurements)
{
    PartlyFailingEngine engine(/*failAll=*/false);
    const double naive =
        naiveExpectedPerformance(engine, t2, 6, 400, 17);
    EXPECT_EQ(engine.measured, 400);
    EXPECT_GT(engine.failed, 0);
    EXPECT_LT(engine.failed, 400);
    EXPECT_EQ(naive, 5.0);

    PartlyFailingEngine dead(/*failAll=*/true);
    EXPECT_TRUE(std::isnan(naiveExpectedPerformance(dead, t2, 6, 50, 17)));
}

} // anonymous namespace
