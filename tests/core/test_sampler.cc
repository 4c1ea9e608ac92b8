/**
 * @file
 * Random-assignment sampler tests (the paper's Step 1 procedure).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "core/assignment_space.hh"
#include "core/enumerator.hh"
#include "core/sampler.hh"

namespace
{

using namespace statsched::core;

const Topology t2 = Topology::ultraSparcT2();

TEST(Sampler, ProducesValidAssignments)
{
    RandomAssignmentSampler sampler(t2, 24, 1);
    for (int i = 0; i < 200; ++i) {
        const Assignment a = sampler.draw();
        EXPECT_EQ(a.size(), 24u);
        EXPECT_TRUE(Assignment::isValid(t2, a.contexts()));
    }
    EXPECT_EQ(sampler.produced(), 200u);
    // Collisions force redraws for 24 tasks on 64 contexts.
    EXPECT_GT(sampler.attempts(), sampler.produced());
}

TEST(Sampler, DeterministicBySeed)
{
    RandomAssignmentSampler a(t2, 10, 42);
    RandomAssignmentSampler b(t2, 10, 42);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.draw().contexts(), b.draw().contexts());
}

TEST(Sampler, DifferentSeedsDiffer)
{
    RandomAssignmentSampler a(t2, 10, 1);
    RandomAssignmentSampler b(t2, 10, 2);
    int distinct = 0;
    for (int i = 0; i < 20; ++i) {
        if (a.draw().contexts() != b.draw().contexts())
            ++distinct;
    }
    EXPECT_GE(distinct, 19);
}

TEST(Sampler, DrawSampleBatches)
{
    RandomAssignmentSampler sampler(t2, 6, 9);
    const auto sample = sampler.drawSample(100);
    EXPECT_EQ(sample.size(), 100u);
}

TEST(Sampler, FullMachineStillTerminates)
{
    // 4 tasks on a 4-context machine: only permutations are valid,
    // acceptance 4!/4^4 = 9.4%, rejection loop must still finish.
    const Topology tiny{1, 2, 2};
    RandomAssignmentSampler sampler(tiny, 4, 3);
    for (int i = 0; i < 100; ++i) {
        const Assignment a = sampler.draw();
        EXPECT_TRUE(Assignment::isValid(tiny, a.contexts()));
    }
}

TEST(Sampler, UniformOverLabeledPlacements)
{
    // On a tiny machine every labeled placement should appear with
    // equal frequency: chi-squared over all 4*3=12 ordered pairs.
    const Topology tiny{2, 1, 2};
    RandomAssignmentSampler sampler(tiny, 2, 7);
    std::map<std::pair<ContextId, ContextId>, int> counts;
    const int n = 60000;
    for (int i = 0; i < n; ++i) {
        const Assignment a = sampler.draw();
        ++counts[{a.contextOf(0), a.contextOf(1)}];
    }
    ASSERT_EQ(counts.size(), 12u);
    const double expected = n / 12.0;
    double chi2 = 0.0;
    for (const auto &[key, c] : counts)
        chi2 += (c - expected) * (c - expected) / expected;
    // 99.9% quantile of chi2 with 11 df = 31.26.
    EXPECT_LT(chi2, 31.26);
}

TEST(Sampler, ClassFrequencyProportionalToLabelings)
{
    // Canonical classes are hit proportionally to their labeled
    // multiplicity: on 2 cores x 1 pipe x 2 strands with 2 tasks,
    // "together" has 2 cores x 2 orders = 4 labelings... both
    // classes actually have equal labelings (4 and 8): together =
    // 2 cores x 2 strand orders = 4; split = 2x2 contexts x ... = 8.
    // Expected ratio split:together = 2:1.
    const Topology tiny{2, 1, 2};
    RandomAssignmentSampler sampler(tiny, 2, 8);
    int together = 0;
    int split = 0;
    for (int i = 0; i < 30000; ++i) {
        const Assignment a = sampler.draw();
        if (a.coreOf(0) == a.coreOf(1))
            ++together;
        else
            ++split;
    }
    const double ratio = static_cast<double>(split) / together;
    EXPECT_NEAR(ratio, 2.0, 0.1);
}

TEST(Sampler, FisherYatesProducesValidAssignments)
{
    RandomAssignmentSampler sampler(t2, 48, 13,
                                    SamplingMethod::PartialFisherYates);
    for (int i = 0; i < 100; ++i) {
        const Assignment a = sampler.draw();
        EXPECT_EQ(a.size(), 48u);
        EXPECT_TRUE(Assignment::isValid(t2, a.contexts()));
    }
    // No rejection loop: one attempt per draw.
    EXPECT_EQ(sampler.attempts(), sampler.produced());
}

TEST(Sampler, FisherYatesMatchesRejectionDistribution)
{
    // Both methods are uniform over labeled placements: compare the
    // together/split core statistic on the tiny topology.
    const Topology tiny{2, 1, 2};
    RandomAssignmentSampler fy(tiny, 2, 21,
                               SamplingMethod::PartialFisherYates);
    int together = 0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
        const Assignment a = fy.draw();
        together += (a.coreOf(0) == a.coreOf(1)) ? 1 : 0;
    }
    // P(same core) = 1/3 under the uniform labeled distribution.
    EXPECT_NEAR(static_cast<double>(together) / n, 1.0 / 3.0, 0.01);
}

TEST(Sampler, FisherYatesHandlesFullMachine)
{
    RandomAssignmentSampler sampler(t2, 64, 14,
                                    SamplingMethod::PartialFisherYates);
    const Assignment a = sampler.draw();
    EXPECT_TRUE(Assignment::isValid(t2, a.contexts()));
}

TEST(Sampler, DefaultMethodFollowsExpectedRejectionAttempts)
{
    // Expected attempts per draw, V^T (V-T)! / V!: 1 for one task,
    // ~143 at the paper's 24 of 64, and past 1e4 from 32 tasks on.
    EXPECT_DOUBLE_EQ(expectedRejectionAttempts(t2, 1), 1.0);
    EXPECT_NEAR(expectedRejectionAttempts(t2, 24), 143.4, 0.1);
    EXPECT_LE(expectedRejectionAttempts(t2, 31),
              kMaxExpectedRejectionAttempts);
    EXPECT_GT(expectedRejectionAttempts(t2, 32),
              kMaxExpectedRejectionAttempts);
    EXPECT_TRUE(std::isinf(expectedRejectionAttempts(t2, 65)));

    for (const std::uint32_t tasks : {1u, 6u, 24u, 31u})
        EXPECT_EQ(defaultSamplingMethod(t2, tasks),
                  SamplingMethod::RejectionPaper)
            << tasks;
    for (const std::uint32_t tasks : {32u, 48u, 64u})
        EXPECT_EQ(defaultSamplingMethod(t2, tasks),
                  SamplingMethod::PartialFisherYates)
            << tasks;
    // The tiny machine's full load is still cheap to reject: 4^4/4!.
    const Topology tiny{2, 1, 2};
    EXPECT_EQ(defaultSamplingMethod(tiny, 4),
              SamplingMethod::RejectionPaper);
}

TEST(Sampler, DefaultKeepsThePaperStreamAtPaperShapes)
{
    for (const std::uint32_t tasks : {6u, 24u}) {
        RandomAssignmentSampler byDefault(t2, tasks, 77);
        RandomAssignmentSampler paper(t2, tasks, 77,
                                      SamplingMethod::RejectionPaper);
        EXPECT_EQ(byDefault.method(), SamplingMethod::RejectionPaper);
        for (int i = 0; i < 50; ++i)
            ASSERT_EQ(byDefault.draw().contexts(),
                      paper.draw().contexts());
        EXPECT_EQ(byDefault.attempts(), paper.attempts());
    }
}

TEST(Sampler, DefaultDrawsFortyEightTasksInOneAttemptEach)
{
    // The rejection loop would need ~8e10 attempts per draw here.
    RandomAssignmentSampler sampler(t2, 48, 5);
    EXPECT_EQ(sampler.method(), SamplingMethod::PartialFisherYates);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(Assignment::isValid(t2, sampler.draw().contexts()));
    EXPECT_EQ(sampler.attempts(), 100u);
}

} // anonymous namespace
