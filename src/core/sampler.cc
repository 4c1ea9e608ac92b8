/**
 * @file
 * RandomAssignmentSampler implementation.
 */

#include "core/sampler.hh"

#include <limits>
#include <numeric>
#include "base/check.hh"

namespace statsched
{
namespace core
{

double
expectedRejectionAttempts(const Topology &topology, std::uint32_t tasks)
{
    const std::uint32_t v = topology.contexts();
    if (tasks > v)
        return std::numeric_limits<double>::infinity();
    // V^T (V-T)! / V! = prod_{i<T} V / (V - i).
    double expected = 1.0;
    for (std::uint32_t i = 0; i < tasks; ++i)
        expected *= static_cast<double>(v) / static_cast<double>(v - i);
    return expected;
}

SamplingMethod
defaultSamplingMethod(const Topology &topology, std::uint32_t tasks)
{
    return expectedRejectionAttempts(topology, tasks) <=
            kMaxExpectedRejectionAttempts
        ? SamplingMethod::RejectionPaper
        : SamplingMethod::PartialFisherYates;
}

RandomAssignmentSampler::RandomAssignmentSampler(
    const Topology &topology, std::uint32_t tasks, std::uint64_t seed,
    SamplingMethod method)
    : topology_(topology), tasks_(tasks), rng_(seed), method_(method)
{
    SCHED_REQUIRE(tasks >= 1 && tasks <= topology.contexts(),
                  "workload size out of range");
}

Assignment
RandomAssignmentSampler::draw()
{
    const std::uint32_t v = topology_.contexts();
    std::vector<ContextId> contexts(tasks_);

    if (method_ == SamplingMethod::RejectionPaper) {
        for (;;) {
            ++attempts_;
            for (auto &ctx : contexts)
                ctx = static_cast<ContextId>(rng_.uniformInt(v));
            if (Assignment::isValid(topology_, contexts))
                break;
            // Discard and redraw the whole assignment, exactly as in
            // the paper, preserving uniformity over valid placements.
        }
    } else {
        // Partial Fisher-Yates: a uniformly random ordered T-subset
        // of the V contexts — the same distribution the rejection
        // loop converges to, in O(T) time.
        ++attempts_;
        if (scratch_.size() != v) {
            scratch_.resize(v);
            std::iota(scratch_.begin(), scratch_.end(), 0);
        }
        for (std::uint32_t t = 0; t < tasks_; ++t) {
            const std::uint32_t j = t + static_cast<std::uint32_t>(
                rng_.uniformInt(v - t));
            std::swap(scratch_[t], scratch_[j]);
            contexts[t] = scratch_[t];
        }
    }

    ++produced_;
    return Assignment(topology_, contexts);
}

std::vector<Assignment>
RandomAssignmentSampler::drawSample(std::size_t n)
{
    std::vector<Assignment> sample;
    sample.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        sample.push_back(draw());
    return sample;
}

} // namespace core
} // namespace statsched
