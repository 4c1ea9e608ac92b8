/**
 * @file
 * The iid random-assignment sampler (Section 3.3.2, Step 1 of the
 * paper).
 *
 * "We enumerate the hardware contexts of the processor with integers
 * from 1 to V and for each task in the workload we randomly select an
 * integer from this interval. ... An assignment is not valid if two
 * or more tasks are mapped to the same hardware context. If this is
 * the case, we simply discard the invalid assignment and repeat the
 * whole process."
 *
 * This sampling-with-replacement over the labeled placement space
 * yields independent, identically distributed assignments — the
 * requirement of the EVT analysis.
 *
 * Two equivalent generation methods are provided. RejectionPaper is
 * the literal procedure above; its acceptance probability is
 * V!/(V-T)!/V^T, which collapses for workloads that nearly fill the
 * machine (~1e-11 for 48 of 64 contexts). PartialFisherYates draws a
 * uniformly random ordered T-subset of contexts directly in O(T);
 * conditioning iid uniforms on distinctness yields exactly the
 * uniform distribution over ordered distinct tuples, so the two
 * methods sample the *same* distribution (through different random
 * streams).
 *
 * The default method depends on the shape alone: the paper's loop
 * while its expected attempts per draw, V^T·(V-T)!/V!, stay at most
 * kMaxExpectedRejectionAttempts (T <= 31 on the 64-context T2), and
 * the partial shuffle above that. A campaign's topology and task
 * count therefore fix its draw stream, and the 6- and 24-task streams
 * are those of the paper's procedure.
 */

#ifndef STATSCHED_CORE_SAMPLER_HH
#define STATSCHED_CORE_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "core/assignment.hh"
#include "stats/rng.hh"

namespace statsched
{
namespace core
{

/** Assignment generation method (identical output distribution). */
enum class SamplingMethod
{
    RejectionPaper,      //!< the paper's discard-and-redraw loop
    PartialFisherYates   //!< O(T) partial shuffle
};

/** Largest expected attempts per draw at which the default method is
 *  still the paper's rejection loop. */
inline constexpr double kMaxExpectedRejectionAttempts = 1e4;

/**
 * @return V^T·(V-T)!/V!, the expected attempts per accepted draw of
 *         the rejection loop for `tasks` of `topology`'s V contexts
 *         (infinite when tasks > V).
 */
double expectedRejectionAttempts(const Topology &topology,
                                 std::uint32_t tasks);

/**
 * @return RejectionPaper while expectedRejectionAttempts() is at most
 *         kMaxExpectedRejectionAttempts, PartialFisherYates otherwise.
 */
SamplingMethod defaultSamplingMethod(const Topology &topology,
                                     std::uint32_t tasks);

/**
 * Draws iid uniform random task assignments.
 */
class RandomAssignmentSampler
{
  public:
    /**
     * @param topology Target processor shape.
     * @param tasks    Workload size; 1 <= tasks <= contexts().
     * @param seed     RNG seed (deterministic streams).
     * @param method   Generation method; the three-argument form
     *                 uses defaultSamplingMethod(topology, tasks).
     */
    RandomAssignmentSampler(const Topology &topology,
                            std::uint32_t tasks, std::uint64_t seed,
                            SamplingMethod method);

    RandomAssignmentSampler(const Topology &topology,
                            std::uint32_t tasks, std::uint64_t seed)
        : RandomAssignmentSampler(topology, tasks, seed,
                                  defaultSamplingMethod(topology, tasks))
    {
    }

    /** @return one iid random assignment. */
    Assignment draw();

    /** @return a sample of n iid random assignments. */
    std::vector<Assignment> drawSample(std::size_t n);

    /**
     * Total draws attempted so far, including the discarded invalid
     * ones — exposes the rejection rate of the paper's procedure
     * (always equals produced() under PartialFisherYates).
     */
    std::uint64_t attempts() const { return attempts_; }

    /** Valid assignments produced so far. */
    std::uint64_t produced() const { return produced_; }

    /** @return the generation method in use. */
    SamplingMethod method() const { return method_; }

  private:
    Topology topology_;
    std::uint32_t tasks_;
    stats::Rng rng_;
    SamplingMethod method_;
    /** Scratch permutation for the Fisher-Yates method. */
    std::vector<ContextId> scratch_;
    std::uint64_t attempts_ = 0;
    std::uint64_t produced_ = 0;
};

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_SAMPLER_HH
