/**
 * @file
 * Unified campaign health aggregate.
 *
 * A long campaign survives two distinct failure domains — the
 * estimator can lose statistical validity (EstimateStatus) and the
 * journal can lose its medium (JournalErrorPolicy::Degrade) — and
 * each layer already tracks its own state. Health is the one
 * place those states meet: a per-component {Ok, Degraded, Failing}
 * level with a latched worst() summary, so the CLI can print a
 * single truthful answer to "did this campaign complete cleanly?"
 * and return the documented completed-degraded exit code when it
 * did not.
 *
 * Components are registered lazily by their first transition; the
 * conventional names are "journal" and "estimator". The
 * listener (if any) fires on every level CHANGE — not on repeated
 * reports of the same level — outside the internal lock, so it may
 * freely log or call back into Health.
 */

#ifndef STATSCHED_CORE_HEALTH_HH
#define STATSCHED_CORE_HEALTH_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/sync.hh"

namespace statsched
{
namespace core
{

/** Severity of one component's condition. Order matters: worst() is
 *  the numeric maximum. */
enum class HealthLevel : std::uint8_t
{
    Ok = 0,   //!< operating as configured
    Degraded, //!< still producing exact results, with reduced
              //!< durability, capacity or confidence
    Failing,  //!< the component can no longer do its job
};

/** @return "ok" / "degraded" / "failing". */
const char *healthLevelName(HealthLevel level);

/** One level change, as delivered to the listener. */
struct HealthTransition
{
    std::string component;
    HealthLevel from = HealthLevel::Ok;
    HealthLevel to = HealthLevel::Ok;
    std::string detail;
};

/**
 * Thread-safe per-component health registry. Transitions may arrive
 * from any thread; reads take a consistent snapshot.
 */
class Health
{
  public:
    using Listener = std::function<void(const HealthTransition &)>;

    Health() = default;

    /** @param listener invoked (outside the lock) on every level
     *  change. */
    explicit Health(Listener listener)
        : listener_(std::move(listener))
    {
    }

    /**
     * Reports `component` at `level`. Registers the component on
     * first sight (an initial report of Ok registers silently).
     * Fires the listener only when the level actually changes;
     * `detail` explains the change.
     */
    void transition(const std::string &component, HealthLevel level,
                    const std::string &detail);

    /** @return the component's current level (Ok when never
     *  reported). */
    HealthLevel level(const std::string &component) const;

    /** @return the worst level across all components. */
    HealthLevel worst() const;

    /** One component's current state (snapshot). */
    struct Component
    {
        std::string name;
        HealthLevel level = HealthLevel::Ok;
        std::string detail; //!< detail of the last level change
    };

    /** @return all components, in first-transition order (a
     *  deterministic order: no unordered containers involved). */
    std::vector<Component> components() const;

  private:
    mutable base::Mutex mutex_;
    std::vector<Component> components_ SCHED_GUARDED_BY(mutex_);
    /** Immutable after construction; called without the lock. */
    const Listener listener_;
};

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_HEALTH_HH
