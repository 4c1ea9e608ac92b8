/**
 * @file
 * Health aggregate tests: listener fires on level changes only,
 * worst() is the maximum across components, and snapshots keep
 * first-transition order (the deterministic order the CLI prints).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/health.hh"

namespace
{

using statsched::core::Health;
using statsched::core::HealthLevel;
using statsched::core::HealthTransition;
using statsched::core::healthLevelName;

TEST(Health, LevelNamesAreStable)
{
    EXPECT_STREQ(healthLevelName(HealthLevel::Ok), "ok");
    EXPECT_STREQ(healthLevelName(HealthLevel::Degraded), "degraded");
    EXPECT_STREQ(healthLevelName(HealthLevel::Failing), "failing");
}

TEST(Health, UnknownComponentsReadOkAndWorstStartsOk)
{
    Health health;
    EXPECT_EQ(health.level("journal"), HealthLevel::Ok);
    EXPECT_EQ(health.worst(), HealthLevel::Ok);
    EXPECT_TRUE(health.components().empty());
}

TEST(Health, ListenerFiresOnLevelChangesOnly)
{
    std::vector<HealthTransition> seen;
    Health health([&seen](const HealthTransition &t) {
        seen.push_back(t);
    });

    // An initial Ok report registers the component silently.
    health.transition("journal", HealthLevel::Ok, "opened");
    EXPECT_TRUE(seen.empty());
    ASSERT_EQ(health.components().size(), 1u);

    health.transition("journal", HealthLevel::Degraded, "disk full");
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].component, "journal");
    EXPECT_EQ(seen[0].from, HealthLevel::Ok);
    EXPECT_EQ(seen[0].to, HealthLevel::Degraded);
    EXPECT_EQ(seen[0].detail, "disk full");

    // Repeating the same level is not a transition.
    health.transition("journal", HealthLevel::Degraded, "still full");
    EXPECT_EQ(seen.size(), 1u);

    // Worsening and recovering both fire.
    health.transition("journal", HealthLevel::Failing, "media died");
    health.transition("journal", HealthLevel::Ok, "rotated away");
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[1].to, HealthLevel::Failing);
    EXPECT_EQ(seen[2].from, HealthLevel::Failing);
    EXPECT_EQ(seen[2].to, HealthLevel::Ok);
}

TEST(Health, WorstIsTheMaximumAcrossComponents)
{
    Health health;
    health.transition("journal", HealthLevel::Degraded, "d");
    EXPECT_EQ(health.worst(), HealthLevel::Degraded);

    health.transition("engine", HealthLevel::Failing, "f");
    EXPECT_EQ(health.worst(), HealthLevel::Failing);

    // One component recovering does not mask another's state.
    health.transition("engine", HealthLevel::Ok, "respawned");
    EXPECT_EQ(health.worst(), HealthLevel::Degraded);
    EXPECT_EQ(health.level("journal"), HealthLevel::Degraded);
    EXPECT_EQ(health.level("engine"), HealthLevel::Ok);
}

TEST(Health, SnapshotKeepsFirstTransitionOrderAndLastDetail)
{
    Health health;
    health.transition("engine", HealthLevel::Degraded, "slot lost");
    health.transition("journal", HealthLevel::Degraded, "disk full");
    health.transition("estimator", HealthLevel::Ok, "fine");
    health.transition("engine", HealthLevel::Failing,
                      "all quarantined");

    const std::vector<Health::Component> all = health.components();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0].name, "engine");
    EXPECT_EQ(all[0].level, HealthLevel::Failing);
    EXPECT_EQ(all[0].detail, "all quarantined");
    EXPECT_EQ(all[1].name, "journal");
    EXPECT_EQ(all[1].level, HealthLevel::Degraded);
    EXPECT_EQ(all[2].name, "estimator");
    EXPECT_EQ(all[2].level, HealthLevel::Ok);
}

TEST(Health, ListenerMayCallBackIntoHealth)
{
    // The listener is documented to run outside the lock; a listener
    // that reads (or escalates) must not deadlock.
    Health *self = nullptr;
    std::vector<std::string> notes;
    Health health([&](const HealthTransition &t) {
        notes.push_back(t.component + ":" +
                        healthLevelName(t.to) + ":" +
                        healthLevelName(self->worst()));
    });
    self = &health;

    health.transition("journal", HealthLevel::Degraded, "d");
    ASSERT_EQ(notes.size(), 1u);
    EXPECT_EQ(notes[0], "journal:degraded:degraded");
}

} // namespace
