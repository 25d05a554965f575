/**
 * @file
 * Deterministic event-engine tests: stable (time, priority, seq)
 * dispatch order, FIFO order at one instant, cancel/reschedule
 * behavior, clock advancement, and same-seed determinism of an
 * engine-driven scenario run.
 */

#include <gtest/gtest.h>

#include <vector>

#include "salus/scenario.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"

using namespace salus;
using namespace salus::core;

namespace {

/** Records every delivered (kind, a) pair with its dispatch time. */
struct RecordingActor final : sim::Actor
{
    struct Delivery
    {
        uint32_t kind;
        uint64_t a;
        sim::Nanos at;
    };
    std::vector<Delivery> log;

    void onEvent(sim::Engine &engine, const sim::Event &event) override
    {
        log.push_back({event.kind, event.a, engine.now()});
    }
};

} // namespace

// ---- Ordering --------------------------------------------------------

TEST(Engine, SameInstantEventsDispatchInPrioritySeqOrder)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    RecordingActor actor;
    uint32_t id = engine.addActor(actor, "recorder");

    // Posted out of priority order at one instant; dispatch must sort
    // (priority, seq): control first, bulk last, FIFO within a tier.
    engine.post(50, sim::kPriorityBulk, id, 1, 0);
    engine.post(50, sim::kPriorityControl, id, 2, 1);
    engine.post(50, sim::kPriorityDefault, id, 3, 2);
    engine.post(50, sim::kPriorityControl, id, 4, 3);
    engine.post(10, sim::kPriorityBulk, id, 5, 4); // earlier time wins

    ASSERT_TRUE(engine.runUntilIdle());
    ASSERT_EQ(actor.log.size(), 5u);
    EXPECT_EQ(actor.log[0].kind, 5u); // t=10 beats every priority
    EXPECT_EQ(actor.log[1].kind, 2u); // control, seq order
    EXPECT_EQ(actor.log[2].kind, 4u);
    EXPECT_EQ(actor.log[3].kind, 3u); // default
    EXPECT_EQ(actor.log[4].kind, 1u); // bulk
    EXPECT_EQ(engine.now(), 50);
    EXPECT_EQ(engine.stats().dispatched, 5u);
}

TEST(Engine, FifoOrderAtOneInstant)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    RecordingActor actor;
    uint32_t id = engine.addActor(actor, "recorder");
    // Ten events at the same instant and priority dispatch in
    // submission order: the scenario driver's sweep chain relies on it.
    for (uint64_t i = 0; i < 10; ++i)
        engine.post(100, sim::kPriorityDefault, id, 1, i);
    ASSERT_TRUE(engine.runUntilIdle());
    std::vector<uint64_t> order;
    for (const auto &d : actor.log)
        order.push_back(d.a);
    EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

// ---- Cancel / reschedule ---------------------------------------------

TEST(Engine, CancelPreventsDispatchAndReschedulingMovesDueTime)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    RecordingActor actor;
    uint32_t id = engine.addActor(actor, "recorder");

    sim::EventId cancelled =
        engine.post(100, sim::kPriorityDefault, id, 1, 1);
    sim::EventId moved = engine.post(100, sim::kPriorityDefault, id, 2, 2);
    engine.post(150, sim::kPriorityDefault, id, 3, 3);

    EXPECT_TRUE(engine.cancel(cancelled));
    EXPECT_FALSE(engine.cancel(cancelled)); // second cancel is a no-op
    EXPECT_TRUE(engine.reschedule(moved, 200));
    EXPECT_EQ(engine.pendingAt(moved), 200);
    EXPECT_FALSE(engine.reschedule(cancelled, 300)); // dead id

    ASSERT_TRUE(engine.runUntilIdle());
    ASSERT_EQ(actor.log.size(), 2u);
    EXPECT_EQ(actor.log[0].kind, 3u);
    EXPECT_EQ(actor.log[0].at, 150);
    EXPECT_EQ(actor.log[1].kind, 2u); // dispatched at its NEW time
    EXPECT_EQ(actor.log[1].at, 200);
    EXPECT_EQ(engine.stats().cancelled, 1u);
}

TEST(Engine, RescheduleToThePastClampsToNow)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    RecordingActor actor;
    uint32_t id = engine.addActor(actor, "recorder");
    clock.advance(500);
    sim::EventId ev = engine.post(600, sim::kPriorityDefault, id, 1);
    EXPECT_TRUE(engine.reschedule(ev, 100)); // past: clamps to now
    EXPECT_EQ(engine.pendingAt(ev), 500);
    ASSERT_TRUE(engine.runUntilIdle());
    EXPECT_EQ(actor.log.at(0).at, 500);
}

TEST(Engine, PostToUnknownActorThrows)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    EXPECT_THROW(engine.post(0, sim::kPriorityDefault, 0, 1),
                 std::out_of_range);
    EXPECT_THROW(engine.post(0, sim::kPriorityDefault, 7, 1),
                 std::out_of_range);
}

TEST(Engine, RunUntilStopsAtDeadlineAndAdvancesClock)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    RecordingActor actor;
    uint32_t id = engine.addActor(actor, "recorder");
    engine.post(100, sim::kPriorityDefault, id, 1);
    engine.post(300, sim::kPriorityDefault, id, 2);
    EXPECT_EQ(engine.runUntil(200), 1u);
    EXPECT_EQ(engine.now(), 200);
    EXPECT_EQ(engine.pending(), 1u);
    EXPECT_TRUE(engine.runUntilIdle());
    EXPECT_EQ(engine.now(), 300);
}

// ---- Engine scenario determinism -------------------------------------

namespace {

const char *const kMiniScenario = R"(
[scenario]
name = engine-parity
seed = 11
devices = 2
sweeps = 12
poll_every = 3

[broker]
max_total_queued_ops = 256
shed_low_water = 128
max_total_sessions = 4

[tenant alpha]
weight = 2
max_sessions = 2
max_queued_ops = 64
pattern = flood
ops_per_sweep = 8

[tenant beta]
weight = 1
max_sessions = 1
max_queued_ops = 32
pattern = burst
ops_per_sweep = 6
burst_on = 2
burst_off = 2

[action]
kind = dma
at_sweep = 4
bytes = 65536
window = 4

[expect]
completed_min = 50
failovers_max = 0
)";

} // namespace

TEST(ScenarioEngine, EngineRunsAreSameSeedDeterministic)
{
    Scenario sc = parseScenario(kMiniScenario);
    ScenarioOutcome a = runScenarioOnEngine(sc);
    ASSERT_TRUE(a.passed())
        << (a.violations.empty() ? "deploy failed" : a.violations[0]);
    ScenarioOutcome b = runScenarioOnEngine(sc);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.metricsText, b.metricsText);
}
