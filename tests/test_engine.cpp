/**
 * @file
 * Deterministic event-engine tests: stable (time, priority, seq)
 * dispatch order across seeds, seeded tie-break shuffling semantics,
 * cancel/reschedule behavior, clock advancement, event-driven DMA
 * lane concurrency across devices, the fleet-scale model's invariants
 * and golden artifact digests, and same-seed determinism of an
 * engine-driven scenario run.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "golden.hpp"
#include "obs/trace.hpp"
#include "salus/actors.hpp"
#include "salus/fleet_sim.hpp"
#include "salus/scenario.hpp"
#include "salus/testbed.hpp"
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

std::vector<uint64_t>
dispatchOrder(sim::Engine::Config cfg)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock, cfg);
    RecordingActor actor;
    uint32_t id = engine.addActor(actor, "recorder");
    // Ten events at the same instant and priority: FIFO mode must
    // dispatch them in submission order regardless of seed.
    for (uint64_t i = 0; i < 10; ++i)
        engine.post(100, sim::kPriorityDefault, id, 1, i);
    EXPECT_TRUE(engine.runUntilIdle());
    std::vector<uint64_t> order;
    for (const auto &d : actor.log)
        order.push_back(d.a);
    return order;
}

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

TEST(Engine, FifoOrderIsSeedIndependentAcross32Seeds)
{
    std::vector<uint64_t> expect{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    for (uint64_t seed = 1; seed <= 32; ++seed) {
        sim::Engine::Config cfg;
        cfg.seed = seed;
        cfg.seededTieBreak = false;
        EXPECT_EQ(dispatchOrder(cfg), expect) << "seed " << seed;
    }
}

TEST(Engine, SeededTieBreakShufflesPerSeedButStaysStable)
{
    // Per seed: two runs produce the identical order (determinism).
    // Across 32 seeds: at least one order differs from FIFO (the
    // shuffle actually engages), while the delivered SET is intact.
    size_t shuffled = 0;
    std::vector<uint64_t> fifo{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    for (uint64_t seed = 1; seed <= 32; ++seed) {
        sim::Engine::Config cfg;
        cfg.seed = seed;
        cfg.seededTieBreak = true;
        std::vector<uint64_t> once = dispatchOrder(cfg);
        EXPECT_EQ(once, dispatchOrder(cfg)) << "seed " << seed;
        std::vector<uint64_t> sorted = once;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, fifo) << "seed " << seed;
        if (once != fifo)
            ++shuffled;
    }
    EXPECT_GT(shuffled, 0u);
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

// ---- Event-driven DMA lanes ------------------------------------------

TEST(Actors, DmaLanesOverlapAcrossDevices)
{
    // Two independent lanes each moving the same bulk job: virtual
    // completion must overlap (fleet end ≈ one lane's span, not two),
    // which the lockstep wire model cannot do.
    sim::CostModel cost;
    sim::VirtualClock clock;
    obs::TraceRecorder recorder(clock);
    obs::MetricsRegistry metricsReg;
    obs::ObsScope scope(&recorder, &metricsReg);
    sim::Engine engine(clock);

    DmaLaneActor laneA(cost, "laneA");
    DmaLaneActor laneB(cost, "laneB");
    laneA.attach(engine);
    laneB.attach(engine);

    DmaLaneActor::Job job;
    job.bytes = 1024 * 1024;
    job.chunkBytes = 64 * 1024;
    job.window = 8;
    laneA.submit(engine, job);
    laneB.submit(engine, job);
    ASSERT_TRUE(engine.runUntilIdle());
    laneA.flushSpans();
    laneB.flushSpans();

    const DmaLaneActor::LaneStats &a = laneA.stats();
    const DmaLaneActor::LaneStats &b = laneB.stats();
    EXPECT_EQ(a.bytes, job.bytes);
    EXPECT_EQ(a.descriptors, 16u);
    EXPECT_GT(a.busyNanos, 0);
    EXPECT_EQ(a.busyNanos, b.busyNanos); // identical jobs, same model
    // Concurrency: the fleet finished in one lane's time, not two.
    EXPECT_EQ(clock.now(), a.idleUntil);
    EXPECT_LT(clock.now(), a.busyNanos + b.busyNanos);
    // Busy accounting identity: lane time = exposed crypto + transport,
    // and the coalesced trace spans cover it exactly.
    EXPECT_EQ(a.busyNanos, a.cryptoNanos + a.transportNanos);
    EXPECT_EQ(recorder.namedTotal("laneA"), a.busyNanos);
    EXPECT_EQ(recorder.namedTotal("laneB"), b.busyNanos);
    // Windowed overlap hid some keystream precompute.
    EXPECT_GT(a.hiddenCryptoNanos, 0);
}

TEST(Actors, DmaLaneQueuesBackToBackJobsFifo)
{
    sim::CostModel cost;
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    DmaLaneActor lane(cost, "lane");
    lane.attach(engine);

    DmaLaneActor::Job job;
    job.bytes = 256 * 1024;
    lane.submit(engine, job);
    sim::Nanos firstEnd = lane.stats().idleUntil;
    lane.submit(engine, job); // queued behind the first
    EXPECT_GT(lane.stats().idleUntil, firstEnd);
    ASSERT_TRUE(engine.runUntilIdle());
    EXPECT_EQ(lane.stats().jobs, 2u);
    EXPECT_EQ(clock.now(), lane.stats().idleUntil);
}

// ---- Fleet-scale model -----------------------------------------------

TEST(FleetSim, SmokeRunSatisfiesItsInvariants)
{
    FleetSimConfig cfg;
    cfg.sessions = 64;
    cfg.devices = 8;
    FleetSimReport report = runFleetSim(cfg);
    for (const std::string &v : report.violations)
        ADD_FAILURE() << v;
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.sessionsCompleted, 64u);
    EXPECT_EQ(report.regBursts, 64u * 3);
    EXPECT_EQ(report.dmaBytes, 64ull * 64 * 1024);
    EXPECT_GT(report.eventsDispatched, 0u);
    // Exact accounting: span sums equal the cost-model totals.
    EXPECT_EQ(report.spanRegNanos, report.expectedRegNanos);
    EXPECT_EQ(report.spanDmaNanos, report.expectedDmaNanos);
}

TEST(FleetSim, SameSeedIsByteIdenticalDifferentSeedDiverges)
{
    FleetSimConfig cfg;
    cfg.sessions = 48;
    cfg.devices = 6;
    FleetSimReport a = runFleetSim(cfg);
    FleetSimReport b = runFleetSim(cfg);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.metricsText, b.metricsText);
    test::expectGoldenDigest("fleet_sim_48x6.trace.json", a.traceJson);
    test::expectGoldenDigest("fleet_sim_48x6.metrics.txt", a.metricsText);
    cfg.seed = 99; // think-time jitter shifts every busy period
    FleetSimReport c = runFleetSim(cfg);
    EXPECT_TRUE(c.ok);
    EXPECT_NE(a.traceJson, c.traceJson);
}

TEST(FleetSim, SeededTieBreakKeepsMetricsInvariant)
{
    // Shuffling same-instant dispatch order must not change WHAT the
    // fleet did — only the interleaving. Counters have to match the
    // FIFO run exactly (the determinism audit for hidden order
    // dependence between actors).
    FleetSimConfig cfg;
    cfg.sessions = 48;
    cfg.devices = 6;
    FleetSimReport fifo = runFleetSim(cfg);
    cfg.seededTieBreak = true;
    FleetSimReport shuffled = runFleetSim(cfg);
    EXPECT_TRUE(shuffled.ok);
    EXPECT_EQ(fifo.sessionsCompleted, shuffled.sessionsCompleted);
    EXPECT_EQ(fifo.regBursts, shuffled.regBursts);
    EXPECT_EQ(fifo.dmaBytes, shuffled.dmaBytes);
    EXPECT_EQ(fifo.metricsText, shuffled.metricsText);
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
