/**
 * @file
 * Fleet placement and live-migration tests: the power-of-two-choices
 * placement (determinism, balance, eligibility, fuzz-hardened state
 * serde), the SM enclave's MAC'd migration ticket (tamper and replay
 * rejection), the end-to-end live move with the scheduler parked,
 * rolling-upgrade drain with graceful no-capacity degradation, the
 * same-seed byte-identical trace contract, and a crash-injection
 * sweep over every journal write of a migrating session.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crash_sweep.hpp"
#include "fpga/health.hpp"
#include "golden.hpp"
#include "obs/trace.hpp"
#include "salus/placement.hpp"
#include "salus/sm_logic.hpp"
#include "salus/supervisor.hpp"
#include "salus/testbed.hpp"

using namespace salus;
using namespace salus::core;

namespace {

netlist::Cell
loopbackAccel()
{
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {100, 100, 0, 0};
    return accel;
}

fpga::HealthPolicy
fastHealth()
{
    fpga::HealthPolicy h;
    h.windowSize = 4;
    h.minSamples = 2;
    h.degradeThreshold = 0.3;
    h.quarantineThreshold = 0.6;
    h.probationAfter = 200 * sim::kMs;
    h.probationSuccesses = 2;
    return h;
}

} // namespace

// ---- Placement unit behaviour ---------------------------------------

TEST(Placement, SameSeedPlacesIdentically)
{
    Placement a(8, 42);
    Placement b(8, 42);
    for (uint64_t s = 0; s < 100; ++s)
        EXPECT_EQ(a.place(s), b.place(s)) << "session " << s;
    EXPECT_EQ(a.sessionCount(), 100u);

    // A different seed shards differently somewhere.
    Placement c(8, 43);
    bool differs = false;
    for (uint64_t s = 0; s < 100; ++s)
        differs |= c.place(s) != a.deviceOf(s);
    EXPECT_TRUE(differs);
}

TEST(Placement, PowerOfTwoChoicesKeepsTheFleetBalanced)
{
    Placement p(4, 7);
    for (uint64_t s = 0; s < 400; ++s)
        p.place(s);

    uint32_t total = 0, lo = 400, hi = 0;
    for (uint32_t d = 0; d < 4; ++d) {
        total += p.load(d);
        lo = std::min(lo, p.load(d));
        hi = std::max(hi, p.load(d));
    }
    EXPECT_EQ(total, 400u);
    // Two choices with exact load counts keeps the spread tiny
    // (theory says O(log log n); give it generous slack).
    EXPECT_LE(hi - lo, 10u);
}

TEST(Placement, IneligibleDevicesTakeNoNewSessions)
{
    Placement p(3, 1);
    p.setEligible(0, false);
    for (uint64_t s = 0; s < 30; ++s)
        EXPECT_NE(p.place(s), 0u);
    EXPECT_EQ(p.load(0), 0u);

    // Draining: migrate() always moves sessions off an ineligible
    // device, spreading them over what remains.
    p.setEligible(0, true);
    p.setEligible(1, false);
    for (uint64_t s : p.sessionsOn(1))
        EXPECT_NE(p.migrate(s), 1u);
    EXPECT_TRUE(p.sessionsOn(1).empty());
    EXPECT_EQ(p.load(1), 0u);
    EXPECT_EQ(p.sessionCount(), 30u);

    // With nothing eligible, placement degrades to a typed error.
    p.setEligible(0, false);
    p.setEligible(2, false);
    EXPECT_THROW(p.place(999), MigrationError);
    EXPECT_THROW(p.pickTarget(999), MigrationError);
}

TEST(Placement, ReleaseAndPickTargetAccounting)
{
    Placement p(2, 5);
    uint32_t d = p.place(1);
    EXPECT_TRUE(p.placed(1));
    EXPECT_EQ(p.deviceOf(1), d);
    EXPECT_EQ(p.load(d), 1u);

    // pickTarget never mutates.
    uint32_t t = p.pickTarget(2);
    EXPECT_LT(t, 2u);
    EXPECT_EQ(p.sessionCount(), 1u);

    p.release(1);
    p.release(1); // idempotent
    EXPECT_FALSE(p.placed(1));
    EXPECT_EQ(p.load(d), 0u);
    EXPECT_THROW(p.deviceOf(1), SalusError);
    EXPECT_THROW(p.migrate(1), MigrationError);
}

TEST(Placement, StateSerdeRoundTripsAndRejectsGarbage)
{
    Placement p(5, 99);
    p.setEligible(3, false);
    for (uint64_t s = 10; s < 30; ++s)
        p.place(s);

    Placement q = Placement::deserializeState(p.serializeState());
    EXPECT_EQ(q.deviceCount(), 5u);
    EXPECT_EQ(q.sessionCount(), 20u);
    EXPECT_FALSE(q.eligible(3));
    for (uint64_t s = 10; s < 30; ++s)
        EXPECT_EQ(q.deviceOf(s), p.deviceOf(s));
    for (uint32_t d = 0; d < 5; ++d)
        EXPECT_EQ(q.load(d), p.load(d));
    // The adopted state keeps placing the same way.
    EXPECT_EQ(q.place(1000), p.place(1000));

    Bytes good = p.serializeState();
    Bytes badMagic = good;
    badMagic[0] ^= 0xff;
    EXPECT_THROW(Placement::deserializeState(badMagic), SerdeError);
    Bytes cut(good.begin(), good.begin() + 9);
    EXPECT_THROW(Placement::deserializeState(cut), SerdeError);

    // Out-of-pool assignments and duplicate sessions are refused.
    BinaryWriter w;
    w.writeU32(0x53504c43);
    w.writeU32(2);
    w.writeU64(0);
    w.writeU8(1);
    w.writeU8(1);
    w.writeU32(1);
    w.writeU64(77);
    w.writeU32(9); // device 9 of 2
    EXPECT_THROW(Placement::deserializeState(w.take()), SerdeError);

    BinaryWriter w2;
    w2.writeU32(0x53504c43);
    w2.writeU32(2);
    w2.writeU64(0);
    w2.writeU8(1);
    w2.writeU8(1);
    w2.writeU32(2);
    w2.writeU64(77);
    w2.writeU32(0);
    w2.writeU64(77); // duplicate session
    w2.writeU32(1);
    EXPECT_THROW(Placement::deserializeState(w2.take()), SerdeError);
}

// ---- Migration message serde ----------------------------------------

TEST(MigrationSerde, TicketRoundTripsAndRejectsGarbage)
{
    MigrationTicket t;
    t.fromDevice = 0;
    t.toDevice = 2;
    t.fromDna = 0x1111;
    t.toDna = 0x2222;
    t.nonce = 0xfeedbeef;
    t.sourceFingerprint = Bytes(32, 0xab);
    t.mac = 0xdeadd00d;

    MigrationTicket t2 = MigrationTicket::deserialize(t.serialize());
    EXPECT_EQ(t2.fromDevice, t.fromDevice);
    EXPECT_EQ(t2.toDevice, t.toDevice);
    EXPECT_EQ(t2.fromDna, t.fromDna);
    EXPECT_EQ(t2.toDna, t.toDna);
    EXPECT_EQ(t2.nonce, t.nonce);
    EXPECT_EQ(t2.sourceFingerprint, t.sourceFingerprint);
    EXPECT_EQ(t2.mac, t.mac);

    Bytes good = t.serialize();
    Bytes badMagic = good;
    badMagic[0] ^= 0xff;
    EXPECT_THROW(MigrationTicket::deserialize(badMagic), SerdeError);
    Bytes cut(good.begin(), good.begin() + 11);
    EXPECT_THROW(MigrationTicket::deserialize(cut), SerdeError);

    MigrationTicket absurd = t;
    absurd.toDevice = Placement::kMaxDevices;
    EXPECT_THROW(MigrationTicket::deserialize(absurd.serialize()),
                 SerdeError);
    MigrationTicket shortFp = t;
    shortFp.sourceFingerprint = Bytes(16, 0xab);
    EXPECT_THROW(MigrationTicket::deserialize(shortFp.serialize()),
                 SerdeError);
}

TEST(MigrationSerde, RecordRoundTripsAndRejectsBadFlag)
{
    MigrationRecord m;
    m.fromDevice = 1;
    m.toDevice = 0;
    m.atNanos = 555;
    m.reason = "rolling upgrade";
    m.oldFingerprint = Bytes(32, 0x01);
    m.newFingerprint = Bytes(32, 0x02);
    m.attested = 1;
    m.parkedOps = 12;

    MigrationRecord m2 = MigrationRecord::deserialize(m.serialize());
    EXPECT_EQ(m2.fromDevice, 1u);
    EXPECT_EQ(m2.toDevice, 0u);
    EXPECT_EQ(m2.atNanos, 555u);
    EXPECT_EQ(m2.reason, m.reason);
    EXPECT_EQ(m2.oldFingerprint, m.oldFingerprint);
    EXPECT_EQ(m2.newFingerprint, m.newFingerprint);
    EXPECT_EQ(m2.attested, 1);
    EXPECT_EQ(m2.parkedOps, 12u);

    MigrationRecord bad = m;
    bad.attested = 9;
    EXPECT_THROW(MigrationRecord::deserialize(bad.serialize()),
                 SerdeError);
}

// ---- Ticket security at the SM enclave ------------------------------

TEST(MigrationTicketSecurity, TamperedTicketsAreRefused)
{
    TestbedConfig cfg;
    cfg.rngSeed = 21;
    cfg.deviceCount = 2;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    // Every field is bound by the MAC (or checked against the SM's
    // own view): flipping any one of them kills the ticket. The
    // supervisor relays these, so refusal is a false, not a throw.
    auto tampered = [&](auto &&mutate) {
        MigrationTicket t = tb.smApp().issueMigrationTicket(1);
        mutate(t);
        return tb.smApp().commitMigration(t);
    };
    EXPECT_FALSE(tampered([](MigrationTicket &t) { t.toDna ^= 1; }));
    EXPECT_FALSE(tampered([](MigrationTicket &t) { t.fromDna ^= 1; }));
    EXPECT_FALSE(tampered([](MigrationTicket &t) { t.nonce ^= 1; }));
    EXPECT_FALSE(tampered([](MigrationTicket &t) { t.mac ^= 1; }));
    EXPECT_FALSE(tampered(
        [](MigrationTicket &t) { t.sourceFingerprint[0] ^= 1; }));
    // Redirecting the move to a different device than authorized.
    EXPECT_FALSE(tampered([](MigrationTicket &t) { t.fromDevice = 1; }));

    // The untampered ticket still commits: nothing above burned it.
    MigrationTicket good = tb.smApp().issueMigrationTicket(1);
    EXPECT_TRUE(tb.smApp().commitMigration(good));
    EXPECT_EQ(tb.smApp().activeDevice(), 1u);

    // Replay: the commit retired the epoch the ticket is bound to.
    EXPECT_FALSE(tb.smApp().commitMigration(good));
}

TEST(MigrationTicketSecurity, IssueRefusesMisuse)
{
    TestbedConfig cfg;
    cfg.rngSeed = 22;
    cfg.deviceCount = 2;
    Testbed tb(cfg);

    // No live attested session yet.
    EXPECT_THROW(tb.smApp().issueMigrationTicket(1), MigrationError);

    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    // Self-migration and out-of-pool targets are refused.
    EXPECT_THROW(tb.smApp().issueMigrationTicket(0), MigrationError);
    EXPECT_THROW(tb.smApp().issueMigrationTicket(9), MigrationError);
}

// ---- Live migration end to end --------------------------------------

TEST(LiveMigration, ActiveSessionMovesWithParkedQueueAndFreshKeys)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    TestbedConfig cfg;
    cfg.rngSeed = 23;
    cfg.deviceCount = 3;
    cfg.health = fastHealth();
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    ASSERT_TRUE(tb.userApp().secureWrite(0x00, 41));
    Bytes oldFp = tb.smApp().secretsFingerprint();

    // Ops queued (not yet pumped) ride through the move parked.
    BatchScheduler &sched = tb.scheduler();
    std::vector<uint8_t> statuses;
    uint64_t readBack = 0;
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(sched.submit(0, {true, 0x08, 70ull + uint64_t(i)},
                               [&](uint8_t st, uint64_t) {
                                   statuses.push_back(st);
                               }),
                  BatchScheduler::Submit::Accepted);
    ASSERT_EQ(sched.submit(0, {false, 0x08, 0},
                           [&](uint8_t st, uint64_t data) {
                               statuses.push_back(st);
                               readBack = data;
                           }),
              BatchScheduler::Submit::Accepted);

    MigrationRecord rec =
        tb.supervisor().migrateActiveTo(2, "load balancing");
    EXPECT_EQ(rec.fromDevice, 0u);
    EXPECT_EQ(rec.toDevice, 2u);
    EXPECT_EQ(rec.attested, 1);
    EXPECT_EQ(rec.parkedOps, 4u);
    EXPECT_EQ(rec.reason, "load balancing");
    EXPECT_EQ(tb.smApp().activeDevice(), 2u);
    ASSERT_EQ(tb.supervisor().migrations().size(), 1u);

    // Key freshness: the source epoch is tombstoned, the target runs
    // under secrets that never served anywhere else.
    ASSERT_FALSE(oldFp.empty());
    EXPECT_EQ(rec.oldFingerprint, oldFp);
    EXPECT_TRUE(tb.smApp().everRetiredFingerprint(oldFp));
    EXPECT_NE(rec.newFingerprint, oldFp);
    EXPECT_FALSE(
        tb.smApp().everRetiredFingerprint(rec.newFingerprint));

    // The parked ops were released and complete on the TARGET device.
    EXPECT_FALSE(sched.parked());
    EXPECT_EQ(sched.drain(), 4u);
    ASSERT_EQ(statuses.size(), 4u);
    for (uint8_t st : statuses)
        EXPECT_EQ(st, 0);
    EXPECT_EQ(readBack, 72u);
    EXPECT_EQ(tb.shell(2).registerRead(pcie::Window::SmSecure,
                                       kSmRegStatBatchOps),
              4u);
    EXPECT_EQ(tb.shell(0).registerRead(pcie::Window::SmSecure,
                                       kSmRegStatBatchOps),
              0u);

    // Plain channel traffic continues on the new device too.
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 77));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 77u);
}

TEST(LiveMigration, MoveToFirstWriteAndPostMoveBurstAreExact)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    TestbedConfig cfg;
    cfg.rngSeed = 25;
    cfg.deviceCount = 3;
    cfg.health = fastHealth();
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    ASSERT_TRUE(tb.userApp().secureWrite(0x00, 1));

    // Eight writes ride the move parked; the time from quiescing the
    // source to their completion on the target is pinned, and so is a
    // 64-op burst right after it, to the nanosecond.
    BatchScheduler &sched = tb.scheduler();
    size_t completed = 0;
    auto count = [&](uint8_t st, uint64_t) { completed += st == 0; };
    for (uint64_t i = 0; i < 8; ++i)
        ASSERT_EQ(sched.submit(0, {true, 0x08, i}, count),
                  BatchScheduler::Submit::Accepted);
    sim::Nanos start = tb.clock().now();
    MigrationRecord rec = tb.supervisor().migrateActiveTo(2, "planned");
    ASSERT_EQ(rec.attested, 1);
    ASSERT_EQ(rec.parkedOps, 8u);
    ASSERT_EQ(sched.drain(), 8u);
    ASSERT_EQ(completed, 8u);
    test::expectGoldenValue("migration.move_to_first_write_ns",
                            tb.clock().now() - start);

    for (uint64_t i = 0; i < 64; ++i)
        ASSERT_EQ(sched.submit(0, {true, 0x10, i}, count),
                  BatchScheduler::Submit::Accepted);
    sim::Nanos burst = tb.clock().now();
    ASSERT_EQ(sched.drain(), 64u);
    EXPECT_EQ(completed, 72u);
    test::expectGoldenValue("migration.post_move_64_ops_ns",
                            tb.clock().now() - burst);
}

TEST(LiveMigration, SupervisorRefusesUnusableTargets)
{
    TestbedConfig cfg;
    cfg.rngSeed = 24;
    cfg.deviceCount = 2;
    cfg.health = fastHealth();
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    Bytes fp = tb.smApp().secretsFingerprint();

    EXPECT_THROW(tb.supervisor().migrateActiveTo(0, "self"),
                 MigrationError);
    EXPECT_THROW(tb.supervisor().migrateActiveTo(9, "ghost"),
                 MigrationError);

    // Refusals happen before anything is touched: same epoch, same
    // device, traffic uninterrupted.
    EXPECT_EQ(tb.smApp().activeDevice(), 0u);
    EXPECT_EQ(tb.smApp().secretsFingerprint(), fp);
    EXPECT_TRUE(tb.supervisor().migrations().empty());
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 5));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 5u);
}

// ---- Rolling upgrades -----------------------------------------------

TEST(RollingUpgrade, DrainMovesEverythingAndMaintenanceHolds)
{
    TestbedConfig cfg;
    cfg.rngSeed = 25;
    cfg.deviceCount = 3;
    cfg.health = fastHealth();
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    Placement placement(3, cfg.rngSeed);
    for (uint64_t s = 1; s <= 12; ++s)
        placement.place(s);
    uint32_t wasOnZero = placement.load(0);

    size_t moved =
        tb.supervisor().drainForUpgrade(0, placement, "shell update");
    EXPECT_EQ(moved, wasOnZero);
    EXPECT_TRUE(placement.sessionsOn(0).empty());
    EXPECT_FALSE(placement.eligible(0));
    EXPECT_EQ(placement.sessionCount(), 12u);

    // The REAL session (it was serving on device 0) live-migrated.
    ASSERT_EQ(tb.supervisor().migrations().size(), 1u);
    EXPECT_NE(tb.smApp().activeDevice(), 0u);
    EXPECT_EQ(tb.supervisor().migrations()[0].attested, 1);

    // Maintenance quarantine holds across the watchdog: no probation
    // while the operator is reflashing the shell.
    EXPECT_EQ(tb.supervisor().state(0),
              fpga::HealthState::Quarantined);
    EXPECT_TRUE(tb.supervisor().tracker(0).inMaintenance());
    tb.supervisor().runFor(3 * fastHealth().probationAfter);
    EXPECT_EQ(tb.supervisor().state(0),
              fpga::HealthState::Quarantined);

    // Upgrade done: the device earns its way back through probation
    // and takes new placements again.
    tb.supervisor().completeUpgrade(0, placement);
    EXPECT_TRUE(placement.eligible(0));
    EXPECT_EQ(tb.supervisor().state(0), fpga::HealthState::Probation);
    // Each poll spends network RTT virtual time well past the
    // heartbeat period, so count polls instead of wall time: two
    // clean probes serve out probation (probationSuccesses = 2).
    tb.supervisor().pollOnce();
    tb.supervisor().pollOnce();
    EXPECT_EQ(tb.supervisor().state(0), fpga::HealthState::Healthy);

    // Traffic never stopped.
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 9));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 9u);
}

TEST(RollingUpgrade, NoCapacityDegradesGracefully)
{
    TestbedConfig cfg;
    cfg.rngSeed = 26;
    cfg.deviceCount = 1;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    Placement placement(1, cfg.rngSeed);
    placement.place(1);

    // Draining the only device must refuse up front: eligibility is
    // restored, nothing migrated, the session keeps serving.
    EXPECT_THROW(
        tb.supervisor().drainForUpgrade(0, placement, "no room"),
        MigrationError);
    EXPECT_TRUE(placement.eligible(0));
    EXPECT_EQ(placement.deviceOf(1), 0u);
    EXPECT_TRUE(tb.supervisor().migrations().empty());
    EXPECT_EQ(tb.supervisor().state(0), fpga::HealthState::Healthy);
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 3));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 3u);
}

// ---- Same-seed determinism (replay contract) ------------------------

namespace {

struct MigrationRun
{
    bool deployOk = false;
    uint64_t clockEnd = 0;
    Bytes oldFp;
    Bytes newFp;
    uint32_t activeAfter = 0;
    size_t migrations = 0;
    uint64_t postRead = 0;
    std::string traceJson;
    std::string metricsText;
};

/** The rolling-upgrade scenario the robustness-soak seed sweep runs:
 *  deploy, drain device 0 (live-migrating the active session), finish
 *  the upgrade, keep serving. Fully traced for byte comparison. */
MigrationRun
runUpgradeScenario(uint64_t seed)
{
    MigrationRun run;
    TestbedConfig cfg;
    cfg.rngSeed = seed;
    cfg.deviceCount = 3;
    cfg.health = fastHealth();
    Testbed tb(cfg);

    obs::TraceRecorder recorder(tb.clock());
    obs::MetricsRegistry metricsReg;
    {
        obs::ObsScope scope(&recorder, &metricsReg);
        tb.installCl(loopbackAccel());
        run.deployOk = tb.runDeployment().ok;
        if (run.deployOk) {
            EXPECT_TRUE(tb.userApp().secureWrite(0x00, 1));
            run.oldFp = tb.smApp().secretsFingerprint();

            Placement placement(3, seed);
            for (uint64_t s = 1; s <= 8; ++s)
                placement.place(s);
            tb.supervisor().drainForUpgrade(0, placement,
                                            "rolling upgrade");
            tb.supervisor().runFor(50 * sim::kMs);
            tb.supervisor().completeUpgrade(0, placement);

            run.migrations = tb.supervisor().migrations().size();
            run.activeAfter = tb.smApp().activeDevice();
            run.newFp = tb.smApp().secretsFingerprint();
            EXPECT_TRUE(tb.userApp().secureWrite(0x00, 2));
            run.postRead = tb.userApp().secureRead(0x00).value_or(0);
            run.clockEnd = tb.clock().now();
        }
    }
    run.traceJson = recorder.chromeTraceJson();
    run.metricsText = metricsReg.renderText();
    return run;
}

} // namespace

TEST(LiveMigration, SameSeedUpgradeRunsAreBitForBitIdentical)
{
    MigrationRun a = runUpgradeScenario(27);
    MigrationRun b = runUpgradeScenario(27);
    ASSERT_TRUE(a.deployOk);
    EXPECT_EQ(a.migrations, 1u);
    EXPECT_NE(a.activeAfter, 0u);
    EXPECT_EQ(a.postRead, 2u);
    EXPECT_NE(a.oldFp, a.newFp);

    EXPECT_EQ(a.clockEnd, b.clockEnd);
    EXPECT_EQ(a.activeAfter, b.activeAfter);
    EXPECT_EQ(a.oldFp, b.oldFp);
    EXPECT_EQ(a.newFp, b.newFp);
    ASSERT_GT(a.traceJson.size(), 1000u);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.metricsText, b.metricsText);

    // A different seed derives different key material.
    MigrationRun c = runUpgradeScenario(28);
    ASSERT_TRUE(c.deployOk);
    EXPECT_NE(c.newFp, a.newFp);
}

// ---- Crash-injection sweep over a migrating session -----------------

namespace {

/** The canonical migrating session the sweep enumerates journal
 *  writes of: deploy, traffic, live-migrate 0 -> 1, traffic.
 *  `preFp` reports the source epoch's fingerprint (captured right
 *  before the migration) even when a crash interrupts the move. */
void
runMigratingSession(Testbed &tb, Bytes &preFp)
{
    tb.installCl(loopbackAccel());
    UserClient::Outcome out = tb.runDeployment();
    if (!out.ok)
        throw SalusError("deployment failed: " + out.failure);
    if (!tb.userApp().secureWrite(0x00, 1))
        throw SalusError("write failed");
    preFp = tb.smApp().secretsFingerprint();
    tb.supervisor().migrateActiveTo(1, "sweep migration");
    if (!tb.userApp().secureWrite(0x00, 2))
        throw SalusError("write failed");
}

TestbedConfig
migrationSweepConfig()
{
    TestbedConfig cfg;
    cfg.rngSeed = 31;
    cfg.deviceCount = 2;
    return cfg;
}

int
baselineMigrationJournalWrites()
{
    static int n = test::journalWritesOf(migrationSweepConfig(),
                                         [](Testbed &tb) {
                                             Bytes fp;
                                             runMigratingSession(tb, fp);
                                         });
    return n;
}

} // namespace

class MigrationCrashSweep
    : public ::testing::TestWithParam<test::CrashPoint>
{
};

TEST_P(MigrationCrashSweep, EveryJournalStepFailsClosedOrCompletes)
{
    ASSERT_GE(baselineMigrationJournalWrites(), 4)
        << "scenario no longer journals enough steps to sweep";
    // Honest host: every crash point recovers consistent — never a
    // partially adopted migration.
    Bytes preFp;
    SmEnclaveApp::RecoveryReport rep;
    auto tb = test::crashAndRecover(
        migrationSweepConfig(), GetParam(),
        [&](Testbed &t) { runMigratingSession(t, preFp); }, rep);
    ASSERT_TRUE(tb);
    EXPECT_EQ(rep.reattestFailures, 0u);

    // The recovered table lands in exactly one of two states: the
    // migration committed (active = target, source epoch tombstoned)
    // or it failed closed on the source (active = source). Either
    // way the source epoch's keys are never live on two devices.
    uint32_t active = tb->smApp().activeDevice();
    EXPECT_TRUE(active == 0 || active == 1);
    if (!preFp.empty() && active == 1) {
        EXPECT_TRUE(tb->smApp().everRetiredFingerprint(preFp))
            << "migration adopted without tombstoning the source";
    }
    Bytes liveFp = tb->smApp().secretsFingerprint();
    if (!liveFp.empty()) {
        EXPECT_FALSE(tb->smApp().everRetiredFingerprint(liveFp));
    }

    // And the fleet serves attested traffic again end to end.
    UserClient::Outcome out = tb->runDeployment();
    ASSERT_TRUE(out.ok) << out.failure;
    EXPECT_TRUE(tb->userApp().secureWrite(0x10, 5));
    EXPECT_EQ(tb->userApp().secureRead(0x10), 5u);
    Bytes finalFp = tb->smApp().secretsFingerprint();
    ASSERT_FALSE(finalFp.empty());
    EXPECT_FALSE(tb->smApp().everRetiredFingerprint(finalFp));
}

INSTANTIATE_TEST_SUITE_P(AllMigrationJournalSteps, MigrationCrashSweep,
                         test::crashPoints(baselineMigrationJournalWrites()),
                         test::crashPointName);
