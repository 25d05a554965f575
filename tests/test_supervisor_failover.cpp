/**
 * @file
 * Fleet supervision tests: the per-device health breaker, MAC'd
 * heartbeats, attested session failover with key-freshness
 * guarantees, SM-enclave crash recovery (journal sweep + rollback
 * rejection), and the serde round trips of every fleet message.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <tuple>

#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crash_sweep.hpp"
#include "fpga/health.hpp"
#include "golden.hpp"
#include "obs/trace.hpp"
#include "salus/sm_logic.hpp"
#include "salus/supervisor.hpp"
#include "salus/testbed.hpp"

using namespace salus;
using namespace salus::core;

namespace {

netlist::Cell
loopbackAccel(const char *name = "engine")
{
    netlist::Cell accel;
    accel.path = name;
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {100, 100, 0, 0};
    return accel;
}

/** Aggressive breaker tuning so tests trip in a handful of polls. */
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

// ---- HealthTracker unit behaviour -----------------------------------

TEST(HealthTracker, EscalatesThroughDegradedToQuarantined)
{
    fpga::HealthTracker t(fastHealth());
    EXPECT_EQ(t.state(), fpga::HealthState::Healthy);

    t.recordSuccess(0);
    t.recordFailure(1 * sim::kMs, "lost probe");
    // 1/2 failures >= 0.3 => degraded (but not yet 0.6 with 2 samples?
    // 0.5 < 0.6, so degraded only).
    EXPECT_EQ(t.state(), fpga::HealthState::Degraded);

    t.recordFailure(2 * sim::kMs, "lost probe");
    // window 3 samples, rate 2/3 >= 0.6 => quarantined.
    EXPECT_EQ(t.state(), fpga::HealthState::Quarantined);
    EXPECT_FALSE(t.permanentlyQuarantined());
    EXPECT_GE(t.transitions().size(), 2u);
}

TEST(HealthTracker, DegradedRecoversWhenRateDrops)
{
    fpga::HealthTracker t(fastHealth());
    t.recordSuccess(0);
    t.recordFailure(1, "x");
    EXPECT_EQ(t.state(), fpga::HealthState::Degraded);
    // Successes push the failure out of the 4-sample window.
    t.recordSuccess(2);
    t.recordSuccess(3);
    t.recordSuccess(4);
    t.recordSuccess(5);
    EXPECT_EQ(t.state(), fpga::HealthState::Healthy);
}

TEST(HealthTracker, ProbationReinstatesAfterCooldown)
{
    fpga::HealthPolicy h = fastHealth();
    fpga::HealthTracker t(h);
    t.recordFailure(0, "a");
    t.recordFailure(1, "b");
    ASSERT_EQ(t.state(), fpga::HealthState::Quarantined);

    // Before the cool-down: still quarantined.
    t.tick(h.probationAfter / 2);
    EXPECT_EQ(t.state(), fpga::HealthState::Quarantined);

    t.tick(2 + h.probationAfter);
    ASSERT_EQ(t.state(), fpga::HealthState::Probation);

    t.recordSuccess(3 + h.probationAfter);
    EXPECT_EQ(t.state(), fpga::HealthState::Probation);
    t.recordSuccess(4 + h.probationAfter);
    EXPECT_EQ(t.state(), fpga::HealthState::Healthy);
}

TEST(HealthTracker, ProbationFailureRequarantines)
{
    fpga::HealthPolicy h = fastHealth();
    fpga::HealthTracker t(h);
    t.recordFailure(0, "a");
    t.recordFailure(1, "b");
    t.tick(2 + h.probationAfter);
    ASSERT_EQ(t.state(), fpga::HealthState::Probation);
    t.recordFailure(3 + h.probationAfter, "relapse");
    EXPECT_EQ(t.state(), fpga::HealthState::Quarantined);
}

TEST(HealthTracker, ForgeryQuarantinesPermanentlyNoProbation)
{
    fpga::HealthPolicy h = fastHealth();
    fpga::HealthTracker t(h);
    t.recordSuccess(0);
    t.recordForgery(1, "MAC mismatch");
    EXPECT_EQ(t.state(), fpga::HealthState::Quarantined);
    EXPECT_TRUE(t.permanentlyQuarantined());
    // No amount of cool-down earns a forging shell probation.
    t.tick(10 * h.probationAfter);
    EXPECT_EQ(t.state(), fpga::HealthState::Quarantined);
}

// ---- Fleet message serde --------------------------------------------

TEST(FleetSerde, HeartbeatFramesRoundTrip)
{
    HeartbeatRequest req;
    req.deviceId = 7;
    req.nonce = 0x1122334455667788ull;
    HeartbeatRequest req2 = HeartbeatRequest::deserialize(req.serialize());
    EXPECT_EQ(req2.deviceId, req.deviceId);
    EXPECT_EQ(req2.nonce, req.nonce);

    HeartbeatResponse rsp;
    rsp.reachable = 1;
    rsp.authentic = 0;
    rsp.count = 42;
    rsp.nonceEcho = req.nonce + 1;
    rsp.failure = "heartbeat response MAC forged";
    HeartbeatResponse rsp2 =
        HeartbeatResponse::deserialize(rsp.serialize());
    EXPECT_EQ(rsp2.reachable, 1);
    EXPECT_EQ(rsp2.authentic, 0);
    EXPECT_EQ(rsp2.count, 42u);
    EXPECT_EQ(rsp2.nonceEcho, rsp.nonceEcho);
    EXPECT_EQ(rsp2.failure, rsp.failure);

    // Truncation dies in serde, not in the caller.
    Bytes whole = rsp.serialize();
    Bytes cut(whole.begin(), whole.begin() + 3);
    EXPECT_THROW(HeartbeatResponse::deserialize(cut), SerdeError);
    // Out-of-range flags are rejected.
    whole[0] = 9;
    EXPECT_THROW(HeartbeatResponse::deserialize(whole), SerdeError);
}

TEST(FleetSerde, FailoverRecordRoundTrips)
{
    FailoverRecord rec;
    rec.fromDevice = 0;
    rec.toDevice = 2;
    rec.atNanos = 123456789;
    rec.reason = "no heartbeat (status 0)";
    rec.oldFingerprint = Bytes(32, 0xaa);
    rec.newFingerprint = Bytes(32, 0xbb);
    rec.attested = 1;
    rec.attempts = 1;
    FailoverRecord rec2 = FailoverRecord::deserialize(rec.serialize());
    EXPECT_EQ(rec2.fromDevice, rec.fromDevice);
    EXPECT_EQ(rec2.toDevice, rec.toDevice);
    EXPECT_EQ(rec2.atNanos, rec.atNanos);
    EXPECT_EQ(rec2.reason, rec.reason);
    EXPECT_EQ(rec2.oldFingerprint, rec.oldFingerprint);
    EXPECT_EQ(rec2.newFingerprint, rec.newFingerprint);
    EXPECT_EQ(rec2.attested, 1);
    EXPECT_EQ(rec2.attempts, 1u);
}

TEST(FleetSerde, SmJournalRoundTripsAllFields)
{
    SmJournal j;
    j.version = 17;
    j.haveMetadata = 1;
    j.metadata = Bytes{1, 2, 3};
    j.deviceKeys.emplace_back(0xd00dull, Bytes(32, 0x11));
    j.deviceKeys.emplace_back(0xbeefull, Bytes(32, 0x22));
    j.activeDevice = 1;
    j.deployed = 1;
    j.attested = 1;
    j.haveSecrets = 1;
    j.keyAttest = Bytes(16, 0x33);
    j.ctrBase = 1000;
    j.havePendingRekey = 1;
    j.pendingRekeyMacKey = Bytes(32, 0x55);
    j.pendingRekeyNonce = 77;
    j.sessions.push_back({0, Bytes(48, 0x44), 0, 1065, 130});
    j.sessions.push_back({3, Bytes(48, 0x77), 1031, 97, 4160});
    j.retiredFingerprints.push_back(Bytes(32, 0x66));

    Bytes wire = j.serialize();
    SmJournal j2 = SmJournal::deserialize(wire);
    EXPECT_EQ(j2.serialize(), wire);
    EXPECT_EQ(j2.version, 17u);
    EXPECT_EQ(j2.haveMetadata, 1);
    EXPECT_EQ(j2.metadata, j.metadata);
    ASSERT_EQ(j2.deviceKeys.size(), 2u);
    EXPECT_EQ(j2.deviceKeys[1].first, 0xbeefull);
    EXPECT_EQ(j2.deviceKeys[1].second, Bytes(32, 0x22));
    EXPECT_EQ(j2.activeDevice, 1u);
    EXPECT_EQ(j2.deployed, 1);
    EXPECT_EQ(j2.attested, 1);
    EXPECT_EQ(j2.haveSecrets, 1);
    EXPECT_EQ(j2.keyAttest, j.keyAttest);
    EXPECT_EQ(j2.ctrBase, 1000u);
    EXPECT_EQ(j2.havePendingRekey, 1);
    EXPECT_EQ(j2.pendingRekeyMacKey, j.pendingRekeyMacKey);
    EXPECT_EQ(j2.pendingRekeyNonce, 77u);
    ASSERT_EQ(j2.sessions.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        const SmJournalSession &want = j.sessions[i];
        const SmJournalSession &got = j2.sessions[i];
        EXPECT_EQ(got.slot, want.slot) << "session " << i;
        EXPECT_EQ(got.keys, want.keys) << "session " << i;
        EXPECT_EQ(got.openNonce, want.openNonce) << "session " << i;
        EXPECT_EQ(got.regReserved, want.regReserved) << "session " << i;
        EXPECT_EQ(got.dmaReserved, want.dmaReserved) << "session " << i;
    }
    ASSERT_EQ(j2.retiredFingerprints.size(), 1u);
    EXPECT_EQ(j2.retiredFingerprints[0], Bytes(32, 0x66));
}

TEST(FleetSerde, SmJournalRejectsGarbage)
{
    SmJournal j;
    j.version = 1;
    Bytes good = j.serialize();

    Bytes badMagic = good;
    badMagic[0] ^= 0xff;
    EXPECT_THROW(SmJournal::deserialize(badMagic), SerdeError);

    Bytes cut(good.begin(), good.begin() + 5);
    EXPECT_THROW(SmJournal::deserialize(cut), SerdeError);

    // A wrong-size device key must be refused.
    SmJournal k;
    k.version = 1;
    k.deviceKeys.emplace_back(1ull, Bytes(31, 0));
    EXPECT_THROW(SmJournal::deserialize(k.serialize()), SerdeError);

    // Secrets need the base session's key block: slot 0 comes first.
    SmJournal s;
    s.haveSecrets = 1;
    s.keyAttest = Bytes(16, 1);
    EXPECT_THROW(SmJournal::deserialize(s.serialize()), SerdeError);
    s.sessions.push_back({2, Bytes(48, 2), 9, 10, 0});
    EXPECT_THROW(SmJournal::deserialize(s.serialize()), SerdeError);
    s.sessions.insert(s.sessions.begin(), {0, Bytes(48, 3), 0, 70, 0});
    EXPECT_NO_THROW(SmJournal::deserialize(s.serialize()));
}

// ---- Typed-error parity ---------------------------------------------

TEST(ErrorContextParity, BitstreamTeeAndFailoverErrorsCarryContext)
{
    ErrorContext ctx{"sm-enclave", "device-0", "deploy", 2};

    BitstreamError be("crc mismatch", ctx);
    EXPECT_NE(std::string(be.what()).find("sm-enclave->device-0"),
              std::string::npos);
    EXPECT_EQ(be.context().method, "deploy");
    EXPECT_EQ(be.context().attempt, 2);

    TeeError te("seal refused", ctx);
    EXPECT_NE(std::string(te.what()).find("deploy"), std::string::npos);
    EXPECT_EQ(te.context().to, "device-0");

    FailoverError fe("session moved", ctx);
    EXPECT_NE(std::string(fe.what()).find("failover:"),
              std::string::npos);
    EXPECT_EQ(fe.context().from, "sm-enclave");

    SmCrashError ce("before journal write 3");
    EXPECT_NE(std::string(ce.what()).find("sm-crash:"),
              std::string::npos);
}

// ---- Heartbeats against a live testbed ------------------------------

TEST(Heartbeat, ActiveDeviceAnswersWithMonotoneBeatCount)
{
    TestbedConfig cfg;
    cfg.rngSeed = 3;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    auto r1 = tb.smApp().heartbeatDevice(0);
    EXPECT_TRUE(r1.ok()) << r1.failure;
    auto r2 = tb.smApp().heartbeatDevice(0);
    EXPECT_TRUE(r2.ok());
    EXPECT_EQ(r2.count, r1.count + 1); // replayed "alive" can't pass
}

TEST(Heartbeat, SparesAnswerPlainReachabilityProbe)
{
    TestbedConfig cfg;
    cfg.rngSeed = 4;
    cfg.deviceCount = 2;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    auto spare = tb.smApp().heartbeatDevice(1);
    EXPECT_TRUE(spare.ok()) << spare.failure;

    auto unknown = tb.smApp().heartbeatDevice(9);
    EXPECT_FALSE(unknown.reachable);
}

TEST(Heartbeat, DeadDeviceIsUnreachable)
{
    TestbedConfig cfg;
    cfg.rngSeed = 5;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    tb.faultInjector().arm(sim::FaultRule::deviceDead(0));
    auto r = tb.smApp().heartbeatDevice(0);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.authentic);
}

TEST(Heartbeat, ForgingShellIsDetectedAndPermanentlyQuarantined)
{
    TestbedConfig cfg;
    cfg.rngSeed = 6;
    cfg.maliciousShell = true;
    cfg.attackPlan.forgeHeartbeats = true;
    cfg.health = fastHealth();
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    // The shell swallows the probe and fabricates "alive" — but it
    // cannot compute the response MAC without Key_attest.
    auto r = tb.smApp().heartbeatDevice(0);
    EXPECT_TRUE(r.reachable);
    EXPECT_FALSE(r.authentic);

    tb.supervisor().pollOnce();
    EXPECT_EQ(tb.supervisor().state(0),
              fpga::HealthState::Quarantined);
    EXPECT_TRUE(tb.supervisor().tracker(0).permanentlyQuarantined());
}

// ---- Expected-monotone beat floor (replay regression) ---------------

namespace {

/** A scripted supervisor: the probe function replays whatever the
 *  test puts in `script[device]`, no testbed involved. */
struct ScriptedFleet
{
    sim::VirtualClock clock;
    std::map<uint32_t, std::deque<SmEnclaveApp::HeartbeatResult>> script;
    uint32_t active = 0;

    SupervisorDeps deps(uint32_t deviceCount)
    {
        SupervisorDeps d;
        d.clock = &clock;
        d.deviceCount = deviceCount;
        d.health = fastHealth();
        d.activeDevice = [this] { return active; };
        d.probe = [this](uint32_t dev) {
            auto &q = script[dev];
            if (q.empty())
                return SmEnclaveApp::HeartbeatResult{};
            SmEnclaveApp::HeartbeatResult r = q.front();
            q.pop_front();
            return r;
        };
        return d;
    }

    static SmEnclaveApp::HeartbeatResult beat(uint64_t count)
    {
        SmEnclaveApp::HeartbeatResult r;
        r.reachable = true;
        r.authentic = true;
        r.count = count;
        return r;
    }

    static SmEnclaveApp::HeartbeatResult dead()
    {
        SmEnclaveApp::HeartbeatResult r;
        r.failure = "no response";
        return r;
    }
};

} // namespace

TEST(BeatFloor, StaleReplayAfterProbationReinstatementIsRejected)
{
    // The attack this floor exists for: a man-in-the-middle captures
    // an authentic MAC'd heartbeat while the device is healthy, waits
    // for the device to be quarantined and reinstated via probation,
    // then replays the capture to keep a dead device looking alive.
    // The floor is deliberately KEPT across the quarantine, so the
    // replayed count <= floor reads as a forgery.
    ScriptedFleet fleet;
    FleetSupervisor sup(fleet.deps(1));

    // Healthy polls raise the floor to 3.
    for (uint64_t c : {1, 2, 3})
        fleet.script[0].push_back(ScriptedFleet::beat(c));
    for (int i = 0; i < 3; ++i)
        sup.pollOnce();
    ASSERT_EQ(sup.state(0), fpga::HealthState::Healthy);

    // The device dies; the breaker quarantines it (three failures
    // push the 4-sample window past the 0.6 threshold).
    for (int i = 0; i < 3; ++i) {
        fleet.script[0].push_back(ScriptedFleet::dead());
        sup.pollOnce();
    }
    ASSERT_EQ(sup.state(0), fpga::HealthState::Quarantined);
    ASSERT_FALSE(sup.tracker(0).permanentlyQuarantined());

    // Cool-down passes; the next poll offers probation and probes.
    fleet.clock.advance(fastHealth().probationAfter + sim::kMs);
    fleet.script[0].push_back(ScriptedFleet::beat(3)); // replayed
    sup.pollOnce();

    // The stale capture is authentic but at the floor: forgery,
    // permanent quarantine — the replay bought the attacker nothing.
    EXPECT_EQ(sup.state(0), fpga::HealthState::Quarantined);
    EXPECT_TRUE(sup.tracker(0).permanentlyQuarantined());
    EXPECT_NE(sup.tracker(0).lastReason().find("stale heartbeat"),
              std::string::npos);
}

TEST(BeatFloor, FreshCountAfterProbationIsAcceptedAboveFloor)
{
    // Control for the replay test: a genuinely recovered device keeps
    // counting past the floor and earns reinstatement normally.
    ScriptedFleet fleet;
    FleetSupervisor sup(fleet.deps(1));

    for (uint64_t c : {1, 2, 3})
        fleet.script[0].push_back(ScriptedFleet::beat(c));
    for (int i = 0; i < 3; ++i)
        sup.pollOnce();
    for (int i = 0; i < 3; ++i) {
        fleet.script[0].push_back(ScriptedFleet::dead());
        sup.pollOnce();
    }
    ASSERT_EQ(sup.state(0), fpga::HealthState::Quarantined);

    fleet.clock.advance(fastHealth().probationAfter + sim::kMs);
    fleet.script[0].push_back(ScriptedFleet::beat(4));
    fleet.script[0].push_back(ScriptedFleet::beat(5));
    sup.pollOnce();
    sup.pollOnce();
    EXPECT_EQ(sup.state(0), fpga::HealthState::Healthy);
}

TEST(BeatFloor, ResetsOnNewDeploymentEpochAfterMigration)
{
    // A redeployed device restarts its fabric beat counter at 1. The
    // floor must be forgotten exactly then — and only then — or the
    // fresh epoch's first beats would be misread as replays.
    ScriptedFleet fleet;
    SupervisorDeps deps = fleet.deps(2);
    deps.migrate = [&fleet](uint32_t, uint32_t to, const std::string &) {
        MigrationRecord rec;
        rec.attested = 1;
        fleet.active = to;
        return rec;
    };
    FleetSupervisor sup(std::move(deps));

    // Device 0 serves with a high beat count; device 1 idles as a
    // spare (spares answer count 0 until deployed).
    for (uint64_t c : {40, 41}) {
        fleet.script[0].push_back(ScriptedFleet::beat(c));
        fleet.script[1].push_back(ScriptedFleet::beat(0));
    }
    sup.pollOnce();
    sup.pollOnce();

    // Planned move 0 -> 1, then back 1 -> 0 (rolling-upgrade shape).
    sup.migrateActiveTo(1, "drain for upgrade");
    ASSERT_EQ(fleet.active, 1u);
    fleet.script[0].push_back(ScriptedFleet::beat(0)); // now the spare
    fleet.script[1].push_back(ScriptedFleet::beat(1)); // fresh epoch
    sup.pollOnce();
    EXPECT_EQ(sup.state(1), fpga::HealthState::Healthy);

    sup.migrateActiveTo(0, "upgrade done, move back");
    ASSERT_EQ(fleet.active, 0u);
    ASSERT_EQ(sup.migrations().size(), 2u);

    // Device 0 was redeployed: count 1 despite the old floor of 41.
    // Accepted — the migration reset the expectation.
    fleet.script[0].push_back(ScriptedFleet::beat(1));
    fleet.script[1].push_back(ScriptedFleet::beat(0));
    sup.pollOnce();
    EXPECT_EQ(sup.state(0), fpga::HealthState::Healthy);
    EXPECT_FALSE(sup.tracker(0).permanentlyQuarantined());
}

// ---- Deterministic attested failover --------------------------------

namespace {

struct FailoverRun
{
    bool deployOk = false;
    uint64_t clockEnd = 0;
    sim::Nanos killAt = 0; ///< device 0 dies
    sim::Nanos firstWriteAt = 0; ///< first write + read on the spare
    Bytes oldFp;
    Bytes newFp;
    bool oldRetired = false;
    bool newRetired = false;
    uint32_t activeAfter = 0;
    size_t failovers = 0;
    FailoverRecord rec;
    bool postWriteOk = false;
    uint64_t postRead = 0;
    uint64_t newDeviceRegOps = 0;
    std::string traceJson;   ///< full Chrome trace of the scenario
    std::string metricsText; ///< deterministic metrics dump
};

/** Deploys on device 0 of three, kills it mid-session and lets the
 *  watchdog fail the session over. The watchdog runs for 300 ms at
 *  its probe period or, with `backToBack`, polls with no idle period
 *  until the breaker trips, so detection costs only the probes. */
FailoverRun
runFailoverScenario(uint64_t seed, bool backToBack = false)
{
    FailoverRun run;
    TestbedConfig cfg;
    cfg.rngSeed = seed;
    cfg.deviceCount = 3;
    cfg.health = fastHealth();
    Testbed tb(cfg);

    // The whole scenario runs traced: the seed sweep below byte-
    // compares the exported trace/metrics across same-seed runs.
    obs::TraceRecorder recorder(tb.clock());
    obs::MetricsRegistry metricsReg;
    auto scenario = [&] {
        tb.installCl(loopbackAccel());
        run.deployOk = tb.runDeployment().ok;
        if (!run.deployOk)
            return;
        EXPECT_TRUE(tb.userApp().secureWrite(0x00, 41));
        run.oldFp = tb.smApp().secretsFingerprint();

        // Warm watchdog view: everything healthy.
        tb.supervisor().runFor(50 * sim::kMs);
        EXPECT_TRUE(tb.supervisor().failovers().empty());

        // Kill device 0 mid-session.
        run.killAt = tb.clock().now();
        tb.faultInjector().arm(sim::FaultRule::deviceDead(0));
        if (backToBack) {
            for (int polls = 0;
                 tb.supervisor().failovers().empty() && polls < 200;
                 ++polls)
                tb.supervisor().pollOnce();
        } else {
            tb.supervisor().runFor(300 * sim::kMs);
        }

        run.failovers = tb.supervisor().failovers().size();
        if (run.failovers > 0)
            run.rec = tb.supervisor().failovers().front();
        run.activeAfter = tb.smApp().activeDevice();
        run.newFp = tb.smApp().secretsFingerprint();
        run.oldRetired = tb.smApp().everRetiredFingerprint(run.oldFp);
        run.newRetired = tb.smApp().everRetiredFingerprint(run.newFp);

        // The session continues on the spare.
        run.postWriteOk = tb.userApp().secureWrite(0x00, 77);
        auto value = tb.userApp().secureRead(0x00);
        run.postRead = value.value_or(0);
        run.firstWriteAt = tb.clock().now();
        run.newDeviceRegOps = tb.shell(run.activeAfter)
                                  .registerRead(pcie::Window::SmSecure,
                                                kSmRegStatRegOpOk);
        run.clockEnd = tb.clock().now();
    };
    {
        obs::ObsScope scope(&recorder, &metricsReg);
        scenario();
    }
    run.traceJson = recorder.chromeTraceJson();
    run.metricsText = metricsReg.renderText();
    return run;
}

} // namespace

TEST(Failover, DeadDeviceFailsOverWithFreshAttestedSession)
{
    FailoverRun run = runFailoverScenario(7);
    ASSERT_TRUE(run.deployOk);
    ASSERT_EQ(run.failovers, 1u);
    EXPECT_EQ(run.rec.fromDevice, 0u);
    EXPECT_EQ(run.rec.toDevice, run.activeAfter);
    EXPECT_NE(run.activeAfter, 0u);
    // The cascaded attestation re-ran end to end on the new device.
    EXPECT_EQ(run.rec.attested, 1);

    // Key freshness: the dead device's session secrets are retired,
    // the new session's never were, and the two share no fingerprint.
    ASSERT_FALSE(run.oldFp.empty());
    ASSERT_FALSE(run.newFp.empty());
    EXPECT_NE(run.oldFp, run.newFp);
    EXPECT_TRUE(run.oldRetired);
    EXPECT_FALSE(run.newRetired);
    EXPECT_EQ(run.rec.oldFingerprint, run.oldFp);
    EXPECT_EQ(run.rec.newFingerprint, run.newFp);

    // Traffic continues — and the new device's SM logic counted
    // exactly our two post-failover channel ops (write + read).
    EXPECT_TRUE(run.postWriteOk);
    EXPECT_EQ(run.postRead, 77u);
    EXPECT_EQ(run.newDeviceRegOps, 2u);
}

TEST(Failover, SameSeedRunsAreBitForBitIdentical)
{
    FailoverRun a = runFailoverScenario(7);
    FailoverRun b = runFailoverScenario(7);
    EXPECT_EQ(a.clockEnd, b.clockEnd);
    EXPECT_EQ(a.rec.atNanos, b.rec.atNanos);
    EXPECT_EQ(a.rec.toDevice, b.rec.toDevice);
    EXPECT_EQ(a.oldFp, b.oldFp);
    EXPECT_EQ(a.newFp, b.newFp);
    EXPECT_EQ(a.postRead, b.postRead);

    // The exported observability artifacts are part of the replay
    // contract: same seed ⇒ byte-identical trace and metrics dump.
    ASSERT_GT(a.traceJson.size(), 1000u);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.metricsText, b.metricsText);

    // A different seed derives different key material. (The trace can
    // legitimately coincide: span timing comes from the cost model,
    // not from the seeded key bytes.)
    FailoverRun c = runFailoverScenario(8);
    ASSERT_TRUE(c.deployOk);
    EXPECT_NE(c.newFp, a.newFp);
}

TEST(Failover, DetectionAndKillToFirstWriteAreExact)
{
    // From the kill to the breaker's quarantine, and from the kill
    // to the first write read back on the spare: heartbeat detection
    // plus the whole re-run cascaded attestation, to the nanosecond.
    FailoverRun run = runFailoverScenario(7, /*backToBack=*/true);
    ASSERT_EQ(run.failovers, 1u);
    ASSERT_EQ(run.postRead, 77u);
    test::expectGoldenValue("failover.detection_ns",
                            run.rec.atNanos - run.killAt);
    test::expectGoldenValue("failover.kill_to_first_write_ns",
                            run.firstWriteAt - run.killAt);
}

TEST(Failover, GuardedOpSurfacesTypedFailoverError)
{
    TestbedConfig cfg;
    cfg.rngSeed = 9;
    cfg.deviceCount = 2;
    cfg.health = fastHealth();
    cfg.health.minSamples = 1;
    cfg.health.quarantineThreshold = 0.5;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    ASSERT_TRUE(tb.userApp().secureWrite(0x08, 1));

    tb.faultInjector().arm(sim::FaultRule::deviceDead(0));

    bool threw = false;
    try {
        tb.supervisor().guardedOp(
            [&] { return tb.userApp().secureWrite(0x08, 2); },
            "secureWrite");
    } catch (const FailoverError &e) {
        threw = true;
        EXPECT_EQ(e.context().method, "secureWrite");
        EXPECT_NE(std::string(e.what()).find("not auto-replayed"),
                  std::string::npos);
    }
    ASSERT_TRUE(threw);

    // The session failed over to the spare with a fresh attestation;
    // the interrupted write never committed anywhere and the caller
    // re-issues it explicitly on the new session (exactly-once).
    EXPECT_EQ(tb.smApp().activeDevice(), 1u);
    EXPECT_TRUE(tb.smApp().bootStatus().ok());
    EXPECT_TRUE(tb.userApp().secureWrite(0x08, 2));
    EXPECT_EQ(tb.userApp().secureRead(0x08), 2u);
    EXPECT_EQ(tb.shell(1).registerRead(pcie::Window::SmSecure,
                                       kSmRegStatRegOpOk),
              2u);
}

TEST(Failover, NoSpareLeavesSessionDownButRecorded)
{
    TestbedConfig cfg;
    cfg.rngSeed = 10;
    cfg.deviceCount = 1;
    cfg.health = fastHealth();
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    tb.faultInjector().arm(sim::FaultRule::deviceDead(0));
    tb.supervisor().runFor(200 * sim::kMs);
    EXPECT_EQ(tb.supervisor().state(0),
              fpga::HealthState::Quarantined);
    EXPECT_TRUE(tb.supervisor().failovers().empty());
}

// ---- SM-enclave crash recovery --------------------------------------

namespace {

/** The canonical session whose journal writes the sweep enumerates:
 *  deploy (key-fetch + attest commits), traffic, an explicit rekey
 *  commit, more traffic. */
void
runJournaledSession(Testbed &tb)
{
    tb.installCl(loopbackAccel());
    UserClient::Outcome out = tb.runDeployment();
    if (!out.ok)
        throw SalusError("deployment failed: " + out.failure);
    if (!tb.userApp().secureWrite(0x00, 1))
        throw SalusError("write failed");
    if (!tb.userApp().rekeySession())
        throw SalusError("rekey failed");
    if (!tb.userApp().secureWrite(0x00, 2))
        throw SalusError("write failed");
}

TestbedConfig
journaledSessionConfig()
{
    TestbedConfig cfg;
    cfg.rngSeed = 11;
    return cfg;
}

int
baselineJournalWrites()
{
    static int n = test::journalWritesOf(journaledSessionConfig(),
                                         runJournaledSession);
    return n;
}

} // namespace

class SmCrashSweep : public ::testing::TestWithParam<test::CrashPoint>
{
};

TEST_P(SmCrashSweep, EveryJournalStepRecoversConsistently)
{
    ASSERT_GE(baselineJournalWrites(), 3)
        << "scenario no longer journals enough steps to sweep";
    // Honest host: every crash point recovers to a consistent
    // deployment table, never a partially adopted journal.
    SmEnclaveApp::RecoveryReport rep;
    auto tb = test::crashAndRecover(journaledSessionConfig(), GetParam(),
                                    runJournaledSession, rep);
    ASSERT_TRUE(tb);
    EXPECT_EQ(rep.reattestFailures, 0u);

    // And the platform serves attested traffic again end to end.
    UserClient::Outcome out = tb->runDeployment();
    ASSERT_TRUE(out.ok) << out.failure;
    EXPECT_TRUE(tb->userApp().secureWrite(0x10, 5));
    EXPECT_EQ(tb->userApp().secureRead(0x10), 5u);
}

INSTANTIATE_TEST_SUITE_P(AllJournalSteps, SmCrashSweep,
                         test::crashPoints(baselineJournalWrites()),
                         test::crashPointName);

TEST(SmCrashRecovery, RecoveredInstanceSkipsManufacturerRoundTrip)
{
    TestbedConfig cfg;
    cfg.rngSeed = 12;
    Testbed tb(cfg);
    runJournaledSession(tb);
    ASSERT_TRUE(tb.smApp().haveDeviceKey());

    // Traffic on the base slot and on one derived tenant slot, so the
    // journal carries counter and DMA reservations for both.
    uint32_t tenant = tb.addUserSession();
    ASSERT_TRUE(tb.userApp(tenant).attachToPlatform());
    auto regAddr = [](uint32_t slot) { return 0x10 + 8 * slot; };
    auto dramAddr = [](uint32_t slot) { return 0x8000 + 0x10000 * slot; };
    auto payload = [](uint32_t slot, uint8_t salt) {
        Bytes b(4096);
        for (size_t i = 0; i < b.size(); ++i)
            b[i] = uint8_t(i * 7 + slot * 31 + salt);
        return b;
    };
    for (uint32_t slot : {0u, tenant}) {
        SCOPED_TRACE(slot);
        auto res = tb.smApp().secureRegBatch(slot, {{true, regAddr(slot), 1}});
        ASSERT_EQ(res.size(), 1u);
        ASSERT_EQ(res[0].status, 0);
        Bytes data = payload(slot, 1);
        ASSERT_EQ(tb.smApp().dmaWrite(slot, dramAddr(slot), data).status, 0);
    }

    auto rep = tb.crashAndRecoverSmApp();
    ASSERT_EQ(rep.status, SmEnclaveApp::RecoveryStatus::Recovered)
        << rep.detail;
    // Key_device came back from the sealed journal, and the device
    // the journal claimed attested was re-attested before serving.
    EXPECT_TRUE(tb.smApp().haveDeviceKey());
    EXPECT_TRUE(tb.smApp().bootStatus().attested);
    EXPECT_EQ(rep.reattestFailures, 0u);

    // No redeploy: every slot resumes past its journalled counter and
    // DMA sequence reservations, which the fabric accepts as fresh on
    // the first attempt (a retry could mask a re-issued counter).
    auto fabricStat = [&tb](uint32_t reg) {
        return tb.shell().registerRead(pcie::Window::SmSecure, reg);
    };
    uint64_t batchRejects = fabricStat(kSmRegStatBatchRejected);
    uint64_t dmaRejects = fabricStat(kSmRegStatDmaRejected);
    for (uint32_t slot : {0u, tenant}) {
        SCOPED_TRACE(slot);
        uint64_t value = 0x5000 + slot;
        auto res = tb.smApp().secureRegBatch(
            slot, {{true, regAddr(slot), value}, {false, regAddr(slot), 0}});
        ASSERT_EQ(res.size(), 2u);
        EXPECT_EQ(res[0].status, 0);
        EXPECT_EQ(res[1].status, 0);
        EXPECT_EQ(res[1].data, value);

        Bytes data = payload(slot, 2);
        ASSERT_EQ(tb.smApp().dmaWrite(slot, dramAddr(slot), data).status, 0);
        Bytes out;
        auto rd = tb.smApp().dmaRead(slot, dramAddr(slot), data.size(), out);
        ASSERT_EQ(rd.status, 0);
        EXPECT_EQ(out, data);
        EXPECT_EQ(rd.retransmits, 0u);
    }
    EXPECT_EQ(fabricStat(kSmRegStatBatchRejected), batchRejects);
    EXPECT_EQ(fabricStat(kSmRegStatDmaRejected), dmaRejects);
}

TEST(SmCrashRecovery, RolledBackJournalIsRejectedAndFailsClosed)
{
    TestbedConfig cfg;
    cfg.rngSeed = 13;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    Bytes stale = tb.sealedJournal();
    ASSERT_FALSE(stale.empty());
    // Advance the journal (and the platform monotonic counter).
    ASSERT_TRUE(tb.userApp().rekeySession());
    ASSERT_NE(tb.sealedJournal(), stale);

    // Malicious host restores the older sealed blob.
    tb.sealedJournal() = stale;
    auto rep = tb.crashAndRecoverSmApp();
    EXPECT_EQ(rep.status, SmEnclaveApp::RecoveryStatus::RolledBack);
    EXPECT_TRUE(tb.smApp().failedClosed());

    // Failed closed: no boot, no channel traffic.
    UserClient::Outcome out = tb.runDeployment();
    EXPECT_FALSE(out.ok);
}

TEST(SmCrashRecovery, MissingOrCorruptJournalFailsClosed)
{
    TestbedConfig cfg;
    cfg.rngSeed = 14;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    // Deleted journal with a non-zero counter => rollback.
    Bytes saved = tb.sealedJournal();
    tb.sealedJournal().clear();
    auto repMissing = tb.crashAndRecoverSmApp();
    EXPECT_EQ(repMissing.status,
              SmEnclaveApp::RecoveryStatus::RolledBack);
    EXPECT_TRUE(tb.smApp().failedClosed());

    // Bit-flipped sealed blob => corrupt (seal authentication fails).
    tb.sealedJournal() = saved;
    tb.sealedJournal()[tb.sealedJournal().size() / 2] ^= 0x40;
    auto repCorrupt = tb.crashAndRecoverSmApp();
    EXPECT_EQ(repCorrupt.status, SmEnclaveApp::RecoveryStatus::Corrupt);
    EXPECT_TRUE(tb.smApp().failedClosed());
}
