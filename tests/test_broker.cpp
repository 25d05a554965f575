/**
 * @file
 * Weighted-DRR scheduler and tenant broker tests: proportional
 * service, the enforced starvation bound under adversarial submit
 * patterns, the bit-for-bit equal-weight regression against the
 * original round-robin order, per-session backpressure accounting,
 * broker quotas / rate limits / overload shedding, the BrokerRequest
 * wire format, and the policy-rejections-are-never-retried contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "fpga/ip.hpp"
#include "golden.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "salus/broker.hpp"
#include "salus/scheduler.hpp"
#include "salus/sm_logic.hpp"
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
    accel.resources = {10, 10, 0, 0};
    return accel;
}

/** (session, ops) pairs in dispatch order. */
using SliceLog = std::vector<std::pair<uint32_t, size_t>>;

/** Scheduler whose dispatch succeeds and logs every slice. */
BatchScheduler::Dispatch
loggingDispatch(SliceLog &log)
{
    return [&log](uint32_t session,
                  const std::vector<regchan::RegOp> &ops) {
        log.push_back({session, ops.size()});
        return std::vector<regchan::BatchResult>(ops.size());
    };
}

void
fill(BatchScheduler &sched, uint32_t session, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(sched.submit(session, {true, 0x00, i}, nullptr),
                  BatchScheduler::Submit::Accepted);
}

} // namespace

// ------------------------------------------- weighted DRR scheduling

TEST(WeightedScheduler, EqualWeightsReproduceRoundRobinBitForBit)
{
    // The exact slice sequence the pre-DRR rotating round-robin
    // produced for queue depths {5, 70, 33} at maxBatchOps = 32. Any
    // deviation with equal weights is a scheduling regression.
    SliceLog log;
    BatchScheduler::Config cfg;
    cfg.queueCapacity = 128;
    cfg.maxBatchOps = 32;
    BatchScheduler sched(loggingDispatch(log), cfg);
    sched.addSession(0);
    sched.addSession(1);
    sched.addSession(2);
    fill(sched, 0, 5);
    fill(sched, 1, 70);
    fill(sched, 2, 33);

    EXPECT_EQ(sched.drain(), 108u);
    SliceLog expected = {{0, 5}, {1, 32}, {2, 32},
                         {1, 32}, {2, 1}, {1, 6}};
    EXPECT_EQ(log, expected);
}

TEST(WeightedScheduler, ServiceIsProportionalToWeights)
{
    SliceLog log;
    BatchScheduler::Config cfg;
    cfg.queueCapacity = 1024;
    cfg.maxBatchOps = 32;
    BatchScheduler sched(loggingDispatch(log), cfg);
    sched.addSession(1, 1);
    sched.addSession(2, 3);
    EXPECT_EQ(sched.weightOf(2), 3u);
    EXPECT_EQ(sched.totalWeight(), 4u);

    // Both flooded: weight 3 must receive exactly 3x the ops of
    // weight 1 on every sweep (96 vs 32 with maxBatchOps = 32).
    fill(sched, 1, 1024);
    fill(sched, 2, 1024);
    for (int sweep = 0; sweep < 4; ++sweep)
        sched.pumpOnce();
    EXPECT_EQ(sched.dispatchedFor(1), 4u * 32u);
    EXPECT_EQ(sched.dispatchedFor(2), 4u * 96u);
    for (const auto &[id, n] : log)
        EXPECT_EQ(n, id == 1 ? 32u : 96u);
}

TEST(WeightedScheduler, SliceNeverExceedsWireFormatBurstCap)
{
    // A huge weight earns a quantum above the hardware burst limit;
    // the slice must clamp to regchan::kMaxBatchOps and carry the
    // unspent credit (bounded to one extra quantum) instead.
    SliceLog log;
    BatchScheduler::Config cfg;
    cfg.queueCapacity = 4096;
    cfg.maxBatchOps = 64;
    BatchScheduler sched(loggingDispatch(log), cfg);
    sched.addSession(1, 8); // quantum 512 > burst cap 256
    fill(sched, 1, 4000);
    sched.pumpOnce();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].second, regchan::kMaxBatchOps);
    // Carried credit tops the next sweep's grant up to the 2x cap,
    // still clamped to the wire limit per slice.
    sched.pumpOnce();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[1].second, regchan::kMaxBatchOps);
}

TEST(WeightedScheduler, StarvationBoundHoldsUnderHeavyFlood)
{
    // Adversarial pattern 1: one maximal-weight tenant floods while a
    // weight-1 tenant trickles. The light tenant must be served
    // within ceil(W_total / w) sweeps of becoming backlogged — with
    // DRR it is served every sweep it waits in.
    SliceLog log;
    BatchScheduler::Config cfg;
    cfg.queueCapacity = 8192;
    cfg.maxBatchOps = 16;
    BatchScheduler sched(loggingDispatch(log), cfg);
    sched.addSession(1, kMaxSessionWeight);
    sched.addSession(2, 1);

    for (int sweep = 0; sweep < 64; ++sweep) {
        for (int i = 0; i < 256; ++i)
            sched.submit(1, {true, 0, 0}, nullptr);
        sched.submit(2, {true, 8, 0}, nullptr);
        sched.pumpOnce();
        EXPECT_GT(sched.dispatchedFor(2), uint64_t(sweep));
    }
    uint64_t bound = (sched.totalWeight() + 1 - 1) / 1;
    EXPECT_LE(sched.sessionStats(2).maxSweepsWaited, bound);
    // DRR actually serves every backlogged session every sweep.
    EXPECT_EQ(sched.sessionStats(2).maxSweepsWaited, 1u);
    EXPECT_EQ(sched.sessionStats(2).dispatchedOps, 64u);
}

TEST(WeightedScheduler, StarvationBoundHoldsForBurstyOnOffTenant)
{
    // Adversarial pattern 2: an on/off tenant that goes idle (losing
    // any carried credit) and then bursts must still be served the
    // first sweep it is backlogged again.
    SliceLog log;
    BatchScheduler::Config cfg;
    cfg.queueCapacity = 8192;
    cfg.maxBatchOps = 16;
    BatchScheduler sched(loggingDispatch(log), cfg);
    sched.addSession(1, 4);
    sched.addSession(2, 1);

    for (int sweep = 0; sweep < 60; ++sweep) {
        for (int i = 0; i < 128; ++i)
            sched.submit(1, {true, 0, 0}, nullptr);
        if (sweep % 7 == 0)
            for (int i = 0; i < 40; ++i)
                sched.submit(2, {true, 8, 0}, nullptr);
        sched.pumpOnce();
    }
    uint64_t bound = (sched.totalWeight() + 1 - 1) / 1; // ceil(5/1)
    EXPECT_LE(sched.sessionStats(2).maxSweepsWaited, bound);
    EXPECT_GT(sched.sessionStats(2).dispatchedOps, 0u);
}

TEST(WeightedScheduler, StarvationBoundHoldsWithAllTenantsBacklogged)
{
    // Adversarial pattern 3: every session flooded at once with a
    // spread of weights; every one must keep its contractual bound.
    SliceLog log;
    BatchScheduler::Config cfg;
    cfg.queueCapacity = 16384;
    cfg.maxBatchOps = 8;
    BatchScheduler sched(loggingDispatch(log), cfg);
    const uint32_t weights[] = {1, 2, 4, 8};
    for (uint32_t i = 0; i < 4; ++i)
        sched.addSession(i + 1, weights[i]);

    for (int sweep = 0; sweep < 48; ++sweep) {
        for (uint32_t i = 1; i <= 4; ++i)
            for (int k = 0; k < 100; ++k)
                sched.submit(i, {true, 0, 0}, nullptr);
        sched.pumpOnce();
    }
    uint32_t totalW = sched.totalWeight();
    ASSERT_EQ(totalW, 15u);
    for (uint32_t i = 0; i < 4; ++i) {
        uint64_t bound = (totalW + weights[i] - 1) / weights[i];
        EXPECT_LE(sched.sessionStats(i + 1).maxSweepsWaited, bound)
            << "session " << i + 1;
    }
    // Proportionality held too (every sweep dispatched w*8 per session).
    EXPECT_EQ(sched.dispatchedFor(4), 8u * sched.dispatchedFor(1));
}

TEST(WeightedScheduler, PerSessionBackpressureCountersAndMetrics)
{
    obs::MetricsRegistry reg;
    obs::ObsScope scope(nullptr, &reg);

    int refusals = 2;
    SliceLog log;
    BatchScheduler::Config cfg;
    cfg.queueCapacity = 4;
    cfg.maxBatchOps = 4;
    BatchScheduler sched(
        [&](uint32_t session, const std::vector<regchan::RegOp> &ops)
            -> std::vector<regchan::BatchResult> {
            if (session == 1 && refusals-- > 0)
                throw DispatchBackpressure("device saturated");
            log.push_back({session, ops.size()});
            return std::vector<regchan::BatchResult>(ops.size());
        },
        cfg);
    sched.addSession(1);
    sched.addSession(2);
    fill(sched, 1, 4);
    fill(sched, 2, 2);
    // Session 1's queue is full: the 5th submit is refused per-session.
    EXPECT_EQ(sched.submit(1, {true, 0, 0}, nullptr),
              BatchScheduler::Submit::Backpressure);

    // Sweep 1: session 1 refused twice (initial + one retry), session
    // 2 drains. Sweep 2: session 1 drains.
    sched.pumpOnce();
    sched.pumpOnce();

    const BatchScheduler::SessionStats &s1 = sched.sessionStats(1);
    EXPECT_EQ(s1.rejectedBackpressure, 1u);
    EXPECT_EQ(s1.dispatchBackpressure, 2u);
    EXPECT_EQ(s1.retriedSlices, 1u);
    EXPECT_EQ(s1.dispatchedOps, 4u);
    EXPECT_EQ(sched.sessionStats(2).dispatchBackpressure, 0u);
    EXPECT_EQ(sched.sessionStats(2).dispatchedOps, 2u);

    // Mirrored per-session metrics (noisy-neighbour attribution).
    EXPECT_EQ(reg.counter("scheduler.session1.backpressure"), 1u);
    EXPECT_EQ(reg.counter("scheduler.session1.dispatch_backpressure"),
              2u);
    EXPECT_EQ(reg.counter("scheduler.session1.retried_slices"), 1u);
    EXPECT_EQ(reg.counter("scheduler.session2.dispatch_backpressure"),
              0u);
    // Aggregates unchanged by the per-session split.
    EXPECT_EQ(sched.stats().dispatchBackpressure, 2u);
    EXPECT_EQ(sched.stats().retriedSlices, 1u);
}

// --------------------------------------------------- broker policies

namespace {

struct BrokerRig
{
    Testbed tb;
    Broker broker;

    explicit BrokerRig(Broker::Config cfg = Broker::Config(),
                       uint64_t seed = 1)
        : tb(makeConfig(seed)), broker(tb, cfg)
    {
        fpga::ensureBuiltinIps();
        SmLogic::registerIp();
        tb.installCl(loopbackAccel());
        EXPECT_TRUE(tb.runDeployment().ok);
    }

    static TestbedConfig makeConfig(uint64_t seed)
    {
        fpga::ensureBuiltinIps();
        SmLogic::registerIp();
        TestbedConfig cfg;
        cfg.rngSeed = seed;
        return cfg;
    }
};

} // namespace

TEST(Broker, SessionQuotaAndGlobalTableAreEnforced)
{
    Broker::Config cfg;
    cfg.maxTotalSessions = 2;
    BrokerRig rig(cfg);

    TenantPolicy one;
    one.maxSessions = 1;
    uint32_t a = rig.broker.registerTenant("a", one);
    TenantPolicy two;
    two.maxSessions = 4; // above the global table cap
    uint32_t b = rig.broker.registerTenant("b", two);

    uint32_t s1 = rig.broker.openSession(a);
    EXPECT_GE(s1, 1u);
    // Per-tenant quota wall first, typed + context-tagged.
    try {
        rig.broker.openSession(a);
        FAIL() << "expected QuotaExceeded";
    } catch (const QuotaExceeded &e) {
        EXPECT_NE(std::string(e.what()).find("max sessions"),
                  std::string::npos);
        EXPECT_EQ(e.context().from, "tenant-" + std::to_string(a));
    }
    // Global session table next.
    rig.broker.openSession(b);
    EXPECT_THROW(rig.broker.openSession(b), Overloaded);
    EXPECT_EQ(rig.broker.openSessions(), 2u);
    EXPECT_EQ(rig.broker.tenantStats(a).quotaRejected, 1u);
    EXPECT_EQ(rig.broker.tenantStats(b).shedRejected, 1u);
}

TEST(Broker, QueuedOpQuotaIsPerTenantAndDrainsThrough)
{
    BrokerRig rig;
    TenantPolicy p;
    p.maxQueuedOps = 8;
    uint32_t t = rig.broker.registerTenant("quota", p);
    uint32_t s = rig.broker.openSession(t);

    for (int i = 0; i < 8; ++i)
        rig.broker.submit(t, s, {true, 0x00, uint64_t(i)});
    EXPECT_EQ(rig.broker.queuedFor(t), 8u);
    EXPECT_THROW(rig.broker.submit(t, s, {true, 0x00, 9}),
                 QuotaExceeded);

    EXPECT_EQ(rig.broker.drainAll(), 8u);
    EXPECT_EQ(rig.broker.queuedFor(t), 0u);
    EXPECT_EQ(rig.broker.tenantStats(t).admitted, 8u);
    EXPECT_EQ(rig.broker.tenantStats(t).completed, 8u);
    // The wall clears once the backlog drained.
    rig.broker.submit(t, s, {true, 0x00, 10});
    EXPECT_EQ(rig.broker.drainAll(), 1u);
}

TEST(Broker, TokenBucketRateLimitIsDeterministicOnVirtualClock)
{
    BrokerRig rig;
    TenantPolicy p;
    p.maxQueuedOps = 64;
    p.ratePerSec = 1000; // 1 token per virtual millisecond
    p.burst = 4;
    uint32_t t = rig.broker.registerTenant("limited", p);
    uint32_t s = rig.broker.openSession(t);

    for (int i = 0; i < 4; ++i)
        rig.broker.submit(t, s, {true, 0x00, uint64_t(i)});
    EXPECT_THROW(rig.broker.submit(t, s, {true, 0x00, 4}), RateLimited);
    EXPECT_EQ(rig.broker.tenantStats(t).rateRejected, 1u);

    // Virtual time refills the bucket exactly: +3 ms = 3 tokens.
    rig.tb.clock().advance(3 * sim::kMs);
    for (int i = 0; i < 3; ++i)
        rig.broker.submit(t, s, {true, 0x00, uint64_t(i)});
    EXPECT_THROW(rig.broker.submit(t, s, {true, 0x00, 8}), RateLimited);
    EXPECT_EQ(rig.broker.drainAll(), 7u);
}

TEST(Broker, OverloadShedsLowestWeightTenantFirstAndRecovers)
{
    Broker::Config cfg;
    cfg.maxTotalQueuedOps = 8;
    cfg.shedLowWater = 2;
    BrokerRig rig(cfg);

    TenantPolicy heavy;
    heavy.weight = 4;
    heavy.maxQueuedOps = 64;
    TenantPolicy light;
    light.weight = 1;
    light.maxQueuedOps = 64;
    uint32_t hi = rig.broker.registerTenant("hi", heavy);
    uint32_t lo = rig.broker.registerTenant("lo", light);
    uint32_t hs = rig.broker.openSession(hi);
    uint32_t ls = rig.broker.openSession(lo);

    for (int i = 0; i < 4; ++i) {
        rig.broker.submit(hi, hs, {true, 0x00, uint64_t(i)});
        rig.broker.submit(lo, ls, {true, 0x08, uint64_t(i)});
    }
    // Backlog (8) is at the high water mark: the next pump sheds the
    // LOWEST weight tenant — and only that one.
    rig.broker.pump();
    EXPECT_TRUE(rig.broker.tenantShed(lo));
    EXPECT_FALSE(rig.broker.tenantShed(hi));
    EXPECT_THROW(rig.broker.submit(lo, ls, {true, 0x08, 9}), Overloaded);
    EXPECT_EQ(rig.broker.tenantStats(lo).shedRejected, 1u);

    // In-flight ops were never dropped: everything admitted completes,
    // and the drained backlog readmits the shed tenant.
    rig.broker.drainAll();
    EXPECT_EQ(rig.broker.tenantStats(lo).completed, 4u);
    EXPECT_EQ(rig.broker.tenantStats(hi).completed, 4u);
    EXPECT_EQ(rig.broker.shedLevel(), 0u);
    EXPECT_FALSE(rig.broker.tenantShed(lo));
    rig.broker.submit(lo, ls, {true, 0x08, 10});
    EXPECT_EQ(rig.broker.drainAll(), 1u);
}

TEST(Broker, ClosedSessionRefusesSubmitsAndFreesQuota)
{
    BrokerRig rig;
    TenantPolicy p;
    p.maxSessions = 1;
    uint32_t t = rig.broker.registerTenant("t", p);
    uint32_t s = rig.broker.openSession(t);
    rig.broker.submit(t, s, {true, 0x00, 1});
    rig.broker.closeSession(t, s);
    EXPECT_THROW(rig.broker.submit(t, s, {true, 0x00, 2}), SalusError);
    // The queued op still completes — close never drops work.
    EXPECT_EQ(rig.broker.drainAll(), 1u);
    // And the quota slot is free for a fresh session.
    uint32_t s2 = rig.broker.openSession(t);
    EXPECT_NE(s2, s);
}

// ------------------------------------------------ wire format + codes

TEST(BrokerRequest, SerializeDeserializeRoundTrips)
{
    BrokerRequest req;
    req.kind = BrokerRequest::Kind::SubmitOp;
    req.tenant = 3;
    req.session = 7;
    req.op = {true, 0x40, 0xdeadbeefcafe};
    Bytes wire = req.serialize();
    BrokerRequest back = BrokerRequest::deserialize(wire);
    EXPECT_EQ(back.kind, req.kind);
    EXPECT_EQ(back.tenant, 3u);
    EXPECT_EQ(back.session, 7u);
    EXPECT_EQ(back.op.isWrite, true);
    EXPECT_EQ(back.op.addr, 0x40u);
    EXPECT_EQ(back.op.data, 0xdeadbeefcafeull);
}

TEST(BrokerRequest, MalformedInputsAreTypedErrors)
{
    BrokerRequest req;
    req.kind = BrokerRequest::Kind::OpenSession;
    req.tenant = 1;
    Bytes wire = req.serialize();

    Bytes truncated(wire.begin(), wire.end() - 1);
    EXPECT_THROW(BrokerRequest::deserialize(truncated), SalusError);

    Bytes badMagic = wire;
    badMagic[0] ^= 0xff;
    EXPECT_THROW(BrokerRequest::deserialize(badMagic), SalusError);

    Bytes trailing = wire;
    trailing.push_back(0);
    EXPECT_THROW(BrokerRequest::deserialize(trailing), SalusError);

    Bytes badKind = wire;
    badKind[3] = 0x7f;
    EXPECT_THROW(BrokerRequest::deserialize(badKind), SalusError);
}

TEST(Broker, HandleMapsPolicyVerdictsToWireStatusCodes)
{
    BrokerRig rig;
    TenantPolicy p;
    p.maxSessions = 1;
    p.maxQueuedOps = 2;
    uint32_t t = rig.broker.registerTenant("wire", p);

    BrokerRequest open;
    open.kind = BrokerRequest::Kind::OpenSession;
    open.tenant = t;
    Broker::Response r = rig.broker.handle(open);
    EXPECT_EQ(r.status, kBrokerOk);
    uint32_t session = r.session;

    // Quota rejection comes back as a status code, not an exception.
    EXPECT_EQ(rig.broker.handle(open).status, kBrokerQuotaExceeded);

    BrokerRequest sub;
    sub.kind = BrokerRequest::Kind::SubmitOp;
    sub.tenant = t;
    sub.session = session;
    sub.op = {true, 0x00, 1};
    EXPECT_EQ(rig.broker.handle(sub).status, kBrokerOk);
    EXPECT_EQ(rig.broker.handle(sub).status, kBrokerOk);
    EXPECT_EQ(rig.broker.handle(sub).status, kBrokerQuotaExceeded);

    BrokerRequest unknown = sub;
    unknown.tenant = 99;
    EXPECT_EQ(rig.broker.handle(unknown).status, kBrokerUnknownTenant);

    BrokerRequest badSession = sub;
    badSession.session = 42;
    EXPECT_EQ(rig.broker.handle(badSession).status, kBrokerBadRequest);

    EXPECT_EQ(rig.broker.drainAll(), 2u);
}

// -------------------------------- policy rejections are never retried

TEST(PolicyRejection, CallWithRetryStopsOnFirstPolicyVerdict)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    Testbed tb;
    int calls = 0;
    tb.network().on(endpoints::kCloudHost, "brokeredOp",
                    [&calls](ByteView) -> Bytes {
                        ++calls;
                        throw RateLimited(
                            "tenant over budget",
                            ErrorContext{"tenant-1", "broker", "submit",
                                         0});
                    });

    net::RetryPolicy retry = net::RetryPolicy::standard();
    net::CallOutcome out = tb.network().callWithRetry(
        endpoints::kUserClient, endpoints::kCloudHost, "brokeredOp",
        Bytes{1}, retry, "test");
    // One attempt only: the verdict is deterministic, unlike a
    // transport fault which would burn the whole schedule.
    EXPECT_EQ(out.attempts, 1);
    EXPECT_EQ(out.failure, net::FailureClass::Policy);
    EXPECT_EQ(calls, 1);
    EXPECT_NE(out.error.find("rate limited"), std::string::npos);
    EXPECT_EQ(out.context.from, "tenant-1");
    EXPECT_EQ(std::string(net::failureClassName(out.failure)), "policy");
}

TEST(PolicyRejection, UserClientNeverRetriesPolicyRefusals)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    Testbed tb;
    tb.installCl(loopbackAccel());

    int raCalls = 0;
    tb.network().on(endpoints::kCloudHost, "raRequest",
                    [&raCalls](ByteView) -> Bytes {
                        ++raCalls;
                        throw QuotaExceeded("deployment quota reached");
                    });

    UserClient::Outcome out = tb.runDeployment();
    EXPECT_FALSE(out.ok);
    // A transport fault here would be retried (standard schedule is 4
    // attempts); the policy refusal must stop the client cold.
    EXPECT_EQ(out.attempts, 1);
    EXPECT_EQ(out.failureClass, net::FailureClass::Policy);
    EXPECT_EQ(raCalls, 1);
    EXPECT_NE(out.failure.find("refused by policy"), std::string::npos);
}

TEST(PolicyRejection, TransportFaultsStillRetryUnlikePolicy)
{
    // Contrast case: the same endpoint throwing NetError IS retried.
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    Testbed tb;
    int calls = 0;
    tb.network().on(endpoints::kCloudHost, "brokeredOp",
                    [&calls](ByteView) -> Bytes {
                        ++calls;
                        throw NetError("flaky");
                    });
    net::RetryPolicy retry = net::RetryPolicy::standard();
    net::CallOutcome out = tb.network().callWithRetry(
        endpoints::kUserClient, endpoints::kCloudHost, "brokeredOp",
        Bytes{1}, retry, "test");
    EXPECT_EQ(out.attempts, retry.maxAttempts);
    EXPECT_EQ(out.failure, net::FailureClass::Persistent);
    EXPECT_EQ(calls, retry.maxAttempts);
}

// ----------------------------------------- slice latency observation

TEST(Broker, SchedulerStampsSliceLatencyFromVirtualClock)
{
    BrokerRig rig;
    TenantPolicy p;
    p.maxQueuedOps = 64;
    uint32_t t = rig.broker.registerTenant("timed", p);
    uint32_t s = rig.broker.openSession(t);
    for (int i = 0; i < 8; ++i)
        rig.broker.submit(t, s, {true, 0x00, uint64_t(i)});
    rig.broker.pump();
    // The burst crossed the secure channel: real virtual time passed
    // and was attributed to this session's slice.
    EXPECT_GT(rig.tb.scheduler().sessionStats(s).sliceNanosLast, 0u);
    EXPECT_EQ(rig.tb.scheduler().sessionStats(s).dispatchedBatches, 1u);
}

// ------------------------------------------ noisy-neighbour isolation

namespace {

constexpr int kQosSweeps = 40;
constexpr int kLightOpsPerSweep = 8;

struct QosRun
{
    std::vector<sim::Nanos> lightSlice; ///< light slice time per sweep
    /** Submit-to-completion time of every light op. */
    std::vector<sim::Nanos> lightLatency;
    /** Longest heavy slice: one quantum of its channel time. */
    sim::Nanos heavyQuantum = 0;
    uint64_t heavyQuotaRejected = 0;
    sim::Nanos clockEnd = 0;
};

/** A light tenant submits 8 ops a sweep for 40 sweeps, alone or, with
 *  `contended`, beside an equal-weight tenant that floods 96 ops a
 *  sweep into its 64-op quota. The light tenant must be served in
 *  every sweep it submits in, and complete every op. */
QosRun
runQos(bool contended)
{
    QosRun run;
    BrokerRig rig(Broker::Config(), 7700);
    TenantPolicy lightPolicy;
    lightPolicy.maxQueuedOps = 128;
    uint32_t light = rig.broker.registerTenant("light", lightPolicy);
    uint32_t lightSession = rig.broker.openSession(light);
    TenantPolicy heavyPolicy;
    heavyPolicy.maxQueuedOps = 64;
    uint32_t heavy =
        contended ? rig.broker.registerTenant("heavy", heavyPolicy) : 0;
    uint32_t heavySession = contended ? rig.broker.openSession(heavy) : 0;

    for (int sweep = 0; sweep < kQosSweeps; ++sweep) {
        for (int i = 0; contended && i < 96; ++i) {
            try {
                rig.broker.submit(heavy, heavySession,
                                  {true, 0x00, uint64_t(i)});
            } catch (const PolicyError &) {
                break; // the flooder hit its own quota
            }
        }
        sim::Nanos submittedAt = rig.tb.clock().now();
        for (int i = 0; i < kLightOpsPerSweep; ++i)
            rig.broker.submit(
                light, lightSession, {true, 0x08, uint64_t(sweep) << 8 | i},
                [&run, &rig, submittedAt](uint8_t, uint64_t) {
                    run.lightLatency.push_back(rig.tb.clock().now() -
                                               submittedAt);
                });
        rig.broker.pump();
        const BatchScheduler::SessionStats &st =
            rig.tb.scheduler().sessionStats(lightSession);
        EXPECT_EQ(st.dispatchedOps,
                  uint64_t(kLightOpsPerSweep) * uint64_t(sweep + 1))
            << "light tenant not served in sweep " << sweep;
        run.lightSlice.push_back(st.sliceNanosLast);
        if (contended)
            run.heavyQuantum = std::max(
                run.heavyQuantum,
                rig.tb.scheduler().sessionStats(heavySession).sliceNanosLast);
    }
    rig.broker.drainAll();
    EXPECT_EQ(rig.broker.tenantStats(light).completed,
              uint64_t(kLightOpsPerSweep) * kQosSweeps);
    EXPECT_LE(rig.tb.scheduler().sessionStats(lightSession).maxSweepsWaited,
              1u);
    if (contended)
        run.heavyQuotaRejected = rig.broker.tenantStats(heavy).quotaRejected;
    run.clockEnd = rig.tb.clock().now();
    return run;
}

sim::Nanos
p99(std::vector<sim::Nanos> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[(samples.size() * 99 + 99) / 100 - 1];
}

} // namespace

TEST(Broker, NoisyNeighbourLeavesLightTenantP99WithinOneAndAHalf)
{
    // Weights 1:1, so this is isolation, not priority: under the
    // flood the light tenant's p99 stays within 1.5x of its solo p99.
    // Same-seed runs repeat every time exactly.
    QosRun solo = runQos(false);
    QosRun cont = runQos(true);
    QosRun soloAgain = runQos(false);
    QosRun contAgain = runQos(true);
    EXPECT_EQ(solo.lightSlice, soloAgain.lightSlice);
    EXPECT_EQ(solo.clockEnd, soloAgain.clockEnd);
    EXPECT_EQ(cont.lightSlice, contAgain.lightSlice);
    EXPECT_EQ(cont.clockEnd, contAgain.clockEnd);
    EXPECT_GT(cont.heavyQuotaRejected, 0u) << "the flood never saturated";

    sim::Nanos soloP99 = p99(solo.lightSlice);
    sim::Nanos contP99 = p99(cont.lightSlice);
    EXPECT_LE(2 * contP99, 3 * soloP99);
    test::expectGoldenValue("qos.light_slice_p99_contended_ns", contP99);
    test::expectGoldenRatio("qos.p99_ratio_x", double(contP99),
                            double(soloP99));

    // The slice time above is the light tenant's own burst, which the
    // flooder cannot change. What the neighbour costs shows in each
    // light op's submit-to-completion time: deficit round robin lets
    // at most one heavy quantum of channel time run ahead of it.
    EXPECT_EQ(solo.lightLatency, soloAgain.lightLatency);
    EXPECT_EQ(cont.lightLatency, contAgain.lightLatency);
    ASSERT_EQ(cont.lightLatency.size(),
              size_t(kLightOpsPerSweep) * kQosSweeps);
    sim::Nanos soloLatency = p99(solo.lightLatency);
    sim::Nanos contLatency = p99(cont.lightLatency);
    EXPECT_GT(contLatency, soloLatency) << "the flooder never ran first";
    EXPECT_LE(contLatency, soloLatency + cont.heavyQuantum);
    EXPECT_LE(2 * contLatency, 3 * soloLatency);
    test::expectGoldenValue("qos.light_latency_p99_solo_ns", soloLatency);
    test::expectGoldenValue("qos.light_latency_p99_contended_ns",
                            contLatency);
    test::expectGoldenValue("qos.heavy_quantum_ns", cont.heavyQuantum);
    test::expectGoldenRatio("qos.latency_p99_ratio_x", double(contLatency),
                            double(soloLatency));
}
