/**
 * @file
 * Tests for the deterministic fault-injection fabric and the
 * self-healing deployment built on it: seeded fault plans replay
 * bit-for-bit, transport faults are retried with backoff charged to
 * the virtual clock, and security rejections (tampering) are never
 * retried into acceptance.
 */

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "fpga/ip.hpp"
#include "golden.hpp"
#include "paper/paper.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"

using namespace salus;

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

std::unique_ptr<core::Testbed>
makeTestbed(core::TestbedConfig cfg = {})
{
    fpga::ensureBuiltinIps();
    core::SmLogic::registerIp();
    auto tb = std::make_unique<core::Testbed>(std::move(cfg));
    tb->installCl(loopbackAccel());
    return tb;
}

/**
 * The acceptance-criterion plan: >= 10% message loss on every link,
 * 10% corruption on the manufacturer's key responses, one failed
 * bitstream load and one configuration upset. Corruption is scoped to
 * the key-response link because corrupting *authenticated* payloads
 * (quotes, MACed registers) is indistinguishable from tampering and
 * correctly fails closed — that property has its own tests below.
 */
sim::FaultPlan
acceptancePlan(uint64_t seed)
{
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.add(sim::FaultRule::dropRpc(0.10));
    plan.add(sim::FaultRule::corruptRpc(0.10).on(
        core::endpoints::kManufacturer, core::endpoints::kCloudHost,
        "keyRequest"));
    plan.add(sim::FaultRule::bitstreamLoadFail(1));
    plan.add(sim::FaultRule::seu(0, 2 * 64 * 8 + 7));
    return plan;
}

} // namespace

// ------------------------------------------------- end-to-end healing

TEST(FaultRecovery, DeploymentHealsThroughAcceptancePlan)
{
    core::TestbedConfig cfg;
    cfg.faultPlan = acceptancePlan(7);
    auto tb = makeTestbed(std::move(cfg));

    auto out = tb->runDeployment();
    ASSERT_TRUE(out.ok) << out.failure;
    EXPECT_GE(out.attempts, 1);

    const sim::FaultStats &stats = tb->faultInjector().stats();
    EXPECT_EQ(stats.loadFailures, 1u);
    EXPECT_EQ(stats.seusInjected, 1u);
    EXPECT_GE(stats.rpcDropped, 1u);
    EXPECT_GE(stats.total(), 3u);

    // The healed platform is fully functional.
    EXPECT_TRUE(tb->userApp().secureWrite(0x00, 42));
    EXPECT_EQ(tb->userApp().secureRead(0x00), 42u);
}

TEST(FaultRecovery, LossyLinkSweepIsPinnedAndCombinedPlanRecovers)
{
    // 25 seeds per loss rate, with and without retries, then lossy
    // links plus a failed load plus one SEU, which must recover.
    paper::Rendered r = paper::faultRecovery();
    EXPECT_TRUE(r.ok) << r.text;
    test::expectGoldenDigest("paper.fault_recovery.txt", r.text);
    test::expectQuotedInExperiments("fault_recovery", r.text);
}

TEST(FaultRecovery, SamePlanFailsClosedWithoutRetries)
{
    core::TestbedConfig cfg;
    cfg.faultPlan = acceptancePlan(7);
    cfg.retry = net::RetryPolicy::none();
    auto tb = makeTestbed(std::move(cfg));

    auto out = tb->runDeployment();
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.attempts, 1);
    EXPECT_TRUE(out.dataKey.empty());
    EXPECT_NE(out.failureClass, net::FailureClass::None);
}

TEST(FaultRecovery, DeterministicReplay)
{
    auto run = [] {
        core::TestbedConfig cfg;
        cfg.faultPlan = acceptancePlan(7);
        auto tb = makeTestbed(std::move(cfg));
        auto out = tb->runDeployment();
        return std::tuple{out.ok, out.attempts, out.failure,
                          tb->faultInjector().journal(),
                          tb->faultInjector().stats().total(),
                          tb->clock().now()};
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(std::get<0>(a), std::get<0>(b));
    EXPECT_EQ(std::get<1>(a), std::get<1>(b));
    EXPECT_EQ(std::get<2>(a), std::get<2>(b));
    // Bit-for-bit identical fault sequence, virtual time included.
    EXPECT_EQ(std::get<3>(a), std::get<3>(b));
    EXPECT_EQ(std::get<4>(a), std::get<4>(b));
    EXPECT_EQ(std::get<5>(a), std::get<5>(b));

    ASSERT_FALSE(std::get<3>(a).empty());
    for (const std::string &entry : std::get<3>(a))
        EXPECT_EQ(entry.rfind("t=", 0), 0u) << entry;
}

// ----------------------------------------------- bitstream load / SEU

TEST(FaultRecovery, LoadFailureRetriedToSuccess)
{
    core::TestbedConfig cfg;
    cfg.faultPlan.add(sim::FaultRule::bitstreamLoadFail(1));
    auto tb = makeTestbed(std::move(cfg));

    auto out = tb->runDeployment();
    ASSERT_TRUE(out.ok) << out.failure;
    EXPECT_EQ(tb->faultInjector().stats().loadFailures, 1u);
    EXPECT_TRUE(tb->smApp().reattestCl());
}

TEST(FaultRecovery, LoadFailureFailsClosedWithoutRetries)
{
    core::TestbedConfig cfg;
    cfg.faultPlan.add(sim::FaultRule::bitstreamLoadFail(1));
    cfg.retry = net::RetryPolicy::none();
    auto tb = makeTestbed(std::move(cfg));

    auto out = tb->runDeployment();
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.failure.find("DecryptFailed"), std::string::npos)
        << out.failure;
}

TEST(FaultRecovery, InjectedSeuIsScrubbable)
{
    core::TestbedConfig cfg;
    cfg.faultPlan.add(sim::FaultRule::seu(0, 5 * 64 * 8 + 3));
    auto tb = makeTestbed(std::move(cfg));

    ASSERT_TRUE(tb->runDeployment().ok);
    EXPECT_EQ(tb->faultInjector().stats().seusInjected, 1u);

    // The upset landed in configuration memory; frame ECC finds and
    // fixes it, and the shell charges the scrub pass to the clock.
    sim::Nanos before = tb->clock().now();
    auto report = tb->shell().scrubPartition();
    EXPECT_EQ(report.corrected, 1u);
    EXPECT_EQ(report.uncorrectable, 0u);
    EXPECT_GT(tb->clock().now(), before);
}

TEST(FaultRecovery, UncorrectableSeuHealedByRedeployment)
{
    auto tb = makeTestbed();
    ASSERT_TRUE(tb->runDeployment().ok);

    // Two upsets in one frame defeat the ECC: the design is taken
    // down and re-attestation fails...
    tb->device().injectSeu(0, 100);
    tb->device().injectSeu(0, 200);
    EXPECT_EQ(tb->device().scrub(0).uncorrectable, 1u);
    EXPECT_FALSE(tb->smApp().reattestCl());

    // ...but the next deployment re-encrypts and reloads the
    // bitstream, restoring service with fresh session secrets.
    auto healed = tb->runDeployment();
    ASSERT_TRUE(healed.ok) << healed.failure;
    EXPECT_TRUE(tb->smApp().reattestCl());
    EXPECT_TRUE(tb->userApp().secureWrite(0x08, 9));
    EXPECT_EQ(tb->userApp().secureRead(0x08), 9u);
}

// ------------------------------------------- secure register channel

TEST(FaultRecovery, LostRekeyStatusConverges)
{
    auto tb = makeTestbed();
    ASSERT_TRUE(tb->runDeployment().ok);
    core::UserEnclaveApp &user = tb->userApp();

    // The fabric rolls its keys but the completion read is lost: the
    // host cannot know whether the roll happened.
    tb->faultInjector().arm(
        sim::FaultRule::regFault(1.0).match("read").times(1));
    EXPECT_FALSE(user.rekeySession());

    // The next secure op is rejected under the old keys; the channel
    // probes the pending rolled keys and converges on them.
    EXPECT_TRUE(user.secureWrite(0x10, 77));
    EXPECT_EQ(user.secureRead(0x10), 77u);

    // Subsequent re-keys start from the converged state.
    EXPECT_TRUE(user.rekeySession());
    EXPECT_TRUE(user.secureWrite(0x10, 78));
    EXPECT_EQ(user.secureRead(0x10), 78u);
}

TEST(FaultRecovery, LostRegisterWriteRetriedWithFreshCounter)
{
    auto tb = makeTestbed();
    ASSERT_TRUE(tb->runDeployment().ok);
    auto &sh = tb->shell();

    uint64_t rejBefore = sh.registerRead(pcie::Window::SmSecure,
                                         core::kSmRegStatRegOpRejected);

    // One posted write vanishes on the bus: the fabric sees a garbled
    // request and rejects it WITHOUT advancing its freshness counter,
    // so the resealed retry (fresh counter, fresh MAC) goes through.
    tb->faultInjector().arm(
        sim::FaultRule::regFault(1.0).match("write").times(1));
    EXPECT_TRUE(tb->userApp().secureWrite(0x18, 5));
    EXPECT_EQ(tb->userApp().secureRead(0x18), 5u);

    EXPECT_GE(tb->faultInjector().stats().regFaults, 1u);
    EXPECT_GT(sh.registerRead(pcie::Window::SmSecure,
                              core::kSmRegStatRegOpRejected),
              rejBefore);
}

TEST(FaultRecovery, TamperingIsNeverRetriedIntoAcceptance)
{
    core::TestbedConfig cfg;
    cfg.maliciousShell = true; // honest plan until we arm it
    auto tb = makeTestbed(std::move(cfg));
    ASSERT_TRUE(tb->runDeployment().ok);
    auto &sh = tb->shell();

    uint64_t rejBefore = sh.registerRead(pcie::Window::SmSecure,
                                         core::kSmRegStatRegOpRejected);

    // Persistent man-in-the-middle on the secure register window:
    // every bounded retry is rejected; tampering never becomes an
    // accepted operation no matter how often it is retried.
    tb->maliciousShell()->plan().smWindowDataTamperMask = 0xff;
    EXPECT_FALSE(tb->userApp().secureWrite(0x20, 13));
    EXPECT_GT(sh.registerRead(pcie::Window::SmSecure,
                              core::kSmRegStatRegOpRejected),
              rejBefore);

    // Once the interference stops, the same session recovers (the
    // rejected counters were never consumed by the fabric).
    tb->maliciousShell()->plan().smWindowDataTamperMask = 0;
    EXPECT_TRUE(tb->userApp().secureWrite(0x20, 13));
    EXPECT_EQ(tb->userApp().secureRead(0x20), 13u);
}

// -------------------------------------------------- network substrate

namespace {

struct NetRig
{
    sim::VirtualClock clock;
    sim::CostModel cost;
    net::Network net{clock, cost};
    std::unique_ptr<sim::FaultInjector> inj;
    int handled = 0;
    Bytes lastSeen;

    explicit NetRig(sim::FaultPlan plan)
    {
        net.addEndpoint("a");
        net.addEndpoint("b");
        net.link("a", "b", sim::LinkKind::Wan);
        net.on("b", "ping", [this](ByteView req) {
            ++handled;
            lastSeen.assign(req.begin(), req.end());
            return Bytes(req.begin(), req.end());
        });
        inj = std::make_unique<sim::FaultInjector>(std::move(plan),
                                                   clock);
        net.setFaultInjector(inj.get());
    }
};

} // namespace

TEST(NetFaults, DropCarriesStructuredContext)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::dropRpc(1.0).times(1));
    NetRig rig(std::move(plan));

    Bytes req{1, 2, 3};
    try {
        rig.net.call("a", "b", "ping", req);
        FAIL() << "drop did not surface";
    } catch (const NetError &e) {
        EXPECT_EQ(e.context().from, "a");
        EXPECT_EQ(e.context().to, "b");
        EXPECT_EQ(e.context().method, "ping");
        EXPECT_NE(std::string(e.what()).find("a->b"),
                  std::string::npos);
    }
    EXPECT_EQ(rig.handled, 0);
    // The rule is exhausted; the link works again.
    EXPECT_EQ(rig.net.call("a", "b", "ping", req), req);
}

TEST(NetFaults, UnknownEndpointErrorNamesTheLink)
{
    NetRig rig(sim::FaultPlan{});
    try {
        rig.net.call("a", "nowhere", "ping", Bytes{});
        FAIL() << "missing endpoint accepted";
    } catch (const NetError &e) {
        EXPECT_EQ(e.context().to, "nowhere");
        EXPECT_EQ(e.context().method, "ping");
    }
}

TEST(NetFaults, CallWithRetryRecoversAndChargesBackoff)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::dropRpc(1.0).times(2));
    NetRig rig(std::move(plan));

    auto out = rig.net.callWithRetry("a", "b", "ping", Bytes{9},
                                     net::RetryPolicy::standard());
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_EQ(out.attempts, 3);
    EXPECT_EQ(out.response, Bytes{9});
    EXPECT_GT(rig.clock.totalFor(net::kRetryBackoffPhase), 0u);
}

TEST(NetFaults, ExhaustedRetriesReportLastContext)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::dropRpc(1.0));
    NetRig rig(std::move(plan));

    net::RetryPolicy policy = net::RetryPolicy::standard();
    bool exhaustedHookFired = false;
    policy.onExhausted = [&](const ErrorContext &ctx) {
        exhaustedHookFired = true;
        EXPECT_EQ(ctx.attempt, policy.maxAttempts);
    };
    auto out = rig.net.callWithRetry("a", "b", "ping", Bytes{1},
                                     policy);
    EXPECT_FALSE(out.ok());
    // A bounded schedule exhausted by transport faults is PERSISTENT:
    // the caller must stop hammering and let the fleet supervisor
    // decide (failover, quarantine).
    EXPECT_EQ(out.failure, net::FailureClass::Persistent);
    EXPECT_TRUE(exhaustedHookFired);
    EXPECT_EQ(out.attempts, policy.maxAttempts);
    EXPECT_EQ(out.context.attempt, policy.maxAttempts);
    EXPECT_NE(out.error.find("attempts"), std::string::npos);
}

TEST(NetFaults, DeadlineSurfacesAsTimeout)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::delayRpc(1.0, 10 * sim::kSec));
    NetRig rig(std::move(plan));

    EXPECT_THROW(rig.net.call("a", "b", "ping", Bytes{1}, "",
                              1 * sim::kSec),
                 TimeoutError);
    // TimeoutError is-a NetError so legacy catch sites keep working.
    // With retries enabled the exhausted schedule reclassifies to
    // Persistent; the timeout itself stays visible in the message.
    net::RetryPolicy policy = net::RetryPolicy::standard();
    policy.deadline = 1 * sim::kSec;
    auto out = rig.net.callWithRetry("a", "b", "ping", Bytes{1},
                                     policy);
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.failure, net::FailureClass::Persistent);
    EXPECT_NE(out.error.find("exceeded deadline"), std::string::npos);

    // Without retries (single attempt) the class is untouched.
    net::RetryPolicy once = net::RetryPolicy::none();
    once.deadline = 1 * sim::kSec;
    auto single = rig.net.callWithRetry("a", "b", "ping", Bytes{1},
                                        once);
    EXPECT_FALSE(single.ok());
    EXPECT_EQ(single.failure, net::FailureClass::Timeout);
}

TEST(NetFaults, DuplicateDeliversPayloadTwice)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::duplicateRpc(1.0).times(1));
    NetRig rig(std::move(plan));

    EXPECT_EQ(rig.net.call("a", "b", "ping", Bytes{4}), Bytes{4});
    EXPECT_EQ(rig.handled, 2);
    EXPECT_EQ(rig.inj->stats().rpcDuplicated, 1u);
}

TEST(NetFaults, ReorderedMessageArrivesStaleBeforeTheNext)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::reorderRpc(1.0).times(1));
    NetRig rig(std::move(plan));

    // The held message looks like a loss to its sender...
    EXPECT_THROW(rig.net.call("a", "b", "ping", Bytes{1}), NetError);
    EXPECT_EQ(rig.handled, 0);

    // ...and is delivered stale ahead of the next call: the receiver
    // sees the old payload first, then the new one.
    EXPECT_EQ(rig.net.call("a", "b", "ping", Bytes{2}), Bytes{2});
    EXPECT_EQ(rig.handled, 2);
    EXPECT_EQ(rig.inj->stats().rpcReordered, 1u);
}

TEST(NetFaults, CorruptionFlipsExactlyTheConfiguredMask)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::corruptRpc(1.0, 0x20).match("ping").times(1));
    NetRig rig(std::move(plan));

    Bytes original{0, 0, 0, 0, 0, 0};
    rig.net.call("a", "b", "ping", original);
    ASSERT_EQ(rig.lastSeen.size(), original.size());
    uint8_t delta = 0;
    for (size_t i = 0; i < original.size(); ++i)
        delta ^= uint8_t(rig.lastSeen[i] ^ original[i]);
    EXPECT_EQ(delta, 0x20);
    EXPECT_EQ(rig.inj->stats().rpcCorrupted, 1u);
}

// ------------------------------------------------------ retry policy

TEST(RetryPolicy, BackoffDeterministicAndBounded)
{
    net::RetryPolicy p = net::RetryPolicy::standard();
    EXPECT_EQ(p.backoffBefore(1), 0u);
    for (int attempt = 2; attempt <= 10; ++attempt) {
        sim::Nanos a = p.backoffBefore(attempt);
        EXPECT_EQ(a, p.backoffBefore(attempt)) << attempt;
        EXPECT_GE(a, sim::Nanos(double(p.initialBackoff) *
                                (1.0 - p.jitterFraction)));
        EXPECT_LE(a, sim::Nanos(double(p.maxBackoff) *
                                (1.0 + p.jitterFraction)));
    }
    // Jitter decorrelates the attempts of different sessions.
    net::RetryPolicy q = p;
    q.jitterSeed = p.jitterSeed + 1;
    EXPECT_NE(p.backoffBefore(2), q.backoffBefore(2));

    EXPECT_FALSE(net::RetryPolicy::none().enabled());
    EXPECT_TRUE(p.enabled());
}

TEST(RetryPolicy, ErrorContextDescribesTheSite)
{
    ErrorContext ctx{"user", "cloud", "raRequest", 3};
    std::string d = ctx.describe();
    EXPECT_NE(d.find("user->cloud"), std::string::npos);
    EXPECT_NE(d.find("raRequest"), std::string::npos);
    EXPECT_TRUE(ErrorContext{}.empty());
    EXPECT_FALSE(ctx.empty());
}
