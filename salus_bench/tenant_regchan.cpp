/**
 * @file
 * tenant_regchan: four tenant sessions share one deployed CL through
 * the testbed's BatchScheduler (maxBatchOps = 32). Three bulk sessions
 * each keep 64 register ops outstanding and one interactive session
 * keeps 1, in a closed loop topped up after every sweep. Writes and
 * reads alternate and every read must return the session's last
 * written value. This stresses reg_channel, the scheduler, shell
 * bursts and sm_logic, with no GCM or bitstream work per rep; the
 * bulk/interactive mix makes a bulk-throughput gain that costs
 * interactive latency visible (reg_p99_us).
 */

#include "crypto/random.hpp"
#include "obs/trace.hpp"
#include "salus/reg_channel.hpp"
#include "salus/sim_hooks.hpp"
#include "workloads.hpp"

namespace salus::bench {

using core::BatchScheduler;
using core::Testbed;
using core::regchan::BatchResult;
using core::regchan::RegOp;

namespace {

constexpr size_t kBurstOps = 32;
constexpr uint32_t kSessions = 4;
constexpr uint32_t kInteractiveSlot = 3;
constexpr size_t kBulkWindow = 64;
/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetupReps = 21;

const MetricSpec kRegOpsPerVs{"reg_ops_per_vs", "ops/s", Clock::Virtual,
                              "higher", ""};
const MetricSpec kRegP50Us{"reg_p50_us", "us", Clock::Virtual, "lower", ""};
const MetricSpec kRegP99Us{"reg_p99_us", "us", Clock::Virtual, "lower", ""};

uint64_t
totalOps(const Options &opts)
{
    return opts.smoke ? 20000 : 2000000;
}

/** The k-th op of a session's stream: even k writes a seeded value,
 *  odd k reads it back. A pure function, so replays rebuild it. */
RegOp
opAt(uint64_t seed, uint32_t slot, uint64_t k)
{
    uint64_t x = seed * 0x9e3779b97f4a7c15ull + (uint64_t(slot) << 40) +
                 (k & ~uint64_t(1));
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 29;
    return RegOp{k % 2 == 0, 8 * slot, k % 2 == 0 ? x : 0};
}

uint64_t
expectedRead(uint64_t seed, uint32_t slot, uint64_t k)
{
    return opAt(seed, slot, k - 1).data;
}

/** Boots the test-model CL and attaches the three tenant peers. */
std::unique_ptr<Testbed>
setUp(const Options &opts, RunResult &result)
{
    core::TestbedConfig cfg;
    cfg.rngSeed = opts.seed;
    cfg.schedulerMaxBatchOps = kBurstOps;
    auto tb = bootLoopbackCl(cfg, result);
    for (uint32_t s = 1; s < kSessions; ++s) {
        uint32_t peer = tb->addUserSession();
        result.check(tb->userApp(peer).attachToPlatform(),
                     "tenant session failed to attach");
    }
    return tb;
}

/** One sealed burst the scheduler dispatched: (slot, first op, ops). */
struct Burst
{
    uint32_t slot = 0;
    uint64_t first = 0;
    uint32_t count = 0;
};

struct LoopStats
{
    uint64_t ops = 0;
    uint64_t bad = 0; ///< non-zero status or wrong readback
    sim::Nanos elapsed = 0;
    sim::Nanos chanCrypto = 0;
    sim::Nanos chanTransport = 0;
    std::vector<sim::Nanos> interactive;
    std::vector<sim::Nanos> bulk;
    std::vector<Burst> bursts;
};

/** The closed loop: top every session up to its window, run one
 *  sweep, repeat until `total` ops completed. */
class ClosedLoop
{
  public:
    ClosedLoop(Testbed &tb, uint64_t seed, bool record)
        : tb_(tb), seed_(seed), record_(record)
    {}

    LoopStats run(uint64_t total)
    {
        sim::VirtualClock &clock = tb_.clock();
        sim::Nanos v0 = clock.now();
        sim::Nanos crypto0 = clock.totalFor(core::phases::kChanCrypto);
        sim::Nanos transport0 =
            clock.totalFor(core::phases::kChanTransport);
        BatchScheduler &sched = tb_.scheduler();
        uint64_t issued = 0;
        while (stats_.ops < total) {
            for (uint32_t s = 0; s < kSessions; ++s) {
                Session &sess = sessions_[s];
                size_t window = s == kInteractiveSlot ? 1 : kBulkWindow;
                while (sess.outstanding() < window && issued < total) {
                    sess.ring[(sess.issued) % kBulkWindow] = clock.now();
                    auto verdict = sched.submit(
                        s, opAt(seed_, s, sess.issued),
                        [this, s](uint8_t status, uint64_t data) {
                            complete(s, status, data);
                        });
                    if (verdict != BatchScheduler::Submit::Accepted)
                        ++stats_.bad; // closed loop never overfills
                    ++sess.issued;
                    ++issued;
                }
            }
            lastSlot_ = kSessions;
            if (sched.pumpOnce() == 0)
                break; // no progress: reported as missing ops
        }
        stats_.elapsed = clock.now() - v0;
        stats_.chanCrypto =
            clock.totalFor(core::phases::kChanCrypto) - crypto0;
        stats_.chanTransport =
            clock.totalFor(core::phases::kChanTransport) - transport0;
        stats_.bad += total - stats_.ops;
        return std::move(stats_);
    }

  private:
    struct Session
    {
        uint64_t issued = 0;
        uint64_t done = 0;
        /** Submit times of the outstanding ops (FIFO per session). */
        sim::Nanos ring[kBulkWindow] = {};
        size_t outstanding() const { return size_t(issued - done); }
    };

    void complete(uint32_t s, uint8_t status, uint64_t data)
    {
        Session &sess = sessions_[s];
        uint64_t k = sess.done++;
        ++stats_.ops;
        bool ok = status == 0 &&
                  (k % 2 == 0 || data == expectedRead(seed_, s, k));
        stats_.bad += ok ? 0 : 1;
        sim::Nanos latency = tb_.clock().now() - sess.ring[k % kBulkWindow];
        if (s == kInteractiveSlot)
            stats_.interactive.push_back(latency);
        else if (record_)
            stats_.bulk.push_back(latency);
        if (record_ && s != lastSlot_) {
            stats_.bursts.push_back(Burst{s, k, 0});
            lastSlot_ = s;
        }
        if (record_)
            ++stats_.bursts.back().count;
    }

    Testbed &tb_;
    uint64_t seed_;
    bool record_;
    Session sessions_[kSessions];
    uint32_t lastSlot_ = kSessions;
    LoopStats stats_;
};

/** Counts one loop's ops and checks its virtual layer sum. */
void
checkLoop(const LoopStats &loop, RunResult &result)
{
    result.tally(loop.ops, loop.bad,
                 "register op failed or read back a stale value");
    result.check(loop.chanCrypto + loop.chanTransport == loop.elapsed,
                 "channel crypto + transport != virtual elapsed");
    result.check(loop.interactive.size() >= (loop.ops > 100000 ? 1000 : 100),
                 "too few interactive latency samples");
}

} // namespace

const std::vector<MetricSpec> kTenantRegchanLayers = {
    {"scheduler.self_ms", "ms", Clock::Host, "lower", "host_s"},
    {"sm.reg_batch_ms", "ms", Clock::Host, "lower", "host_s"},
    {"regchan.seal_open_ms", "ms", Clock::Host, "lower", "host_s"},
    {"virt.channel_crypto_ms", "ms", Clock::Virtual, "lower",
     "reg_ops_per_vs"},
    {"virt.channel_transport_ms", "ms", Clock::Virtual, "lower",
     "reg_ops_per_vs"},
    {"channel.ops_per_burst", "ops", Clock::Tally, "higher",
     "reg_ops_per_vs"},
    {"scheduler.backpressure", "count", Clock::Tally, "lower",
     "reg_p99_us"},
    {"scheduler.bulk_p99_us", "us", Clock::Virtual, "lower", "reg_p99_us"},
    {"channel.rejects", "count", Clock::Tally, "lower", "error_rate"},
};

RunResult
runTenantRegchan(const Options &opts)
{
    RunResult result;
    std::vector<double> setups;
    std::vector<double> reps;
    LoopStats last;
    // Set-ups are timed back to back before the reps: one right after a
    // rep runs 2-3x slower, and varies from run to run, while the heap
    // and caches still hold the previous rep's garbage.
    for (int i = 0; i < (opts.smoke ? 1 : kSetupReps); ++i) {
        auto start = HostClock::now();
        auto tb = setUp(opts, result);
        setups.push_back(secondsSince(start));
    }
    repeatFor(opts.seconds, opts.smoke ? 1 : 3, opts.smoke ? 1 : 1000,
              [&](int) {
                  // A fresh testbed per rep keeps the virtual clock's
                  // phase log (it grows with every burst) bounded.
                  auto tb = setUp(opts, result);
                  HostSpan rep(nullptr, "rep");
                  last = ClosedLoop(*tb, opts.seed, false)
                             .run(totalOps(opts));
                  reps.push_back(rep.stop());
                  checkLoop(last, result);
              });
    double opsPerVs = double(last.ops) / (double(last.elapsed) / 1e9);
    result.add(kRegOpsPerVs, Kind::Headline, opsPerVs);
    result.add(kRegP50Us, Kind::Headline,
               double(percentile(last.interactive, 50)) / 1e3);
    result.add(kRegP99Us, Kind::Headline,
               double(percentile(last.interactive, 99)) / 1e3);
    addEndToEnd(result, median(setups), median(reps), opsPerVs);
    return result;
}

RunResult
tracedTenantRegchan(const Options &opts, HostTrace &trace)
{
    RunResult result;
    // Replay keys of the bench's own: the session keys never leave the
    // SM enclave, and the seal/open cost does not depend on them.
    crypto::CtrDrbg rng(opts.seed + 0x7e9);
    Bytes aesKey = rng.bytes(16);
    Bytes macKey = rng.bytes(32);
    crypto::Aes aes(aesKey);

    std::vector<double> drains, directs, sealOpens;
    LoopStats traced;
    uint64_t batchOps = 0, batches = 0, backpressure = 0, rejects = 0;
    repeatFor(opts.seconds, opts.smoke ? 1 : 2, opts.smoke ? 1 : 1000,
              [&](int) {
        uint32_t repSpan = trace.begin("rep");
        sim::Nanos untracedElapsed = 0;
        {
            HostSpan setup(&trace, "setup");
            auto tb = setUp(opts, result);
            setup.stop();
            HostSpan drain(&trace, "scheduler.drain");
            LoopStats loop =
                ClosedLoop(*tb, opts.seed, false).run(totalOps(opts));
            drains.push_back(drain.stop());
            checkLoop(loop, result);
            untracedElapsed = loop.elapsed;
        }

        {
            HostSpan setup(&trace, "setup");
            auto tb = setUp(opts, result);
            setup.stop();
            obs::TraceRecorder recorder(tb->clock());
            obs::MetricsRegistry registry;
            HostSpan span(&trace, "scheduler.drain_traced");
            {
                obs::ObsScope scope(&recorder, &registry);
                traced = ClosedLoop(*tb, opts.seed, true)
                             .run(totalOps(opts));
            }
            span.stop();
            checkLoop(traced, result);
            result.check(traced.elapsed == untracedElapsed,
                         "tracing changed the virtual elapsed time");
            batchOps = registry.counter("channel.batch_ops");
            const obs::Histogram *sizes =
                registry.findHistogram("channel.batch_size");
            batches = sizes ? sizes->total : 0;
            backpressure = registry.counter("scheduler.backpressure");
            rejects = registry.counter("channel.rejects");
        }

        // The same bursts, sent direct through the SM enclave.
        std::vector<std::vector<RegOp>> bursts;
        bursts.reserve(traced.bursts.size());
        for (const Burst &b : traced.bursts) {
            std::vector<RegOp> ops;
            for (uint32_t i = 0; i < b.count; ++i)
                ops.push_back(opAt(opts.seed, b.slot, b.first + i));
            bursts.push_back(std::move(ops));
        }
        {
            HostSpan setup(&trace, "setup");
            auto tb = setUp(opts, result);
            setup.stop();
            uint64_t bad = 0;
            HostSpan span(&trace, "sm.reg_batch");
            for (size_t i = 0; i < bursts.size(); ++i) {
                const Burst &b = traced.bursts[i];
                std::vector<BatchResult> out =
                    tb->smApp().secureRegBatch(b.slot, bursts[i]);
                for (uint32_t j = 0; j < b.count; ++j) {
                    uint64_t k = b.first + j;
                    bad += j < out.size() && out[j].status == 0 &&
                                   (k % 2 == 0 ||
                                    out[j].data ==
                                        expectedRead(opts.seed, b.slot, k))
                               ? 0
                               : 1;
                }
            }
            directs.push_back(span.stop());
            result.tally(traced.ops, bad, "direct burst replay failed");
        }

        // Both ends' regchan calls for every burst, on the same ops:
        // the SM enclave seals the burst and opens the response; the
        // SM logic checks the MAC, then decrypts, decodes, encodes and
        // encrypts block by block, and MACs the response.
        {
            namespace rc = core::regchan;
            uint64_t bad = 0;
            uint64_t ctr = 1;
            Bytes out;
            HostSpan span(&trace, "regchan.seal_open");
            for (size_t i = 0; i < bursts.size(); ++i) {
                uint32_t slot = traced.bursts[i].slot;
                rc::SealedRegBatch req =
                    rc::sealBatch(aes, macKey, slot, ctr, bursts[i]);
                bool ok = rc::batchMac(macKey, slot, ctr, req.payload,
                                       false) == req.mac;
                out.assign(req.payload.size(), 0);
                for (size_t j = 0; j < bursts[i].size(); ++j) {
                    uint8_t *in = req.payload.data() + j * rc::kRegBatchBlock;
                    rc::cryptBatchBlock(aes, false, ctr + j, in);
                    RegOp op = rc::decodeBatchOp(in);
                    ok = ok && op.addr == bursts[i][j].addr;
                    uint8_t *o = out.data() + j * rc::kRegBatchBlock;
                    rc::encodeBatchResult(0, op.data, o);
                    rc::cryptBatchBlock(aes, true, ctr + j, o);
                }
                rc::SealedBatchResponse rsp;
                rsp.mac = rc::batchMac(macKey, slot, ctr, out, true);
                rsp.payload = std::move(out);
                auto back = rc::openBatchResponse(aes, macKey, slot, ctr,
                                                  bursts[i].size(), rsp);
                bad += ok && back ? 0 : 1;
                out = std::move(rsp.payload);
                ctr += bursts[i].size();
            }
            sealOpens.push_back(span.stop());
            result.tally(bursts.size(), bad, "seal/open replay failed");
        }
        trace.end(repSpan);
    });

    // Self times per rep (drain = scheduler + SM + regchan), then
    // medians: pairing within a rep cancels the host's drift.
    std::vector<double> schedulerSelf, smSelf;
    for (size_t i = 0; i < drains.size(); ++i) {
        result.check(directs[i] <= drains[i] * (1 + kHostBound) &&
                         sealOpens[i] <= directs[i] * (1 + kHostBound),
                     "replayed layers exceed the drain they replay");
        schedulerSelf.push_back(drains[i] - directs[i]);
        smSelf.push_back(directs[i] - sealOpens[i]);
    }
    const std::vector<MetricSpec> &l = kTenantRegchanLayers;
    result.add(l[0], Kind::Layer, median(schedulerSelf) * 1e3);
    result.add(l[1], Kind::Layer, median(smSelf) * 1e3);
    result.add(l[2], Kind::Layer, median(sealOpens) * 1e3);
    result.add(l[3], Kind::Layer, double(traced.chanCrypto) / 1e6);
    result.add(l[4], Kind::Layer, double(traced.chanTransport) / 1e6);
    result.add(l[5], Kind::Layer,
               batches ? double(batchOps) / double(batches) : 0);
    result.add(l[6], Kind::Layer, double(backpressure));
    result.add(l[7], Kind::Layer,
               double(percentile(traced.bulk, 99)) / 1e3);
    result.add(l[8], Kind::Layer, double(rejects));
    return result;
}

} // namespace salus::bench
