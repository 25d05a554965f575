/**
 * @file
 * bulk_dma: about 256 MiB per rep through SmEnclaveApp::dmaWrite and
 * dmaRead — a seeded order of 1 MiB transfers at window 8 and 64 KiB
 * transfers at window 2, every byte read back and compared. This
 * stresses AES-CTR, HMAC, dma_channel and device DRAM and does no
 * GCM, so a GCM change should read "no change" here.
 */

#include <algorithm>

#include "crypto/aes.hpp"
#include "crypto/random.hpp"
#include "fpga/dram.hpp"
#include "obs/trace.hpp"
#include "salus/dma_channel.hpp"
#include "workloads.hpp"

namespace salus::bench {

using core::Testbed;

namespace {

/** Destination base: user data stays below the 2 MiB staging rings. */
constexpr uint64_t kDstAddr = 0x8000;
constexpr size_t kLarge = 1 << 20;
constexpr size_t kSmall = 64 << 10;
/** Per-descriptor payload caps of the SM enclave's DMA plane. */
constexpr size_t kWriteChunk = 64 << 10;
constexpr size_t kReadChunk = 32 << 10;

const MetricSpec kDmaMbPerVs{"dma_mb_per_vs", "MB/s", Clock::Virtual,
                             "higher", ""};

struct Transfer
{
    size_t offset = 0; ///< into the payload pool
    size_t bytes = 0;
    size_t window = 0;
};

/** The rep's seeded transfer list and payload pool. */
struct Plan
{
    Bytes pool;
    std::vector<Transfer> transfers;
};

Plan
makePlan(const Options &opts)
{
    crypto::CtrDrbg rng(opts.seed + 0xd3a);
    Plan plan;
    plan.pool = rng.bytes(2 * kLarge);
    size_t large = opts.smoke ? 1 : 96;
    size_t small = opts.smoke ? 5 : 512;
    for (size_t i = 0; i < large + small; ++i) {
        size_t bytes = i < large ? kLarge : kSmall;
        plan.transfers.push_back(Transfer{size_t(rng.below(kLarge)), bytes,
                                          size_t(i < large ? 8 : 2)});
    }
    for (size_t i = plan.transfers.size(); i > 1; --i)
        std::swap(plan.transfers[i - 1],
                  plan.transfers[size_t(rng.below(i))]);
    return plan;
}

std::unique_ptr<Testbed>
setUp(const Options &opts, RunResult &result)
{
    core::TestbedConfig cfg;
    cfg.rngSeed = opts.seed;
    return bootLoopbackCl(cfg, result);
}

struct RepStats
{
    uint64_t bytesMoved = 0;
    sim::Nanos elapsed = 0;
    sim::Nanos crypto = 0;
    sim::Nanos hidden = 0;
    sim::Nanos transport = 0;
    uint64_t descriptors = 0;
    uint64_t retransmits = 0;
    double writeS = 0; ///< host seconds inside dmaWrite
    double readS = 0;  ///< host seconds inside dmaRead
};

/** Moves every transfer of the plan and checks each one. */
RepStats
runTransfers(Testbed &tb, const Plan &plan, const Options &opts,
             RunResult &result, HostTrace *trace)
{
    RepStats st;
    core::SmEnclaveApp &sm = tb.smApp();
    sim::VirtualClock &clock = tb.clock();
    sim::Nanos start = clock.now();
    Bytes out;
    bool corrupt = opts.corruptReadback;
    for (const Transfer &t : plan.transfers) {
        ByteView data = ByteView(plan.pool).subspan(t.offset, t.bytes);
        core::SmEnclaveApp::DmaOptions dopts;
        dopts.windowSize = t.window;
        for (bool read : {false, true}) {
            sim::Nanos v0 = clock.now();
            HostSpan span(trace, read ? "sm.dma_read" : "sm.dma_write");
            core::dmachan::DmaTransferReport rep =
                read ? sm.dmaRead(0, kDstAddr, t.bytes, out, dopts)
                     : sm.dmaWrite(0, kDstAddr, data, dopts);
            (read ? st.readS : st.writeS) += span.stop();
            // Layer sum on the virtual clock, per transfer.
            result.check(rep.status == 0 && rep.bytes == t.bytes,
                         "DMA transfer failed");
            result.check(clock.now() - v0 ==
                             rep.cryptoNanos + rep.transportNanos,
                         "DMA crypto + transport != virtual elapsed");
            st.crypto += rep.cryptoNanos;
            st.hidden += rep.hiddenCryptoNanos;
            st.transport += rep.transportNanos;
            st.descriptors += rep.descriptors;
            st.retransmits += rep.retransmits;
            st.bytesMoved += rep.bytes;
            if (!read && corrupt) {
                // Smoke negative case: a flipped byte in device DRAM
                // must surface as a failed readback.
                tb.device().dram().raw()[kDstAddr + t.bytes / 2] ^= 0x01;
                corrupt = false;
            }
        }
        result.check(ByteView(out).size() == data.size() &&
                         std::equal(data.begin(), data.end(), out.begin()),
                     "DMA readback differs from the written bytes");
    }
    st.elapsed = clock.now() - start;
    return st;
}

} // namespace

const std::vector<MetricSpec> kBulkDmaLayers = {
    {"dmachan.crypt_ms", "ms", Clock::Host, "lower", "host_s"},
    {"sm.dma_write_ms", "ms", Clock::Host, "lower", "host_s"},
    {"sm.dma_read_ms", "ms", Clock::Host, "lower", "host_s"},
    {"virt.dma_crypto_ms", "ms", Clock::Virtual, "lower", "dma_mb_per_vs"},
    {"virt.dma_transport_ms", "ms", Clock::Virtual, "lower",
     "dma_mb_per_vs"},
    {"dma.hidden_crypto_ms", "ms", Clock::Virtual, "higher",
     "dma_mb_per_vs"},
    {"dma.overlap_fraction", "fraction", Clock::Virtual, "higher",
     "dma_mb_per_vs"},
    {"dma.descriptors", "count", Clock::Tally, "lower", "dma_mb_per_vs"},
    {"dma.retransmits", "count", Clock::Tally, "lower", "dma_mb_per_vs"},
};

RunResult
runBulkDma(const Options &opts)
{
    RunResult result;
    std::vector<double> setups;
    std::vector<double> reps;
    RepStats last;
    size_t transfers = 0;
    repeatFor(opts.seconds, opts.smoke ? 1 : 3, opts.smoke ? 1 : 1000,
              [&](int) {
                  auto start = HostClock::now();
                  Plan plan = makePlan(opts);
                  auto tb = setUp(opts, result);
                  setups.push_back(secondsSince(start));
                  HostSpan rep(nullptr, "rep");
                  last = runTransfers(*tb, plan, opts, result, nullptr);
                  reps.push_back(rep.stop());
                  transfers = plan.transfers.size();
              });
    double vs = double(last.elapsed) / 1e9;
    result.add(kDmaMbPerVs, Kind::Headline,
               double(last.bytesMoved) / 1e6 / vs);
    addEndToEnd(result, median(setups), median(reps),
                double(transfers) / vs);
    return result;
}

RunResult
tracedBulkDma(const Options &opts, HostTrace &trace)
{
    RunResult result;
    // A key of the bench's own: the CTR cost does not depend on it.
    crypto::CtrDrbg rng(opts.seed + 0xc7);
    crypto::Aes aes(rng.bytes(16));

    std::vector<double> writes, reads, cryptWrite, cryptRead;
    RepStats traced;
    uint64_t retransmitCount = 0;
    repeatFor(opts.seconds, opts.smoke ? 1 : 2, opts.smoke ? 1 : 1000,
              [&](int) {
        uint32_t repSpan = trace.begin("rep");
        Plan plan = makePlan(opts);
        sim::Nanos untracedElapsed = 0;
        {
            HostSpan setup(&trace, "setup");
            auto tb = setUp(opts, result);
            setup.stop();
            RepStats st = runTransfers(*tb, plan, opts, result, &trace);
            writes.push_back(st.writeS);
            reads.push_back(st.readS);
            untracedElapsed = st.elapsed;
        }
        {
            HostSpan setup(&trace, "setup");
            auto tb = setUp(opts, result);
            setup.stop();
            obs::TraceRecorder recorder(tb->clock());
            obs::MetricsRegistry registry;
            {
                obs::ObsScope scope(&recorder, &registry);
                traced = runTransfers(*tb, plan, opts, result, nullptr);
            }
            result.check(recorder.phaseTotal(core::phases::kDmaCrypto) ==
                                 traced.crypto &&
                             recorder.phaseTotal(
                                 core::phases::kDmaTransport) ==
                                 traced.transport,
                         "obs DMA spans disagree with the transfer reports");
            result.check(traced.elapsed == untracedElapsed,
                         "tracing changed the virtual elapsed time");
            retransmitCount = registry.counter("dma.retransmits");
        }

        // Both ends' AES-CTR over every descriptor payload: the host
        // seals writes and the fabric opens them; the fabric seals
        // read responses and the host opens them.
        Bytes buf;
        double w = 0, r = 0;
        uint64_t bad = 0;
        for (const Transfer &t : plan.transfers) {
            ByteView data = ByteView(plan.pool).subspan(t.offset, t.bytes);
            for (bool read : {false, true}) {
                size_t chunk = read ? kReadChunk : kWriteChunk;
                buf.assign(data.begin(), data.end());
                HostSpan span(&trace, "dmachan.crypt");
                for (int side = 0; side < 2; ++side)
                    for (size_t off = 0; off < buf.size(); off += chunk)
                        core::dmachan::cryptDmaPayload(
                            aes, read, off / chunk * core::dmachan::kDmaCtrStride,
                            buf.data() + off,
                            std::min(chunk, buf.size() - off));
                (read ? r : w) += span.stop();
                bad += std::equal(data.begin(), data.end(), buf.begin())
                           ? 0
                           : 1;
            }
        }
        cryptWrite.push_back(w);
        cryptRead.push_back(r);
        result.tally(2 * plan.transfers.size(), bad,
                     "AES-CTR replay did not round-trip");
        trace.end(repSpan);
    });

    // Self times per rep, then medians (pairing cancels host drift).
    std::vector<double> crypt, writeSelf, readSelf;
    for (size_t i = 0; i < writes.size(); ++i) {
        crypt.push_back(cryptWrite[i] + cryptRead[i]);
        result.check(crypt.back() <=
                         (writes[i] + reads[i]) * (1 + kHostBound),
                     "replayed AES-CTR exceeds the transfers it replays");
        writeSelf.push_back(writes[i] - cryptWrite[i]);
        readSelf.push_back(reads[i] - cryptRead[i]);
    }
    const std::vector<MetricSpec> &l = kBulkDmaLayers;
    sim::Nanos crypto = traced.crypto + traced.hidden;
    result.add(l[0], Kind::Layer, median(crypt) * 1e3);
    result.add(l[1], Kind::Layer, median(writeSelf) * 1e3);
    result.add(l[2], Kind::Layer, median(readSelf) * 1e3);
    result.add(l[3], Kind::Layer, double(traced.crypto) / 1e6);
    result.add(l[4], Kind::Layer, double(traced.transport) / 1e6);
    result.add(l[5], Kind::Layer, double(traced.hidden) / 1e6);
    result.add(l[6], Kind::Layer,
               crypto ? double(traced.hidden) / double(crypto) : 0);
    result.add(l[7], Kind::Layer, double(traced.descriptors));
    result.add(l[8], Kind::Layer, double(retransmitCount));
    return result;
}

} // namespace salus::bench
