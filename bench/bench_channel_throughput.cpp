/**
 * @file
 * Secure-channel throughput bench: sweeps batch size x session count
 * over the batched register channel and the multi-session scheduler,
 * measuring on the virtual clock. For every (sessions, batch) point it
 * drives `kOpsPerSession` write/read pairs per session through the
 * BatchScheduler and reports ops/s, bytes/s, per-op latency p50/p99
 * and the crypto vs transport breakdown (Channel Crypto / Channel
 * Transport phases).
 *
 * Doubles as a correctness gate: every op must complete with status 0,
 * every read must return the session's last written value, and the
 * batch=32 single-session configuration must beat batch=1 by at least
 * 5x ops/s (the PCIe round trip amortized across the burst). Any
 * violation exits non-zero.
 *
 * Results are published as hand-rolled JSON
 * (BENCH_channel_throughput.json, or argv[1]) with a "gates" section
 * consumed by tools/check_bench_regression.py.
 */

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fpga/ip.hpp"
#include "salus/sim_hooks.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"

using namespace salus;
using namespace salus::core;

namespace {

int violations = 0;

void
check(bool ok, const char *what)
{
    if (ok)
        return;
    ++violations;
    std::printf("  VIOLATION: %s\n", what);
}

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

constexpr size_t kOpsPerSession = 256;

struct PointResult
{
    uint32_t sessions = 0;
    size_t batch = 0;
    size_t ops = 0;
    double elapsedMs = 0;
    double opsPerSec = 0;
    double bytesPerSec = 0;
    double p50Us = 0;
    double p99Us = 0;
    double cryptoMs = 0;
    double transportMs = 0;
    bool ok = false;
};

/** Filled by the traced rerun of one sweep point (the measured sweep
 *  itself always runs untraced, keeping the perf gates honest). */
struct TracedArtifacts
{
    std::string traceJson;
    std::string metricsText;
    sim::Nanos cryptoSpan = 0;
    sim::Nanos cryptoClock = 0;
    sim::Nanos transportSpan = 0;
    sim::Nanos transportClock = 0;
};

PointResult
runPoint(uint32_t sessions, size_t batch,
         TracedArtifacts *traced = nullptr)
{
    PointResult r;
    r.sessions = sessions;
    r.batch = batch;

    TestbedConfig cfg;
    cfg.rngSeed = 7000 + sessions * 100 + batch;
    cfg.schedulerMaxBatchOps = batch;
    cfg.schedulerQueueCapacity = kOpsPerSession;
    Testbed tb(cfg);
    std::optional<bench::ObsCapture> capture;
    if (traced)
        capture.emplace(tb.clock());
    tb.installCl(loopbackAccel());
    if (!tb.runDeployment().ok)
        return r;

    // Tenant sessions join the booted platform with their own LA
    // channel and derived fabric keys.
    for (uint32_t s = 1; s < sessions; ++s) {
        uint32_t peer = tb.addUserSession();
        if (!tb.userApp(peer).attachToPlatform())
            return r;
    }

    BatchScheduler &sched = tb.scheduler();

    // Per-session scratch register in the loopback accelerator (16
    // regs at addr = 8*idx), so sessions never stomp each other.
    struct OpRecord
    {
        sim::Nanos submittedAt = 0;
        sim::Nanos doneAt = 0;
        uint8_t status = 0xff;
        uint64_t data = 0;
        bool isRead = false;
        uint64_t expect = 0;
    };
    std::vector<std::vector<OpRecord>> records(sessions);

    sim::Nanos startAt = tb.clock().now();
    sim::Nanos cryptoBase =
        tb.clock().totalFor(phases::kChanCrypto);
    sim::Nanos transportBase =
        tb.clock().totalFor(phases::kChanTransport);

    for (uint32_t s = 0; s < sessions; ++s) {
        records[s].resize(kOpsPerSession);
        uint32_t addr = 8 * s;
        for (size_t i = 0; i < kOpsPerSession; ++i) {
            OpRecord &rec = records[s][i];
            rec.submittedAt = tb.clock().now();
            regchan::RegOp op;
            uint64_t value = (uint64_t(s) << 32) | uint64_t(i / 2);
            if (i % 2 == 0) {
                op = {true, addr, value};
            } else {
                op = {false, addr, 0};
                rec.isRead = true;
                rec.expect = value;
            }
            sim::VirtualClock &clk = tb.clock();
            auto submit = sched.submit(
                s, op,
                [&rec, &clk](uint8_t status, uint64_t data) {
                    rec.status = status;
                    rec.data = data;
                    rec.doneAt = clk.now();
                });
            if (submit != BatchScheduler::Submit::Accepted)
                return r;
        }
    }

    size_t completed = sched.drain();
    sim::Nanos elapsed = tb.clock().now() - startAt;

    r.ops = sessions * kOpsPerSession;
    if (completed != r.ops || elapsed == 0)
        return r;

    std::vector<sim::Nanos> latencies;
    latencies.reserve(r.ops);
    bool allOk = true;
    for (uint32_t s = 0; s < sessions; ++s) {
        for (const OpRecord &rec : records[s]) {
            allOk = allOk && rec.status == 0;
            if (rec.isRead)
                allOk = allOk && rec.data == rec.expect;
            latencies.push_back(rec.doneAt - rec.submittedAt);
        }
    }
    std::sort(latencies.begin(), latencies.end());

    const double secs = double(elapsed) / 1e9;
    // Wire bytes: one 16-byte AES block per op in each direction.
    const double wireBytes = double(r.ops) * 32.0;
    r.elapsedMs = bench::ms(elapsed);
    r.opsPerSec = double(r.ops) / secs;
    r.bytesPerSec = wireBytes / secs;
    r.p50Us = double(latencies[latencies.size() / 2]) / 1e3;
    r.p99Us = double(latencies[latencies.size() * 99 / 100]) / 1e3;
    r.cryptoMs =
        bench::ms(tb.clock().totalFor(phases::kChanCrypto) - cryptoBase);
    r.transportMs = bench::ms(
        tb.clock().totalFor(phases::kChanTransport) - transportBase);
    r.ok = allOk;

    if (traced) {
        capture->stop();
        // The capture was installed before deployment, so it mirrored
        // every clock slice of the run: full-run span sums must match
        // the clock's own phase totals.
        traced->traceJson = capture->trace().chromeTraceJson();
        traced->metricsText = capture->metrics().renderText();
        traced->cryptoSpan =
            capture->trace().phaseTotal(phases::kChanCrypto);
        traced->cryptoClock = tb.clock().totalFor(phases::kChanCrypto);
        traced->transportSpan =
            capture->trace().phaseTotal(phases::kChanTransport);
        traced->transportClock =
            tb.clock().totalFor(phases::kChanTransport);
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner(
        "Batched secure register channel: throughput sweep");
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    const uint32_t kSessionCounts[] = {1, 2, 4};
    const size_t kBatchSizes[] = {1, 2, 4, 8, 16, 32, 64};

    std::vector<PointResult> sweep;
    std::printf("%-9s %-7s %-12s %-14s %-10s %-10s %-10s %s\n",
                "sessions", "batch", "ops/s", "MB/s", "p50 (us)",
                "p99 (us)", "crypto", "transport (ms)");
    for (uint32_t sessions : kSessionCounts) {
        for (size_t batch : kBatchSizes) {
            PointResult p = runPoint(sessions, batch);
            check(p.ok, "sweep point failed (bad status or readback)");
            if (!p.ok)
                continue;
            std::printf(
                "%-9u %-7zu %-12.0f %-14.3f %-10.1f %-10.1f %-10.3f "
                "%.3f\n",
                p.sessions, p.batch, p.opsPerSec,
                p.bytesPerSec / 1e6, p.p50Us, p.p99Us, p.cryptoMs,
                p.transportMs);
            sweep.push_back(p);
        }
    }

    auto find = [&](uint32_t sessions, size_t batch) -> PointResult * {
        for (PointResult &p : sweep)
            if (p.sessions == sessions && p.batch == batch)
                return &p;
        return nullptr;
    };
    PointResult *s1b1 = find(1, 1);
    PointResult *s1b32 = find(1, 32);
    PointResult *s4b32 = find(4, 32);
    check(s1b1 && s1b32 && s4b32, "gate configurations missing");
    double speedup = 0;
    if (s1b1 && s1b32 && s1b1->opsPerSec > 0) {
        speedup = s1b32->opsPerSec / s1b1->opsPerSec;
        std::printf("\nbatch=32 vs batch=1 (1 session): %.1fx ops/s\n",
                    speedup);
        check(speedup >= 5.0,
              "batch=32 speedup below the 5x acceptance floor");
    }

    // ---- Traced rerun: artifacts + determinism ----------------------
    // One mid-sweep point is rerun with tracing enabled (twice, same
    // seed) to publish trace/metrics artifacts and to enforce that
    // (a) per-phase span sums equal the cost model's totals exactly and
    // (b) same-seed traces are byte-identical.
    {
        TracedArtifacts first;
        TracedArtifacts second;
        PointResult t1 = runPoint(2, 8, &first);
        PointResult t2 = runPoint(2, 8, &second);
        check(t1.ok && t2.ok, "traced point failed");
        check(first.traceJson == second.traceJson,
              "same-seed traces are not byte-identical");
        check(first.metricsText == second.metricsText,
              "same-seed metrics dumps are not byte-identical");
        check(first.cryptoSpan == first.cryptoClock,
              "crypto span sum differs from the clock's phase total");
        check(first.transportSpan == first.transportClock,
              "transport span sum differs from the clock's phase total");
        std::printf("\ntraced point (2 sessions, batch 8): crypto "
                    "%.3f/%.3f ms, transport %.3f/%.3f ms "
                    "(spans/clock), deterministic=%s\n",
                    bench::ms(first.cryptoSpan), bench::ms(first.cryptoClock),
                    bench::ms(first.transportSpan),
                    bench::ms(first.transportClock),
                    first.traceJson == second.traceJson ? "yes" : "NO");
        FILE *tf = std::fopen("TRACE_channel_throughput.json", "w");
        if (tf) {
            std::fwrite(first.traceJson.data(), 1,
                        first.traceJson.size(), tf);
            std::fclose(tf);
        }
        FILE *mf = std::fopen("METRICS_channel_throughput.txt", "w");
        if (mf) {
            std::fwrite(first.metricsText.data(), 1,
                        first.metricsText.size(), mf);
            std::fclose(mf);
        }
        check(tf != nullptr && mf != nullptr,
              "cannot write trace/metrics artifacts");
    }

    // ---- JSON artifact ----------------------------------------------
    const char *outPath =
        argc > 1 ? argv[1] : "BENCH_channel_throughput.json";
    FILE *f = std::fopen(outPath, "w");
    if (!f) {
        std::printf("cannot open %s\n", outPath);
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"channel_throughput\",\n");
    std::fprintf(f, "  \"ops_per_session\": %zu,\n", kOpsPerSession);
    std::fprintf(f, "  \"violations\": %d,\n", violations);
    std::fprintf(f, "  \"sweep\": [\n");
    for (size_t i = 0; i < sweep.size(); ++i) {
        const PointResult &p = sweep[i];
        std::fprintf(
            f,
            "    {\"sessions\": %u, \"batch\": %zu, \"ops\": %zu, "
            "\"elapsed_ms\": %.3f, \"ops_per_sec\": %.1f, "
            "\"bytes_per_sec\": %.1f, \"p50_us\": %.2f, "
            "\"p99_us\": %.2f, \"crypto_ms\": %.3f, "
            "\"transport_ms\": %.3f}%s\n",
            p.sessions, p.batch, p.ops, p.elapsedMs, p.opsPerSec,
            p.bytesPerSec, p.p50Us, p.p99Us, p.cryptoMs, p.transportMs,
            i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"gates\": {\n");
    std::fprintf(f,
                 "    \"s1_b1_ops_per_sec\": {\"value\": %.1f, "
                 "\"direction\": \"higher\"},\n",
                 s1b1 ? s1b1->opsPerSec : 0.0);
    std::fprintf(f,
                 "    \"s1_b32_ops_per_sec\": {\"value\": %.1f, "
                 "\"direction\": \"higher\"},\n",
                 s1b32 ? s1b32->opsPerSec : 0.0);
    std::fprintf(f,
                 "    \"s4_b32_ops_per_sec\": {\"value\": %.1f, "
                 "\"direction\": \"higher\"},\n",
                 s4b32 ? s4b32->opsPerSec : 0.0);
    std::fprintf(f,
                 "    \"batch32_speedup_x\": {\"value\": %.2f, "
                 "\"direction\": \"higher\"}\n",
                 speedup);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", outPath);

    if (violations) {
        std::printf("CHANNEL THROUGHPUT BENCH FAILED: %d violation(s)\n",
                    violations);
        return 1;
    }
    std::printf("all %zu sweep points passed\n", sweep.size());
    return 0;
}
