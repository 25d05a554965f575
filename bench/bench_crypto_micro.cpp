/**
 * @file
 * Crypto hot-path microbench: measures real wall-clock MB/s for the
 * primitives on Salus's data planes — AES-CTR (DMA channel; also at
 * its 64 KiB write descriptor size), AES-GCM seal (bitstream + bulk
 * data), SHA-256 (digests), and the two cold-boot bulk passes, the
 * bitstream CRC-32 and the CtrDrbg filler — through the
 * dispatch-selected backend AND the forced-scalar reference, and
 * reports the speedup ratio per primitive/size.
 *
 * Doubles as a correctness-of-dispatch gate: with AES-NI detected the
 * hardware path must beat scalar by >=5x (AES-CTR) and >=4x (AES-GCM)
 * at 4 KiB and the DRBG fill by >=2x at 1 MiB, with PCLMULQDQ AES-GCM
 * must also beat scalar by >=4x and CRC-32 by >=2x at 1 MiB, and with
 * SHA-NI SHA-256 must beat scalar by >=2x at 1 MiB. Any violation
 * exits non-zero.
 *
 * Each side first runs one untimed round. Then fast and scalar rounds
 * are interleaved and each side keeps its best of five, so host noise
 * cannot land on one side only; within a round the best ~1 ms batch
 * counts, so a preempted batch does not either.
 *
 * Results are published as hand-rolled JSON (BENCH_crypto_micro.json,
 * or argv[1]) with a "gates" section consumed by
 * tools/check_bench_regression.py. Only the fast-vs-scalar ratios are
 * gated — they self-normalize across machine speeds, where absolute
 * MB/s would flake on shared CI runners; the absolute numbers are
 * still recorded in "points" for eyeballing.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bitstream/crc32.hpp"
#include "crypto/aes_ctr.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/backend.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"

using namespace salus;
using namespace salus::crypto;

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

/**
 * Wall-clock throughput of fn over one >=30 ms round, in MB/s: the
 * best of the round's batches, each as many calls as take >=1 ms, so
 * a batch that the host preempts cannot pull the round down.
 */
template <typename F>
double
roundMBs(F &&fn, size_t bytesPerCall)
{
    using Clock = std::chrono::steady_clock;
    auto since = [](Clock::time_point t) {
        return std::chrono::duration<double>(Clock::now() - t).count();
    };
    auto roundStart = Clock::now();
    double best = 0;
    do {
        size_t calls = 0;
        auto start = Clock::now();
        double secs = 0;
        do {
            fn();
            ++calls;
            secs = since(start);
        } while (secs < 1e-3);
        best = std::max(best, double(bytesPerCall) * double(calls) / secs /
                                  1e6);
    } while (since(roundStart) < 0.03);
    return best;
}

/** Rounds per side; each side keeps its best. */
constexpr int kRounds = 5;

struct Point
{
    std::string primitive;
    std::string gate; ///< JSON gate key for the ratio; empty = ungated.
    size_t bytes = 0;
    double fastMBs = 0;
    double scalarMBs = 0;
    double speedup = 0;
};

/**
 * Measures one primitive under dispatch and under forced scalar.
 * Fast and scalar rounds alternate and each side keeps its best of
 * kRounds, so a burst of host noise hits both sides alike instead of
 * one whole side.
 */
template <typename F>
Point
measure(const char *primitive, const char *gate, size_t bytes, F &&fn)
{
    Point p;
    p.primitive = primitive;
    p.gate = gate;
    p.bytes = bytes;
    for (bool scalar : {false, true}) {
        setForceScalar(scalar);
        roundMBs(fn, bytes); // untimed warm-up round (caches, clocks)
    }
    for (int round = 0; round < kRounds; ++round) {
        setForceScalar(false);
        p.fastMBs = std::max(p.fastMBs, roundMBs(fn, bytes));
        setForceScalar(true);
        p.scalarMBs = std::max(p.scalarMBs, roundMBs(fn, bytes));
    }
    setForceScalar(false);
    p.speedup = p.scalarMBs > 0 ? p.fastMBs / p.scalarMBs : 0;
    std::printf("%-10s %8zu B   %10.1f MB/s   %10.1f MB/s   %6.2fx\n",
                p.primitive.c_str(), p.bytes, p.fastMBs, p.scalarMBs,
                p.speedup);
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("\n=== Crypto hot-path microbench ===\n");
    std::printf("backend: %s\n\n", backendSummary().c_str());
    BackendInfo info = backendInfo();

    CtrDrbg rng(uint64_t(0xbe9c4));
    Bytes key = rng.bytes(32);
    Bytes ctr = rng.bytes(16);
    Bytes iv = rng.bytes(12);
    AesGcm gcm(key);

    std::printf("%-10s %10s   %15s   %15s   %7s\n", "primitive",
                "size", "dispatch", "scalar", "speedup");
    std::vector<Point> points;
    for (size_t size : {size_t(4096), size_t(1) << 20}) {
        Bytes data = rng.bytes(size);
        const char *suffix = size == 4096 ? "4k" : "1m";
        std::string ctrGate =
            std::string("ctr_") + suffix + "_speedup_x";
        std::string gcmGate =
            std::string("gcm_") + suffix + "_speedup_x";
        std::string shaGate =
            std::string("sha_") + suffix + "_speedup_x";
        points.push_back(measure("aes_ctr", ctrGate.c_str(), size,
                                 [&] {
                                     Bytes out =
                                         aesCtrCrypt(key, ctr, data);
                                 }));
        points.push_back(measure("aes_gcm", gcmGate.c_str(), size,
                                 [&] {
                                     GcmSealed s = gcm.seal(
                                         iv, ByteView(), data);
                                 }));
        points.push_back(measure("sha256", shaGate.c_str(), size,
                                 [&] {
                                     Bytes d = Sha256::digest(data);
                                 }));
    }
    // The cold boot's bulk passes over the 32 MiB partial bitstream,
    // at 1 MiB: its CRC-32 word and the DRBG filler of its body.
    Bytes bulk = rng.bytes(size_t(1) << 20);
    points.push_back(measure("crc32", "crc32_1m_speedup_x", bulk.size(),
                             [&] {
                                 volatile uint32_t c =
                                     bitstream::crc32(bulk);
                                 (void)c;
                             }));
    CtrDrbg filler(uint64_t(0xf111));
    points.push_back(measure("drbg_fill", "drbg_1m_speedup_x",
                             bulk.size(), [&] {
                                 filler.fill(bulk.data(), bulk.size());
                             }));

    // The DMA channel's write descriptor size: a point, not a gate
    // (its ratio tracks the 1 MiB one).
    Bytes dmaPayload = rng.bytes(size_t(64) << 10);
    points.push_back(measure("aes_ctr", "", dmaPayload.size(),
                             [&] {
                                 Bytes out =
                                     aesCtrCrypt(key, ctr, dmaPayload);
                             }));

    auto find = [&](const char *primitive, size_t bytes) -> Point & {
        for (Point &p : points)
            if (p.primitive == primitive && p.bytes == bytes)
                return p;
        static Point none;
        return none;
    };

    // Hardware acceptance floors (only meaningful when the ISA
    // extension is actually present; on scalar-only hosts both runs
    // take the same path and the ratio sits at ~1x by construction).
    if (info.aesni) {
        check(find("aes_ctr", 4096).speedup >= 5.0,
              "AES-CTR 4 KiB below the 5x hardware-vs-scalar floor");
        check(find("aes_gcm", 4096).speedup >= 4.0,
              "AES-GCM 4 KiB below the 4x hardware-vs-scalar floor");
        if (info.pclmul) {
            check(find("aes_gcm", size_t(1) << 20).speedup >= 4.0,
                  "AES-GCM 1 MiB below the 4x hardware-vs-scalar floor");
        }
        check(find("drbg_fill", size_t(1) << 20).speedup >= 2.0,
              "DRBG fill 1 MiB below the 2x hardware-vs-scalar floor");
    } else {
        std::printf("no AES-NI: skipping AES speedup floors\n");
    }
    if (info.pclmul) {
        check(find("crc32", size_t(1) << 20).speedup >= 2.0,
              "CRC-32 1 MiB below the 2x hardware-vs-scalar floor");
    } else {
        std::printf("no PCLMULQDQ: skipping CRC-32 speedup floor\n");
    }
    if (info.shani) {
        check(find("sha256", size_t(1) << 20).speedup >= 2.0,
              "SHA-256 1 MiB below the 2x hardware-vs-scalar floor");
    } else {
        std::printf("no SHA-NI: skipping SHA speedup floor\n");
    }
    for (const Point &p : points) {
        check(p.fastMBs > 1.0 && p.scalarMBs > 1.0,
              "throughput below 1 MB/s sanity floor");
    }

    // ---- JSON artifact ----------------------------------------------
    const char *outPath =
        argc > 1 ? argv[1] : "BENCH_crypto_micro.json";
    FILE *f = std::fopen(outPath, "w");
    if (!f) {
        std::printf("cannot open %s\n", outPath);
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"crypto_micro\",\n");
    std::fprintf(f, "  \"backend\": \"%s\",\n",
                 backendSummary().c_str());
    std::fprintf(
        f,
        "  \"cpu\": {\"aesni\": %d, \"vaes\": %d, \"vaes512\": %d, "
        "\"pclmul\": %d, \"shani\": %d},\n",
        info.aesni ? 1 : 0, info.vaes ? 1 : 0, info.vaes512 ? 1 : 0,
        info.pclmul ? 1 : 0, info.shani ? 1 : 0);
    std::fprintf(f, "  \"violations\": %d,\n", violations);
    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        std::fprintf(f,
                     "    {\"primitive\": \"%s\", \"bytes\": %zu, "
                     "\"fast_mb_s\": %.1f, \"scalar_mb_s\": %.1f, "
                     "\"speedup_x\": %.2f}%s\n",
                     p.primitive.c_str(), p.bytes, p.fastMBs,
                     p.scalarMBs, p.speedup,
                     i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"gates\": {");
    const char *sep = "\n";
    for (const Point &p : points) {
        if (p.gate.empty())
            continue; // recorded as a point only
        std::fprintf(f,
                     "%s    \"%s\": {\"value\": %.2f, "
                     "\"direction\": \"higher\"}",
                     sep, p.gate.c_str(), p.speedup);
        sep = ",\n";
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", outPath);

    if (violations) {
        std::printf("CRYPTO MICROBENCH FAILED: %d violation(s)\n",
                    violations);
        return 1;
    }
    std::printf("all crypto speedup floors passed\n");
    return 0;
}
