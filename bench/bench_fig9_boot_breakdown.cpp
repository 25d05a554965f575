/**
 * @file
 * Reproduces paper Figure 9 (execution time of CL booting) and the
 * §6.3 ShEF boot-time comparison.
 *
 * Three views are reported:
 *   1. MODEL: the virtual-clock phase breakdown of a full secure boot
 *      on a paper-scale device (32 MiB partial bitstream), using the
 *      calibrated cost model — this reproduces the figure's shape.
 *   2. PAPER: the numbers read off Figure 9 for comparison.
 *   3. NATIVE: real measured time of this repo's own bitstream
 *      verification / manipulation / encryption on the same artifact
 *      (showing what replacing RapidWright-under-Occlum with native
 *      enclave code would buy — see EXPERIMENTS.md).
 *
 * It also gates host memory: the peak resident set may grow by at
 * most kMaxBootGrowthMib across testbed build, CL install and
 * deployment, which leaves no room for one more whole-bitstream copy.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

#include "baseline/shef.hpp"
#include "obs/trace.hpp"
#include "salus/boot_report.hpp"
#include "bitstream/encryptor.hpp"
#include "bitstream/manipulator.hpp"
#include "crypto/sha256.hpp"
#include "fpga/ip.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"

using namespace salus;
using namespace salus::core;

namespace {

/**
 * Bound on the peak-RSS growth of one 32 MiB boot. It holds the stored
 * file, the SM enclave's one bitstream buffer and the partition's
 * frames (3 x 32 MiB) plus a margin smaller than a 32 MiB copy.
 */
constexpr double kMaxBootGrowthMib = 112;

/** The process's peak resident set (VmHWM) in MiB; -1 without /proc. */
double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return -1;
}

void
banner(const char *title)
{
    std::printf("\n=== %s ===\n", title);
}

/** Milliseconds from virtual nanos. */
double
ms(sim::Nanos n)
{
    return double(n) / 1e6;
}

/** A callable's host wall-clock time in seconds. */
template <typename F>
double
wallSeconds(F &&fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
}

} // namespace

int
main()
{
    banner("Figure 9: CL secure-boot time breakdown");

    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    const double hwmStart = peakRssMib();
    TestbedConfig cfg;
    cfg.deviceModel = fpga::u200ScaledModel(); // 32 MiB RP bitstream
    Testbed tb(cfg);
    obs::TraceRecorder recorder(tb.clock());
    obs::MetricsRegistry metrics;
    std::optional<obs::ObsScope> capture(std::in_place, &recorder,
                                         &metrics);
    const double hwmBuilt = peakRssMib();

    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {19735, 20169, 326, 512}; // Conv-like footprint
    tb.installCl(accel);
    const double hwmInstalled = peakRssMib();

    std::printf("partial bitstream size: %.1f MiB\n",
                double(tb.storedBitstream().size()) / (1 << 20));

    double bootWall = wallSeconds([&] {
        auto outcome = tb.runDeployment();
        if (!outcome.ok) {
            std::printf("BOOT FAILED: %s\n", outcome.failure.c_str());
            std::exit(1);
        }
    });

    const double hwmDeployed = peakRssMib();

    BootReport report = buildBootReport(tb.clock());
    std::printf("\n%s", report.render().c_str());
    double modelTotal = double(report.modelTotal) / 1e6;
    std::printf("(paper reports 18835 ms total; dominant phase must be "
                "bitstream manipulation)\n");
    std::printf("harness wall-clock: %.2f s (real crypto on 32 MiB)\n",
                bootWall);

    // The model total is pinned: the Figure 9 numbers this bench
    // reports (and EXPERIMENTS.md quotes) must not drift silently.
    constexpr sim::Nanos kModelTotal10Us = 1884308; // 18843.08 ms
    if ((report.modelTotal + 5 * sim::kUs) / (10 * sim::kUs) !=
        kModelTotal10Us) {
        std::printf("MODEL TOTAL CHANGED: %.2f ms, expected 18843.08 ms\n",
                    modelTotal);
        return 1;
    }

    // ---- Trace artifact + span-sum cross-check ----------------------
    // Every clock slice was mirrored into the trace as a Clock-leaf
    // span, so per-phase span sums must equal the cost-model totals
    // the report is built from, to the nanosecond.
    capture.reset(); // uninstall before exporting
    if (recorder.writeChromeTrace("TRACE_fig9_boot_breakdown.json") &&
        metrics.writeText("METRICS_fig9_boot_breakdown.txt"))
        std::printf("wrote TRACE_fig9_boot_breakdown.json (%zu events) "
                    "and METRICS_fig9_boot_breakdown.txt\n",
                    recorder.events().size());
    else
        std::printf("cannot write TRACE_fig9_boot_breakdown.json / "
                    "METRICS_fig9_boot_breakdown.txt\n");
    for (const BootPhaseRow &row : report.rows) {
        sim::Nanos spans = recorder.phaseTotal(row.phase);
        if (spans != row.modelTime) {
            std::printf("TRACE MISMATCH: phase '%s' spans %llu ns vs "
                        "clock %llu ns\n",
                        row.phase.c_str(),
                        static_cast<unsigned long long>(spans),
                        static_cast<unsigned long long>(row.modelTime));
            return 1;
        }
    }
    std::printf("trace span sums match the phase breakdown "
                "(%zu phases, exact)\n",
                report.rows.size());

    // ---- Host memory gate ---------------------------------------------
    banner("Peak RSS growth (VmHWM) of one 32 MiB boot");
    if (hwmStart < 0) {
        std::printf("VmHWM unavailable (no /proc/self/status); "
                    "memory gate skipped\n");
    } else {
        const double growth = hwmDeployed - hwmStart;
        std::printf("testbed build:   +%7.1f MiB\n", hwmBuilt - hwmStart);
        std::printf("CL install:      +%7.1f MiB\n",
                    hwmInstalled - hwmBuilt);
        std::printf("deployment:      +%7.1f MiB\n",
                    hwmDeployed - hwmInstalled);
        std::printf("total:           +%7.1f MiB (bound %.0f MiB)\n",
                    growth, kMaxBootGrowthMib);
        if (growth > kMaxBootGrowthMib) {
            std::printf("PEAK RSS GROWTH %.1f MiB EXCEEDS %.0f MiB: a "
                        "whole-bitstream copy came back\n",
                        growth, kMaxBootGrowthMib);
            return 1;
        }
    }

    // ---- §6.3 ShEF comparison ---------------------------------------
    banner("ShEF baseline boot (paper: ~5.1 s)");
    {
        crypto::CtrDrbg rng(uint64_t(2));
        baseline::ShefDevice device(
            "shef-dev", bytesFromString("shef-root"), rng);
        sim::VirtualClock clock;
        sim::CostModel cost;

        const Bytes &bitstream = tb.storedBitstream();
        Bytes nonce = rng.bytes(16);
        auto att = device.loadAndAttest(bitstream, nonce, &clock, cost);
        baseline::ShefVerifier verifier(
            baseline::shefManufacturerRoot(bytesFromString("shef-root"))
                .publicKey,
            crypto::Sha256::digest(bitstream));
        bool ok = verifier.verify(att, nonce, &clock, cost);
        std::printf("ShEF modelled boot: %.2f ms (verify=%s)\n",
                    ms(clock.now()), ok ? "ok" : "FAILED");
        std::printf("Salus modelled boot: %.2f ms  ->  Salus/ShEF = "
                    "%.2fx (paper: 18.8/5.1 = 3.7x)\n",
                    modelTotal, modelTotal / ms(clock.now()));
    }

    // ---- NATIVE: this repo's own bitstream tooling --------------------
    banner("Native bitstream-operation times (same 32 MiB file)");
    {
        Bytes file = tb.storedBitstream();
        auto ll = bitstream::LogicLocationFile::deserialize(
            tb.metadata().logicLocations);

        double tDigest = wallSeconds(
            [&] { (void)crypto::Sha256::digest(file); });
        double tManip = wallSeconds([&] {
            bitstream::Manipulator::patchCell(
                file, ll, tb.layout().keyAttestPath,
                Bytes(core::kKeyAttestSize, 0x42));
        });
        crypto::CtrDrbg rng(uint64_t(3));
        Bytes key = rng.bytes(32);
        double tEncrypt = wallSeconds([&] {
            (void)bitstream::encryptBitstream(
                file, key,
                bitstream::EncryptedHeader{
                    tb.device().model().name, 0},
                rng);
        });
        std::printf("digest (SHA-256):        %8.1f ms\n",
                    tDigest * 1e3);
        std::printf("manipulation (+CRC fix): %8.1f ms   (paper: "
                    "13787 ms with RapidWright-in-Occlum)\n",
                    tManip * 1e3);
        std::printf("encryption (AES-GCM-256):%8.1f ms\n",
                    tEncrypt * 1e3);
    }
    return 0;
}
