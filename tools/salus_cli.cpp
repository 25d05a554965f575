/**
 * @file
 * salus_cli — command-line driver over the whole simulation, for
 * poking at the platform without writing code:
 *
 *   salus_cli boot [--paper-scale] [--seed N]
 *   salus_cli attack <tamper|substitute|storage|replay|snoop|scan|
 *                     mitm|revoke>
 *   salus_cli workload <Conv|Affine|Rendering|FaceDetect|NNSearch>
 *                     [--scale PCT]
 *   salus_cli inspect
 *   salus_cli paper [table1|...|fault_recovery]
 *   salus_cli help
 *
 * Any command accepts `--trace-out FILE` (Chrome trace_event JSON for
 * chrome://tracing / Perfetto) and `--metrics-out FILE` (text metrics
 * dump); see docs/OBSERVABILITY.md.
 */

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel/accel_ip.hpp"
#include "accel/runner.hpp"
#include "obs/trace.hpp"
#include "paper/paper.hpp"
#include "salus/boot_report.hpp"
#include "salus/salus.hpp"
#include "salus/scenario.hpp"

using namespace salus;
using namespace salus::core;

namespace {

std::string g_traceOut;   // --trace-out FILE (empty = disabled)
std::string g_metricsOut; // --metrics-out FILE (empty = disabled)

/**
 * Enables tracing/metrics over a testbed's clock for the duration of
 * one command when the user asked for either output file, and writes
 * the artifacts on destruction.
 */
class CliObs
{
  public:
    explicit CliObs(sim::VirtualClock &clock)
    {
        if (g_traceOut.empty() && g_metricsOut.empty())
            return;
        recorder_ = std::make_unique<obs::TraceRecorder>(clock);
        metrics_ = std::make_unique<obs::MetricsRegistry>();
        scope_ = std::make_unique<obs::ObsScope>(recorder_.get(),
                                                 metrics_.get());
    }

    ~CliObs()
    {
        if (!recorder_)
            return;
        scope_.reset(); // uninstall before exporting
        if (!g_traceOut.empty()) {
            if (recorder_->writeChromeTrace(g_traceOut))
                std::printf("trace: %s (%zu events)\n",
                            g_traceOut.c_str(),
                            recorder_->events().size());
            else
                std::printf("trace: cannot write %s\n",
                            g_traceOut.c_str());
        }
        if (!g_metricsOut.empty()) {
            if (metrics_->writeText(g_metricsOut))
                std::printf("metrics: %s\n", g_metricsOut.c_str());
            else
                std::printf("metrics: cannot write %s\n",
                            g_metricsOut.c_str());
        }
    }

  private:
    std::unique_ptr<obs::TraceRecorder> recorder_;
    std::unique_ptr<obs::MetricsRegistry> metrics_;
    std::unique_ptr<obs::ObsScope> scope_;
};

netlist::Cell
loopbackAccel()
{
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {1000, 1000, 4, 0};
    return accel;
}

int
cmdBoot(const std::vector<std::string> &args)
{
    TestbedConfig cfg;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--paper-scale")
            cfg.deviceModel = fpga::u200ScaledModel();
        else if (args[i] == "--seed" && i + 1 < args.size())
            cfg.rngSeed = std::stoull(args[++i]);
    }

    Testbed tb(cfg);
    CliObs obsOut(tb.clock());
    tb.installCl(loopbackAccel());
    std::printf("bitstream: %.2f MiB, device DNA %014llx\n",
                double(tb.storedBitstream().size()) / (1 << 20),
                static_cast<unsigned long long>(tb.device().dna().value));

    UserClient::Outcome outcome = tb.runDeployment();
    if (!outcome.ok) {
        std::printf("BOOT FAILED: %s\n", outcome.failure.c_str());
        return 1;
    }
    std::printf("boot ok; cascaded report verified; data key "
                "delivered\n\n%s",
                buildBootReport(tb.clock()).render().c_str());
    return 0;
}

int
cmdAttack(const std::vector<std::string> &args)
{
    if (args.empty()) {
        std::printf("attack name required\n");
        return 2;
    }
    const std::string &name = args[0];

    TestbedConfig cfg;
    cfg.maliciousShell = true;
    if (name == "tamper") {
        cfg.attackPlan.tamperBitstream = true;
        cfg.attackPlan.tamperOffset = 4040;
    }
    Testbed tb(cfg);
    CliObs obsOut(tb.clock());
    tb.installCl(loopbackAccel());

    if (name == "substitute") {
        tb.maliciousShell()->plan().substituteBitstream =
            tb.storedBitstream();
    } else if (name == "storage") {
        tb.storedBitstream()[512] ^= 0xff;
    } else if (name == "revoke") {
        tb.mft().verificationService().revokePlatform("platform-1");
    } else if (name == "mitm") {
        tb.network().setInterposer(
            [](const std::string &, const std::string &,
               const std::string &method, Bytes &payload) {
                if (method == "raRequest:response" && payload.size() > 70)
                    payload[70] ^= 1;
                return true;
            });
    }

    UserClient::Outcome outcome = tb.runDeployment();

    if (name == "replay") {
        if (!outcome.ok) {
            std::printf("setup failed: %s\n", outcome.failure.c_str());
            return 1;
        }
        tb.userApp().secureWrite(0x00, 1);
        tb.userApp().secureWrite(0x00, 2);
        size_t n = tb.maliciousShell()->replayRecordedSmWrites();
        bool held = tb.userApp().secureRead(0x00) == 2u;
        std::printf("replayed %zu transactions; state %s\n", n,
                    held ? "held (attack defeated)" : "ROLLED BACK");
        return held ? 0 : 1;
    }
    if (name == "snoop") {
        if (!outcome.ok) {
            std::printf("setup failed: %s\n", outcome.failure.c_str());
            return 1;
        }
        tb.userApp().pushDataKeyToCl(0x20);
        const Bytes &key = tb.userApp().dataKey();
        size_t leaks = 0;
        for (const auto &txn : tb.maliciousShell()->snoopLog()) {
            for (int i = 0; i < 4; ++i)
                leaks += txn.data == loadLe64(key.data() + 8 * i);
        }
        std::printf("%zu transactions snooped, %zu plaintext key words "
                    "seen\n",
                    tb.maliciousShell()->snoopLog().size(), leaks);
        return leaks == 0 ? 0 : 1;
    }
    if (name == "scan") {
        auto frames = tb.maliciousShell()->tryConfigScan();
        std::printf("ICAP scan %s\n",
                    frames ? "LEAKED CONFIGURATION" : "blocked");
        return frames ? 1 : 0;
    }

    // Boot-time attacks: defended == deployment refused.
    bool defended = !outcome.ok;
    std::printf("attack '%s': %s (%s)\n", name.c_str(),
                defended ? "defended" : "NOT DEFENDED",
                outcome.failure.empty() ? "boot succeeded"
                                        : outcome.failure.c_str());
    return defended ? 0 : 1;
}

int
cmdWorkload(const std::vector<std::string> &args)
{
    if (args.empty()) {
        std::printf("workload name required\n");
        return 2;
    }
    const accel::WorkloadSpec *spec = nullptr;
    for (const auto &w : accel::allWorkloads()) {
        if (args[0] == w.name)
            spec = &w;
    }
    if (!spec) {
        std::printf("unknown workload '%s'\n", args[0].c_str());
        return 2;
    }
    double scale = spec->benchScale;
    for (size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--scale" && i + 1 < args.size())
            scale = std::stod(args[++i]) / 100.0;
    }

    accel::WorkloadRunner runner(spec->id, 1, scale);
    std::printf("%s @ scale %.2f: %zu input bytes\n", spec->name, scale,
                runner.input().size());

    accel::RunResult cpu = runner.runCpuPlain();
    sim::CostModel cost;
    accel::RunResult cpuTee = runner.runCpuTee(cost);
    accel::RunResult fpga = runner.runFpgaPlain(cost);

    Testbed tb;
    CliObs obsOut(tb.clock());
    tb.installCl(accel::accelCellFor(*spec));
    if (!tb.runDeployment().ok) {
        std::printf("deployment failed\n");
        return 1;
    }
    accel::RunResult fpgaTee = runner.runFpgaTee(tb);

    for (const auto *r : {&cpu, &cpuTee, &fpga, &fpgaTee}) {
        std::printf("  %-10s %12s  output %s\n", r->mode.c_str(),
                    sim::formatNanos(r->totalTime).c_str(),
                    r->outputCorrect ? "ok" : "MISMATCH");
    }
    return 0;
}

void usage();

/** Parses a whole decimal/0x-hex seed; false on anything else. */
bool
parseSeed(const std::string &text, uint64_t &seed)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    seed = std::strtoull(text.c_str(), &end, 0);
    return errno == 0 && *end == '\0';
}

int
cmdRunScenario(const std::vector<std::string> &args)
{
    if (args.empty()) {
        std::printf("scenario file required\n");
        return 2;
    }
    bool once = false;
    bool seedOverride = false;
    uint64_t seed = 0;
    for (size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--once") {
            once = true;
        } else if (args[i] == "--seed" && i + 1 < args.size() &&
                   parseSeed(args[i + 1], seed)) {
            seedOverride = true;
            ++i;
        } else {
            // A stale, mistyped or incomplete flag must not pass
            // silently as a default run.
            std::printf("run-scenario: bad argument '%s'\n\n",
                        args[i].c_str());
            usage();
            return 2;
        }
    }

    Scenario sc;
    try {
        sc = parseScenarioFile(args[0]);
    } catch (const SalusError &e) {
        std::printf("parse error: %s\n", e.what());
        return 2;
    }
    if (seedOverride)
        sc.seed = seed;

    std::printf("scenario '%s': seed %llu, %u device(s), %u sweeps, "
                "%zu tenant(s)\n",
                sc.name.c_str(),
                static_cast<unsigned long long>(sc.seed), sc.devices,
                sc.sweeps, sc.tenants.size());

    ScenarioOutcome out = runScenarioOnEngine(sc);
    // Determinism is part of the contract: unless --once, the
    // campaign runs twice and the obs artifacts must byte-match.
    bool identical = true;
    if (!once) {
        ScenarioOutcome again = runScenarioOnEngine(sc);
        identical = out.traceJson == again.traceJson &&
                    out.metricsText == again.metricsText;
    }

    std::printf("  %-12s %10s %10s %8s %8s %8s\n", "tenant",
                "admitted", "completed", "quota", "rate", "shed");
    for (const auto &[name, ts] : out.tenants)
        std::printf("  %-12s %10llu %10llu %8llu %8llu %8llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(ts.admitted),
                    static_cast<unsigned long long>(ts.completed),
                    static_cast<unsigned long long>(ts.quotaRejected),
                    static_cast<unsigned long long>(ts.rateRejected),
                    static_cast<unsigned long long>(ts.shedRejected));
    std::printf("completed %llu, failovers %llu, SEUs %llu, max sweeps "
                "waited %llu, shed level %zu, virtual end %s\n",
                static_cast<unsigned long long>(out.completed),
                static_cast<unsigned long long>(out.failovers),
                static_cast<unsigned long long>(out.seusInjected),
                static_cast<unsigned long long>(out.maxSweepsWaited),
                out.shedLevelEnd,
                sim::formatNanos(out.clockEnd).c_str());
    if (out.dmaJobs)
        std::printf("dma jobs %llu, dma bytes %llu\n",
                    static_cast<unsigned long long>(out.dmaJobs),
                    static_cast<unsigned long long>(out.dmaBytes));

    if (!g_traceOut.empty()) {
        std::FILE *f = std::fopen(g_traceOut.c_str(), "wb");
        if (f) {
            std::fwrite(out.traceJson.data(), 1, out.traceJson.size(),
                        f);
            std::fclose(f);
            std::printf("trace: %s\n", g_traceOut.c_str());
        }
    }
    if (!g_metricsOut.empty()) {
        std::FILE *f = std::fopen(g_metricsOut.c_str(), "wb");
        if (f) {
            std::fwrite(out.metricsText.data(), 1,
                        out.metricsText.size(), f);
            std::fclose(f);
            std::printf("metrics: %s\n", g_metricsOut.c_str());
        }
    }

    for (const std::string &v : out.violations)
        std::printf("VIOLATION: %s\n", v.c_str());
    if (!identical)
        std::printf("VIOLATION: same-seed reruns diverged (trace or "
                    "metrics not byte-identical)\n");
    bool ok = out.passed() && identical;
    std::printf("scenario '%s': %s\n", sc.name.c_str(),
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

int
cmdInspect()
{
    fpga::DeviceModelInfo model = fpga::u200ScaledModel();
    const auto &rp = model.partitions[0];
    std::printf("device model %s\n", model.name.c_str());
    std::printf("  frames: %u x %u B (RP: %u frames = %.1f MiB "
                "partial bitstream)\n",
                model.totalFrames, model.frameSize, rp.frameCount,
                double(rp.bodyBytes()) / (1 << 20));
    std::printf("  RP capacity: %u LUT / %u FF / %u BRAM\n",
                rp.capacity.luts, rp.capacity.registers,
                rp.capacity.brams);
    netlist::ResourceVector sm = smLogicResources();
    std::printf("  SM logic: %u LUT / %u FF / %u BRAM (+3 key BRAMs)\n",
                sm.luts, sm.registers, sm.brams);
    std::printf("workloads:");
    for (const auto &w : accel::allWorkloads())
        std::printf(" %s", w.name);
    std::printf("\n");
    return 0;
}

/** Prints the named paper table, or all of them; exits 1 when a
 *  table's self-check fails and 2 on an unknown name. */
int
cmdPaper(const std::vector<std::string> &args)
{
    bool found = false, ok = true;
    for (const paper::Artifact &a : paper::artifacts()) {
        if (!args.empty() && args[0] != a.name)
            continue;
        found = true;
        paper::Rendered r = a.render();
        std::fputs(r.text.c_str(), stdout);
        ok = ok && r.ok;
    }
    if (!found) {
        std::printf("unknown table '%s'\n", args[0].c_str());
        return 2;
    }
    return ok ? 0 : 1;
}

void
usage()
{
    std::printf(
        "salus_cli — drive the Salus CPU-FPGA TEE simulation\n\n"
        "  boot [--paper-scale] [--seed N]   full secure deployment\n"
        "  attack <name>                     run a threat-model "
        "attack:\n"
        "        tamper substitute storage replay snoop scan mitm "
        "revoke\n"
        "  workload <name> [--scale PCT]     run one Table 4 workload "
        "in all modes\n"
        "  run-scenario FILE [--once] [--seed N]\n"
        "                                    run a declarative chaos "
        "campaign\n"
        "        (docs/SCENARIOS.md; default runs twice and checks "
        "byte-identical traces)\n"
        "  inspect                           device + workload "
        "inventory\n"
        "  paper [name]                      print the paper's tables "
        "and figures:\n"
        "        table1..table6 fig8 fig10 ablations fault_recovery\n\n"
        "global options:\n"
        "  --trace-out FILE    write a Chrome trace_event JSON trace\n"
        "  --metrics-out FILE  write a text metrics dump\n");
}

} // namespace

int
main(int argc, char **argv)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    accel::AccelIp::registerAll();

    if (argc < 2) {
        usage();
        return 2;
    }
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    for (size_t i = 0; i < args.size();) {
        if (args[i] == "--trace-out" && i + 1 < args.size()) {
            g_traceOut = args[i + 1];
            args.erase(args.begin() + long(i), args.begin() + long(i + 2));
        } else if (args[i] == "--metrics-out" && i + 1 < args.size()) {
            g_metricsOut = args[i + 1];
            args.erase(args.begin() + long(i), args.begin() + long(i + 2));
        } else {
            ++i;
        }
    }

    if (cmd == "boot")
        return cmdBoot(args);
    if (cmd == "attack")
        return cmdAttack(args);
    if (cmd == "workload")
        return cmdWorkload(args);
    if (cmd == "run-scenario")
        return cmdRunScenario(args);
    if (cmd == "inspect")
        return cmdInspect();
    if (cmd == "paper")
        return cmdPaper(args);
    usage();
    return cmd == "help" ? 0 : 2;
}
