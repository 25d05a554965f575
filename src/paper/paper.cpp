#include "paper/paper.hpp"

#include <cstdarg>
#include <cstdio>

#include "accel/accel_ip.hpp"
#include "baseline/sgx_fpga.hpp"
#include "baseline/shef.hpp"
#include "bitstream/compiler.hpp"
#include "common/errors.hpp"
#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "fpga/ip.hpp"
#include "salus/cl_builder.hpp"
#include "salus/reg_channel.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"
#include "tee/local_attest.hpp"

namespace salus::paper {

using namespace core;
using accel::KernelId;

namespace {

[[gnu::format(printf, 2, 3)]] void
appendf(std::string &out, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list sizing;
    va_copy(sizing, args);
    int n = std::vsnprintf(nullptr, 0, fmt, sizing);
    va_end(sizing);
    size_t at = out.size();
    out.resize(at + size_t(n) + 1);
    std::vsnprintf(out.data() + at, size_t(n) + 1, fmt, args);
    out.resize(at + size_t(n));
    va_end(args);
}

void
banner(std::string &out, const char *title)
{
    appendf(out, "\n=== %s ===\n", title);
}

/** Milliseconds from virtual nanos. */
double
ms(sim::Nanos n)
{
    return double(n) / 1e6;
}

void
registerIps()
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    accel::AccelIp::registerAll();
}

netlist::Cell
loopbackAccel(uint32_t luts)
{
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {luts, luts, 0, 0};
    return accel;
}

// ---- Table 1 ----------------------------------------------------------

/*
 * The three schemes this repo implements (Salus, a ShEF-style
 * standalone TEE, an SGX-FPGA-style PUF scheme) are executed and their
 * distinguishing properties shown live; the MeetGo and Ambassy rows
 * share ShEF's standalone/extra-hardware profile and come from the
 * paper.
 */
Rendered
table1()
{
    Rendered r;
    banner(r.text, "Table 1: comparison with existing FPGA TEE works");
    registerIps();
    crypto::CtrDrbg rng(uint64_t(1));
    sim::CostModel cost;

    // SGX-FPGA-style: heterogeneous, no extra hardware, but dev/deploy
    // coupled (CRP DB bound to the physical die) and a multi-stage
    // attestation gap.
    bool sgxFpgaCoupled;
    sim::Nanos sgxFpgaGap;
    {
        baseline::PufDevice rented(1), other(2);
        baseline::CrpDatabase db;
        db.enroll(rented, 8, rng); // developer had to touch `rented`
        sgxFpgaCoupled = !db.authenticate(other) && db.authenticate(rented);

        baseline::CrpDatabase db2;
        db2.enroll(rented, 8, rng);
        sim::VirtualClock clock;
        auto timeline = baseline::runSgxFpgaFlow(db2, rented, clock, cost);
        sgxFpgaGap = timeline.gap();
    }

    // ShEF-style: standalone, needs BootROM-key hardware, dev/deploy
    // independent (any device of the fleet verifies).
    double shefAttestMs;
    {
        baseline::ShefDevice device("shef-1",
                                    bytesFromString("shef-root"), rng);
        Bytes bitstream = rng.bytes(1 << 20);
        Bytes nonce = rng.bytes(16);
        sim::VirtualClock clock;
        auto att = device.loadAndAttest(bitstream, nonce, &clock, cost);
        baseline::ShefVerifier verifier(
            baseline::shefManufacturerRoot(bytesFromString("shef-root"))
                .publicKey,
            crypto::Sha256::digest(bitstream));
        bool ok = verifier.verify(att, nonce, &clock, cost);
        shefAttestMs = ok ? ms(clock.now()) : -1.0;
    }

    // Salus: heterogeneous, COTS hardware only, independent dev/deploy
    // (the same CL artifact deploys on any device), and a zero
    // attestation gap (cascaded report).
    double salusClAttestMs;
    bool salusIndependent;
    {
        TestbedConfig cfgA;
        cfgA.rngSeed = 10;
        Testbed tbA(cfgA);
        tbA.installCl(loopbackAccel(100));
        bool okA = tbA.runDeployment().ok;

        TestbedConfig cfgB;
        cfgB.rngSeed = 11; // different device DNA + device key
        Testbed tbB(cfgB);
        tbB.installCl(loopbackAccel(100));
        bool okB = tbB.runDeployment().ok;
        salusIndependent = okA && okB;
        salusClAttestMs = ms(tbA.clock().totalFor(phases::kClAuth));
    }

    std::string &out = r.text;
    appendf(out, "%-12s %-6s %-10s %-13s %s\n", "work", "type",
            "extra hw", "indep. d/d", "measured property");
    appendf(out,
            "%-12s %-6s %-10s %-13s gap = %.1f ms before CL attested; "
            "CRP die-coupled: %s\n",
            "SGX-FPGA", "HE", "no", "NO (coupled)", ms(sgxFpgaGap),
            sgxFpgaCoupled ? "yes" : "no");
    appendf(out, "%-12s %-6s %-10s %-13s CL attestation %.1f ms (PKE + "
                 "CA)\n",
            "ShEF", "SA", "YES", "yes", shefAttestMs);
    for (const char *work : {"MeetGo", "Ambassy"}) {
        appendf(out, "%-12s %-6s %-10s %-13s (paper: same profile as "
                     "ShEF)\n",
                work, "SA", "YES", "yes");
    }
    appendf(out,
            "%-12s %-6s %-10s %-13s CL attestation %.2f ms (symmetric), "
            "gap = 0, same artifact on 2 devices: %s\n",
            "Salus", "HE", "no", "yes", salusClAttestMs,
            salusIndependent ? "ok" : "FAILED");
    r.ok = sgxFpgaCoupled && shefAttestMs >= 0 && salusIndependent;
    return r;
}

// ---- Table 2 ----------------------------------------------------------

class DemoEnclave : public tee::Enclave
{
  public:
    using tee::Enclave::Enclave;
};

std::string
prefix(ByteView b, size_t n = 8)
{
    return hexEncode(ByteView(b.data(), std::min(n, b.size()))) + "..";
}

/* Both protocols are executed side by side and each mapped step is
 * printed with live values. */
Rendered
table2()
{
    Rendered r;
    std::string &out = r.text;
    banner(out, "Table 2: Salus CL attestation vs SGX local "
                "attestation, executed side by side");

    // Left column: SGX local attestation.
    crypto::CtrDrbg rng(uint64_t(9));
    tee::TeePlatform platform("demo-platform", rng);
    tee::EnclaveImage verifierImg{"verifier", "v", 1,
                                  bytesFromString("verifier-code")};
    tee::EnclaveImage proverImg{"prover", "v", 1,
                                bytesFromString("prover-code")};
    DemoEnclave verifier(platform, verifierImg);
    DemoEnclave prover(platform, proverImg);

    tee::LocalAttestInitiator init(verifier, prover.measurement());
    tee::LocalAttestResponder resp(prover, verifier.measurement());
    Bytes msg1 = init.start();
    Bytes msg2 = *resp.answer(msg1);
    Bytes msg3 = *init.finish(msg2);
    bool laOk = resp.confirm(msg3);

    // Right column: Salus CL attestation.
    registerIps();
    Testbed tb;
    tb.installCl(loopbackAccel(100));
    if (!tb.runDeployment().ok) {
        out += "deployment failed\n";
        r.ok = false;
        return r;
    }

    // White-box: read the injected Key_attest back out of config
    // memory so the protocol can be narrated explicitly.
    tb.device().setReadbackEnabled(true);
    netlist::Netlist loaded =
        bitstream::extractDesign(tb.device().readback(0));
    Bytes keyAttest = loaded.findCell(tb.layout().keyAttestPath)->init;
    uint64_t dna = tb.device().dna().value;

    uint64_t nonce = 0x517a1u;
    uint64_t macReq = regchan::attestRequestMac(keyAttest, nonce, dna);
    auto &sh = tb.shell();
    sh.registerWrite(pcie::Window::SmSecure, kSmRegIn0, nonce);
    sh.registerWrite(pcie::Window::SmSecure, kSmRegIn1, macReq);
    sh.registerWrite(pcie::Window::SmSecure, kSmRegCmd, kSmCmdAttest);
    uint64_t st = sh.registerRead(pcie::Window::SmSecure, kSmRegStatus);
    uint64_t macRsp = sh.registerRead(pcie::Window::SmSecure,
                                      kSmRegOut1);
    bool clOk = st == kSmStatusOk &&
                macRsp == regchan::attestResponseMac(keyAttest, nonce,
                                                     dna);

    appendf(out, "\n%-44s | %s\n", "Intel SGX local attestation",
            "Salus CL attestation");
    appendf(out, "%-44s | %s\n",
            ("verifier challenge (MRENCLAVE " +
             prefix(prover.measurement()) + ")")
                .c_str(),
            ("SM enclave nonce N = 0x" +
             hexEncode(Bytes{uint8_t(nonce >> 16), uint8_t(nonce >> 8),
                             uint8_t(nonce)}))
                .c_str());
    appendf(out, "%-44s | %s\n", "prover EGETKEY -> report key (hidden)",
            ("SM logic reads Key_attest BRAM (" + prefix(keyAttest, 4) +
             ", never on the bus)")
                .c_str());
    appendf(out, "%-44s | SM logic MAC over (N+1, DNA) = %016llx\n",
            "prover EREPORT: CMAC over report body",
            static_cast<unsigned long long>(macRsp));
    appendf(out, "%-44s | %s\n", "report sent to verifier enclave",
            "response registers read back over PCIe");
    appendf(out, "%-44s | %s\n", "verifier EGETKEY -> same report key",
            "SM enclave holds the Key_attest it injected");
    appendf(out, "%-44s | %s\n",
            laOk ? "verifier CMAC check: PASS"
                 : "verifier CMAC check: FAIL",
            clOk ? "SM enclave SipHash check: PASS"
                 : "SM enclave SipHash check: FAIL");
    r.ok = laOk && clOk;
    return r;
}

// ---- Table 3 ----------------------------------------------------------

/* For every step of the secure CL boot the corresponding attack from
 * the threat model is executed against a fresh platform, and the row
 * is "protected" iff the flow detects or neutralizes it (the
 * executable form of §4.6's security analysis). */
Rendered
table3()
{
    Rendered r;
    std::string &out = r.text;
    banner(out, "Table 3: protection of secrets in secure CL booting");
    registerIps();

    struct Row
    {
        const char *steps;
        const char *operation;
        const char *secret;
        const char *attack;
        bool (*protectedCheck)(); ///< true = attack defeated
    };
    std::vector<Row> rows;

    rows.push_back({"(1)(2)", "Remote Attest.", "H, Loc",
                    "MITM corrupts the quote in the RA response", [] {
                        Testbed tb;
                        tb.installCl(loopbackAccel(100));
                        tb.network().setInterposer(
                            [](const std::string &, const std::string &,
                               const std::string &m, Bytes &p) {
                                if (m == "raRequest:response" &&
                                    p.size() > 80)
                                    p[80] ^= 1;
                                return true;
                            });
                        return !tb.runDeployment().ok;
                    }});

    rows.push_back({"(3)", "Local Attest.", "H, Loc",
                    "OS tampers with the metadata crossing the LA "
                    "channel",
                    [] {
                        // Corrupt the digest the user enclave would
                        // forward: the SM enclave then deploys nothing
                        // (digest mismatch) and the report says so.
                        Testbed tb;
                        tb.installCl(loopbackAccel(100));
                        tb.metadata().digestH[5] ^= 1;
                        return !tb.runDeployment().ok;
                    }});

    rows.push_back({"(4)", "Remote Attest.", "Key_device",
                    "OS swaps its own wrap key into the key request", [] {
                        // Any quote/wrap-key mismatch is refused, so the
                        // device key never reaches a non-enclave.
                        Testbed tb;
                        tb.installCl(loopbackAccel(100));
                        manufacturer::KeyRequest req;
                        req.deviceDna = tb.device().dna().value;
                        req.quote = Bytes(64, 7); // OS-forged quote
                        req.wrapPubKey = Bytes(32, 9);
                        auto resp = tb.mft().handleKeyRequest(req);
                        return resp.status != 0;
                    }});

    rows.push_back({"(5)", "Bit. Verification", "Bitstream",
                    "cloud storage substitutes a trojan bitstream", [] {
                        Testbed tb;
                        tb.installCl(loopbackAccel(100));
                        tb.storedBitstream()[2000] ^= 0xff;
                        auto outcome = tb.runDeployment();
                        return !outcome.ok &&
                               outcome.failure.find("digest") !=
                                   std::string::npos;
                    }});

    rows.push_back({"(6)(7)", "Bit. Manip. + Enc.", "Key_attest",
                    "shell records the deployed blob and scans it for "
                    "the injected key",
                    [] {
                        TestbedConfig cfg;
                        cfg.maliciousShell = true;
                        Testbed tb(cfg);
                        tb.installCl(loopbackAccel(100));
                        if (!tb.runDeployment().ok)
                            return false;
                        tb.device().setReadbackEnabled(true);
                        Bytes key = bitstream::extractDesign(
                                        tb.device().readback(0))
                                        .findCell(tb.layout().keyAttestPath)
                                        ->init;
                        std::string blob = hexEncode(
                            tb.maliciousShell()->capturedBitstream());
                        return blob.find(hexEncode(key)) ==
                               std::string::npos;
                    }});

    rows.push_back({"(8)", "CL Loading", "Key_attest",
                    "shell flips bits in the encrypted bitstream", [] {
                        TestbedConfig cfg;
                        cfg.maliciousShell = true;
                        cfg.attackPlan.tamperBitstream = true;
                        cfg.attackPlan.tamperOffset = 12345;
                        Testbed tb(cfg);
                        tb.installCl(loopbackAccel(100));
                        return !tb.runDeployment().ok;
                    }});

    rows.push_back({"(8)", "CL Loading", "Key_attest",
                    "shell substitutes its own CL entirely", [] {
                        TestbedConfig cfg;
                        cfg.maliciousShell = true;
                        Testbed tb(cfg);
                        tb.installCl(loopbackAccel(100));
                        tb.maliciousShell()->plan().substituteBitstream =
                            tb.storedBitstream(); // plaintext replay
                        return !tb.runDeployment().ok;
                    }});

    rows.push_back({"(9)", "CL Attestation", "Key_attest",
                    "shell forges/corrupts attestation registers", [] {
                        TestbedConfig cfg;
                        cfg.maliciousShell = true;
                        cfg.attackPlan.smWindowDataTamperMask = 1;
                        Testbed tb(cfg);
                        tb.installCl(loopbackAccel(100));
                        return !tb.runDeployment().ok;
                    }});

    rows.push_back({"runtime", "Secure Reg. Channel", "Key_session",
                    "shell replays recorded register writes", [] {
                        TestbedConfig cfg;
                        cfg.maliciousShell = true;
                        Testbed tb(cfg);
                        tb.installCl(loopbackAccel(100));
                        if (!tb.runDeployment().ok)
                            return false;
                        if (!tb.userApp().secureWrite(0x00, 111))
                            return false;
                        if (!tb.userApp().secureWrite(0x00, 222))
                            return false;
                        tb.maliciousShell()->replayRecordedSmWrites();
                        return tb.userApp().secureRead(0x00) == 222u;
                    }});

    appendf(out, "%-8s %-22s %-12s protected?  attack\n", "steps",
            "operation", "secret");
    for (const auto &row : rows) {
        bool ok = row.protectedCheck();
        r.ok = r.ok && ok;
        appendf(out, "%-8s %-22s %-12s %-11s %s\n", row.steps,
                row.operation, row.secret, ok ? "YES" : "** NO **",
                row.attack);
    }
    appendf(out, "\n%s\n",
            r.ok ? "all Table 3 protections hold"
                 : "SOME PROTECTIONS FAILED");
    return r;
}

// ---- Table 4 ----------------------------------------------------------

const char *
description(KernelId id)
{
    switch (id) {
      case KernelId::Conv:
        return "Single convolution layer over a 3x3x256 kernel";
      case KernelId::Affine:
        return "Affine transformation on a 512x512 image";
      case KernelId::Rendering:
        return "Render 2D images from 3D models (z-buffered)";
      case KernelId::FaceDetect:
        return "Viola-Jones face detection (integral images)";
      case KernelId::NnSearch:
        return "Nearest-neighbour linear search";
      default:
        return "?";
    }
}

const char *
sourceAnalog(KernelId id)
{
    switch (id) {
      case KernelId::Conv:
      case KernelId::Affine:
      case KernelId::NnSearch:
        return "Xilinx SDAccel example (reimplemented)";
      case KernelId::Rendering:
      case KernelId::FaceDetect:
        return "Rosetta (reimplemented)";
      default:
        return "?";
    }
}

/* The benchmarking applications, from the live workload registry with
 * the evaluation input sizes and the §6.4 memory-encryption policy. */
Rendered
table4()
{
    Rendered r;
    std::string &out = r.text;
    banner(out, "Table 4: benchmarking applications");
    appendf(out, "%-11s %-48s %-34s %-22s %10s %10s\n", "app",
            "description", "source analog", "memory encryption",
            "in (B)", "MACs");
    for (const auto &spec : accel::allWorkloads()) {
        Bytes input = accel::generateInput(spec.id, 1, spec.benchScale);
        appendf(out, "%-11s %-48s %-34s %-22s %10zu %10.1fM\n",
                spec.name, description(spec.id), sourceAnalog(spec.id),
                accel::outputEncrypted(spec.id) ? "input & output"
                                                : "input only",
                input.size(),
                double(accel::kernelOps(spec.id, input)) / 1e6);
    }
    appendf(out, "\nmemory-encryption policy per paper 6.4: ML kernels "
                 "(Conv, FaceDetect, NNSearch) encrypt inbound traffic "
                 "only; Affine and Rendering protect both directions.\n");
    return r;
}

// ---- Table 5 ----------------------------------------------------------

/* Resource use of each benchmark CL (accelerator + SM logic) against
 * the reconfigurable partition's capacity, from the compiled
 * netlists. */
Rendered
table5()
{
    Rendered r;
    std::string &out = r.text;
    banner(out, "Table 5: resource utilization breakdown of CL");
    registerIps();

    fpga::DeviceModelInfo model = fpga::u200ScaledModel();
    const auto &rp = model.partitions[0];

    appendf(out, "%-14s %10s %10s %9s   (%% of RP capacity)\n", "logic",
            "LUT", "Register", "BRAM");
    appendf(out, "%-14s %10u %10u %9u\n", "Total CL", rp.capacity.luts,
            rp.capacity.registers, rp.capacity.brams);

    auto row = [&](const char *name, const netlist::ResourceVector &res) {
        auto pct = [](uint32_t used, uint32_t cap) {
            return 100.0 * double(used) / double(cap);
        };
        appendf(out, "%-14s %10u %10u %9u   (%.0f%% / %.0f%% / %.0f%%)\n",
                name, res.luts, res.registers, res.brams,
                pct(res.luts, rp.capacity.luts),
                pct(res.registers, rp.capacity.registers),
                pct(res.brams, rp.capacity.brams));
    };

    for (const auto &spec : accel::allWorkloads()) {
        std::string top = std::string(spec.name) + "_top";
        ClDesign design = buildClDesign(top, accel::accelCellFor(spec));
        // The accelerator alone (everything under <top>/accel).
        row(spec.name, design.netlist.resourcesUnder(top + "/accel"));

        // The full CL (accel + SM logic) must compile into the RP.
        bitstream::Compiler compiler(model.name);
        if (compiler.compile(design.netlist, rp).file.empty()) {
            appendf(out, "  COMPILE FAILED for %s\n", spec.name);
            r.ok = false;
            return r;
        }
    }
    row("SM Logic", smLogicResources());

    appendf(out, "\npaper Table 5 reference: SM logic 27667 LUT (8%%), "
                 "29631 Reg (4%%), 88 BRAM (13%%)\n");
    return r;
}

// ---- Figure 8 ---------------------------------------------------------

void
renderDevice(std::string &out, const fpga::DeviceModelInfo &model)
{
    appendf(out,
            "\ndevice %s: %u frames x %u B = %.1f MiB configuration "
            "memory, %.0f MiB DRAM\n",
            model.name.c_str(), model.totalFrames, model.frameSize,
            double(model.totalFrames) * model.frameSize / (1 << 20),
            double(model.dramBytes) / (1 << 20));

    // Scale the frame space onto a 64-column bar.
    const int cols = 64;
    std::string bar(cols, 'S'); // static area (shell) by default
    for (const auto &rp : model.partitions) {
        int start = int(int64_t(rp.frameStart) * cols / model.totalFrames);
        int end = int(int64_t(rp.frameStart + rp.frameCount) * cols /
                      model.totalFrames);
        for (int i = start; i < end && i < cols; ++i)
            bar[i] = char('0' + rp.partitionId % 10);
    }
    appendf(out, "  [%s]\n", bar.c_str());
    appendf(out, "  S = static area (shell: DMA, interconnect, DDR "
                 "controllers)\n");
    for (const auto &rp : model.partitions) {
        appendf(out,
                "  %u = reconfigurable partition %u: frames %u..%u "
                "(%.1f MiB partial bitstream), capacity %u LUT / %u FF "
                "/ %u BRAM\n",
                rp.partitionId, rp.partitionId, rp.frameStart,
                rp.frameStart + rp.frameCount - 1,
                double(rp.bodyBytes()) / (1 << 20), rp.capacity.luts,
                rp.capacity.registers, rp.capacity.brams);
    }
}

/* The floor plan of shell and CL, from the device model's partition
 * geometry, plus the multi-RP layout of §4.7. */
Rendered
fig8()
{
    Rendered r;
    std::string &out = r.text;
    banner(out, "Figure 8: floor planning of shell and CL");
    appendf(out, "paper: one of the U200's three super logic regions is "
                 "reserved as the RP (~1/3 of the device), the rest "
                 "hosts the shell.\n");
    renderDevice(out, fpga::u200ScaledModel());
    appendf(out, "\n-- multi-RP variant (paper 4.7 extension) --\n");
    renderDevice(out, fpga::testModelMultiRp(3));
    return r;
}

// ---- Ablations --------------------------------------------------------

/*
 * Each of the paper's three "Solutions" (§1) against the alternative
 * it rejected, plus two extensions:
 *   1. RoT injection by bitstream manipulation vs. recompilation
 *   2. symmetric CL attestation vs. PKE remote attestation
 *   3. cascaded attestation vs. multi-stage
 *   4. sealed device-key caching vs. re-fetching
 *   5. readback-disabled ICAP (§5.1.2) vs. legacy ICAP
 */
Rendered
ablations()
{
    Rendered r;
    std::string &out = r.text;
    registerIps();
    crypto::CtrDrbg rng(uint64_t(5));
    sim::CostModel cost;
    auto deployFailed = [&r] {
        r.ok = false;
        return r;
    };

    banner(out, "Ablation 1 (Solution 1): RoT injection mechanism");
    {
        // The naive alternative (paper §1, Challenge 1): hardcode the
        // key in RTL and rerun synthesis + place & route. An SLR-scale
        // Vivado P&R run is hours; 2 h is a charitable constant.
        const double recompileSeconds = 2 * 3600.0;

        ClDesign design = buildClDesign("abl", loopbackAccel(100));
        fpga::DeviceModelInfo model = fpga::u200ScaledModel();
        bitstream::Compiler compiler(model.name);
        auto compiled =
            compiler.compile(design.netlist, model.partitions[0]);
        double rapidwrightSeconds =
            double(cost.bitstreamManipulation(compiled.file.size())) /
            double(sim::kSec);

        appendf(out, "  recompile (RTL key + P&R):      %10.1f s (model; "
                     "also breaks IP confidentiality)\n",
                recompileSeconds);
        appendf(out, "  RapidWright-in-Occlum (paper):  %10.1f s (x%.0f "
                     "faster than recompiling)\n",
                rapidwrightSeconds, recompileSeconds / rapidwrightSeconds);
    }

    banner(out, "Ablation 2 (Solution 2): CL attestation crypto");
    {
        appendf(out, "  SipHash MAC pair (Salus):       %10.3f ms "
                     "compute, %.2f ms CL attestation in all (no CA, no "
                     "network)\n",
                ms(2 * cost.smLogicMac), ms(cost.clAttestation()));
        appendf(out, "  PKE sign+verify (ShEF model):   %10.3f ms "
                     "compute + %.2f ms CA round trips over WAN\n",
                ms(2 * cost.shefSignatureOp),
                ms(sim::Nanos(cost.shefCaRoundTrips) *
                       cost.rpc(sim::LinkKind::Wan, 1024, 8192) +
                   cost.rpc(sim::LinkKind::Wan, 256, 4096)));
        appendf(out, "  (plus ShEF requires the developer online as a CA "
                     "during deployment)\n");
    }

    banner(out, "Ablation 3 (Solution 3): attestation protocol");
    {
        sim::VirtualClock clock;
        baseline::PufDevice device(1);
        baseline::CrpDatabase db;
        db.enroll(device, 4, rng);
        auto timeline = baseline::runSgxFpgaFlow(db, device, clock, cost);
        appendf(out, "  multi-stage (SGX-FPGA style): report at %.0f ms, "
                     "CL attested at %.0f ms -> %.1f ms trust gap\n",
                ms(timeline.reportIssuedAt), ms(timeline.clAttestedAt),
                ms(timeline.gap()));

        Testbed tb;
        tb.installCl(loopbackAccel(100));
        if (!tb.runDeployment().ok)
            return deployFailed();
        appendf(out, "  cascaded (Salus): report generation is ordered "
                     "after CL attestation -> gap = 0 ms by "
                     "construction\n");
    }

    banner(out, "Ablation 4 (extension): sealed device-key caching");
    {
        Testbed tb;
        tb.installCl(loopbackAccel(100));
        if (!tb.runDeployment().ok)
            return deployFailed();
        sim::Nanos firstBootKeyPhase =
            tb.clock().totalFor(phases::kDeviceKeyDist);

        Bytes sealed = tb.smApp().exportSealedDeviceKey();
        if (!tb.restartSmApp(sealed))
            return deployFailed();
        sim::Nanos before = tb.clock().totalFor(phases::kDeviceKeyDist);
        if (!tb.runDeployment().ok)
            return deployFailed();
        sim::Nanos redeployKeyPhase =
            tb.clock().totalFor(phases::kDeviceKeyDist) - before;

        appendf(out, "  cold boot key distribution:   %8.1f ms\n",
                ms(firstBootKeyPhase));
        appendf(out, "  redeploy with sealed cache:   %8.1f ms "
                     "(manufacturer untouched)\n",
                ms(redeployKeyPhase));
    }

    banner(out, "Ablation 5 (§5.1.2): ICAP readback");
    {
        TestbedConfig cfg;
        cfg.maliciousShell = true;
        Testbed tb(cfg);
        tb.installCl(loopbackAccel(100));
        if (!tb.runDeployment().ok)
            return deployFailed();
        auto blocked = tb.maliciousShell()->tryConfigScan();
        tb.device().setReadbackEnabled(true);
        auto leaked = tb.maliciousShell()->tryConfigScan();
        appendf(out, "  Salus ICAP (readback off): scan leaks %zu bytes\n",
                blocked ? blocked->size() : 0);
        appendf(out, "  legacy ICAP (readback on): scan leaks %zu bytes "
                     "including Key_attest -> full attestation "
                     "forgery\n",
                leaked ? leaked->size() : 0);
    }
    return r;
}

} // namespace

// ---- Figure 10 and Table 6 --------------------------------------------

double
WorkloadRun::cpuSlowdown() const
{
    return double(cpuTee.totalTime) / double(cpu.totalTime);
}

double
WorkloadRun::fpgaSlowdown() const
{
    return double(fpgaTee.totalTime) / double(fpga.totalTime);
}

double
WorkloadRun::speedup() const
{
    return double(cpuTee.totalTime) / double(fpgaTee.totalTime);
}

bool
WorkloadRun::outputsCorrect() const
{
    return cpu.outputCorrect && cpuTee.outputCorrect &&
           fpga.outputCorrect && fpgaTee.outputCorrect;
}

namespace {

WorkloadRun
runWorkload(KernelId id, uint64_t seed)
{
    registerIps();
    WorkloadRun run;
    run.spec = &accel::workload(id);
    accel::WorkloadRunner runner(id, seed, run.spec->benchScale);
    sim::CostModel cost;
    run.cpu = runner.runCpuPlain();
    run.cpuTee = runner.runCpuTee(cost);
    run.fpga = runner.runFpgaPlain(cost);

    Testbed tb;
    tb.installCl(accel::accelCellFor(*run.spec));
    auto outcome = tb.runDeployment();
    if (!outcome.ok) {
        throw SalusError(std::string(run.spec->name) +
                         ": deployment failed: " + outcome.failure);
    }
    run.fpgaTee = runner.runFpgaTee(tb);
    return run;
}

} // namespace

std::vector<WorkloadRun>
fig10Runs()
{
    std::vector<WorkloadRun> runs;
    for (const auto &spec : accel::allWorkloads())
        runs.push_back(runWorkload(spec.id, 2026));
    return runs;
}

std::vector<WorkloadRun>
table6Runs()
{
    std::vector<WorkloadRun> runs;
    for (KernelId id :
         {KernelId::Conv, KernelId::Rendering, KernelId::FaceDetect})
        runs.push_back(runWorkload(id, 7));
    return runs;
}

/* Normalized execution time of the five workloads on a CPU TEE (SGX)
 * vs the FPGA TEE (Salus). The paper reports Salus speedups of
 * 1.17x - 15.64x over SGX, every workload favouring Salus. */
Rendered
fig10(const std::vector<WorkloadRun> &runs)
{
    Rendered r;
    std::string &out = r.text;
    banner(out, "Figure 10: workloads on CPU TEE (SGX) vs FPGA TEE "
                "(Salus)");
    appendf(out, "%-12s %12s %12s %10s %14s\n", "workload", "SGX (ms)",
            "Salus (ms)", "speedup", "normalized");
    for (const WorkloadRun &run : runs) {
        if (!run.outputsCorrect()) {
            appendf(out, "%s: output mismatch in some mode\n",
                    run.spec->name);
            r.ok = false;
        }
        appendf(out, "%-12s %12.2f %12.2f %9.2fx %14.3f\n", run.spec->name,
                ms(run.cpuTee.totalTime), ms(run.fpgaTee.totalTime),
                run.speedup(), 1.0 / run.speedup());
    }
    appendf(out, "\npaper reference: speedups 1.17x (Conv) to 15.64x, "
                 "all workloads favour the FPGA TEE\n");
    return r;
}

/* Slowdown of the CPU TEE and the FPGA TEE over their unprotected
 * baselines. The shape to reproduce: the CPU TEE slowdown grows for
 * compute-light kernels (up to ~4.4x), the FPGA TEE stays near 1.0x
 * because the memory-interface AES runs at line rate. */
Rendered
table6(const std::vector<WorkloadRun> &runs)
{
    struct PaperRow
    {
        KernelId id;
        double cpuSlowdown;
        double fpgaSlowdown;
    };
    static const PaperRow kPaper[] = {
        {KernelId::Conv, 1.01, 1.00},
        {KernelId::Rendering, 4.38, 1.05},
        {KernelId::FaceDetect, 3.50, 1.03},
    };

    Rendered r;
    std::string &out = r.text;
    banner(out, "Table 6: slowdown of CPU TEE and FPGA TEE");
    appendf(out,
            "%-12s | %10s %10s %9s (paper) | %10s %10s %9s (paper)\n",
            "workload", "CPU (ms)", "CPU+TEE", "slowdn", "FPGA (ms)",
            "FPGA+TEE", "slowdn");
    for (const WorkloadRun &run : runs) {
        PaperRow paper{run.spec->id, 0, 0};
        for (const PaperRow &row : kPaper) {
            if (row.id == run.spec->id)
                paper = row;
        }
        if (!run.outputsCorrect()) {
            appendf(out, "%s: output mismatch in some mode\n",
                    run.spec->name);
            r.ok = false;
        }
        appendf(out,
                "%-12s | %10.2f %10.2f %6.2fx (%4.2fx) | %10.2f %10.2f "
                "%6.2fx (%4.2fx)\n",
                run.spec->name, ms(run.cpu.totalTime),
                ms(run.cpuTee.totalTime), run.cpuSlowdown(),
                paper.cpuSlowdown, ms(run.fpga.totalTime),
                ms(run.fpgaTee.totalTime), run.fpgaSlowdown(),
                paper.fpgaSlowdown);
    }
    appendf(out, "\nshape check: CPU-TEE slowdown >> FPGA-TEE slowdown "
                 "for compute-light kernels; FPGA-TEE stays near 1x\n");
    return r;
}

// ---- Fault recovery ---------------------------------------------------

namespace {

struct TrialResult
{
    bool ok = false;
    int attempts = 0;
    sim::Nanos bootTime = 0;
    sim::Nanos backoffTime = 0;
    uint64_t faults = 0;
};

TrialResult
runTrial(double dropRate, uint64_t seed, const net::RetryPolicy &retry)
{
    TestbedConfig cfg;
    cfg.rngSeed = seed;
    cfg.retry = retry;
    cfg.faultPlan.seed = seed;
    if (dropRate > 0)
        cfg.faultPlan.add(sim::FaultRule::dropRpc(dropRate));

    Testbed tb(cfg);
    tb.installCl(loopbackAccel(10));

    auto outcome = tb.runDeployment();
    TrialResult t;
    t.ok = outcome.ok;
    t.attempts = outcome.attempts;
    t.bootTime = tb.clock().now();
    t.backoffTime = tb.clock().totalFor(net::kRetryBackoffPhase);
    t.faults = tb.faultInjector().stats().total();
    return t;
}

void
sweep(std::string &out, const char *label, const net::RetryPolicy &retry)
{
    const double rates[] = {0.0, 0.05, 0.10, 0.20, 0.30};
    const int kTrials = 25;

    appendf(out, "\n%s (maxAttempts=%d, %d seeds per point)\n", label,
            retry.maxAttempts, kTrials);
    appendf(out, "%-10s %-10s %-10s %-14s %-14s %s\n", "drop-rate",
            "success", "attempts", "boot (ms)", "backoff (ms)", "faults");
    for (double rate : rates) {
        int ok = 0, attempts = 0;
        sim::Nanos boot = 0, backoff = 0;
        uint64_t faults = 0;
        for (int t = 0; t < kTrials; ++t) {
            TrialResult trial = runTrial(rate, 1000 + t, retry);
            ok += trial.ok ? 1 : 0;
            attempts += trial.attempts;
            boot += trial.bootTime;
            backoff += trial.backoffTime;
            faults += trial.faults;
        }
        appendf(out, "%-10.0f %3d/%-6d %-10.2f %-14.2f %-14.2f %.1f\n",
                rate * 100, ok, kTrials, double(attempts) / kTrials,
                ms(boot) / kTrials, ms(backoff) / kTrials,
                double(faults) / kTrials);
    }
}

} // namespace

/* Deployment success rate and virtual-time cost against message-loss
 * rate, with the self-healing retry schedule on and off, then the
 * cost of healing through lossy links plus one failed bitstream load
 * plus one configuration upset. The check is that the combined
 * deployment recovers. */
Rendered
faultRecovery()
{
    Rendered r;
    std::string &out = r.text;
    banner(out, "Fault recovery: deployment under lossy links");
    registerIps();

    sweep(out, "self-healing retries", net::RetryPolicy::standard());
    sweep(out, "retries disabled (fail-closed)", net::RetryPolicy::none());

    banner(out, "Combined scenario: 10% loss + failed load + one SEU");
    TestbedConfig cfg;
    cfg.faultPlan.seed = 7;
    cfg.faultPlan.add(sim::FaultRule::dropRpc(0.10));
    cfg.faultPlan.add(sim::FaultRule::bitstreamLoadFail(1));
    cfg.faultPlan.add(sim::FaultRule::seu(0, 2 * 64 * 8 + 7));
    Testbed tb(cfg);
    tb.installCl(loopbackAccel(10));

    auto outcome = tb.runDeployment();
    const sim::FaultStats &stats = tb.faultInjector().stats();
    appendf(out, "deployment: %s after %d attempt(s)\n",
            outcome.ok ? "recovered" : "FAILED", outcome.attempts);
    appendf(out, "injected faults: %llu rpc drops, %llu load failures, "
                 "%llu SEUs\n",
            (unsigned long long)stats.rpcDropped,
            (unsigned long long)stats.loadFailures,
            (unsigned long long)stats.seusInjected);
    appendf(out, "virtual boot time: %.2f ms (%.2f ms of it retry "
                 "backoff)\n",
            ms(tb.clock().now()),
            ms(tb.clock().totalFor(net::kRetryBackoffPhase)));
    appendf(out, "fault journal:\n");
    for (const std::string &line : tb.faultInjector().journal())
        appendf(out, "  %s\n", line.c_str());
    r.ok = outcome.ok;
    return r;
}

// ---- Registry ---------------------------------------------------------

const std::vector<Artifact> &
artifacts()
{
    static const std::vector<Artifact> all = {
        {"table1", table1},
        {"table2", table2},
        {"table3", table3},
        {"table4", table4},
        {"table5", table5},
        {"fig8", fig8},
        {"fig10", [] { return fig10(fig10Runs()); }},
        {"table6", [] { return table6(table6Runs()); }},
        {"ablations", ablations},
        {"fault_recovery", faultRecovery},
    };
    return all;
}

} // namespace salus::paper
