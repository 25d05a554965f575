/**
 * @file
 * cold_boot_32m: the paper's headline flow (Fig. 9). Each rep builds a
 * fresh Testbed on the 32 MiB u200-scaled device, installs a Conv-sized
 * CL (set-up) and runs the full cascaded deployment (the timed rep).
 * Host time goes to SHA-256, bitstream manipulation, AES-GCM and the
 * device load; the register and DMA channels barely run.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "bitstream/encryptor.hpp"
#include "bitstream/logic_location.hpp"
#include "bitstream/manipulator.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"
#include "fpga/device.hpp"
#include "fpga/ip.hpp"
#include "obs/trace.hpp"
#include "salus/boot_report.hpp"
#include "salus/secrets.hpp"
#include "salus/testbed.hpp"
#include "workloads.hpp"

namespace salus::bench {

using core::Testbed;

namespace {

/** Figure 9's modelled total; the virtual boot must land on it. */
constexpr double kFig9BootMs = 18843.08;

const MetricSpec kBootMs{"boot_ms", "ms", Clock::Virtual, "lower", ""};

netlist::Cell
convAccel()
{
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {19735, 20169, 326, 512}; // Conv-like footprint
    return accel;
}

fpga::DeviceModelInfo
deviceModel(const Options &opts)
{
    // The smoke run boots the ~64 KiB test device instead of 32 MiB.
    return opts.smoke ? fpga::testModel() : fpga::u200ScaledModel();
}

/** Builds the testbed and installs the CL: the rep's set-up. */
std::unique_ptr<Testbed>
setUp(const Options &opts, int rep, HostTrace *trace, double &installS)
{
    HostSpan span(trace, "setup");
    core::TestbedConfig cfg;
    cfg.deviceModel = deviceModel(opts);
    cfg.rngSeed = opts.seed * 1000 + uint64_t(rep);
    auto tb = std::make_unique<Testbed>(cfg);
    HostSpan install(trace, "cl_builder.install");
    tb->installCl(convAccel());
    installS = install.stop();
    return tb;
}

/** Runs the deployment and checks it. @return the virtual boot ms. */
double
deploy(Testbed &tb, const Options &opts, RunResult &result,
       HostTrace *trace, const char *spanName, double &hostS)
{
    sim::Nanos v0 = tb.clock().now();
    HostSpan span(trace, spanName);
    core::UserClient::Outcome outcome = tb.runDeployment();
    hostS = span.stop();
    result.check(outcome.ok, "deployment failed: " + outcome.failure);

    // Layer sum on the virtual clock: the Fig. 9 rows must account for
    // every nanosecond the deployment spent.
    core::BootReport report = core::buildBootReport(tb.clock());
    sim::Nanos elapsed = tb.clock().now() - v0;
    result.check(report.modelTotal == elapsed,
                 "fig9 rows do not sum to the virtual boot time");
    double bootMs = double(elapsed) / 1e6;
    if (!opts.smoke)
        result.check(std::fabs(bootMs - kFig9BootMs) < 0.005,
                     "virtual boot is not fig9's 18843.08 ms");
    return bootMs;
}

} // namespace

const std::vector<MetricSpec> kColdBootLayers = {
    {"crypto.sha256_ms", "ms", Clock::Host, "lower", "host_s"},
    {"bitstream.patch_cell_ms", "ms", Clock::Host, "lower", "host_s"},
    {"crypto.gcm_encrypt_ms", "ms", Clock::Host, "lower", "host_s"},
    {"crypto.gcm_decrypt_ms", "ms", Clock::Host, "lower", "host_s"},
    {"fpga.load_ms", "ms", Clock::Host, "lower", "host_s"},
    {"boot.unattributed_ms", "ms", Clock::Host, "lower", "host_s"},
    {"cl_builder.install_ms", "ms", Clock::Host, "lower", "setup_s"},
    {"virt.device_key_dist_ms", "ms", Clock::Virtual, "lower", "boot_ms"},
    {"virt.bitstream_verif_enc_ms", "ms", Clock::Virtual, "lower",
     "boot_ms"},
    {"virt.bitstream_manipulation_ms", "ms", Clock::Virtual, "lower",
     "boot_ms"},
    {"virt.cl_deployment_ms", "ms", Clock::Virtual, "lower", "boot_ms"},
    {"virt.local_attestation_ms", "ms", Clock::Virtual, "lower",
     "boot_ms"},
    {"virt.cl_authentication_ms", "ms", Clock::Virtual, "lower",
     "boot_ms"},
    {"virt.user_ra_ms", "ms", Clock::Virtual, "lower", "boot_ms"},
    {"obs.traced_over_untraced_x", "x", Clock::Host, "lower",
     "diagnostic"},
};

RunResult
runColdBoot(const Options &opts)
{
    RunResult result;
    std::vector<double> setups;
    std::vector<double> deploys;
    double bootMs = 0;
    repeatFor(opts.seconds, opts.smoke ? 1 : 3, opts.smoke ? 1 : 1000,
              [&](int rep) {
                  auto start = HostClock::now();
                  double installS = 0;
                  auto tb = setUp(opts, rep, nullptr, installS);
                  setups.push_back(secondsSince(start));
                  double hostS = 0;
                  bootMs = deploy(*tb, opts, result, nullptr, "deploy",
                                  hostS);
                  deploys.push_back(hostS);
              });
    result.add(kBootMs, Kind::Headline, bootMs);
    addEndToEnd(result, median(setups), median(deploys), 1000.0 / bootMs);
    return result;
}

RunResult
tracedColdBoot(const Options &opts, HostTrace &trace)
{
    RunResult result;
    // Replay inputs the SM enclave keeps secret are drawn from a
    // seeded DRBG of the bench's own: the device key fused into the
    // replay device, the injected secrets and the GCM nonce.
    crypto::CtrDrbg rng(opts.seed + 0x5a1b);
    Bytes deviceKey = rng.bytes(32);
    fpga::FpgaDevice replayDevice(deviceModel(opts), fpga::DeviceDna{1});
    replayDevice.fuseKey(deviceKey);

    std::vector<double> installs, untraced, traced, sha, patch, enc, dec,
        loadSelf;
    core::BootReport report;
    repeatFor(opts.seconds, opts.smoke ? 1 : 2, opts.smoke ? 1 : 1000,
              [&](int rep) {
        uint32_t repSpan = trace.begin("rep");
        double installS = 0;
        double hostS = 0;
        double untracedMs = 0;
        {
            auto tb = setUp(opts, rep, &trace, installS);
            installs.push_back(installS);
            untracedMs = deploy(*tb, opts, result, &trace, "deploy_untraced",
                                hostS);
            untraced.push_back(hostS);
        }

        // The same deployment again (same seed) under obs capture.
        auto tb = setUp(opts, rep, &trace, installS);
        obs::TraceRecorder recorder(tb->clock());
        obs::MetricsRegistry registry;
        {
            obs::ObsScope scope(&recorder, &registry);
            result.check(deploy(*tb, opts, result, &trace, "deploy_traced",
                                hostS) == untracedMs,
                         "tracing changed the virtual boot time");
            traced.push_back(hostS);
        }
        report = core::buildBootReport(tb->clock());
        for (const core::BootPhaseRow &row : report.rows)
            result.check(recorder.phaseTotal(row.phase) == row.modelTime,
                         "obs spans disagree with the clock on '" +
                             row.phase + "'");

        // Replay the SM enclave's deployCl calls on this rep's
        // published bitstream.
        HostSpan replay(&trace, "replay");
        Bytes file = tb->storedBitstream();
        auto ll = bitstream::LogicLocationFile::deserialize(
            tb->metadata().logicLocations);
        core::ClSecrets secrets = core::ClSecrets::generate(rng);
        {
            HostSpan span(&trace, "crypto.sha256");
            Bytes digest = crypto::Sha256::digest(file);
            sha.push_back(span.stop());
            result.check(digest == tb->metadata().digestH,
                         "replayed SHA-256 differs from H");
        }
        {
            HostSpan span(&trace, "bitstream.patch_cell");
            const core::ClMetadata &md = tb->metadata();
            bitstream::Manipulator::patchCell(file, ll, md.keyAttestPath,
                                              secrets.keyAttest);
            bitstream::Manipulator::patchCell(file, ll, md.keySessionPath,
                                              secrets.keySession);
            bitstream::Manipulator::patchCell(file, ll, md.ctrSessionPath,
                                              secrets.ctrBytes());
            patch.push_back(span.stop());
        }
        Bytes blob;
        {
            HostSpan span(&trace, "crypto.gcm_encrypt");
            blob = bitstream::encryptBitstream(
                file, deviceKey,
                bitstream::EncryptedHeader{replayDevice.model().name, 0},
                rng);
            enc.push_back(span.stop());
        }
        {
            HostSpan span(&trace, "crypto.gcm_decrypt");
            auto plain = bitstream::decryptBitstream(blob, deviceKey);
            dec.push_back(span.stop());
            result.check(plain && *plain == file,
                         "replayed GCM round trip differs");
        }
        {
            HostSpan span(&trace, "fpga.load");
            fpga::LoadStatus st = replayDevice.loadEncryptedPartial(blob);
            // The device decrypts inside the load; its self time
            // excludes the GCM decrypt measured just above.
            loadSelf.push_back(span.stop() - dec.back());
            result.check(st == fpga::LoadStatus::Ok,
                         "replay device rejected the bitstream");
        }
        replay.stop();
        trace.end(repSpan);
    });

    // Each rep's deployment minus the same rep's replayed layers: the
    // pairing cancels the host's drift between reps.
    std::vector<double> unattributed;
    for (size_t i = 0; i < untraced.size(); ++i) {
        double replayS = sha[i] + patch[i] + enc[i] + dec[i] + loadSelf[i];
        result.check(replayS <= untraced[i] * (1 + kHostBound),
                     "replayed layers exceed the deployment they replay");
        unattributed.push_back(untraced[i] - replayS);
    }
    auto ms = [](const std::vector<double> &v) { return median(v) * 1e3; };
    const std::vector<MetricSpec> &l = kColdBootLayers;
    result.add(l[0], Kind::Layer, ms(sha));
    result.add(l[1], Kind::Layer, ms(patch));
    result.add(l[2], Kind::Layer, ms(enc));
    result.add(l[3], Kind::Layer, ms(dec));
    result.add(l[4], Kind::Layer, ms(loadSelf));
    result.add(l[5], Kind::Layer, ms(unattributed));
    result.add(l[6], Kind::Layer, ms(installs));
    // Specs 7..13 name the Fig. 9 rows, in the report's order.
    result.check(report.rows.size() == 7, "fig9 no longer has 7 phases");
    for (size_t i = 0; i < std::min<size_t>(report.rows.size(), 7); ++i) {
        const core::BootPhaseRow &row = report.rows[i];
        result.check(l[7 + i].name == "virt." + slug(row.phase) + "_ms",
                     "fig9 phase '" + row.phase + "' has no metric spec");
        result.add(l[7 + i], Kind::Layer, double(row.modelTime) / 1e6);
    }
    result.add(l[14], Kind::Layer, median(traced) / median(untraced));
    return result;
}

} // namespace salus::bench
