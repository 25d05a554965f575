/**
 * @file
 * Tests for the features beyond the paper's prototype that its text
 * calls for: multiple reconfigurable partitions (§4.7), sealed
 * device-key caching (standard SGX practice), and runtime
 * re-attestation (§2.1's deferred future work).
 */

#include <gtest/gtest.h>

#include "bitstream/compiler.hpp"
#include "common/errors.hpp"
#include "bitstream/encryptor.hpp"
#include "bitstream/manipulator.hpp"
#include "crypto/random.hpp"
#include "fpga/device.hpp"
#include "salus/cl_builder.hpp"
#include "salus/reg_channel.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"

using namespace salus;
using namespace salus::core;

namespace {

netlist::Cell
loopbackAccel(const char *name = "engine")
{
    netlist::Cell accel;
    accel.path = name;
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {100, 100, 0, 0};
    return accel;
}

/** Compiles, injects secrets, and encrypts a CL for one partition. */
struct TenantCl
{
    ClLayout layout;
    ClSecrets secrets;
    Bytes blob;

    TenantCl(const fpga::DeviceModelInfo &model, uint32_t partitionId,
             ByteView deviceKey, crypto::CtrDrbg &rng,
             const char *accelName)
    {
        ClDesign design = buildClDesign(
            std::string("cl_rp") + std::to_string(partitionId),
            loopbackAccel(accelName));
        layout = design.layout;

        bitstream::Compiler compiler(model.name);
        auto compiled = compiler.compile(
            design.netlist, *model.findPartition(partitionId));

        secrets = ClSecrets::generate(rng);
        bitstream::Manipulator::patchCell(compiled.file,
                                          compiled.logicLocations,
                                          layout.keyAttestPath,
                                          secrets.keyAttest);
        bitstream::Manipulator::patchCell(compiled.file,
                                          compiled.logicLocations,
                                          layout.keySessionPath,
                                          secrets.keySession);
        bitstream::Manipulator::patchCell(compiled.file,
                                          compiled.logicLocations,
                                          layout.ctrSessionPath,
                                          secrets.ctrBytes());
        blob = bitstream::encryptBitstream(
            compiled.file, deviceKey,
            bitstream::EncryptedHeader{model.name, partitionId}, rng);
    }
};

/** One Fig. 4a attestation against the SM logic of a partition. */
bool
attestPartition(fpga::FpgaDevice &device, const TenantCl &cl,
                uint32_t partitionId, uint64_t nonce)
{
    fpga::LoadedDesign *design = device.design(partitionId);
    if (!design)
        return false;
    fpga::IpBehavior *sm = design->behaviorAt(cl.layout.smCellPath);
    if (!sm)
        return false;
    uint64_t dna = device.dna().value;
    sm->writeRegister(kSmRegIn0, nonce);
    sm->writeRegister(kSmRegIn1, regchan::attestRequestMac(
                                     cl.secrets.keyAttest, nonce, dna));
    sm->writeRegister(kSmRegCmd, kSmCmdAttest);
    return sm->readRegister(kSmRegStatus) == kSmStatusOk &&
           sm->readRegister(kSmRegOut1) ==
               regchan::attestResponseMac(cl.secrets.keyAttest, nonce,
                                          dna);
}

} // namespace

// ---------------------------------------------------- multi-RP (§4.7)

TEST(MultiRp, IndependentLoadAndAttestPerPartition)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    crypto::CtrDrbg rng(uint64_t(71));
    fpga::DeviceModelInfo model = fpga::testModelMultiRp(3);
    fpga::FpgaDevice device(model, fpga::DeviceDna{0xabc123});
    Bytes deviceKey = rng.bytes(32);
    device.fuseKey(deviceKey);

    // Three tenants, three partitions, three distinct RoTs.
    std::vector<TenantCl> tenants;
    for (uint32_t rp = 0; rp < 3; ++rp) {
        tenants.emplace_back(model, rp, deviceKey, rng,
                             rp == 0 ? "alpha" : rp == 1 ? "beta"
                                                         : "gamma");
        ASSERT_EQ(device.loadEncryptedPartial(tenants[rp].blob),
                  fpga::LoadStatus::Ok)
            << "rp " << rp;
    }

    for (uint32_t rp = 0; rp < 3; ++rp) {
        EXPECT_TRUE(attestPartition(device, tenants[rp], rp, 100 + rp))
            << "rp " << rp;
        // Cross-partition key confusion must fail: tenant 0's key
        // cannot attest tenant 1's partition.
        if (rp != 0) {
            EXPECT_FALSE(
                attestPartition(device, tenants[0], rp, 200 + rp));
        }
    }

    // Secrets differ per partition (fresh RoT each).
    EXPECT_NE(tenants[0].secrets.keyAttest, tenants[1].secrets.keyAttest);
    EXPECT_NE(tenants[1].secrets.keyAttest, tenants[2].secrets.keyAttest);
}

TEST(MultiRp, ReloadingOnePartitionLeavesOthersIntact)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    crypto::CtrDrbg rng(uint64_t(72));
    fpga::DeviceModelInfo model = fpga::testModelMultiRp(2);
    fpga::FpgaDevice device(model, fpga::DeviceDna{0x5151});
    Bytes deviceKey = rng.bytes(32);
    device.fuseKey(deviceKey);

    TenantCl t0(model, 0, deviceKey, rng, "alpha");
    TenantCl t1(model, 1, deviceKey, rng, "beta");
    ASSERT_EQ(device.loadEncryptedPartial(t0.blob), fpga::LoadStatus::Ok);
    ASSERT_EQ(device.loadEncryptedPartial(t1.blob), fpga::LoadStatus::Ok);
    ASSERT_TRUE(attestPartition(device, t0, 0, 1));

    // Reprogram RP1 with a new tenant; RP0 must still attest.
    TenantCl t1b(model, 1, deviceKey, rng, "beta2");
    ASSERT_EQ(device.loadEncryptedPartial(t1b.blob),
              fpga::LoadStatus::Ok);
    EXPECT_TRUE(attestPartition(device, t0, 0, 2));
    EXPECT_TRUE(attestPartition(device, t1b, 1, 3));
    // The replaced tenant's key no longer works.
    EXPECT_FALSE(attestPartition(device, t1, 1, 4));
}

TEST(MultiRp, BitstreamForOnePartitionCannotLoadIntoAnother)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    crypto::CtrDrbg rng(uint64_t(73));
    fpga::DeviceModelInfo model = fpga::testModelMultiRp(2);
    fpga::FpgaDevice device(model, fpga::DeviceDna{0x7777});
    Bytes deviceKey = rng.bytes(32);
    device.fuseKey(deviceKey);

    // Compile for RP0 but claim RP1 in the encryption header: the
    // authenticated header/geometry cross-check rejects it.
    ClDesign design = buildClDesign("cl_rp0", loopbackAccel());
    bitstream::Compiler compiler(model.name);
    auto compiled =
        compiler.compile(design.netlist, *model.findPartition(0));
    Bytes blob = bitstream::encryptBitstream(
        compiled.file, deviceKey,
        bitstream::EncryptedHeader{model.name, 1}, rng);
    EXPECT_EQ(device.loadEncryptedPartial(blob),
              fpga::LoadStatus::GeometryMismatch);
}

// ------------------------------------------- sealed device-key cache

TEST(SealedKeyCache, ExportImportAcrossSmRestart)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    ASSERT_TRUE(tb.smApp().haveDeviceKey());

    Bytes sealed = tb.smApp().exportSealedDeviceKey();
    ASSERT_FALSE(sealed.empty());

    // Restart the SM application with the cached key: the next
    // deployment must not touch the manufacturer at all.
    ASSERT_TRUE(tb.restartSmApp(sealed));
    ASSERT_TRUE(tb.smApp().haveDeviceKey());

    sim::Nanos keyPhaseBefore =
        tb.clock().totalFor(phases::kDeviceKeyDist);
    UserClient::Outcome second = tb.runDeployment();
    ASSERT_TRUE(second.ok) << second.failure;
    EXPECT_EQ(tb.clock().totalFor(phases::kDeviceKeyDist),
              keyPhaseBefore)
        << "cached key must skip the key-distribution phase";
}

TEST(SealedKeyCache, TamperedOrForeignBlobRejected)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    Bytes sealed = tb.smApp().exportSealedDeviceKey();

    // Tampered blob.
    Bytes bad = sealed;
    bad[bad.size() / 2] ^= 1;
    ASSERT_TRUE(tb.restartSmApp()); // fresh instance, no key
    EXPECT_FALSE(tb.smApp().importSealedDeviceKey(bad));
    EXPECT_FALSE(tb.smApp().haveDeviceKey());

    // Blob sealed on a DIFFERENT platform cannot be imported here.
    TestbedConfig otherCfg;
    otherCfg.rngSeed = 99;
    Testbed other(otherCfg);
    other.installCl(loopbackAccel());
    ASSERT_TRUE(other.runDeployment().ok);
    Bytes foreign = other.smApp().exportSealedDeviceKey();
    EXPECT_FALSE(tb.smApp().importSealedDeviceKey(foreign));

    // Without a key, export yields nothing.
    EXPECT_TRUE(tb.smApp().exportSealedDeviceKey().empty());
}

// --------------------------------------------- runtime re-attestation

TEST(RuntimeAttestation, HeartbeatPassesOnIntactCl)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(tb.smApp().reattestCl()) << "heartbeat " << i;
    EXPECT_TRUE(tb.smApp().bootStatus().attested);
}

TEST(RuntimeAttestation, DetectsRuntimeBitstreamReplacement)
{
    // The attack the paper explicitly defers (§2.1): after a valid
    // boot, the CSP hot-swaps the CL. The periodic heartbeat catches
    // it because the impostor cannot hold this deployment's RoT.
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    ASSERT_TRUE(tb.smApp().reattestCl());

    // CSP loads its own (cleartext) CL into the partition at runtime.
    ClDesign impostor = buildClDesign("impostor", loopbackAccel("evil"));
    bitstream::Compiler compiler(tb.device().model().name);
    auto compiled = compiler.compile(
        impostor.netlist, tb.device().model().partitions[0]);
    ASSERT_EQ(tb.device().loadCleartextPartial(compiled.file),
              fpga::LoadStatus::Ok);

    EXPECT_FALSE(tb.smApp().reattestCl());
    EXPECT_FALSE(tb.smApp().bootStatus().attested);
}

TEST(RuntimeAttestation, RequiresCompletedBoot)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    Testbed tb;
    tb.installCl(loopbackAccel());
    EXPECT_FALSE(tb.smApp().reattestCl()); // nothing deployed yet
}

// ------------------------------------ authenticated memory traffic

#include "accel/accel_ip.hpp"
#include "crypto/sha256.hpp"
#include "accel/mem_crypto.hpp"
#include "accel/runner.hpp"

namespace {

std::unique_ptr<Testbed>
deployedAccelTestbed(accel::KernelId id, bool malicious = false,
                     shell::AttackPlan plan = {})
{
    accel::AccelIp::registerAll();
    TestbedConfig cfg;
    cfg.maliciousShell = malicious;
    cfg.attackPlan = plan;
    auto tb = std::make_unique<Testbed>(cfg);
    tb->installCl(accel::accelCellFor(accel::workload(id)));
    return tb;
}

} // namespace

TEST(AuthenticatedMemory, SealOpenRoundtripAndTamper)
{
    crypto::CtrDrbg rng(uint64_t(81));
    Bytes key = rng.bytes(32);
    Bytes data = rng.bytes(777);

    Bytes sealed = accel::memSealAuth(key, 5, accel::Dir::Input, data);
    EXPECT_EQ(sealed.size(), data.size() + 16);
    auto back = accel::memOpenAuth(key, 5, accel::Dir::Input, sealed);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, data);

    Bytes bad = sealed;
    bad[100] ^= 1;
    EXPECT_FALSE(
        accel::memOpenAuth(key, 5, accel::Dir::Input, bad).has_value());
    // Wrong direction or job id also fails (IV binding).
    EXPECT_FALSE(accel::memOpenAuth(key, 5, accel::Dir::Output, sealed)
                     .has_value());
    EXPECT_FALSE(
        accel::memOpenAuth(key, 6, accel::Dir::Input, sealed)
            .has_value());
    EXPECT_FALSE(
        accel::memOpenAuth(key, 5, accel::Dir::Input, Bytes(8))
            .has_value());
}

TEST(AuthenticatedMemory, EndToEndJobOnHonestPlatform)
{
    auto tb = deployedAccelTestbed(accel::KernelId::Affine);
    ASSERT_TRUE(tb->runDeployment().ok);

    accel::WorkloadRunner runner(accel::KernelId::Affine, 3, 0.15);
    accel::RunResult res = runner.runFpgaTeeAuthenticated(*tb);
    EXPECT_FALSE(res.tamperDetected);
    EXPECT_TRUE(res.outputCorrect);
}

TEST(AuthenticatedMemory, DmaTamperIsPositivelyDetected)
{
    // Contrast with AccelPipeline.DmaTamperCorruptsOutputVisibly: in
    // authenticated mode the violation is DETECTED, deterministically.
    shell::AttackPlan plan;
    plan.tamperDma = true;
    auto tb = deployedAccelTestbed(accel::KernelId::Affine, true, plan);
    ASSERT_TRUE(tb->runDeployment().ok);

    accel::WorkloadRunner runner(accel::KernelId::Affine, 4, 0.15);
    accel::RunResult res = runner.runFpgaTeeAuthenticated(*tb);
    EXPECT_TRUE(res.tamperDetected);
    EXPECT_FALSE(res.outputCorrect);
}

// ------------------------------------------- client policy pinning

TEST(ClientPolicy, MrSignerPinning)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    Testbed tb;
    tb.installCl(loopbackAccel());

    // Correct signer passes.
    tee::Measurement goodSigner =
        UserEnclaveApp::defaultImage().signerMeasurement();
    auto ok = tb.runDeployment([&](ClientConfig &cfg) {
        cfg.expectedUserSigner = goodSigner;
    });
    EXPECT_TRUE(ok.ok) << ok.failure;

    // Wrong signer is rejected even though MRENCLAVE matches.
    auto bad = tb.runDeployment([&](ClientConfig &cfg) {
        cfg.expectedUserSigner =
            crypto::Sha256::digest(bytesFromString("someone-else"));
    });
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.failure.find("MRSIGNER"), std::string::npos);
}

TEST(ClientPolicy, MinimumIsvSvnEnforced)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    Testbed tb;
    tb.installCl(loopbackAccel());

    auto ok = tb.runDeployment(
        [](ClientConfig &cfg) { cfg.minUserIsvSvn = 1; });
    EXPECT_TRUE(ok.ok) << ok.failure;

    auto bad = tb.runDeployment(
        [](ClientConfig &cfg) { cfg.minUserIsvSvn = 5; });
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.failure.find("security version"), std::string::npos);
}

// ------------------------------------------ developer-signed artifacts

#include "salus/developer.hpp"

TEST(DeveloperKit, PublishVerifyDeployRoundtrip)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    crypto::CtrDrbg devRng(uint64_t(91));
    DeveloperKit developer("acme-accel-co", devRng);

    Testbed tb;
    ClArtifact artifact = developer.develop(
        "loopback-v1", loopbackAccel(), tb.device().model());

    // The artifact is self-contained and survives the wire.
    ClArtifact shipped = ClArtifact::deserialize(artifact.serialize());
    EXPECT_TRUE(verifyArtifact(shipped, developer.publicKey()));

    // The data owner installs it pinned to the developer identity and
    // the whole secure boot proceeds as usual.
    ASSERT_TRUE(tb.installArtifact(shipped, developer.publicKey()));
    UserClient::Outcome outcome = tb.runDeployment();
    ASSERT_TRUE(outcome.ok) << outcome.failure;
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 5));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 5u);
}

TEST(DeveloperKit, TamperedArtifactsRejectedOffline)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    crypto::CtrDrbg devRng(uint64_t(92));
    DeveloperKit developer("acme-accel-co", devRng);
    Testbed tb;
    ClArtifact good = developer.develop("loopback-v1", loopbackAccel(),
                                        tb.device().model());

    // Bitstream swapped after signing: digest check fails.
    ClArtifact badBits = good;
    badBits.bitstream[100] ^= 1;
    EXPECT_FALSE(verifyArtifact(badBits, developer.publicKey()));
    EXPECT_FALSE(tb.installArtifact(badBits, developer.publicKey()));

    // Metadata edited after signing: signature fails.
    ClArtifact badMeta = good;
    badMeta.metadata[0] ^= 1;
    EXPECT_FALSE(verifyArtifact(badMeta, developer.publicKey()));

    // Re-signed by an impostor: identity pin fails.
    crypto::CtrDrbg evilRng(uint64_t(93));
    DeveloperKit impostor("evil-corp", evilRng);
    ClArtifact resigned = impostor.develop(
        "loopback-v1", loopbackAccel(), tb.device().model());
    EXPECT_TRUE(verifyArtifact(resigned, impostor.publicKey()));
    EXPECT_FALSE(verifyArtifact(resigned, developer.publicKey()));
    EXPECT_FALSE(tb.installArtifact(resigned, developer.publicKey()));

    // Garbage wire bytes fail cleanly.
    EXPECT_THROW(ClArtifact::deserialize(Bytes(7, 2)), SalusError);
}

TEST(DeveloperKit, SameArtifactDeploysOnManyDevices)
{
    // The decoupling Salus exists for (Table 1 "independent dev/dep"):
    // ONE signed release serves any number of rented devices.
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    crypto::CtrDrbg devRng(uint64_t(94));
    DeveloperKit developer("acme-accel-co", devRng);
    ClArtifact artifact;
    for (uint64_t seed : {10u, 20u, 30u}) {
        TestbedConfig cfg;
        cfg.rngSeed = seed;
        Testbed tb(cfg);
        if (seed == 10u) {
            artifact = developer.develop("release-1", loopbackAccel(),
                                         tb.device().model());
        }
        ASSERT_TRUE(tb.installArtifact(artifact, developer.publicKey()))
            << "seed " << seed;
        EXPECT_TRUE(tb.runDeployment().ok) << "seed " << seed;
    }
}

// --------------------------------------------------- boot reporting

#include "salus/boot_report.hpp"

TEST(BootReportTest, BreakdownMatchesClockAndRenders)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    BootReport report = buildBootReport(tb.clock());
    ASSERT_EQ(report.rows.size(), 7u);
    sim::Nanos sum = 0;
    for (const auto &row : report.rows) {
        EXPECT_EQ(row.modelTime, tb.clock().totalFor(row.phase));
        sum += row.modelTime;
    }
    EXPECT_EQ(sum, report.modelTotal);
    EXPECT_NEAR(report.paperTotalMs, 18835.0, 10.0);

    std::string table = report.render();
    EXPECT_NE(table.find("TOTAL"), std::string::npos);
    EXPECT_NE(table.find(phases::kBitstreamManip), std::string::npos);

    // On the test-scale device manipulation still dominates the
    // compute phases; dominant() must return a real row.
    EXPECT_FALSE(report.dominant().phase.empty());
}

// ------------------------- full-protocol multi-RP (paper §4.7, deep)

TEST(MultiRp, TwoFullTenantStacksOnOneDevice)
{
    // Unlike the register-level MultiRp tests above, this runs the
    // ENTIRE protocol stack twice — two user clients, two user
    // enclaves, two SM enclaves, one physical device with two
    // reconfigurable partitions — and checks the tenants stay
    // independent end to end.
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    crypto::CtrDrbg rng(uint64_t(4747));
    sim::VirtualClock clock;
    sim::CostModel cost;

    manufacturer::Manufacturer mft(rng);
    tee::TeePlatform platform("multi-rp-host", rng);
    mft.provisionPlatform(platform);
    mft.allowSmEnclave(SmEnclaveApp::defaultMeasurement());
    auto device = mft.manufactureFpga(fpga::testModelMultiRp(2));

    net::Network network(clock, cost);
    network.addEndpoint("mft");
    network.on("mft", "keyRequest", [&](ByteView req) {
        return mft
            .handleKeyRequest(
                manufacturer::KeyRequest::deserialize(req))
            .serialize();
    });

    struct Tenant
    {
        std::unique_ptr<shell::Shell> shell;
        std::unique_ptr<SmEnclaveApp> smApp;
        std::unique_ptr<UserEnclaveApp> userApp;
        ClMetadata metadata;
        std::string clientEp, hostEp;
        Bytes journal; ///< host storage for the SM's sealed journal
    };
    std::vector<Tenant> tenants(2);

    crypto::CtrDrbg devRng(uint64_t(4848));
    DeveloperKit developer("multi-rp-dev", devRng);

    for (uint32_t rp = 0; rp < 2; ++rp) {
        Tenant &t = tenants[rp];
        t.clientEp = "client-" + std::to_string(rp);
        t.hostEp = "host-" + std::to_string(rp);
        network.addEndpoint(t.clientEp);
        network.addEndpoint(t.hostEp);
        network.link(t.clientEp, t.hostEp, sim::LinkKind::Wan);
        network.link(t.hostEp, "mft", sim::LinkKind::IntraCloud);

        t.shell = std::make_unique<shell::Shell>(*device, clock, cost,
                                                 rp);

        ClArtifact artifact = developer.develop(
            "tenant" + std::to_string(rp), loopbackAccel(),
            device->model(), rp);
        ASSERT_TRUE(verifyArtifact(artifact, developer.publicKey()));
        t.metadata = ClMetadata::deserialize(artifact.metadata);
        Bytes storedBitstream = artifact.bitstream;

        SmEnclaveDeps deps;
        deps.network = &network;
        deps.selfEndpoint = t.hostEp;
        deps.manufacturerEndpoint = "mft";
        deps.devices = {{t.shell.get(), device->dna().value}};
        deps.fetchBitstream = [storedBitstream]() -> ByteView {
            return storedBitstream;
        };
        deps.sim = {&clock, &cost};
        deps.journal = &t.journal;
        t.smApp = std::make_unique<SmEnclaveApp>(platform, deps);

        SmTransport transport;
        SmEnclaveApp *sm = t.smApp.get();
        transport.la1 = [sm](ByteView m) { return sm->laAnswer(0, m); };
        transport.la3 = [sm](ByteView m) { return sm->laConfirm(0, m); };
        transport.channel = [sm](ByteView m) {
            return sm->channelRequest(0, m);
        };
        tee::EnclaveImage image = UserEnclaveApp::defaultImage();
        image.code = concatBytes(
            {image.code, bytesFromString(std::to_string(rp))});
        t.userApp = std::make_unique<UserEnclaveApp>(
            platform, image, SmEnclaveApp::defaultMeasurement(),
            transport, deps.sim);

        UserEnclaveApp *user = t.userApp.get();
        network.on(t.hostEp, "raRequest", [user](ByteView req) {
            return user->handleRaRequest(req);
        });
        network.on(t.hostEp, "dataKey", [user](ByteView req) {
            Bytes ack(1);
            ack[0] = user->acceptDataKey(req) ? 1 : 0;
            return ack;
        });
    }

    // Deploy both tenants (sequentially; same device, disjoint RPs).
    for (uint32_t rp = 0; rp < 2; ++rp) {
        Tenant &t = tenants[rp];
        ClientConfig cfg;
        cfg.expectedUserEnclave = t.userApp->measurement();
        cfg.expectedSm = SmEnclaveApp::defaultMeasurement();
        cfg.metadata = t.metadata;
        cfg.selfEndpoint = t.clientEp;
        cfg.cloudEndpoint = t.hostEp;
        UserClient client(cfg, mft.verificationService(), network, rng,
                          {&clock, &cost});
        UserClient::Outcome outcome = client.deployAndAttest();
        ASSERT_TRUE(outcome.ok) << "tenant " << rp << ": "
                                << outcome.failure;
    }

    // Both secure channels work, and they are independent state.
    ASSERT_TRUE(tenants[0].userApp->secureWrite(0x00, 0xAAAA));
    ASSERT_TRUE(tenants[1].userApp->secureWrite(0x00, 0xBBBB));
    EXPECT_EQ(tenants[0].userApp->secureRead(0x00), 0xAAAAu);
    EXPECT_EQ(tenants[1].userApp->secureRead(0x00), 0xBBBBu);

    // Runtime heartbeats hold for both; reloading tenant 1's RP does
    // not disturb tenant 0.
    EXPECT_TRUE(tenants[0].smApp->reattestCl());
    EXPECT_TRUE(tenants[1].smApp->reattestCl());
    device->clearPartition(1);
    EXPECT_TRUE(tenants[0].smApp->reattestCl());
    EXPECT_FALSE(tenants[1].smApp->reattestCl());
}
