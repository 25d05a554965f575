/**
 * @file
 * Protocol walkthrough: paper Figure 3, executed one numbered step at
 * a time with narration — the secure RoT injection and CL booting
 * flow driven manually through the public APIs instead of the
 * Testbed's one-call client. Useful as executable documentation of
 * who talks to whom, over which channel, holding which secret.
 *
 *   $ ./protocol_walkthrough
 */

#include <cstdio>

#include "salus/salus.hpp"

using namespace salus;
using namespace salus::core;

namespace {

void
step(const char *number, const char *text)
{
    std::printf("\n(%s) %s\n", number, text);
}

} // namespace

int
main()
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    crypto::CtrDrbg rng(uint64_t(2026));

    std::printf("=== Salus secure boot, step by step (Fig. 3) ===\n");

    // ---------------- manufacturing phase -----------------------------
    step("mfg", "device manufacturing: random Key_device fused into "
                "eFUSE, DNA recorded, readback-disabled ICAP");
    manufacturer::Manufacturer mft(rng);
    tee::TeePlatform platform("walkthrough-host", rng);
    mft.provisionPlatform(platform);
    mft.allowSmEnclave(SmEnclaveApp::defaultMeasurement());
    auto device = mft.manufactureFpga(fpga::testModel());
    std::printf("    device DNA %014llx, key known only to the "
                "manufacturer's distribution service\n",
                static_cast<unsigned long long>(device->dna().value));

    // ---------------- development phase --------------------------------
    step("dev", "developer integrates the SM logic HDK, compiles the "
                "CL, records H and Loc_*, signs the release");
    DeveloperKit developer("walkthrough-dev", rng);
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {1000, 1000, 4, 0};
    ClArtifact artifact =
        developer.develop("walkthrough-v1", accel, device->model());
    std::printf("    artifact: %zu-byte bitstream, H = %02x%02x..., "
                "signed by the developer\n",
                artifact.bitstream.size(),
                ClMetadata::deserialize(artifact.metadata).digestH[0],
                ClMetadata::deserialize(artifact.metadata).digestH[1]);

    // ---------------- deployment phase ---------------------------------
    sim::VirtualClock clock;
    sim::CostModel cost;
    net::Network network(clock, cost);
    network.addEndpoint(endpoints::kUserClient);
    network.addEndpoint(endpoints::kCloudHost);
    network.addEndpoint(endpoints::kManufacturer);
    network.link(endpoints::kUserClient, endpoints::kCloudHost,
                 sim::LinkKind::Wan);
    network.link(endpoints::kCloudHost, endpoints::kManufacturer,
                 sim::LinkKind::IntraCloud);

    shell::Shell shell(*device, clock, cost);

    step("1", "CSP boots the instance: user enclave + SM enclave are "
              "loaded on the TEE-enabled host");
    if (!verifyArtifact(artifact, developer.publicKey())) {
        std::printf("artifact verification failed\n");
        return 1;
    }
    Bytes storedBitstream = artifact.bitstream; // cloud storage copy

    SmEnclaveDeps smDeps;
    smDeps.network = &network;
    smDeps.selfEndpoint = endpoints::kCloudHost;
    smDeps.manufacturerEndpoint = endpoints::kManufacturer;
    smDeps.devices = {{&shell, device->dna().value}};
    smDeps.fetchBitstream = [&]() -> ByteView { return storedBitstream; };
    smDeps.sim = {&clock, &cost};
    Bytes sealedJournal; // host storage for the SM's crash journal
    smDeps.journal = &sealedJournal;
    SmEnclaveApp smApp(platform, smDeps);

    SmTransport transport;
    transport.la1 = [&](ByteView m) { return smApp.laAnswer(0, m); };
    transport.la3 = [&](ByteView m) { return smApp.laConfirm(0, m); };
    transport.channel = [&](ByteView m) {
        return smApp.channelRequest(0, m);
    };
    UserEnclaveApp userApp(platform, UserEnclaveApp::defaultImage(),
                           SmEnclaveApp::defaultMeasurement(), transport,
                           smDeps.sim);

    network.on(endpoints::kManufacturer, "keyRequest", [&](ByteView req) {
        return mft
            .handleKeyRequest(manufacturer::KeyRequest::deserialize(req))
            .serialize();
    });
    network.on(endpoints::kCloudHost, "raRequest", [&](ByteView req) {
        return userApp.handleRaRequest(req);
    });
    network.on(endpoints::kCloudHost, "dataKey", [&](ByteView req) {
        Bytes ack(1);
        ack[0] = userApp.acceptDataKey(req) ? 1 : 0;
        return ack;
    });

    step("2", "data owner sends the RA request + bitstream metadata "
              "(H, Loc_*) over the WAN");
    step("3..7", "inside that one round trip: local attestation, "
                 "metadata hand-off, Key_device release to the "
                 "attested SM enclave, digest check, RoT injection by "
                 "bitstream manipulation, encryption, CL load, and "
                 "the SipHash CL attestation");
    ClientConfig cfg;
    cfg.expectedUserEnclave = userApp.measurement();
    cfg.expectedSm = SmEnclaveApp::defaultMeasurement();
    cfg.metadata = ClMetadata::deserialize(artifact.metadata);
    cfg.selfEndpoint = endpoints::kUserClient;
    cfg.cloudEndpoint = endpoints::kCloudHost;
    UserClient client(cfg, mft.verificationService(), network, rng,
                      smDeps.sim);
    UserClient::Outcome outcome = client.deployAndAttest();
    if (!outcome.ok) {
        std::printf("deployment failed: %s\n", outcome.failure.c_str());
        return 1;
    }

    step("8", "deferred RA report received and verified by the client "
              "-> it covers user enclave + SM enclave + CL in one "
              "quote (cascaded attestation)");
    step("9", "data owner uploads the data key, wrapped to the "
              "attested enclave; runtime traffic flows over the "
              "secure register channel");
    userApp.secureWrite(0x00, 20);
    userApp.secureWrite(0x08, 22);
    std::printf("    secure channel sanity: 20 + 22 = %llu\n",
                static_cast<unsigned long long>(
                    userApp.secureRead(0x80).value_or(0)));

    std::printf("\nshell telemetry: %llu register ops, %llu B DMA, "
                "%llu deployment(s) -- all opaque ciphertext\n",
                static_cast<unsigned long long>(
                    shell.ioStats().registerReads +
                    shell.ioStats().registerWrites),
                static_cast<unsigned long long>(
                    shell.ioStats().dmaBytesToDevice +
                    shell.ioStats().dmaBytesFromDevice),
                static_cast<unsigned long long>(
                    shell.ioStats().deployments));
    std::printf("virtual boot time: %s\n",
                sim::formatNanos(clock.now()).c_str());
    return 0;
}
