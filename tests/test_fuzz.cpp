/**
 * @file
 * Robustness/property sweeps: every parser and protocol endpoint that
 * consumes attacker-controlled bytes is fed randomized corruptions and
 * must fail *cleanly* (typed error or rejection — never a crash, hang
 * or false accept). Seeded DRBG keeps every run reproducible.
 */

#include <gtest/gtest.h>

#include <set>

#include "bitstream/compiler.hpp"
#include "bitstream/encryptor.hpp"
#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crypto/aes_ctr.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/backend.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"
#include "manufacturer/manufacturer.hpp"
#include "salus/broker.hpp"
#include "salus/dma_channel.hpp"
#include "salus/messages.hpp"
#include "salus/scenario.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"
#include "tee/local_attest.hpp"
#include "tee/quote.hpp"

using namespace salus;

namespace {

/** Flips 1-4 random bits/bytes of a buffer. */
Bytes
corrupt(ByteView data, crypto::CtrDrbg &rng)
{
    Bytes out(data.begin(), data.end());
    if (out.empty())
        return out;
    size_t edits = 1 + rng.below(4);
    for (size_t i = 0; i < edits; ++i)
        out[rng.below(out.size())] ^= uint8_t(1 + rng.below(255));
    return out;
}

} // namespace

TEST(Fuzz, BitstreamFileParserNeverAcceptsCorruption)
{
    crypto::CtrDrbg rng(uint64_t(1001));
    netlist::Netlist design("top");
    netlist::Cell cell;
    cell.path = "top/x";
    cell.kind = netlist::CellKind::Bram;
    cell.resources = {0, 0, 1, 0};
    cell.init = rng.bytes(32);
    design.addCell(cell);

    bitstream::PartitionGeometry g;
    g.frameCount = 64;
    g.frameSize = 64;
    g.capacity = {100, 100, 10, 10};
    bitstream::Compiler compiler("fuzz-dev");
    Bytes valid = compiler.compile(design, g).file;

    for (int i = 0; i < 300; ++i) {
        Bytes bad = corrupt(valid, rng);
        if (bad == valid)
            continue;
        EXPECT_THROW(bitstream::Bitstream::fromFile(bad),
                     BitstreamError)
            << "iteration " << i;
    }
    // Truncations at every length class.
    for (size_t len : {size_t(0), size_t(3), size_t(17),
                       valid.size() / 2, valid.size() - 1}) {
        EXPECT_THROW(bitstream::Bitstream::fromFile(
                         ByteView(valid.data(), len)),
                     BitstreamError);
    }
    // The untouched file still parses (sanity).
    EXPECT_NO_THROW(bitstream::Bitstream::fromFile(valid));
}

TEST(Fuzz, EncryptedBitstreamNeverDecryptsWhenCorrupted)
{
    crypto::CtrDrbg rng(uint64_t(1002));
    Bytes key = rng.bytes(32);
    Bytes payload = rng.bytes(4096);
    Bytes blob = bitstream::encryptBitstream(
        payload, key, bitstream::EncryptedHeader{"dev", 0}, rng);

    for (int i = 0; i < 300; ++i) {
        Bytes bad = corrupt(blob, rng);
        if (bad == blob)
            continue;
        std::optional<Bytes> opened;
        try {
            opened = bitstream::decryptBitstream(bad, key);
        } catch (const SalusError &) {
            continue; // clean failure
        }
        EXPECT_FALSE(opened.has_value()) << "iteration " << i;
    }
    // Random noise of assorted sizes.
    for (size_t len : {size_t(0), size_t(1), size_t(16), size_t(333)}) {
        EXPECT_FALSE(
            bitstream::decryptBitstream(rng.bytes(len), key)
                .has_value());
    }
}

TEST(Fuzz, QuoteVerifierRejectsAllCorruptions)
{
    crypto::CtrDrbg rng(uint64_t(1003));
    manufacturer::Manufacturer mft(rng);
    tee::TeePlatform platform("p", rng);
    mft.provisionPlatform(platform);

    struct E : tee::Enclave
    {
        using tee::Enclave::createQuote;
        using tee::Enclave::Enclave;
    } enclave(platform, tee::EnclaveImage{"e", "s", 1,
                                          bytesFromString("code")});

    Bytes validWire = enclave.createQuote(Bytes(16, 1)).serialize();
    ASSERT_TRUE(mft.verificationService()
                    .verify(tee::Quote::deserialize(validWire))
                    .ok);

    for (int i = 0; i < 300; ++i) {
        Bytes bad = corrupt(validWire, rng);
        if (bad == validWire)
            continue;
        try {
            tee::Quote q = tee::Quote::deserialize(bad);
            EXPECT_FALSE(mft.verificationService().verify(q).ok)
                << "iteration " << i;
        } catch (const SalusError &) {
            // malformed wire: clean typed failure
        }
    }
}

TEST(Fuzz, KeyDistributionSurvivesGarbageRequests)
{
    crypto::CtrDrbg rng(uint64_t(1004));
    manufacturer::Manufacturer mft(rng);

    for (int i = 0; i < 200; ++i) {
        manufacturer::KeyRequest req;
        req.deviceDna = rng.nextU64();
        req.quote = rng.bytes(rng.below(200));
        req.wrapPubKey = rng.bytes(rng.below(128)); // incl. oversize
        manufacturer::KeyResponse resp = mft.handleKeyRequest(req);
        EXPECT_NE(resp.status, 0) << "iteration " << i;
        EXPECT_TRUE(resp.wrappedKey.empty());
    }
}

TEST(Fuzz, LocalAttestationRejectsRandomTranscripts)
{
    crypto::CtrDrbg rng(uint64_t(1005));
    tee::TeePlatform platform("p", rng);
    struct E : tee::Enclave
    {
        using tee::Enclave::Enclave;
    } a(platform, tee::EnclaveImage{"a", "s", 1, bytesFromString("ca")}),
        b(platform, tee::EnclaveImage{"b", "s", 1, bytesFromString("cb")});

    for (int i = 0; i < 100; ++i) {
        tee::LocalAttestResponder resp(b, a.measurement());
        Bytes junk1 = rng.bytes(rng.below(128));
        auto msg2 = resp.answer(junk1);
        if (msg2) {
            // Parsable msg1 shapes may elicit a response, but the
            // handshake must never complete from junk.
            EXPECT_FALSE(resp.confirm(rng.bytes(rng.below(128))));
        }
        EXPECT_FALSE(resp.established());

        tee::LocalAttestInitiator init(a, b.measurement());
        init.start();
        EXPECT_FALSE(init.finish(rng.bytes(rng.below(256))).has_value());
        EXPECT_FALSE(init.established());
    }
}

TEST(Fuzz, ChannelSealOpenRejectsAllTampering)
{
    crypto::CtrDrbg rng(uint64_t(1006));
    Bytes key = rng.bytes(32);

    for (int i = 0; i < 200; ++i) {
        uint64_t seq = rng.nextU64() % 1000;
        Bytes plain = rng.bytes(rng.below(96));
        Bytes sealed = core::channelSeal(key, "dir-a", seq, plain);

        // Correct open works.
        auto ok = core::channelOpen(key, "dir-a", seq, sealed);
        ASSERT_TRUE(ok.has_value());
        EXPECT_EQ(*ok, plain);

        // Any corruption, wrong direction, or wrong sequence fails.
        Bytes bad = corrupt(sealed, rng);
        if (bad != sealed) {
            EXPECT_FALSE(
                core::channelOpen(key, "dir-a", seq, bad).has_value());
        }
        EXPECT_FALSE(
            core::channelOpen(key, "dir-b", seq, sealed).has_value());
        EXPECT_FALSE(core::channelOpen(key, "dir-a", seq + 1, sealed)
                         .has_value());
    }
}

TEST(Fuzz, NetlistRoundtripRandomDesigns)
{
    crypto::CtrDrbg rng(uint64_t(1007));
    for (int iter = 0; iter < 50; ++iter) {
        netlist::Netlist nl("top" + std::to_string(iter));
        size_t cellCount = 1 + rng.below(20);
        for (size_t c = 0; c < cellCount; ++c) {
            netlist::Cell cell;
            cell.path = "top/c" + std::to_string(c);
            cell.kind = netlist::CellKind(rng.below(3));
            cell.resources = {uint32_t(rng.below(1000)),
                              uint32_t(rng.below(1000)),
                              uint32_t(rng.below(16)),
                              uint32_t(rng.below(8))};
            cell.init = rng.bytes(rng.below(64));
            cell.behaviorId = uint32_t(rng.below(100));
            cell.params = rng.bytes(rng.below(32));
            nl.addCell(std::move(cell));
        }
        netlist::Netlist back =
            netlist::Netlist::deserialize(nl.serialize());
        EXPECT_EQ(back.digest(), nl.digest()) << "iteration " << iter;
        EXPECT_EQ(back.cells().size(), nl.cells().size());
        EXPECT_EQ(back.totalResources().luts, nl.totalResources().luts);
    }
}

TEST(Fuzz, JournalParserNeverCrashesOnCorruption)
{
    crypto::CtrDrbg rng(uint64_t(1011));

    // A realistic journal: mid-rekey, a base and a derived session
    // with both reservations, retired keys.
    core::SmJournal j;
    j.version = 9;
    j.haveMetadata = 1;
    j.metadata = rng.bytes(48);
    j.deviceKeys.emplace_back(0x1111ull, rng.bytes(32));
    j.deviceKeys.emplace_back(0x2222ull, rng.bytes(32));
    j.activeDevice = 0;
    j.deployed = 1;
    j.attested = 1;
    j.haveSecrets = 1;
    j.keyAttest = rng.bytes(16);
    j.ctrBase = 100;
    j.havePendingRekey = 1;
    j.pendingRekeyMacKey = rng.bytes(32);
    j.pendingRekeyNonce = 7;
    j.sessions.push_back({0, rng.bytes(48), 0, 165, 66});
    j.sessions.push_back({1, rng.bytes(48), 101, 67, 130});
    j.retiredFingerprints.push_back(rng.bytes(32));
    j.retiredFingerprints.push_back(rng.bytes(32));
    Bytes valid = j.serialize();

    // Random corruptions: typed rejection or a clean parse — never a
    // crash, hang or unbounded allocation. (A content-byte flip that
    // still parses is fine at this layer; the enclave seal covers
    // integrity before these bytes are ever trusted.)
    for (int i = 0; i < 300; ++i) {
        Bytes bad = corrupt(valid, rng);
        try {
            core::SmJournal parsed = core::SmJournal::deserialize(bad);
            (void)parsed;
        } catch (const SerdeError &) {
            // expected for structural damage
        }
    }
    // Truncations at every length class must throw, not crash.
    for (size_t len = 0; len < valid.size(); ++len) {
        EXPECT_THROW(core::SmJournal::deserialize(
                         ByteView(valid.data(), len)),
                     SerdeError)
            << "length " << len;
    }
    // Pure garbage of assorted sizes.
    for (int i = 0; i < 200; ++i) {
        Bytes junk = rng.bytes(rng.below(256));
        try {
            core::SmJournal::deserialize(junk);
        } catch (const SerdeError &) {
        }
    }
    // The untouched journal still round-trips (sanity).
    core::SmJournal back = core::SmJournal::deserialize(valid);
    EXPECT_EQ(back.serialize(), valid);
}

TEST(Fuzz, SmChannelEndpointSurvivesGarbage)
{
    fpga::ensureBuiltinIps();
    core::SmLogic::registerIp();
    core::Testbed tb;
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {10, 10, 0, 0};
    tb.installCl(accel);
    ASSERT_TRUE(tb.runDeployment().ok);

    crypto::CtrDrbg rng(uint64_t(1008));
    for (int i = 0; i < 200; ++i) {
        Bytes junk = rng.bytes(rng.below(128));
        EXPECT_TRUE(tb.smApp().channelRequest(0, junk).empty());
    }
    // The legitimate channel still works afterwards.
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 5));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 5u);
}

TEST(Fuzz, RegisterInterfaceSweepNeverCrashes)
{
    // Sweep every register of both windows with random writes, then
    // confirm the platform still functions.
    fpga::ensureBuiltinIps();
    core::SmLogic::registerIp();
    core::Testbed tb;
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {10, 10, 0, 0};
    tb.installCl(accel);
    ASSERT_TRUE(tb.runDeployment().ok);

    crypto::CtrDrbg rng(uint64_t(1009));
    for (int i = 0; i < 500; ++i) {
        auto window = rng.below(2) ? pcie::Window::SmSecure
                                   : pcie::Window::Direct;
        uint32_t addr = uint32_t(rng.below(0x200));
        if (rng.below(2))
            tb.shell().registerWrite(window, addr, rng.nextU64());
        else
            tb.shell().registerRead(window, addr);
    }
    // The SM logic may have consumed hostile commands, but the secure
    // channel must still be intact (counters only move forward).
    EXPECT_TRUE(tb.userApp().secureWrite(0x08, 77));
    EXPECT_EQ(tb.userApp().secureRead(0x08), 77u);
}

TEST(Fuzz, SecureChannelStatefulShadowModel)
{
    // Stateful fuzz: a random interleaving of legitimate channel
    // operations, re-keys, attacker replays and garbage commands.
    // Invariant: a legitimate read always returns the shadow model's
    // value, i.e. no attacker action ever silently mutates or rolls
    // back accelerator state.
    fpga::ensureBuiltinIps();
    core::SmLogic::registerIp();

    core::TestbedConfig cfg;
    cfg.maliciousShell = true;
    core::Testbed tb(cfg);
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {10, 10, 0, 0};
    tb.installCl(accel);
    ASSERT_TRUE(tb.runDeployment().ok);

    crypto::CtrDrbg rng(uint64_t(4242));
    std::map<uint32_t, uint64_t> shadow; // scratch regs 0x00..0x78
    auto randomScratchAddr = [&] {
        return uint32_t(rng.below(16)) * 8;
    };

    int legitimateOps = 0;
    for (int step = 0; step < 400; ++step) {
        switch (rng.below(6)) {
          case 0:
          case 1: { // legitimate write
            uint32_t addr = randomScratchAddr();
            uint64_t value = rng.nextU64();
            ASSERT_TRUE(tb.userApp().secureWrite(addr, value))
                << "step " << step;
            shadow[addr] = value;
            ++legitimateOps;
            break;
          }
          case 2: { // legitimate read, checked against the shadow
            uint32_t addr = randomScratchAddr();
            auto got = tb.userApp().secureRead(addr);
            ASSERT_TRUE(got.has_value()) << "step " << step;
            uint64_t expect =
                shadow.count(addr) ? shadow[addr] : 0;
            ASSERT_EQ(*got, expect) << "step " << step;
            ++legitimateOps;
            break;
          }
          case 3: // attacker replays everything recorded so far
            tb.maliciousShell()->replayRecordedSmWrites();
            break;
          case 4: { // attacker injects garbage SM commands
            auto &sh = tb.shell();
            for (int j = 0; j < 3; ++j) {
                sh.registerWrite(pcie::Window::SmSecure,
                                 uint32_t(rng.below(0x60)),
                                 rng.nextU64());
            }
            sh.registerWrite(pcie::Window::SmSecure, core::kSmRegCmd,
                             rng.below(6));
            break;
          }
          case 5: // legitimate session re-key
            ASSERT_TRUE(tb.userApp().rekeySession())
                << "step " << step;
            break;
        }
    }
    EXPECT_GT(legitimateOps, 50);

    // Final sweep: every shadowed register still holds its value.
    for (const auto &[addr, value] : shadow)
        EXPECT_EQ(tb.userApp().secureRead(addr), value)
            << "addr 0x" << std::hex << addr;
}

TEST(Fuzz, BatchParserNeverCrashesOrFalselyAccepts)
{
    // The fabric-side burst parser consumes attacker-controlled bytes
    // (session id, stride base, payload, MAC). Random and mutated
    // bursts must be rejected cleanly; only the genuine seal opens.
    using namespace core::regchan;
    crypto::CtrDrbg rng(uint64_t(2024));
    crypto::Aes aes(rng.bytes(16));
    crypto::HmacSha256 mac(rng.bytes(32));

    for (int i = 0; i < 300; ++i) {
        SealedRegBatch junk;
        junk.sessionId = uint32_t(rng.nextU64());
        junk.ctrBase = rng.nextU64();
        junk.payload = rng.bytes(rng.below(6 * kRegBatchBlock));
        junk.mac = rng.nextU64();
        EXPECT_FALSE(openBatch(aes, mac, junk).has_value());

        SealedBatchResponse junkRsp;
        junkRsp.payload = rng.bytes(rng.below(6 * kRegBatchBlock));
        junkRsp.mac = rng.nextU64();
        EXPECT_FALSE(openBatchResponse(aes, mac,
                                       uint32_t(rng.nextU64()),
                                       rng.nextU64(), rng.below(8),
                                       junkRsp)
                         .has_value());
    }

    std::vector<RegOp> ops;
    for (uint32_t i = 0; i < 8; ++i)
        ops.push_back({i % 2 == 0, 8 * i, rng.nextU64()});
    SealedRegBatch good = sealBatch(aes, mac, 1, 1000, ops);
    for (int i = 0; i < 300; ++i) {
        SealedRegBatch bad = good;
        switch (rng.below(4)) {
          case 0:
            bad.payload = corrupt(good.payload, rng);
            break;
          case 1:
            bad.mac ^= uint64_t(1) << rng.below(64);
            break;
          case 2:
            bad.sessionId ^= uint32_t(1 + rng.below(0xffff));
            break;
          case 3:
            bad.ctrBase ^= uint64_t(1) << rng.below(64);
            break;
        }
        EXPECT_FALSE(openBatch(aes, mac, bad).has_value());
    }
    EXPECT_TRUE(openBatch(aes, mac, good).has_value());
}

TEST(Fuzz, BurstRegisterSweepNeverWedgesTheFabric)
{
    // Random traffic against the burst FIFO registers and the batch/
    // open-session commands must never crash the SM logic or wedge
    // the legitimate batched channel.
    fpga::ensureBuiltinIps();
    core::SmLogic::registerIp();
    core::Testbed tb;
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {10, 10, 0, 0};
    tb.installCl(accel);
    ASSERT_TRUE(tb.runDeployment().ok);

    crypto::CtrDrbg rng(uint64_t(3030));
    auto &sh = tb.shell();
    for (int i = 0; i < 400; ++i) {
        switch (rng.below(5)) {
          case 0:
            sh.registerWrite(pcie::Window::SmSecure,
                             core::kSmRegBurstIn, rng.nextU64());
            break;
          case 1:
            sh.registerRead(pcie::Window::SmSecure,
                            core::kSmRegBurstOut);
            break;
          case 2:
            sh.registerWrite(pcie::Window::SmSecure,
                             core::kSmRegBurstReset, 0);
            break;
          case 3: { // garbage batch command
            for (int r = 0; r < 4; ++r)
                sh.registerWrite(pcie::Window::SmSecure,
                                 core::kSmRegIn0 + 8 * r,
                                 rng.nextU64());
            sh.registerWrite(pcie::Window::SmSecure, core::kSmRegCmd,
                             core::kSmCmdSecureBatch);
            break;
          }
          case 4: // garbage open-session command
            sh.registerWrite(pcie::Window::SmSecure, core::kSmRegCmd,
                             core::kSmCmdOpenSession);
            break;
        }
    }

    // Both channel paths still work after the sweep.
    auto results = tb.smApp().secureRegBatch(
        0, {{true, 0x00, 99}, {false, 0x00, 0}});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, 0);
    EXPECT_EQ(results[1].data, 99u);
    EXPECT_TRUE(tb.userApp().secureWrite(0x08, 7));
    EXPECT_EQ(tb.userApp().secureRead(0x08), 7u);
}

TEST(Fuzz, BrokerRequestDecodeNeverCrashesOrFalselyAccepts)
{
    crypto::CtrDrbg rng(uint64_t(6001));
    core::BrokerRequest valid;
    valid.kind = core::BrokerRequest::Kind::SubmitOp;
    valid.tenant = 2;
    valid.session = 3;
    valid.op = {true, 0x10, 0x1234};
    Bytes wire = valid.serialize();

    for (int i = 0; i < 400; ++i) {
        Bytes bad = corrupt(wire, rng);
        if (rng.below(4) == 0)
            bad.resize(rng.below(bad.size() + 1));
        try {
            core::BrokerRequest back =
                core::BrokerRequest::deserialize(bad);
            // Accepted garbage must still decode to a sane request: a
            // defined kind, never a truncated/oversized frame.
            EXPECT_GE(uint8_t(back.kind), 1);
            EXPECT_LE(uint8_t(back.kind), 3);
        } catch (const SalusError &) {
            // typed rejection — the expected outcome
        }
    }
    // Pure-noise frames of every small length.
    for (size_t len = 0; len < 40; ++len) {
        Bytes noise = rng.bytes(len);
        try {
            (void)core::BrokerRequest::deserialize(noise);
        } catch (const SalusError &) {
        }
    }
}

TEST(Fuzz, ScenarioParserNeverCrashesOnMangledCampaigns)
{
    crypto::CtrDrbg rng(uint64_t(6002));
    const std::string seedFile =
        "[scenario]\nname = fuzz\nseed = 3\nsweeps = 8\n"
        "[broker]\nmax_total_queued_ops = 64\n"
        "[tenant a]\nweight = 2\npattern = flood\nops_per_sweep = 4\n"
        "[fault]\nkind = seu\npartition = 0\nbit = 2567\n"
        "[action]\nkind = rekey\nat_sweep = 2\n"
        "[expect]\ncompleted_min = 1\n";

    for (int i = 0; i < 400; ++i) {
        Bytes mangled = corrupt(
            ByteView(reinterpret_cast<const uint8_t *>(seedFile.data()),
                     seedFile.size()),
            rng);
        if (rng.below(4) == 0)
            mangled.resize(rng.below(mangled.size() + 1));
        std::string text(mangled.begin(), mangled.end());
        try {
            core::Scenario sc = core::parseScenario(text);
            // A parse that survives mangling must still be in-bounds
            // (the validator runs inside parseScenario).
            EXPECT_GE(sc.sweeps, 1u);
            EXPECT_LE(sc.devices, 16u);
            EXPECT_LE(sc.tenants.size(), 16u);
        } catch (const SalusError &) {
            // ScenarioError — typo-level strictness is the contract
        }
    }
}

TEST(Fuzz, DmaDescriptorDecodeNeverCrashesOrFalselyAccepts)
{
    crypto::CtrDrbg rng(uint64_t(6003));
    crypto::AesGcm key(rng.bytes(16));
    core::dmachan::DmaDescriptor d;
    d.sessionId = 1;
    d.seq = 3;
    d.ctrBase = 3 * core::dmachan::kDmaCtrStride;
    d.sg = {{0x1000, 512}, {0x2000, 512}};
    Bytes valid = core::dmachan::encodeDescriptor(key, d, rng.bytes(1024));

    for (int i = 0; i < 400; ++i) {
        Bytes bad = corrupt(valid, rng);
        if (rng.below(4) == 0)
            bad.resize(rng.below(bad.size() + 1));
        if (bad == valid)
            continue;
        try {
            core::dmachan::DmaDescriptor back =
                core::dmachan::decodeDescriptor(bad);
            // A parse that survives mangling stays inside the wire
            // format's bounds — and NEVER carries a valid MAC.
            EXPECT_LE(back.sg.size(), core::dmachan::kDmaMaxSg);
            EXPECT_LE(back.payload.size(),
                      core::dmachan::kDmaMaxPayload);
            EXPECT_FALSE(core::dmachan::verifyDescriptorMac(key, bad))
                << "iteration " << i;
        } catch (const SalusError &) {
            // typed rejection — the expected outcome
        }
    }
    for (size_t len = 0; len < 64; ++len) {
        Bytes noise = rng.bytes(len);
        try {
            (void)core::dmachan::decodeDescriptor(noise);
        } catch (const SalusError &) {
        }
    }
    EXPECT_NO_THROW(core::dmachan::decodeDescriptor(valid));
    EXPECT_TRUE(core::dmachan::verifyDescriptorMac(key, valid));
}

// ---- libFuzzer entry points -----------------------------------------
// The CI fuzz-smoke job builds one fuzz_<entry> binary per function
// below (see the SALUS_FUZZERS option in tests/CMakeLists.txt and
// tests/fuzz_main.cpp) and runs each for a fixed-seed 30 s burst.
// Every entry wraps one parser/endpoint that consumes attacker-
// controlled bytes; the contract is the same as the sweeps above —
// typed rejection or clean parse, never a crash, hang or leak. The
// entries compile under plain gcc too (they are ordinary functions),
// so the tier-1 build keeps them from rotting.

extern "C" int
salus_fuzz_bitstream_file(const uint8_t *data, size_t size)
{
    try {
        (void)bitstream::Bitstream::fromFile(ByteView(data, size));
    } catch (const SalusError &) {
    }
    return 0;
}

extern "C" int
salus_fuzz_encrypted_bitstream(const uint8_t *data, size_t size)
{
    static const Bytes key(32, 0x5a);
    try {
        (void)bitstream::decryptBitstream(ByteView(data, size),
                                          key);
    } catch (const SalusError &) {
    }
    return 0;
}

extern "C" int
salus_fuzz_quote(const uint8_t *data, size_t size)
{
    try {
        (void)tee::Quote::deserialize(ByteView(data, size));
    } catch (const SalusError &) {
    }
    return 0;
}

extern "C" int
salus_fuzz_journal(const uint8_t *data, size_t size)
{
    try {
        (void)core::SmJournal::deserialize(ByteView(data, size));
    } catch (const SalusError &) {
    }
    return 0;
}

extern "C" int
salus_fuzz_netlist(const uint8_t *data, size_t size)
{
    try {
        (void)netlist::Netlist::deserialize(ByteView(data, size));
    } catch (const SalusError &) {
    }
    return 0;
}

extern "C" int
salus_fuzz_channel_open(const uint8_t *data, size_t size)
{
    static const Bytes key(32, 0x3c);
    try {
        (void)core::channelOpen(key, "fuzz", 0,
                                ByteView(data, size));
    } catch (const SalusError &) {
    }
    return 0;
}

extern "C" int
salus_fuzz_migration_ticket(const uint8_t *data, size_t size)
{
    try {
        (void)core::MigrationTicket::deserialize(ByteView(data, size));
    } catch (const SalusError &) {
    }
    return 0;
}

extern "C" int
salus_fuzz_placement_state(const uint8_t *data, size_t size)
{
    try {
        (void)core::Placement::deserializeState(ByteView(data, size));
    } catch (const SalusError &) {
    }
    return 0;
}

extern "C" int
salus_fuzz_broker_request(const uint8_t *data, size_t size)
{
    try {
        (void)core::BrokerRequest::deserialize(ByteView(data, size));
    } catch (const SalusError &) {
    }
    return 0;
}

extern "C" int
salus_fuzz_scenario_file(const uint8_t *data, size_t size)
{
    std::string text(reinterpret_cast<const char *>(data), size);
    try {
        (void)core::parseScenario(text);
    } catch (const SalusError &) {
    }
    return 0;
}

extern "C" int
salus_fuzz_dma_descriptor(const uint8_t *data, size_t size)
{
    static const crypto::AesGcm key(Bytes(16, 0x77));
    try {
        (void)core::dmachan::decodeDescriptor(ByteView(data, size));
        (void)core::dmachan::verifyDescriptorMac(key,
                                                 ByteView(data, size));
    } catch (const SalusError &) {
    }
    return 0;
}

extern "C" int
salus_fuzz_dma_window(const uint8_t *data, size_t size)
{
    // The fuzz input scripts a hostile fabric under the sliding-window
    // engine: one byte per delivered descriptor decides drop/accept,
    // one per ack readback decides forgery. Exhausted input reads as 0
    // (always-drop, forged acks), so every run is bounded by the
    // engine's attempt cap — the contract is termination with a typed
    // report, never a hang.
    size_t cursor = 0;
    auto nextByte = [&]() -> uint8_t {
        return cursor < size ? data[cursor++] : 0;
    };
    uint64_t applied = 0;
    std::set<uint64_t> buffered;
    sim::VirtualClock clock;
    sim::CostModel cost;
    core::dmachan::DmaWindowHooks hooks;
    hooks.sim = {&clock, &cost};
    hooks.deliver = [&](uint64_t seq, const Bytes &) {
        uint8_t b = nextByte();
        if (b % 4 == 0 || seq < applied)
            return; // lost on the wire / replay ignored
        buffered.insert(seq);
        while (buffered.count(applied)) {
            buffered.erase(applied);
            ++applied;
        }
    };
    hooks.readAck = [&](uint64_t &ackSeq) {
        if (nextByte() % 7 == 0)
            return false; // forged ack
        ackSeq = applied;
        return true;
    };
    core::dmachan::DmaWindowEngine::Options opts;
    opts.window = 1 + nextByte() % core::dmachan::kDmaMaxWindow;
    opts.maxAttempts = 1 + nextByte() % 8;
    std::vector<core::dmachan::DmaDescriptorWork> work;
    size_t n = 1 + nextByte() % 32;
    for (size_t i = 0; i < n; ++i) {
        core::dmachan::DmaDescriptorWork w;
        w.seq = i;
        w.payloadBytes = 64;
        w.seal = [i] { return Bytes(64, uint8_t(i)); };
        work.push_back(std::move(w));
    }
    core::dmachan::DmaWindowEngine engine(hooks, opts);
    (void)engine.run(work);
    return 0;
}

extern "C" int
salus_fuzz_aes_backend(const uint8_t *data, size_t size)
{
    // Differential harness: the same AES-CTR and AES-GCM operations
    // run through the dispatch-selected backend and the forced-scalar
    // reference; any byte of disagreement traps. On hosts without the
    // ISA extensions both runs take the scalar path and the harness
    // degrades to a (still useful) determinism check. The AAD (up to
    // 1275 bytes, from data[2]) and the text (up to 16 KiB) both reach
    // GHASH's 32-block batches.
    if (size < 3)
        return 0;
    size_t keyLen = size_t(16) + 8 * (data[0] % 3); // 16/24/32
    size_t ivLen = (data[1] % 2) ? 12 : 16;
    size_t need = 3 + keyLen + 16;
    if (size < need)
        return 0;
    Bytes key(data + 3, data + 3 + keyLen);
    Bytes ctrBlock(data + 3 + keyLen, data + need);
    size_t aadLen = std::min<size_t>(size - need, 5 * size_t(data[2]));
    Bytes aad(data + need, data + need + aadLen);
    size_t msgLen = std::min<size_t>(size - need - aadLen, 16384);
    Bytes msg(data + need + aadLen, data + need + aadLen + msgLen);

    crypto::setForceScalar(false);
    Bytes fastCtr = crypto::aesCtrCrypt(key, ctrBlock, msg);
    crypto::AesGcm gcm(key);
    crypto::GcmSealed fastGcm =
        gcm.seal(ByteView(ctrBlock).subspan(0, ivLen), aad, msg);

    crypto::setForceScalar(true);
    Bytes slowCtr = crypto::aesCtrCrypt(key, ctrBlock, msg);
    crypto::GcmSealed slowGcm =
        gcm.seal(ByteView(ctrBlock).subspan(0, ivLen), aad, msg);
    crypto::setForceScalar(false);

    if (fastCtr != slowCtr || fastGcm.ciphertext != slowGcm.ciphertext ||
        fastGcm.tag != slowGcm.tag)
        __builtin_trap(); // backends must be bit-identical
    return 0;
}

extern "C" int
salus_fuzz_sha_backend(const uint8_t *data, size_t size)
{
    // SHA-256 differential: one-shot and chunked updates through both
    // backends must agree bit for bit.
    if (size < 1)
        return 0;
    size_t chunk = 1 + data[0] % 128;
    ByteView msg(data + 1, size - 1);

    crypto::setForceScalar(false);
    Bytes fast = crypto::Sha256::digest(msg);

    crypto::setForceScalar(true);
    Bytes slow = crypto::Sha256::digest(msg);
    crypto::Sha256 chunked;
    for (size_t off = 0; off < msg.size(); off += chunk)
        chunked.update(msg.subspan(off, std::min(chunk,
                                                 msg.size() - off)));
    Bytes slowChunked = chunked.finish();
    crypto::setForceScalar(false);

    if (fast != slow || fast != slowChunked)
        __builtin_trap(); // backends must be bit-identical
    return 0;
}

TEST(Fuzz, AesBackendDifferentialSweep)
{
    // Drives the libFuzzer entry with seeded random inputs so the
    // scalar/hardware equivalence check runs in every tier-1 build,
    // not just the clang fuzz-smoke job.
    crypto::CtrDrbg rng(0xd1ff01);
    for (int i = 0; i < 200; ++i) {
        Bytes input = rng.bytes(3 + 48 + 16 + rng.below(1275 + 16384));
        salus_fuzz_aes_backend(input.data(), input.size());
    }
}

TEST(Fuzz, ShaBackendDifferentialSweep)
{
    crypto::CtrDrbg rng(0xd1ff02);
    for (int i = 0; i < 200; ++i) {
        Bytes input = rng.bytes(1 + rng.below(1024));
        salus_fuzz_sha_backend(input.data(), input.size());
    }
}
