/**
 * @file
 * Secure DMA data-plane tests: descriptor wire-format round trips and
 * rejection properties, fabric-side window semantics (replay, reorder,
 * sync, cross-session isolation) driven at the register level, the
 * host sliding-window engine end to end through the testbed (fault
 * recovery, determinism, scheduler coexistence), and a crash sweep
 * over the DMA journal steps.
 */

#include <gtest/gtest.h>

#include "bitstream/compiler.hpp"
#include "common/serde.hpp"
#include "bitstream/encryptor.hpp"
#include "bitstream/manipulator.hpp"
#include "crypto/random.hpp"
#include "fpga/device.hpp"
#include "obs/trace.hpp"
#include "salus/cl_builder.hpp"
#include "salus/dma_channel.hpp"
#include "salus/secrets.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"

using namespace salus;
using namespace salus::core;

namespace {

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

Bytes
pattern(size_t n, uint64_t salt = 0)
{
    Bytes out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = uint8_t(salt * 131 + i * 7 + 3);
    return out;
}

struct DmaKeys
{
    Bytes aes;
    Bytes mac;
};

DmaKeys
testKeys(uint64_t seed)
{
    crypto::CtrDrbg rng(seed);
    return {rng.bytes(16), rng.bytes(32)};
}

/** Builds a sealed write descriptor scattering `plain` to `addr`. */
Bytes
sealWrite(const DmaKeys &k, uint32_t sessionId, uint64_t seq, bool sync,
          uint64_t addr, ByteView plain)
{
    dmachan::DmaDescriptor d;
    d.read = false;
    d.sync = sync;
    d.sessionId = sessionId;
    d.seq = seq;
    d.ctrBase = seq * dmachan::kDmaCtrStride;
    d.sg.push_back({addr, uint32_t(plain.size())});
    d.payload.assign(plain.begin(), plain.end());
    dmachan::cryptDmaPayload(k.aes, /*read=*/false, d.ctrBase,
                             d.payload.data(), d.payload.size());
    return dmachan::encodeDescriptor(k.mac, d);
}

/** Builds a sealed read (gather) descriptor. */
Bytes
sealRead(const DmaKeys &k, uint32_t sessionId, uint64_t seq,
         uint64_t addr, uint32_t len, uint64_t respAddr)
{
    dmachan::DmaDescriptor d;
    d.read = true;
    d.sessionId = sessionId;
    d.seq = seq;
    d.ctrBase = seq * dmachan::kDmaCtrStride;
    d.respAddr = respAddr;
    d.sg.push_back({addr, len});
    return dmachan::encodeDescriptor(k.mac, d);
}

} // namespace

// ---- wire format ----------------------------------------------------

TEST(DmaDescriptor, WriteRoundTripPreservesEveryField)
{
    DmaKeys k = testKeys(21);
    Bytes plain = pattern(4096, 1);
    for (uint64_t seq : {uint64_t(0), uint64_t(7), uint64_t(1) << 32}) {
        dmachan::DmaDescriptor d;
        d.sync = seq == 0;
        d.sessionId = 3;
        d.seq = seq;
        d.ctrBase = seq * dmachan::kDmaCtrStride;
        d.sg = {{0x1000, 1024}, {0x9000, 3072}};
        d.payload = plain;
        dmachan::cryptDmaPayload(k.aes, false, d.ctrBase,
                                 d.payload.data(), d.payload.size());
        EXPECT_NE(d.payload, plain) << "payload not encrypted";

        Bytes encoded = dmachan::encodeDescriptor(k.mac, d);
        EXPECT_TRUE(dmachan::verifyDescriptorMac(k.mac, encoded));
        dmachan::DmaDescriptor back = dmachan::decodeDescriptor(encoded);
        EXPECT_EQ(back.read, d.read);
        EXPECT_EQ(back.sync, d.sync);
        EXPECT_EQ(back.sessionId, d.sessionId);
        EXPECT_EQ(back.seq, d.seq);
        EXPECT_EQ(back.ctrBase, d.ctrBase);
        ASSERT_EQ(back.sg.size(), d.sg.size());
        for (size_t i = 0; i < d.sg.size(); ++i) {
            EXPECT_EQ(back.sg[i].addr, d.sg[i].addr);
            EXPECT_EQ(back.sg[i].len, d.sg[i].len);
        }
        dmachan::cryptDmaPayload(k.aes, false, back.ctrBase,
                                 back.payload.data(),
                                 back.payload.size());
        EXPECT_EQ(back.payload, plain);
    }
}

TEST(DmaDescriptor, ReadRoundTripAndResponse)
{
    DmaKeys k = testKeys(22);
    Bytes encoded = sealRead(k, 2, 5, 0x4000, 512, 0x340000);
    dmachan::DmaDescriptor back = dmachan::decodeDescriptor(encoded);
    EXPECT_TRUE(back.read);
    EXPECT_EQ(back.respAddr, 0x340000u);
    EXPECT_TRUE(back.payload.empty());
    EXPECT_EQ(back.sgBytes(), 512u);

    Bytes plain = pattern(512, 2);
    Bytes blob = dmachan::sealReadResponse(k.aes, k.mac, 2, 5,
                                           back.ctrBase, plain);
    EXPECT_EQ(blob.size(), plain.size() + dmachan::kDmaRespOverhead);
    auto open = dmachan::openReadResponse(k.aes, k.mac, 2, 5,
                                          back.ctrBase, blob);
    ASSERT_TRUE(open.has_value());
    EXPECT_EQ(*open, plain);

    // Echoed-context mismatches and tampering are all fatal.
    EXPECT_FALSE(dmachan::openReadResponse(k.aes, k.mac, 3, 5,
                                           back.ctrBase, blob));
    EXPECT_FALSE(dmachan::openReadResponse(k.aes, k.mac, 2, 6,
                                           back.ctrBase, blob));
    Bytes flipped = blob;
    flipped[dmachan::kDmaRespHeaderBytes] ^= 0x80;
    EXPECT_FALSE(dmachan::openReadResponse(k.aes, k.mac, 2, 5,
                                           back.ctrBase, flipped));
}

TEST(DmaDescriptor, RejectsTruncationBitFlipsAndWrongKey)
{
    DmaKeys k = testKeys(23);
    Bytes plain = pattern(2048, 3);
    Bytes encoded = sealWrite(k, 1, 4, false, 0x2000, plain);

    for (size_t cut : {size_t(1), size_t(8), encoded.size() / 2}) {
        Bytes truncated(encoded.begin(),
                        encoded.end() - ptrdiff_t(cut));
        EXPECT_THROW(dmachan::decodeDescriptor(truncated), SerdeError)
            << "cut " << cut;
    }
    EXPECT_THROW(dmachan::decodeDescriptor(Bytes()), SerdeError);

    // A flip anywhere — header, sg list, payload, MAC — kills the MAC.
    for (size_t pos : {size_t(0), size_t(17), size_t(41),
                       dmachan::kDmaHeaderBytes + 13 + 100,
                       encoded.size() - 1}) {
        Bytes flipped = encoded;
        flipped[pos] ^= 0x01;
        EXPECT_FALSE(dmachan::verifyDescriptorMac(k.mac, flipped))
            << "pos " << pos;
    }

    DmaKeys other = testKeys(24);
    EXPECT_FALSE(dmachan::verifyDescriptorMac(other.mac, encoded));
    EXPECT_NE(dmachan::ackMac(k.mac, 1, 4),
              dmachan::ackMac(other.mac, 1, 4));
    EXPECT_NE(dmachan::ackMac(k.mac, 1, 4), dmachan::ackMac(k.mac, 2, 4));
    EXPECT_NE(dmachan::ackMac(k.mac, 1, 4), dmachan::ackMac(k.mac, 1, 5));
}

// ---- fabric-side window semantics -----------------------------------

namespace {

/** A loaded device with known injected secrets, driven at the SM
 *  register interface (no host enclave in the loop). */
struct FabricRig
{
    crypto::CtrDrbg rng{uint64_t(4242)};
    fpga::DeviceModelInfo model = fpga::testModel();
    fpga::FpgaDevice device{fpga::testModel(),
                            fpga::DeviceDna{0x5a5a5a5a5a5aULL}};
    ClSecrets secrets;
    fpga::IpBehavior *sm = nullptr;
    DmaKeys keys;

    FabricRig()
    {
        fpga::ensureBuiltinIps();
        SmLogic::registerIp();
        Bytes deviceKey = rng.bytes(32);
        device.fuseKey(deviceKey);

        ClDesign design = buildClDesign("cl", loopbackAccel());
        bitstream::Compiler compiler(model.name);
        auto compiled =
            compiler.compile(design.netlist, model.partitions[0]);
        secrets = ClSecrets::generate(rng);
        bitstream::Manipulator::patchCell(
            compiled.file, compiled.logicLocations,
            design.layout.keyAttestPath, secrets.keyAttest);
        bitstream::Manipulator::patchCell(
            compiled.file, compiled.logicLocations,
            design.layout.keySessionPath, secrets.keySession);
        bitstream::Manipulator::patchCell(
            compiled.file, compiled.logicLocations,
            design.layout.ctrSessionPath, secrets.ctrBytes());
        bitstream::EncryptedHeader header{model.name, 0};
        Bytes blob = bitstream::encryptBitstream(compiled.file,
                                                 deviceKey, header, rng);
        EXPECT_EQ(device.loadEncryptedPartial(blob),
                  fpga::LoadStatus::Ok);
        sm = device.design(0)->behaviorAt(design.layout.smCellPath);
        EXPECT_NE(sm, nullptr);
        keys = {sliceBytes(secrets.keySession, 0, 16),
                sliceBytes(secrets.keySession, 16, 32)};
    }

    /** Stages `encoded` in DRAM and rings the doorbell. */
    uint64_t
    doorbell(const Bytes &encoded, uint64_t staging = 0x200000)
    {
        device.dram().write(staging, encoded);
        sm->writeRegister(kSmRegIn0, staging);
        sm->writeRegister(kSmRegIn1, encoded.size());
        sm->writeRegister(kSmRegCmd, kSmCmdDmaDoorbell);
        return sm->readRegister(kSmRegStatus);
    }

    uint64_t
    ack(uint32_t slot = 0)
    {
        sm->writeRegister(kSmRegIn0, slot);
        sm->writeRegister(kSmRegCmd, kSmCmdDmaAck);
        EXPECT_EQ(sm->readRegister(kSmRegStatus), kSmStatusOk);
        uint64_t seq = sm->readRegister(kSmRegOut0);
        EXPECT_EQ(sm->readRegister(kSmRegOut1),
                  dmachan::ackMac(keys.mac, slot, seq));
        return seq;
    }

    uint64_t stat(uint32_t reg) { return sm->readRegister(reg); }
};

} // namespace

TEST(DmaFabric, AppliesWriteAndAdvancesCumulativeAck)
{
    FabricRig rig;
    Bytes plain = pattern(4096, 4);
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, 0, true, 0x1000,
                                     plain)),
              kSmStatusOk);
    EXPECT_EQ(rig.ack(), 1u);
    EXPECT_EQ(rig.device.dram().read(0x1000, plain.size()), plain);
    EXPECT_EQ(rig.stat(kSmRegStatDmaOk), 1u);
    EXPECT_EQ(rig.stat(kSmRegStatDmaBytes), plain.size());
}

TEST(DmaFabric, RejectsReplayDuplicateAndBadCtrBinding)
{
    FabricRig rig;
    Bytes first = sealWrite(rig.keys, 0, 0, true, 0x1000,
                            pattern(256, 5));
    Bytes second = sealWrite(rig.keys, 0, 1, false, 0x1100,
                             pattern(256, 6));
    EXPECT_EQ(rig.doorbell(first), kSmStatusOk);
    EXPECT_EQ(rig.doorbell(second), kSmStatusOk);
    EXPECT_EQ(rig.ack(), 2u);

    // Replaying either applied descriptor — identical bytes, valid
    // MAC — is dead on arrival and never rewinds the ack.
    EXPECT_EQ(rig.doorbell(first), kSmStatusRejected);
    EXPECT_EQ(rig.doorbell(second), kSmStatusRejected);
    EXPECT_EQ(rig.ack(), 2u);

    // A MAC-valid descriptor whose ctrBase is not seq * stride is
    // rejected before it can touch memory (keystream pinning).
    dmachan::DmaDescriptor d;
    d.sessionId = 0;
    d.seq = 2;
    d.ctrBase = 7; // not 2 * kDmaCtrStride
    d.sg.push_back({0x1200, 16});
    d.payload = pattern(16, 7);
    Bytes bad = dmachan::encodeDescriptor(rig.keys.mac, d);
    EXPECT_EQ(rig.doorbell(bad), kSmStatusRejected);
    EXPECT_EQ(rig.ack(), 2u);
    EXPECT_EQ(rig.stat(kSmRegStatDmaRejected), 3u);
}

TEST(DmaFabric, RejectsForgedCrossSessionAndOutOfWindow)
{
    FabricRig rig;
    // Sealed under the wrong keys: MAC check fails closed.
    DmaKeys wrong = testKeys(31);
    EXPECT_EQ(rig.doorbell(sealWrite(wrong, 0, 0, true, 0x1000,
                                     pattern(64, 8))),
              kSmStatusRejected);
    // Unopened session slot.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 3, 0, true, 0x1000,
                                     pattern(64, 9))),
              kSmStatusRejected);
    // Bit flip in transit.
    Bytes flipped = sealWrite(rig.keys, 0, 0, true, 0x1000,
                              pattern(64, 10));
    flipped[flipped.size() / 2] ^= 0x40;
    EXPECT_EQ(rig.doorbell(flipped), kSmStatusRejected);
    // Beyond the reorder window: seq too far ahead of expected.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0,
                                     dmachan::kDmaMaxWindow, false,
                                     0x1000, pattern(64, 11))),
              kSmStatusRejected);
    // Scatter outside DRAM.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, 0, true,
                                     rig.device.dram().size() - 8,
                                     pattern(64, 12))),
              kSmStatusRejected);
    EXPECT_EQ(rig.stat(kSmRegStatDmaRejected), 5u);
    EXPECT_EQ(rig.stat(kSmRegStatDmaOk), 0u);
    EXPECT_EQ(rig.ack(), 0u);
}

TEST(DmaFabric, BuffersOutOfOrderAndAppliesInOrder)
{
    FabricRig rig;
    Bytes p0 = pattern(512, 13);
    Bytes p1 = pattern(512, 14);
    // seq 1 lands first: buffered (doorbell ok), nothing applied yet.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, 1, false, 0x1200,
                                     p1)),
              kSmStatusOk);
    EXPECT_EQ(rig.ack(), 0u);
    EXPECT_EQ(rig.stat(kSmRegStatDmaBytes), 0u);
    // seq 0 arrives: both apply, in order.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, 0, false, 0x1000,
                                     p0)),
              kSmStatusOk);
    EXPECT_EQ(rig.ack(), 2u);
    EXPECT_EQ(rig.device.dram().read(0x1000, p0.size()), p0);
    EXPECT_EQ(rig.device.dram().read(0x1200, p1.size()), p1);
}

TEST(DmaFabric, SyncOnlyJumpsForward)
{
    FabricRig rig;
    // Forward jump to seq 5 (crash-recovery resync).
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, 5, true, 0x1000,
                                     pattern(64, 15))),
              kSmStatusOk);
    EXPECT_EQ(rig.ack(), 6u);
    // A replayed (older) sync cannot rewind the window.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, 2, true, 0x1000,
                                     pattern(64, 16))),
              kSmStatusRejected);
    EXPECT_EQ(rig.ack(), 6u);
}

TEST(DmaFabric, ReadGatherSealsVerifiableResponse)
{
    FabricRig rig;
    Bytes plain = pattern(768, 17);
    rig.device.dram().write(0x3000, plain);
    EXPECT_EQ(rig.doorbell(sealRead(rig.keys, 0, 0, 0x3000,
                                    uint32_t(plain.size()), 0x340000)),
              kSmStatusOk);
    EXPECT_EQ(rig.ack(), 1u);
    Bytes blob = rig.device.dram().read(
        0x340000, plain.size() + dmachan::kDmaRespOverhead);
    auto open = dmachan::openReadResponse(rig.keys.aes, rig.keys.mac, 0,
                                          0, 0, blob);
    ASSERT_TRUE(open.has_value());
    EXPECT_EQ(*open, plain);
    // The sealed blob never exposes the plaintext on the bus.
    EXPECT_TRUE(std::search(blob.begin(), blob.end(), plain.begin(),
                            plain.end()) == blob.end());
}

// ---- host engine end to end -----------------------------------------

TEST(DmaEndToEnd, WriteLandsPlaintextAndChargesTheClock)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    Bytes data = pattern(200 * 1000, 18);
    sim::Nanos before = tb.clock().now();
    SmEnclaveApp::DmaOptions opts;
    opts.windowSize = 4;
    dmachan::DmaTransferReport rep =
        tb.smApp().dmaWrite(0, 0x8000, data, opts);
    ASSERT_EQ(rep.status, 0);
    EXPECT_EQ(rep.bytes, data.size());
    EXPECT_EQ(rep.descriptors, 4u); // ceil(200000 / 64 KiB)
    EXPECT_EQ(rep.retransmits, 0u);
    EXPECT_GE(rep.maxInFlight, 2u);
    EXPECT_LE(rep.maxInFlight, 4u);
    EXPECT_EQ(tb.shell().dmaPostedRead(0x8000, data.size()), data);
    // The engine owns all time attribution: the clock advanced by
    // exactly the exposed crypto plus transport it reported.
    EXPECT_EQ(tb.clock().now() - before,
              rep.cryptoNanos + rep.transportNanos);
    EXPECT_GT(rep.hiddenCryptoNanos, 0);
}

TEST(DmaEndToEnd, ScatterGatherWriteAndReadBack)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    Bytes data = pattern(24 * 1024, 19);
    std::vector<dmachan::DmaSgEntry> sg = {{0x4000, 8 * 1024},
                                           {0x10000, 16 * 1024}};
    ASSERT_EQ(tb.smApp().dmaWriteSg(0, sg, data).status, 0);
    EXPECT_EQ(tb.shell().dmaPostedRead(0x4000, 8 * 1024),
              sliceBytes(data, 0, 8 * 1024));
    EXPECT_EQ(tb.shell().dmaPostedRead(0x10000, 16 * 1024),
              sliceBytes(data, 8 * 1024, 16 * 1024));

    Bytes out;
    ASSERT_EQ(tb.smApp().dmaRead(0, 0x4000, 8 * 1024, out).status, 0);
    EXPECT_EQ(out, sliceBytes(data, 0, 8 * 1024));
}

TEST(DmaEndToEnd, RecoversFromDropReorderAndCorruption)
{
    TestbedConfig cfg;
    cfg.rngSeed = 77;
    cfg.faultPlan.seed = 77;
    cfg.faultPlan.add(sim::FaultRule::dropDma(0.2));
    cfg.faultPlan.add(sim::FaultRule::reorderDma(0.2));
    cfg.faultPlan.add(sim::FaultRule::corruptDma(0.1));
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    Bytes data = pattern(256 * 1024, 20);
    SmEnclaveApp::DmaOptions opts;
    opts.windowSize = 8;
    opts.descriptorBytes = 16 * 1024;
    dmachan::DmaTransferReport rep =
        tb.smApp().dmaWrite(0, 0x8000, data, opts);
    ASSERT_EQ(rep.status, 0);
    EXPECT_GT(rep.retransmits, 0u) << "storm never fired";
    EXPECT_EQ(tb.shell().dmaPostedRead(0x8000, data.size()), data);
}

TEST(DmaEndToEnd, FailsClosedWhenEveryDescriptorIsCorrupted)
{
    TestbedConfig cfg;
    cfg.faultPlan.add(sim::FaultRule::corruptDma(1.0));
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    Bytes data = pattern(8 * 1024, 21);
    dmachan::DmaTransferReport rep =
        tb.smApp().dmaWrite(0, 0x8000, data);
    EXPECT_EQ(rep.status, 0xf8); // retransmits exhausted
    // Fail closed: not one corrupted payload byte reached memory.
    EXPECT_EQ(tb.shell().dmaPostedRead(0x8000, data.size()),
              Bytes(data.size(), 0));
}

TEST(DmaEndToEnd, PerSessionSequencesAreIsolated)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    uint32_t slot = tb.addUserSession();
    ASSERT_TRUE(tb.userApp(slot).attachToPlatform());

    Bytes a = pattern(32 * 1024, 22);
    Bytes b = pattern(32 * 1024, 23);
    ASSERT_EQ(tb.smApp().dmaWrite(0, 0x8000, a).status, 0);
    ASSERT_EQ(tb.smApp().dmaWrite(slot, 0x20000, b).status, 0);
    EXPECT_EQ(tb.shell().dmaPostedRead(0x8000, a.size()), a);
    EXPECT_EQ(tb.shell().dmaPostedRead(0x20000, b.size()), b);
    // Rejecting bad slots is typed, not an exception.
    EXPECT_EQ(tb.smApp().dmaWrite(99, 0x8000, a).status, 0xfd);
    // So is a read longer than one scatter-gather entry can name: it
    // must not wrap to a short read, and `out` stays as passed in.
    Bytes out = {1, 2, 3};
    dmachan::DmaTransferReport big =
        tb.smApp().dmaRead(0, 0x8000, (1ull << 32) + 64, out);
    EXPECT_EQ(big.status, 0xfd);
    EXPECT_EQ(big.bytes, 0u);
    EXPECT_EQ(out, (Bytes{1, 2, 3}));
}

TEST(DmaEndToEnd, SameSeedRunsAreByteIdentical)
{
    auto run = [](std::string &traceJson) {
        TestbedConfig cfg;
        cfg.rngSeed = 404;
        cfg.faultPlan.seed = 404;
        cfg.faultPlan.add(sim::FaultRule::dropDma(0.15));
        cfg.faultPlan.add(sim::FaultRule::reorderDma(0.15));
        Testbed tb(cfg);
        obs::TraceRecorder recorder(tb.clock());
        obs::MetricsRegistry metrics;
        dmachan::DmaTransferReport rep;
        {
            obs::ObsScope scope(&recorder, &metrics);
            tb.installCl(loopbackAccel());
            if (!tb.runDeployment().ok)
                throw SalusError("deployment failed");
            rep = tb.smApp().dmaWrite(0, 0x8000, pattern(128 * 1024, 24));
        }
        traceJson = recorder.chromeTraceJson() + metrics.renderText();
        return rep;
    };
    std::string traceA, traceB;
    dmachan::DmaTransferReport repA = run(traceA);
    dmachan::DmaTransferReport repB = run(traceB);
    ASSERT_EQ(repA.status, 0);
    EXPECT_EQ(repA.retransmits, repB.retransmits);
    EXPECT_EQ(repA.transportNanos, repB.transportNanos);
    EXPECT_EQ(traceA, traceB);
}

// ---- scheduler coexistence ------------------------------------------

TEST(DmaScheduler, BulkJobsRideTheSweepWithoutStarvingRegisterOps)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    BatchScheduler &sched = tb.scheduler();
    sched.addSession(0, 1);

    Bytes data = pattern(64 * 1024, 25);
    std::vector<uint8_t> dmaStatuses;
    for (int i = 0; i < 3; ++i) {
        BatchScheduler::DmaJob job;
        job.addr = 0x8000 + uint64_t(i) * 0x10000;
        job.data = data;
        job.done = [&](const dmachan::DmaTransferReport &rep) {
            dmaStatuses.push_back(rep.status);
        };
        ASSERT_EQ(sched.submitDma(0, std::move(job)),
                  BatchScheduler::Submit::Accepted);
    }
    int regDone = 0;
    regchan::RegOp op;
    op.isWrite = true;
    op.addr = 0x00;
    op.data = 42;
    ASSERT_EQ(sched.submit(0, op, [&](uint8_t st, uint64_t) {
        EXPECT_EQ(st, 0);
        ++regDone;
    }),
              BatchScheduler::Submit::Accepted);

    // One sweep: the register slice goes first, then exactly ONE DMA
    // job — bulk never monopolises a sweep.
    sched.pumpOnce();
    EXPECT_EQ(regDone, 1);
    EXPECT_EQ(dmaStatuses.size(), 1u);
    sched.drain();
    ASSERT_EQ(dmaStatuses.size(), 3u);
    for (uint8_t st : dmaStatuses)
        EXPECT_EQ(st, 0);
    EXPECT_EQ(sched.stats().dmaJobs, 3u);
    EXPECT_EQ(sched.stats().dmaBytes, 3 * data.size());
    EXPECT_EQ(tb.shell().dmaPostedRead(0x8000, data.size()), data);
    EXPECT_EQ(tb.shell().dmaPostedRead(0x28000, data.size()), data);
}

TEST(DmaScheduler, BoundedQueueRefusesWithBackpressure)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    BatchScheduler &sched = tb.scheduler();
    sched.addSession(0, 1);
    BatchScheduler::DmaJob job;
    job.addr = 0x8000;
    job.data = pattern(1024, 26);
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(sched.submitDma(0, job),
                  BatchScheduler::Submit::Accepted);
    EXPECT_EQ(sched.submitDma(0, job),
              BatchScheduler::Submit::Backpressure);
    EXPECT_EQ(sched.submitDma(42, job),
              BatchScheduler::Submit::UnknownSession);
    sched.drain();
    EXPECT_EQ(sched.stats().dmaJobs, 8u);
}

// ---- crash sweep over the DMA journal steps -------------------------

namespace {

/** Deploy + one journalled DMA transfer (seq-span reservation commits
 *  ride the same write-ahead journal as everything else). */
void
runDmaJournalSession(Testbed &tb)
{
    tb.installCl(loopbackAccel());
    if (!tb.runDeployment().ok)
        throw SalusError("deployment failed");
    if (tb.smApp().dmaWrite(0, 0x8000, pattern(96 * 1024, 27)).status !=
        0)
        throw SalusError("dma write failed");
}

int
dmaJournalWrites()
{
    static int n = [] {
        TestbedConfig cfg;
        cfg.rngSeed = 31;
        Testbed tb(cfg);
        runDmaJournalSession(tb);
        return int(tb.smApp().journalWrites());
    }();
    return n;
}

} // namespace

class DmaCrashSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(DmaCrashSweep, EveryJournalStepRecoversAndResyncsTheWindow)
{
    auto [step, afterPersist] = GetParam();
    ASSERT_GE(dmaJournalWrites(), 3)
        << "scenario no longer journals enough steps to sweep";
    if (step >= dmaJournalWrites())
        GTEST_SKIP() << "scenario only journals " << dmaJournalWrites()
                     << " steps";

    TestbedConfig cfg;
    cfg.rngSeed = 31;
    cfg.faultPlan.add(
        sim::FaultRule::smCrash(uint64_t(step), afterPersist));
    Testbed tb(cfg);

    bool crashed = false;
    try {
        runDmaJournalSession(tb);
    } catch (const SmCrashError &) {
        crashed = true;
    }
    ASSERT_TRUE(crashed) << "armed crash at step " << step
                         << " never fired";

    SmEnclaveApp::RecoveryReport rep = tb.crashAndRecoverSmApp();
    EXPECT_TRUE(rep.status == SmEnclaveApp::RecoveryStatus::Recovered ||
                rep.status == SmEnclaveApp::RecoveryStatus::NoJournal)
        << rep.detail;
    EXPECT_FALSE(tb.smApp().failedClosed());

    // The recovered instance resumes PAST its seq reservation and the
    // sync flag jumps the fabric forward — bulk transfers work again
    // end to end, whatever step the crash hit.
    ASSERT_TRUE(tb.runDeployment().ok);
    Bytes data = pattern(32 * 1024, 28);
    ASSERT_EQ(tb.smApp().dmaWrite(0, 0x8000, data).status, 0);
    EXPECT_EQ(tb.shell().dmaPostedRead(0x8000, data.size()), data);
}

INSTANTIATE_TEST_SUITE_P(
    AllJournalSteps, DmaCrashSweep,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>> &info) {
        return "step" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_postStore" : "_preStore");
    });
