/**
 * @file
 * Accelerator tests: kernel correctness properties, memory-interface
 * encryption, and the full four-mode execution matrix of §6.4 on
 * every Table 4 workload.
 */

#include <gtest/gtest.h>

#include <vector>

#include "accel/accel_ip.hpp"
#include "accel/mem_crypto.hpp"
#include "accel/runner.hpp"
#include "common/errors.hpp"
#include "common/hex.hpp"
#include "common/serde.hpp"

using namespace salus;
using namespace salus::accel;

namespace {

constexpr double kTestScale = 0.15;

std::unique_ptr<core::Testbed>
makeDeployedTestbed(const WorkloadSpec &spec, bool malicious = false,
                    shell::AttackPlan plan = {})
{
    AccelIp::registerAll();
    core::TestbedConfig cfg;
    cfg.maliciousShell = malicious;
    cfg.attackPlan = plan;
    auto tb = std::make_unique<core::Testbed>(cfg);
    tb->installCl(accelCellFor(spec));
    return tb;
}

} // namespace

// ------------------------------------------------- kernel properties

TEST(Kernels, DeterministicGenerationAndExecution)
{
    for (const auto &spec : allWorkloads()) {
        Bytes in1 = generateInput(spec.id, 7, kTestScale);
        Bytes in2 = generateInput(spec.id, 7, kTestScale);
        EXPECT_EQ(in1, in2) << spec.name;
        EXPECT_NE(in1, generateInput(spec.id, 8, kTestScale))
            << spec.name;
        EXPECT_EQ(runKernel(spec.id, in1), runKernel(spec.id, in2))
            << spec.name;
        EXPECT_GT(kernelOps(spec.id, in1), 0u) << spec.name;
    }
}

TEST(Kernels, RejectGarbageInputs)
{
    for (const auto &spec : allWorkloads()) {
        EXPECT_THROW(runKernel(spec.id, Bytes(3, 1)), SalusError)
            << spec.name;
        Bytes truncated = generateInput(spec.id, 1, kTestScale);
        truncated.resize(truncated.size() / 2);
        EXPECT_THROW(runKernel(spec.id, truncated), SalusError)
            << spec.name;
    }
}

TEST(Kernels, ConvZeroImageGivesZeroOutput)
{
    Bytes input = generateInput(KernelId::Conv, 3, kTestScale);
    BinaryReader r(input);
    uint32_t w = r.readU32(), h = r.readU32(), ic = r.readU32(),
             oc = r.readU32();
    size_t weightBytes = size_t(9) * ic * oc * 4;
    // Zero the image portion (after header + weights).
    size_t imageOff = 16 + weightBytes;
    std::fill(input.begin() + imageOff, input.end(), 0);

    Bytes out = runKernel(KernelId::Conv, input);
    EXPECT_EQ(out.size(), size_t(w) * h * oc * 4);
    for (uint8_t b : out)
        ASSERT_EQ(b, 0);
}

TEST(Kernels, AffineIdentityPreservesInterior)
{
    // Identity matrix: output == input wherever sampling stays in
    // bounds.
    BinaryWriter w;
    const uint32_t dim = 64;
    w.writeU32(dim);
    w.writeU32(dim);
    float m[6] = {1, 0, 0, 0, 1, 0};
    for (float v : m) {
        uint32_t raw;
        std::memcpy(&raw, &v, 4);
        w.writeU32(raw);
    }
    crypto::CtrDrbg rng(uint64_t(4));
    Bytes img = rng.bytes(dim * dim);
    w.writeRaw(img);

    Bytes out = runKernel(KernelId::Affine, w.data());
    ASSERT_EQ(out.size(), img.size());
    for (uint32_t y = 1; y + 1 < dim; ++y)
        for (uint32_t x = 1; x + 1 < dim; ++x)
            ASSERT_EQ(out[y * dim + x], img[y * dim + x])
                << "(" << x << "," << y << ")";
}

TEST(Kernels, RenderingEmptySceneIsBlack)
{
    BinaryWriter w;
    w.writeU32(0);   // no triangles
    w.writeU32(64);  // fb 64x64
    Bytes out = runKernel(KernelId::Rendering, w.data());
    EXPECT_EQ(out.size(), 64u * 64u);
    for (uint8_t px : out)
        ASSERT_EQ(px, 0);
}

TEST(Kernels, RenderingDrawsSomething)
{
    Bytes input = generateInput(KernelId::Rendering, 5, kTestScale);
    Bytes fb = runKernel(KernelId::Rendering, input);
    size_t lit = 0;
    for (uint8_t px : fb)
        lit += px != 0;
    EXPECT_GT(lit, fb.size() / 100) << "scene rendered mostly black";
}

TEST(Kernels, NnSearchFindsExactMatch)
{
    // Build a tiny instance where query 0 equals point 3 exactly.
    const uint32_t n = 8, q = 1, d = 4;
    BinaryWriter w;
    w.writeU32(n);
    w.writeU32(q);
    w.writeU32(d);
    auto writeF = [&](float f) {
        uint32_t raw;
        std::memcpy(&raw, &f, 4);
        w.writeU32(raw);
    };
    for (uint32_t p = 0; p < n; ++p)
        for (uint32_t i = 0; i < d; ++i)
            writeF(float(p) + 0.1f * float(i));
    for (uint32_t i = 0; i < d; ++i)
        writeF(float(3) + 0.1f * float(i)); // == point 3

    Bytes out = runKernel(KernelId::NnSearch, w.data());
    BinaryReader r(out);
    EXPECT_EQ(r.readU32(), 3u);
    EXPECT_EQ(r.readU32(), 0u); // distance bits == +0.0f
}

TEST(Kernels, FaceDetectOutputFixedSize)
{
    Bytes input = generateInput(KernelId::FaceDetect, 6, kTestScale);
    Bytes out = runKernel(KernelId::FaceDetect, input);
    EXPECT_EQ(out.size(), 4u + 256u * 6u);
    BinaryReader r(out);
    EXPECT_LE(r.readU32(), 256u);
}

// --------------------------------------------------- memory crypto

TEST(MemCrypto, RoundtripAndDomainSeparation)
{
    crypto::CtrDrbg rng(uint64_t(11));
    Bytes key = rng.bytes(32);
    Bytes data = rng.bytes(1000);

    Bytes ct = memCrypt(key, 1, Dir::Input, data);
    EXPECT_NE(ct, data);
    EXPECT_EQ(memCrypt(key, 1, Dir::Input, ct), data);

    // Different direction and different job id give different streams.
    EXPECT_NE(memCrypt(key, 1, Dir::Output, data), ct);
    EXPECT_NE(memCrypt(key, 2, Dir::Input, data), ct);
}

// ------------------------------------------- four-mode execution

class WorkloadMatrix : public ::testing::TestWithParam<KernelId>
{};

TEST_P(WorkloadMatrix, AllModesProduceReferenceOutput)
{
    const WorkloadSpec &spec = workload(GetParam());
    WorkloadRunner runner(spec.id, 42, kTestScale);

    RunResult cpu = runner.runCpuPlain();
    EXPECT_TRUE(cpu.outputCorrect) << spec.name;

    sim::CostModel cost;
    RunResult cpuTee = runner.runCpuTee(cost);
    EXPECT_TRUE(cpuTee.outputCorrect) << spec.name;
    // TEE mode is never free: boundary crypto + EPC traffic +
    // enclave transitions add modelled overhead to the same compute.
    EXPECT_EQ(cpuTee.computeTime, cpu.computeTime) << spec.name;
    EXPECT_GT(cpuTee.totalTime, cpu.totalTime) << spec.name;

    RunResult fpga = runner.runFpgaPlain(cost);
    EXPECT_TRUE(fpga.outputCorrect) << spec.name;

    auto tbp = makeDeployedTestbed(spec);
    core::Testbed &tb = *tbp;
    ASSERT_TRUE(tb.runDeployment().ok) << spec.name;
    RunResult fpgaTee = runner.runFpgaTee(tb);
    EXPECT_TRUE(fpgaTee.outputCorrect) << spec.name;

    // Paper Table 6 shape: the FPGA TEE overhead is bounded (inline
    // AES at line rate; only control-path cost), while the CPU TEE
    // pays crypto + EPC on the data path.
    EXPECT_LT(double(fpgaTee.totalTime),
              1.6 * double(fpga.totalTime) + 5.0 * double(sim::kMs))
        << spec.name;
}

TEST_P(WorkloadMatrix, SameSeedGivesIdenticalTimesInEveryMode)
{
    const WorkloadSpec &spec = workload(GetParam());
    sim::CostModel cost;
    auto times = [&] {
        WorkloadRunner runner(spec.id, 42, kTestScale);
        auto tbp = makeDeployedTestbed(spec);
        EXPECT_TRUE(tbp->runDeployment().ok) << spec.name;
        std::vector<sim::Nanos> t;
        for (const RunResult &r :
             {runner.runCpuPlain(), runner.runCpuTee(cost),
              runner.runFpgaPlain(cost), runner.runFpgaTee(*tbp)}) {
            t.insert(t.end(),
                     {r.totalTime, r.computeTime, r.overheadTime});
        }
        return t;
    };
    EXPECT_EQ(times(), times()) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadMatrix,
    ::testing::Values(KernelId::Conv, KernelId::Affine,
                      KernelId::Rendering, KernelId::FaceDetect,
                      KernelId::NnSearch),
    [](const ::testing::TestParamInfo<KernelId> &info) {
        return kernelName(info.param);
    });

TEST(AccelPipeline, DramHoldsOnlyCiphertext)
{
    const WorkloadSpec &spec = workload(KernelId::Affine);
    auto tbp = makeDeployedTestbed(spec);
    core::Testbed &tb = *tbp;
    ASSERT_TRUE(tb.runDeployment().ok);

    WorkloadRunner runner(spec.id, 9, kTestScale);
    RunResult res = runner.runFpgaTee(tb);
    ASSERT_TRUE(res.outputCorrect);

    // Scan device DRAM for any 64-byte window of the plaintext input
    // or reference output: there must be none (§6.4 memory encryption;
    // threat-model attack 2 sees ciphertext only).
    ByteView dram = tb.device().dram().raw();
    std::string hay(dram.begin(), dram.end());
    std::string inputChunk(runner.input().begin() + 64,
                           runner.input().begin() + 128);
    std::string outputChunk(runner.reference().begin() + 64,
                            runner.reference().begin() + 128);
    EXPECT_EQ(hay.find(inputChunk), std::string::npos);
    EXPECT_EQ(hay.find(outputChunk), std::string::npos);
}

TEST(AccelPipeline, DmaTamperCorruptsOutputVisibly)
{
    // Threat model attack 2: the shell flips DMA bytes. With CTR
    // encryption the job completes but the plaintext is garbage, so
    // the output no longer matches the reference -- the integrity
    // burden the paper delegates to the developer (§3.1).
    const WorkloadSpec &spec = workload(KernelId::Affine);
    shell::AttackPlan plan;
    plan.tamperDma = true;
    auto tbp = makeDeployedTestbed(spec, true, plan);
    core::Testbed &tb = *tbp;
    ASSERT_TRUE(tb.runDeployment().ok);

    WorkloadRunner runner(spec.id, 10, kTestScale);
    // Either the kernel chokes on the corrupted (decrypted-garbage)
    // input and reports an error, or it completes with an output that
    // no longer matches the reference -- both make the tamper visible.
    try {
        RunResult res = runner.runFpgaTee(tb);
        EXPECT_FALSE(res.outputCorrect);
    } catch (const SalusError &e) {
        EXPECT_NE(std::string(e.what()).find("error"),
                  std::string::npos);
    }
}

TEST(AccelPipeline, AccelErrorSurfacesInStatus)
{
    const WorkloadSpec &spec = workload(KernelId::Conv);
    auto tbp = makeDeployedTestbed(spec);
    core::Testbed &tb = *tbp;
    ASSERT_TRUE(tb.runDeployment().ok);

    // Launch with a nonsensical input length: STATUS reads error.
    auto &sh = tb.shell();
    sh.registerWrite(pcie::Window::Direct, kAccRegInputAddr, 0);
    sh.registerWrite(pcie::Window::Direct, kAccRegInputLen, 5);
    sh.registerWrite(pcie::Window::Direct, kAccRegOutputAddr, 4096);
    sh.registerWrite(pcie::Window::Direct, kAccRegFlags, 0);
    sh.registerWrite(pcie::Window::Direct, kAccRegCmd, 1);
    EXPECT_EQ(sh.registerRead(pcie::Window::Direct, kAccRegStatus),
              kAccStatusError);
}

TEST(AccelPipeline, KeyRegistersNotReadable)
{
    const WorkloadSpec &spec = workload(KernelId::Conv);
    auto tbp = makeDeployedTestbed(spec);
    core::Testbed &tb = *tbp;
    ASSERT_TRUE(tb.runDeployment().ok);
    ASSERT_TRUE(tb.userApp().pushDataKeyToCl(kAccRegKey0));

    // The data key went in over the secure channel; the direct window
    // cannot read it back.
    for (uint32_t off = 0; off < 32; off += 8) {
        EXPECT_EQ(tb.shell().registerRead(pcie::Window::Direct,
                                          kAccRegKey0 + off),
                  0u);
    }
}

// ------------------------------------------- scale sweep properties

class KernelScaleSweep
    : public ::testing::TestWithParam<std::tuple<KernelId, int>>
{};

TEST_P(KernelScaleSweep, InvariantsHoldAcrossSizes)
{
    auto [id, scalePct] = GetParam();
    double scale = scalePct / 100.0;

    Bytes input = generateInput(id, 11, scale);
    Bytes output = runKernel(id, input);
    EXPECT_FALSE(output.empty());

    // Deterministic at every size.
    EXPECT_EQ(runKernel(id, input), output);

    // Work grows (weakly) with scale.
    if (scalePct > 10) {
        Bytes smaller = generateInput(id, 11, 0.1);
        EXPECT_GE(kernelOps(id, input), kernelOps(id, smaller));
        EXPECT_GE(input.size(), smaller.size());
    }

    // Memory encryption is size-transparent at this size.
    Bytes key(32, 0x77);
    EXPECT_EQ(memCrypt(key, 9, Dir::Input,
                       memCrypt(key, 9, Dir::Input, input)),
              input);

    // Authenticated mode roundtrips at this size too.
    auto opened = memOpenAuth(
        key, 9, Dir::Output, memSealAuth(key, 9, Dir::Output, output));
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, output);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelScaleSweep,
    ::testing::Combine(::testing::Values(KernelId::Conv, KernelId::Affine,
                                         KernelId::Rendering,
                                         KernelId::FaceDetect,
                                         KernelId::NnSearch),
                       ::testing::Values(10, 20, 35)),
    [](const ::testing::TestParamInfo<std::tuple<KernelId, int>> &info) {
        return std::string(kernelName(std::get<0>(info.param))) +
               "_scale" + std::to_string(std::get<1>(info.param));
    });

// --------------------------------------------- golden regression

#include "crypto/sha256.hpp"

TEST(Kernels, GoldenOutputDigests)
{
    // Regression guard: a silent change to any kernel's numerics (or
    // to the input generator / DRBG) shifts these digests. If a
    // change is INTENTIONAL, regenerate them (see the digests' seed
    // and scale below).
    struct Golden
    {
        KernelId id;
        const char *digest;
    };
    const Golden goldens[] = {
        {KernelId::Conv,
         "785a55458c2944b7fbd9e18142802fe5"
         "d3791b7ee596ffca855218f01170ad97"},
        {KernelId::Affine,
         "ebd2d59578d9b258b4be73a19f6c702c"
         "2782b5e1320bcba5face625f214ce870"},
        {KernelId::Rendering,
         "05db6d19367670cc6754235a72163b69"
         "ea1a4ec194ff17ca32ddcc0f8cd98330"},
        {KernelId::FaceDetect,
         "7e8f3ddcaf196e659dce9e8e3b263ddf"
         "5421c46fa5ffdf96056390fcfc78d3e7"},
        {KernelId::NnSearch,
         "9bfc8b87d8f98d1343d767f5af824379"
         "a02d9788badc091ae09764a16efb3312"},
    };
    for (const auto &g : goldens) {
        Bytes in = generateInput(g.id, 2024, 0.2);
        Bytes out = runKernel(g.id, in);
        EXPECT_EQ(hexEncode(crypto::Sha256::digest(out)), g.digest)
            << kernelName(g.id);
    }
}

TEST(RunnerErrors, FpgaTeeRequiresDeployment)
{
    AccelIp::registerAll();
    core::Testbed tb;
    tb.installCl(accelCellFor(workload(KernelId::Affine)));
    // No runDeployment(): the runner must refuse, not crash.
    WorkloadRunner runner(KernelId::Affine, 1, kTestScale);
    EXPECT_THROW(runner.runFpgaTee(tb), SalusError);
}
