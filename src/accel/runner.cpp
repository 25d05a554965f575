#include "accel/runner.hpp"

#include "accel/accel_ip.hpp"
#include "accel/mem_crypto.hpp"
#include "common/errors.hpp"

namespace salus::accel {

WorkloadRunner::WorkloadRunner(KernelId id, uint64_t seed, double scale)
    : id_(id), input_(generateInput(id, seed, scale)),
      reference_(runKernel(id, input_)), ops_(kernelOps(id, input_))
{
}

sim::Nanos
WorkloadRunner::fpgaComputeTime(const sim::CostModel &cost) const
{
    const WorkloadSpec &spec = workload(id_);
    double seconds =
        double(ops_) / (double(spec.opsPerCycle) * kFpgaClockHz);
    return sim::Nanos(seconds * double(sim::kSec)) + cost.accelLaunch;
}

sim::Nanos
WorkloadRunner::cpuComputeTime() const
{
    return sim::Nanos(double(ops_) * workload(id_).cpuNsPerOp);
}

RunResult
WorkloadRunner::runCpuPlain()
{
    RunResult res;
    res.mode = "CPU";
    res.inputBytes = input_.size();

    // Execute the kernel for real (output correctness); the time is
    // its counted ops at the calibrated host rate.
    Bytes out = runKernel(id_, input_);
    res.computeTime = cpuComputeTime();
    res.totalTime = res.computeTime;
    res.outputBytes = out.size();
    res.outputCorrect = out == reference_;
    return res;
}

RunResult
WorkloadRunner::runCpuTee(const sim::CostModel &cost)
{
    RunResult res;
    res.mode = "CPU+TEE";
    res.inputBytes = input_.size();

    // Boundary crypto is real work: the enclave decrypts the incoming
    // ciphertext and (depending on the workload) encrypts the result,
    // like the paper's OpenSSL-based data movement (§6.4). It is
    // charged at the host's bulk AES-CTR rate.
    Bytes dataKey(32, 0x5a);
    Bytes wire = memCrypt(dataKey, 1, Dir::Input, input_);
    wire = memCrypt(dataKey, 1, Dir::Input, wire); // decrypt
    Bytes out = runKernel(id_, wire);
    size_t cryptBytes = wire.size();
    if (outputEncrypted(id_)) {
        // Encrypt, then decrypt the copy that is checked.
        out = memCrypt(dataKey, 1, Dir::Output, out);
        cryptBytes += out.size();
        out = memCrypt(dataKey, 1, Dir::Output, out);
    }
    sim::Nanos cryptoTime =
        sim::transferTime(cost.dmaCryptoBytesPerSec, cryptBytes);

    // EPC model: every enclave store/load is transparently encrypted
    // by the MEE; traffic = factor * working set.
    double traffic = enclaveTrafficFactor(id_) * double(input_.size());
    sim::Nanos epc =
        sim::Nanos(traffic / cost.epcBytesPerSec * double(sim::kSec));
    res.computeTime = cpuComputeTime();
    res.overheadTime = cryptoTime + epc + 2 * cost.enclaveTransition;
    res.totalTime = res.computeTime + res.overheadTime;
    res.outputBytes = out.size();
    res.outputCorrect = out == reference_;
    return res;
}

RunResult
WorkloadRunner::runFpgaPlain(const sim::CostModel &cost)
{
    RunResult res;
    res.mode = "FPGA";
    res.inputBytes = input_.size();

    // Execute the kernel for real (output correctness), but the time
    // is the fabric cycle model plus plaintext PCIe transfers.
    Bytes out = runKernel(id_, input_);
    res.outputBytes = out.size();
    res.outputCorrect = out == reference_;

    res.computeTime = fpgaComputeTime(cost);
    // Mirror the TEE path's bus activity minus the security: two DMA
    // ioctls plus the job-control MMIO writes.
    res.totalTime = res.computeTime +
                    sim::transferTime(cost.pcieBandwidth,
                                      input_.size() + out.size()) +
                    2 * cost.pcieRtt + 8 * cost.mmioLatency;
    return res;
}

RunResult
WorkloadRunner::runFpgaTee(core::Testbed &tb)
{
    RunResult res;
    res.mode = "FPGA+TEE";
    res.inputBytes = input_.size();

    if (!tb.userApp().hasDataKey())
        throw SalusError("runFpgaTee: deployment did not finish");

    core::UserEnclaveApp &user = tb.userApp();
    shell::Shell &sh = tb.shell();

    // 1. Data key over the SECURE register channel (§4.5). This is
    //    per-session provisioning, not per-job work, so it is not
    //    counted in the job's bus time (the paper's Table 6 likewise
    //    reports steady-state kernel time).
    if (!user.pushDataKeyToCl(kAccRegKey0))
        throw SalusError("runFpgaTee: data key push failed");

    sim::Nanos busStart = tb.clock().now();

    // 2. Encrypted input over the direct DMA path.
    const uint64_t jobId = 1;
    Bytes wire = memCrypt(user.dataKey(), jobId, Dir::Input, input_);
    const uint64_t inAddr = 0;
    const uint64_t outAddr = (wire.size() + 4095) & ~uint64_t(4095);
    sh.dmaWrite(inAddr, wire);

    // 3. Job control over the direct (unsecured) window -- addresses
    //    and flags are not confidential; payloads are.
    bool encOut = outputEncrypted(id_);
    sh.registerWrite(pcie::Window::Direct, kAccRegInputAddr, inAddr);
    sh.registerWrite(pcie::Window::Direct, kAccRegInputLen, wire.size());
    sh.registerWrite(pcie::Window::Direct, kAccRegOutputAddr, outAddr);
    sh.registerWrite(pcie::Window::Direct, kAccRegJobId, jobId);
    sh.registerWrite(pcie::Window::Direct, kAccRegFlags,
                     kAccFlagInputEncrypted |
                         (encOut ? kAccFlagEncryptOutput : 0));
    sh.registerWrite(pcie::Window::Direct, kAccRegCmd, 1);

    if (sh.registerRead(pcie::Window::Direct, kAccRegStatus) !=
        kAccStatusDone) {
        throw SalusError("runFpgaTee: accelerator reported an error");
    }
    uint64_t outLen =
        sh.registerRead(pcie::Window::Direct, kAccRegOutputLen);

    // 4. Result back; decrypt in the enclave when protected.
    Bytes out = sh.dmaRead(outAddr, outLen);
    if (encOut)
        out = memCrypt(user.dataKey(), jobId, Dir::Output, out);

    res.outputBytes = out.size();
    res.outputCorrect = out == reference_;

    // Model: fabric cycles + the virtual bus time the run consumed.
    // The inline AES engines run at line rate, so the TEE adds only
    // control-path work (paper Table 6: <= 1.05x).
    sim::Nanos busTime = tb.clock().now() - busStart;
    sim::Nanos inlineAes = sim::transferTime(
        tb.cost().inlineAesBytesPerSec, wire.size() + out.size());
    res.computeTime = fpgaComputeTime(tb.cost());
    res.overheadTime = busTime + inlineAes;
    res.totalTime = res.computeTime + busTime + inlineAes;
    return res;
}

RunResult
WorkloadRunner::runFpgaTeeAuthenticated(core::Testbed &tb)
{
    RunResult res;
    res.mode = "FPGA+TEE+auth";
    res.inputBytes = input_.size();

    core::UserEnclaveApp &user = tb.userApp();
    shell::Shell &sh = tb.shell();
    if (!user.pushDataKeyToCl(kAccRegKey0))
        throw SalusError("runFpgaTeeAuthenticated: key push failed");

    const uint64_t jobId = 2;
    Bytes wire = memSealAuth(user.dataKey(), jobId, Dir::Input, input_);
    const uint64_t inAddr = 0;
    const uint64_t outAddr = (wire.size() + 4095) & ~uint64_t(4095);
    sh.dmaWrite(inAddr, wire);

    sh.registerWrite(pcie::Window::Direct, kAccRegInputAddr, inAddr);
    sh.registerWrite(pcie::Window::Direct, kAccRegInputLen, wire.size());
    sh.registerWrite(pcie::Window::Direct, kAccRegOutputAddr, outAddr);
    sh.registerWrite(pcie::Window::Direct, kAccRegJobId, jobId);
    sh.registerWrite(pcie::Window::Direct, kAccRegFlags,
                     kAccFlagInputAuthenticated |
                         kAccFlagAuthenticateOutput);
    sh.registerWrite(pcie::Window::Direct, kAccRegCmd, 1);

    if (sh.registerRead(pcie::Window::Direct, kAccRegStatus) !=
        kAccStatusDone) {
        res.tamperDetected = true; // fabric-side GCM rejection
        return res;
    }
    uint64_t outLen =
        sh.registerRead(pcie::Window::Direct, kAccRegOutputLen);
    Bytes sealed = sh.dmaRead(outAddr, outLen);
    auto out = memOpenAuth(user.dataKey(), jobId, Dir::Output, sealed);
    if (!out) {
        res.tamperDetected = true; // host-side GCM rejection
        return res;
    }

    res.outputBytes = out->size();
    res.outputCorrect = *out == reference_;
    res.computeTime = fpgaComputeTime(tb.cost());
    res.totalTime = res.computeTime;
    return res;
}

} // namespace salus::accel
