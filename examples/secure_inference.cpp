/**
 * @file
 * Secure ML inference on a rented cloud FPGA — the scenario the
 * paper's introduction motivates: a data owner offloads a convolution
 * layer to FaaS without the CSP ever seeing weights or feature maps.
 *
 * The input feature maps travel encrypted (AES-CTR under the data key
 * delivered through the attested channel), the accelerator decrypts
 * at its memory interface, and the result is verified against a
 * trusted CPU reference.
 *
 *   $ ./secure_inference
 */

#include <cstdio>

#include "accel/accel_ip.hpp"
#include "accel/runner.hpp"
#include "salus/sm_logic.hpp"

using namespace salus;
using namespace salus::accel;

int
main()
{
    AccelIp::registerAll();
    core::SmLogic::registerIp();

    const WorkloadSpec &spec = workload(KernelId::Conv);
    std::printf("workload: %s (3x3 convolution layer, %u LUT / %u FF / "
                "%u BRAM)\n",
                spec.name, spec.resources.luts, spec.resources.registers,
                spec.resources.brams);

    // Platform + CL deployment with full attestation.
    core::Testbed tb;
    tb.installCl(accelCellFor(spec));
    auto outcome = tb.runDeployment();
    if (!outcome.ok) {
        std::printf("deployment failed: %s\n", outcome.failure.c_str());
        return 1;
    }
    std::printf("cascaded attestation ok -- CL verified before any "
                "data left the client\n");

    // Generate a private inference request and run it through the
    // secure pipeline.
    WorkloadRunner runner(spec.id, /*seed=*/1, /*scale=*/0.4);
    std::printf("input: %zu bytes of feature maps + weights "
                "(ciphertext on the bus and in device DRAM)\n",
                runner.input().size());

    RunResult fpga = runner.runFpgaTee(tb);
    std::printf("FPGA TEE inference: %-10s  output %zu bytes, %s\n",
                sim::formatNanos(fpga.totalTime).c_str(),
                fpga.outputBytes,
                fpga.outputCorrect ? "matches trusted reference"
                                   : "OUTPUT MISMATCH");

    // Compare with running the same job inside the CPU enclave.
    RunResult cpu = runner.runCpuTee(tb.cost());
    std::printf("CPU TEE reference:  %-10s  (speedup %.2fx)\n",
                sim::formatNanos(cpu.totalTime).c_str(),
                double(cpu.totalTime) / double(fpga.totalTime));

    return fpga.outputCorrect ? 0 : 1;
}
