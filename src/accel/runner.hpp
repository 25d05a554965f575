/**
 * @file
 * Execution-mode runners for the §6.4 evaluation: the same kernel run
 * as (a) plain CPU, (b) CPU inside a TEE, (c) plain FPGA and (d) FPGA
 * TEE (the full Salus pipeline through the simulated device). Every
 * mode runs the kernel for real, so its output is checked, and every
 * time is modelled on the virtual clock: counted kernel ops at a
 * calibrated host rate on the CPU side, fabric cycles and virtual bus
 * time on the FPGA side. EXPERIMENTS.md explains which column
 * reproduces which paper number.
 */

#ifndef SALUS_ACCEL_RUNNER_HPP
#define SALUS_ACCEL_RUNNER_HPP

#include <string>

#include "accel/workloads.hpp"
#include "salus/testbed.hpp"
#include "sim/clock.hpp"

namespace salus::accel {

/** Outcome of one workload execution. */
struct RunResult
{
    std::string mode;
    sim::Nanos totalTime = 0;    ///< modelled end-to-end time
    sim::Nanos computeTime = 0;  ///< compute portion of the model
    sim::Nanos overheadTime = 0; ///< TEE-induced portion
    size_t inputBytes = 0;
    size_t outputBytes = 0;
    bool outputCorrect = false;  ///< equals the plain reference output
    /** Authenticated-memory mode only: an integrity violation was
     *  positively detected (GCM tag mismatch). */
    bool tamperDetected = false;
};

/** Drives one workload through all execution modes. */
class WorkloadRunner
{
  public:
    /**
     * Generates the input and computes the reference output.
     * @param scale input-size scale (1.0 = paper-like).
     */
    WorkloadRunner(KernelId id, uint64_t seed, double scale);

    /** CPU, no TEE: counted kernel ops at the calibrated rate. */
    RunResult runCpuPlain();

    /**
     * CPU inside a TEE: the plain CPU time plus AES-CTR boundary
     * crypto at the host's bulk rate, the EPC memory-encryption model
     * and one enclave transition each way.
     */
    RunResult runCpuTee(const sim::CostModel &cost);

    /** FPGA, no TEE: cycle model + plaintext PCIe transfers. */
    RunResult runFpgaPlain(const sim::CostModel &cost);

    /**
     * FPGA TEE: executes the REAL Salus pipeline on the testbed —
     * data key over the secure register channel, encrypted DMA in,
     * kernel in the fabric behind the SM logic, encrypted DMA out —
     * and reports the cycle model + measured virtual bus time.
     * @pre tb.runDeployment() already succeeded with this workload's CL.
     */
    RunResult runFpgaTee(core::Testbed &tb);

    /**
     * FPGA TEE with *authenticated* memory traffic (AES-GCM instead
     * of plain CTR) — the integrity extension. A DMA-tampering shell
     * causes positive detection (tamperDetected) rather than garbage.
     */
    RunResult runFpgaTeeAuthenticated(core::Testbed &tb);

    const Bytes &input() const { return input_; }
    const Bytes &reference() const { return reference_; }
    KernelId id() const { return id_; }

  private:
    sim::Nanos cpuComputeTime() const;
    sim::Nanos fpgaComputeTime(const sim::CostModel &cost) const;

    KernelId id_;
    Bytes input_;
    Bytes reference_;
    uint64_t ops_;
};

} // namespace salus::accel

#endif // SALUS_ACCEL_RUNNER_HPP
