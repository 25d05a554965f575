/**
 * @file
 * The paper's evaluation as text: Tables 1–6, Figs. 8 and 10, the
 * ablations of its design choices and the fault-recovery sweep, each
 * rendered by one function from live runs of the simulator. Every
 * number in them is a virtual-clock figure or a count, so a table is
 * byte-identical from run to run and machine to machine; the test
 * suite pins each one's SHA-256 and checks EXPERIMENTS.md quotes it
 * verbatim. `salus_cli paper [name]` prints them.
 */

#ifndef SALUS_PAPER_PAPER_HPP
#define SALUS_PAPER_PAPER_HPP

#include <string>
#include <vector>

#include "accel/runner.hpp"

namespace salus::paper {

/** One rendered table, and whether every self-check it makes held
 *  (a protection that did not hold, a deployment that failed, an
 *  output that differs from the reference). */
struct Rendered
{
    std::string text;
    bool ok = true;
};

/** A named table; `name` is what `salus_cli paper` takes. */
struct Artifact
{
    const char *name;
    Rendered (*render)();
};

/** Every table, in the order `salus_cli paper` prints them. */
const std::vector<Artifact> &artifacts();

/** The fault-recovery sweep ("fault_recovery"). */
Rendered faultRecovery();

/** One workload run in the four §6.4 execution modes. */
struct WorkloadRun
{
    const accel::WorkloadSpec *spec = nullptr;
    accel::RunResult cpu, cpuTee, fpga, fpgaTee;

    double cpuSlowdown() const;  ///< CPU+TEE over CPU
    double fpgaSlowdown() const; ///< FPGA+TEE over FPGA
    double speedup() const;      ///< CPU+TEE over FPGA+TEE (Fig. 10)
    bool outputsCorrect() const;
};

/** The five Table 4 workloads, seed 2026, bench scale. */
std::vector<WorkloadRun> fig10Runs();

/** Conv, Rendering and FaceDetect, seed 7, bench scale. */
std::vector<WorkloadRun> table6Runs();

Rendered fig10(const std::vector<WorkloadRun> &runs);
Rendered table6(const std::vector<WorkloadRun> &runs);

} // namespace salus::paper

#endif // SALUS_PAPER_PAPER_HPP
