/**
 * @file
 * Workload descriptors tying each kernel to its netlist cell (with the
 * paper's Table 5 resource vector), its FPGA parallelism, and the
 * evaluation input scale.
 */

#ifndef SALUS_ACCEL_WORKLOADS_HPP
#define SALUS_ACCEL_WORKLOADS_HPP

#include <vector>

#include "accel/kernels.hpp"
#include "netlist/netlist.hpp"

namespace salus::accel {

/** One benchmark application. */
struct WorkloadSpec
{
    KernelId id;
    const char *name;
    netlist::ResourceVector resources; ///< paper Table 5 row
    /** Sustained MAC-equivalents per fabric cycle (pipeline width). */
    uint32_t opsPerCycle;
    /** Host CPU nanoseconds per MAC-equivalent (see allWorkloads()). */
    double cpuNsPerOp;
    /** Input scale of the paper tables (1.0 = paper-like size). */
    double benchScale;
};

/** All five paper workloads (Table 4/Table 5). */
const std::vector<WorkloadSpec> &allWorkloads();

/** Lookup by kernel id. */
const WorkloadSpec &workload(KernelId id);

/** Builds the developer's accelerator cell for this workload. */
netlist::Cell accelCellFor(const WorkloadSpec &spec);

/** Fabric clock of the cycle model (Alveo-class design). */
constexpr double kFpgaClockHz = 250e6;

} // namespace salus::accel

#endif // SALUS_ACCEL_WORKLOADS_HPP
