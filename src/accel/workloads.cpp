#include "accel/workloads.hpp"

#include "common/errors.hpp"

namespace salus::accel {

const std::vector<WorkloadSpec> &
allWorkloads()
{
    // Resource vectors are the paper's Table 5 rows (LUT / FF / BRAM);
    // DSP counts are not reported there, so they are estimated from
    // the kernels' MAC width.
    //
    // cpuNsPerOp is this repo's own kernel on a host core, measured on
    // 2026-10-19 on a shared 4-vCPU Intel Xeon VM (GCC, -O2
    // RelWithDebInfo): runKernel at benchScale, median of 41 runs (9
    // for Conv) per input seed 1, 7, 42 and 2026, divided by
    // kernelOps, then the median over the four seeds. FaceDetect's
    // cascade exits early on some images, so its time per op ranged
    // from 0.54 to 4.19 ns over the seeds; the others varied by at
    // most 31%.
    static const std::vector<WorkloadSpec> specs = {
        // Conv's pipeline width is calibrated to the paper's own
        // measurement: their FPGA Conv (1522 ms) beats the CPU
        // (3039 ms) by only ~2x, implying a modest SDAccel-example
        // engine rather than a wide systolic array.
        {KernelId::Conv, "Conv", {19735, 20169, 329, 512}, 12, 0.749,
         1.0},
        {KernelId::Affine, "Affine", {32014, 36382, 543, 64}, 16, 0.522,
         1.0},
        {KernelId::Rendering, "Rendering",
         {29132, 35731, 142, 96}, 32, 0.374, 1.0},
        {KernelId::FaceDetect, "FaceDetect",
         {31956, 36201, 62, 128}, 32, 2.10, 1.0},
        {KernelId::NnSearch, "NNSearch",
         {49069, 42568, 122, 256}, 64, 0.207, 0.5},
    };
    return specs;
}

const WorkloadSpec &
workload(KernelId id)
{
    for (const auto &spec : allWorkloads()) {
        if (spec.id == id)
            return spec;
    }
    throw SalusError("unknown workload");
}

netlist::Cell
accelCellFor(const WorkloadSpec &spec)
{
    netlist::Cell cell;
    cell.path = std::string(spec.name) + "_engine";
    cell.kind = netlist::CellKind::Logic;
    cell.behaviorId = uint32_t(spec.id);
    cell.resources = spec.resources;
    return cell;
}

} // namespace salus::accel
