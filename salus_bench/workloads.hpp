/**
 * @file
 * The four salus_bench workloads. Each one drives the simulator only
 * through its public API and has two entry points:
 *
 *  - run: untraced timed reps of fixed work -> the end-to-end metrics
 *    (and the workload's headline numbers);
 *  - traced: obs capture for the virtual clock, plus the workload's
 *    calls replayed into each layer's public functions on the same
 *    inputs and timed on the HostClock -> the per-layer metrics.
 */

#ifndef SALUS_BENCH_WORKLOADS_HPP
#define SALUS_BENCH_WORKLOADS_HPP

#include <memory>
#include <vector>

#include "fpga/ip.hpp"
#include "ledger.hpp"
#include "salus/testbed.hpp"

namespace salus::bench {

struct Options
{
    uint64_t seed = 1;
    /** Wall seconds the rep loop runs for (reps repeat until then). */
    double seconds = 20;
    /** About 1% of every workload's size; for the ctest smoke run. */
    bool smoke = false;
    /** Smoke negative case: corrupt one readback in device DRAM. */
    bool corruptReadback = false;
};

/** Runs `rep(i)` until `seconds` of wall time have passed and at
 *  least `minReps` reps ran; never more than `maxReps`.
 *  @return reps run. */
template <typename F>
int
repeatFor(double seconds, int minReps, int maxReps, F &&rep)
{
    auto start = std::chrono::steady_clock::now();
    auto wallSeconds = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    int reps = 0;
    while (reps < maxReps && (reps < minReps || wallSeconds() < seconds)) {
        rep(reps);
        ++reps;
    }
    return reps;
}

/** Boots a small loopback CL on `cfg`'s device: the set-up the channel
 *  workloads share. A failed deployment counts as a failed check. */
inline std::unique_ptr<core::Testbed>
bootLoopbackCl(const core::TestbedConfig &cfg, RunResult &result)
{
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {10, 10, 0, 0};
    auto tb = std::make_unique<core::Testbed>(cfg);
    tb->installCl(accel);
    result.check(tb->runDeployment().ok, "loopback CL deployment failed");
    return tb;
}

// One translation unit per workload.
RunResult runColdBoot(const Options &opts);
RunResult tracedColdBoot(const Options &opts, HostTrace &trace);
extern const std::vector<MetricSpec> kColdBootLayers;

RunResult runTenantRegchan(const Options &opts);
RunResult tracedTenantRegchan(const Options &opts, HostTrace &trace);
extern const std::vector<MetricSpec> kTenantRegchanLayers;

RunResult runBulkDma(const Options &opts);
RunResult tracedBulkDma(const Options &opts, HostTrace &trace);
extern const std::vector<MetricSpec> kBulkDmaLayers;

RunResult runFleetChaos(const Options &opts);
RunResult tracedFleetChaos(const Options &opts, HostTrace &trace);
extern const std::vector<MetricSpec> kFleetChaosLayers;

} // namespace salus::bench

#endif // SALUS_BENCH_WORKLOADS_HPP
