/**
 * @file
 * Fleet-scale event-driven simulation: N user sessions spread across
 * M FPGA devices, each session alternating secure register bursts and
 * sealed DMA transfers with think time in between. Built entirely on
 * sim::Engine actors, so the whole fleet shares ONE virtual clock yet
 * every device's register lane and DMA lane makes progress
 * concurrently — the scale regime the lockstep testbed loop cannot
 * reach (it serializes every device on the wire model).
 *
 * A cost-model-only fleet model: the register lane is sim::CostModel
 * arithmetic (batch crypto, PCIe RTT and bandwidth) and never runs
 * reg_channel or the SM code; the DMA lane (DmaLaneActor) runs the
 * sealed path's DmaWindowEngine timing on no-loss hooks. Every busy
 * period lands in the trace as a coalesced span, so the run proves
 * its own accounting: per-phase span sums must match the cost-model
 * totals the actors accrued (1% tolerance in the report's ok flag;
 * exact in practice). Same seed = byte-identical trace + metrics —
 * the determinism CI gate runs a 10k-session fleet twice and byte-
 * compares the artifacts.
 */

#ifndef SALUS_SALUS_FLEET_SIM_HPP
#define SALUS_SALUS_FLEET_SIM_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cost_model.hpp"

namespace salus::core {

/** Knobs for one fleet-scale run. Defaults give a quick smoke; the
 *  scale bench sweeps sessions × devices up to 10k × 256. */
struct FleetSimConfig
{
    uint64_t seed = 1;
    uint32_t sessions = 1000;
    uint32_t devices = 16;
    /** Register-channel bursts per session (before its DMA job). */
    uint32_t burstsPerSession = 3;
    uint32_t opsPerBurst = 32;
    /** Bulk bytes each session moves once its bursts finish. */
    uint64_t dmaBytesPerSession = 64 * 1024;
    uint32_t dmaChunkBytes = 16 * 1024;
    uint32_t dmaWindow = 8;
    /** Session kickoff times are spread uniformly over this span. */
    sim::Nanos arrivalSpread = 50 * sim::kMs;
    /** Mean think time between a session's bursts (seeded jitter in
     *  [mean/2, 3*mean/2)). */
    sim::Nanos thinkMean = 2 * sim::kMs;
    /** Shuffle same-instant event order per seed (determinism audit:
     *  the metrics must not depend on tie order). */
    bool seededTieBreak = false;
    sim::CostModel cost;
};

/** Everything a fleet run proves, plus its exported artifacts. */
struct FleetSimReport
{
    uint64_t sessionsCompleted = 0;
    uint64_t regBursts = 0;
    uint64_t regOps = 0;
    uint64_t dmaJobs = 0;
    uint64_t dmaBytes = 0;
    uint64_t eventsDispatched = 0;
    uint64_t maxQueued = 0;
    sim::Nanos virtualEnd = 0;

    /** Cost-model totals accrued by the actors... */
    sim::Nanos expectedRegNanos = 0;
    sim::Nanos expectedDmaNanos = 0;
    /** ...and what the trace spans sum to (must match within 1%). */
    sim::Nanos spanRegNanos = 0;
    sim::Nanos spanDmaNanos = 0;

    /** Exported artifacts (byte-deterministic per seed). */
    std::string traceJson;
    std::string metricsText;

    bool ok = false;
    std::vector<std::string> violations;
};

/** Runs one fleet-scale simulation to completion. */
FleetSimReport runFleetSim(const FleetSimConfig &config);

} // namespace salus::core

#endif // SALUS_SALUS_FLEET_SIM_HPP
