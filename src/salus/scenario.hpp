/**
 * @file
 * Declarative chaos-scenario engine: table-driven campaign files that
 * combine a device fleet, a tenant mix with QoS weights and admission
 * policies, a fault plan over virtual time, and an attack schedule —
 * plus the outcome invariants the run must satisfy. A campaign is
 * DATA: adding a gallery entry means writing a text file, not C++
 * (docs/SCENARIOS.md documents the schema).
 *
 * Format: strict INI. `[section]` headers, `key = value` lines, `#`
 * comments. Sections: `[scenario]`, `[broker]`, `[tenant <name>]`
 * (one per tenant), `[fault]` / `[action]` (repeatable, one rule or
 * action each), `[expect]`. Unknown sections or keys are ERRORS —
 * a typo must fail the parse, not silently weaken a campaign.
 *
 * Determinism contract: a scenario is driven entirely by the virtual
 * clock and the seeded fault/attack machinery, so running the same
 * file twice yields byte-identical obs traces and metrics dumps. The
 * gallery tests and `salus_cli run-scenario` enforce this on every
 * run.
 */

#ifndef SALUS_SALUS_SCENARIO_HPP
#define SALUS_SALUS_SCENARIO_HPP

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "salus/broker.hpp"
#include "sim/fault.hpp"

namespace salus::core {

/** Thrown on any malformed scenario file (fuzzed entry point). */
class ScenarioError : public SalusError
{
  public:
    explicit ScenarioError(const std::string &what)
        : SalusError("scenario: " + what)
    {}
};

/** One tenant: admission policy plus a synthetic traffic pattern. */
struct ScenarioTenant
{
    std::string name;
    TenantPolicy policy;
    /** Sessions the tenant opens at campaign start. */
    uint32_t sessions = 1;
    /** Traffic shape: flood | burst | trickle | idle. */
    std::string pattern = "trickle";
    /** Submission attempts per sweep while active (policy rejections
     *  are expected and counted, not fatal). */
    uint32_t opsPerSweep = 8;
    uint32_t startSweep = 0;
    uint32_t stopSweep = ~uint32_t(0);
    /** burst pattern: sweeps on / sweeps off per cycle. */
    uint32_t burstOn = 4;
    uint32_t burstOff = 4;
};

/** One fault rule in scenario-file form (mapped onto sim::FaultRule). */
struct ScenarioFault
{
    /** drop_rpc | corrupt_rpc | duplicate_rpc | reorder_rpc |
     *  delay_rpc | reg_fault | bitstream_load_fail | seu |
     *  device_dead | heartbeat_loss | dma_drop | dma_corrupt |
     *  dma_reorder */
    std::string kind;
    double probability = 1.0;
    std::string from, to, method; ///< RPC site narrowing
    uint32_t device = sim::kAnyDevice;
    uint32_t partition = 0; ///< seu
    uint64_t bit = 0;       ///< seu
    uint64_t delayUs = 0;   ///< delay_rpc
    uint64_t atMs = 0;      ///< window start (virtual ms)
    uint64_t untilMs = 0;   ///< window end; 0 = open-ended
    uint32_t times = 0;     ///< max firings; 0 = unbounded

    sim::FaultRule toRule() const;
};

/** One scheduled attack/maintenance action during the sweep loop. */
struct ScenarioAction
{
    /** rekey (SM session re-key) | replay (malicious shell replays
     *  recorded SM-window writes; needs malicious_shell = 1) | dma
     *  (submit one bulk transfer through the secure DMA lane). */
    std::string kind;
    uint32_t atSweep = 0;
    /** 0 = fire once at atSweep; else every N sweeps from atSweep. */
    uint32_t everySweeps = 0;
    /** dma action: payload size and sliding-window depth. */
    uint64_t bytes = 64 * 1024;
    uint32_t window = 8;

    bool firesAt(uint32_t sweep) const
    {
        if (sweep < atSweep)
            return false;
        if (everySweeps == 0)
            return sweep == atSweep;
        return (sweep - atSweep) % everySweeps == 0;
    }
};

/** Outcome invariants checked after the run (0 / absent = unchecked
 *  unless noted). */
struct ScenarioExpect
{
    uint64_t completedMin = 0;
    uint64_t quotaRejectedMin = 0;
    uint64_t rateRejectedMin = 0;
    uint64_t shedRejectedMin = 0;
    uint64_t seusMin = 0;
    /** Require the shed set to be empty after drain (recovery). */
    bool recoveredFromShed = false;
    /** Enforce the DRR starvation bound on every session (default
     *  ON — a scenario must opt out, never silently skip it). */
    bool noStarvation = true;
    /** Upper bound on failover events; ~0 = unchecked. */
    uint64_t failoversMax = ~uint64_t(0);
    /** Payload bytes the DMA plane must have delivered (status 0). */
    uint64_t dmaBytesMin = 0;
};

/** A parsed campaign. */
struct Scenario
{
    std::string name = "unnamed";
    uint64_t seed = 1;
    uint32_t devices = 1;
    uint32_t sweeps = 32;
    /** Supervisor pollOnce() cadence in sweeps; 0 = never. */
    uint32_t pollEvery = 4;
    bool maliciousShell = false;
    bool forgeHeartbeats = false;

    Broker::Config broker;
    std::vector<ScenarioTenant> tenants;
    std::vector<ScenarioFault> faults;
    std::vector<ScenarioAction> actions;
    ScenarioExpect expect;
};

/** Result of one scenario run, with the deterministic artifacts. */
struct ScenarioOutcome
{
    bool deployOk = false;
    uint64_t completed = 0;
    uint64_t admitted = 0;
    uint64_t quotaRejected = 0;
    uint64_t rateRejected = 0;
    uint64_t shedRejected = 0;
    uint64_t failovers = 0; ///< failovers the supervisor completed
    uint64_t seusInjected = 0;
    uint64_t maxSweepsWaited = 0;
    uint64_t dmaJobs = 0;  ///< DMA jobs completed (any status)
    uint64_t dmaBytes = 0; ///< payload bytes delivered with status 0
    size_t shedLevelEnd = 0;
    sim::Nanos clockEnd = 0;
    /** (tenant name, stats) in registration order. */
    std::vector<std::pair<std::string, TenantStats>> tenants;
    /** Byte-comparable artifacts (same seed => identical). */
    std::string traceJson;
    std::string metricsText;
    /** Violated expectations (empty = all invariants held). */
    std::vector<std::string> violations;

    ScenarioOutcome() = default;
    ScenarioOutcome(const ScenarioOutcome &) = default;
    ScenarioOutcome(ScenarioOutcome &&) noexcept = default;
    ScenarioOutcome &operator=(const ScenarioOutcome &) = default;

    /**
     * Moves every field and frees this outcome's old buffers. The
     * member-wise default would not: a std::string move-assigned from
     * a short (in-place) string keeps its own heap buffer, so
     * `o = ScenarioOutcome{}` would leave a campaign's whole trace
     * resident. Destroy-then-construct releases it.
     */
    ScenarioOutcome &
    operator=(ScenarioOutcome &&other) noexcept
    {
        if (this != &other) {
            std::destroy_at(this);
            std::construct_at(this, std::move(other));
        }
        return *this;
    }

    bool passed() const { return deployOk && violations.empty(); }
};

/** Parses a campaign from text. @throws ScenarioError (also on any
 *  malformed numeric / out-of-bounds value — fuzz target). */
Scenario parseScenario(const std::string &text);

/** Loads + parses a campaign file. @throws ScenarioError. */
Scenario parseScenarioFile(const std::string &path);

/**
 * Runs one campaign end to end: deploy, the sweep loop dispatched on
 * the testbed's deterministic event engine (sim::Engine, FIFO order
 * at one instant), drain, invariant evaluation. Deterministic per
 * (file, seed); the metrics record the seed as `scenario.seed`, and
 * tests/golden/artifacts.sha256 pins every gallery campaign's trace
 * and metrics digests.
 */
ScenarioOutcome runScenarioOnEngine(const Scenario &scenario);

} // namespace salus::core

#endif // SALUS_SALUS_SCENARIO_HPP
