/**
 * @file
 * Fleet supervisor for a pool of Salus FPGA devices.
 *
 * The supervisor is an UNTRUSTED cloud-operator component (like the
 * shell): it decides *availability* — which device serves — but can
 * never influence *security*. Every security-relevant consequence of
 * its decisions is re-derived by the trusted parties: a failover
 * re-runs RoT injection and the full cascaded attestation, and the
 * liveness signal it acts on is MAC'd by the CL under Key_attest, so
 * a malicious supervisor (or shell) can at worst deny service.
 *
 * Mechanics:
 *  - Heartbeat/watchdog: each poll sends a MAC'd liveness probe to
 *    every device (via the SM enclave, which owns Key_attest).
 *  - Per-device health: a sliding-window failure-rate circuit
 *    breaker (fpga::HealthTracker) drives HEALTHY -> DEGRADED ->
 *    QUARANTINED, with probation-based reinstatement.
 *  - Failover: when the active device is quarantined, the session is
 *    re-deployed onto the healthiest spare; the FailoverRecord keeps
 *    the evidence (timing, fingerprints) the tests and benches audit.
 */

#ifndef SALUS_SALUS_SUPERVISOR_HPP
#define SALUS_SALUS_SUPERVISOR_HPP

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "fpga/health.hpp"
#include "salus/placement.hpp"
#include "salus/sm_enclave.hpp"
#include "sim/clock.hpp"
#include "sim/fault.hpp"

namespace salus::core {

// ---- Fleet wire messages --------------------------------------------
// The supervisor talks to the SM enclave host over the (simulated)
// cloud network; these frames are what crosses it.

/** Liveness probe request (supervisor -> SM host). */
struct HeartbeatRequest
{
    uint32_t deviceId = 0;
    uint64_t nonce = 0;

    Bytes serialize() const;
    static HeartbeatRequest deserialize(ByteView data);
};

/** Liveness probe response (SM host -> supervisor). */
struct HeartbeatResponse
{
    uint8_t reachable = 0;
    uint8_t authentic = 0;
    uint64_t count = 0;     ///< fabric beat counter
    uint64_t nonceEcho = 0; ///< request nonce + 1
    std::string failure;

    Bytes serialize() const;
    static HeartbeatResponse deserialize(ByteView data);
};

/** Audit record of one completed failover. */
struct FailoverRecord
{
    uint32_t fromDevice = 0;
    uint32_t toDevice = 0;
    uint64_t atNanos = 0; ///< virtual time the failover started
    std::string reason;
    Bytes oldFingerprint; ///< retired secrets of the dead device
    Bytes newFingerprint; ///< fresh secrets on the spare
    uint8_t attested = 0; ///< cascaded attestation re-ran and passed
    uint32_t attempts = 0;

    Bytes serialize() const;
    static FailoverRecord deserialize(ByteView data);
};

/** Wiring between the supervisor and the rest of the testbed. */
struct SupervisorDeps
{
    sim::VirtualClock *clock = nullptr;
    /** Consulted per probe for heartbeat-loss faults. */
    sim::FaultInjector *injector = nullptr;
    uint32_t deviceCount = 1;
    fpga::HealthPolicy health;
    sim::Nanos probePeriod = 10 * sim::kMs;
    /** Probes one device (RPC into the SM enclave host). */
    std::function<SmEnclaveApp::HeartbeatResult(uint32_t)> probe;
    /** Performs the failover (SM device switch + full re-deployment
     *  with cascaded attestation) and reports the evidence. */
    std::function<FailoverRecord(uint32_t from, uint32_t to,
                                 const std::string &reason)>
        failover;
    /** Performs a live migration of the active session (quiesce the
     *  scheduler, commit the MAC'd ticket, re-deploy + re-attest the
     *  target, release the parked queue) and reports the evidence. */
    std::function<MigrationRecord(uint32_t from, uint32_t to,
                                  const std::string &reason)>
        migrate;
    /** Which device currently serves the session. */
    std::function<uint32_t()> activeDevice;
};

/** The watchdog + circuit breaker + failover driver. */
class FleetSupervisor
{
  public:
    explicit FleetSupervisor(SupervisorDeps deps);

    /** One watchdog pass: probe every non-quarantined device, feed
     *  the health trackers, then fail over if the active device got
     *  quarantined. */
    void pollOnce();

    /** The only timed watchdog loop: for a span of virtual time,
     *  charges one probePeriod to "Fleet Heartbeat", then polls.
     *  Event-driven drivers call pollOnce() from their own events. */
    void runFor(sim::Nanos duration);

    /**
     * External failure evidence (e.g. the SM enclave exhausting its
     * retry schedule against a device). Record-only — it arrives from
     * inside the SM's request path, so failover is deferred to the
     * next pollOnce()/guardedOp() at top level.
     */
    void noteDeviceFailure(uint32_t deviceId, const ErrorContext &ctx);

    /**
     * Runs one register-channel operation under failover protection.
     * Returns true when the op committed exactly once. If the op
     * reports failure and the supervisor fails the session over as a
     * consequence, throws FailoverError: the op did NOT observably
     * commit and is never auto-replayed onto the new device — the
     * caller decides whether to re-issue it on the fresh session.
     */
    bool guardedOp(const std::function<bool()> &op,
                   const std::string &what);

    /** Healthiest spare to fail over to (lowest-id healthy device,
     *  falling back to degraded); nullopt when none remains. */
    std::optional<uint32_t> pickSpare() const;

    // ---- Live migration & rolling upgrades --------------------------
    /**
     * Live-migrates the active session to `to` (planned move: load
     * balancing, rolling upgrade). All pre-checks run BEFORE the
     * migration machinery quiesces anything, so on any refusal the
     * session keeps serving on the source untouched.
     * @throws MigrationError on an unusable target (unknown, already
     *         active, quarantined), missing wiring, or a migration
     *         that failed before committing.
     */
    MigrationRecord migrateActiveTo(uint32_t to,
                                    const std::string &reason);

    /**
     * Rolling-upgrade drain of one device: marks it ineligible for
     * placement, live-migrates the real active session away when it
     * is serving there, re-places every logical session assigned to
     * it, then holds it in maintenance quarantine until
     * completeUpgrade(). Degrades gracefully: when the fleet has no
     * remaining capacity (or the live migration fails) eligibility is
     * restored, a MigrationError propagates, and every session keeps
     * serving where it was.
     * @return logical sessions re-placed off the device.
     */
    size_t drainForUpgrade(uint32_t device, Placement &placement,
                           const std::string &reason);

    /** Ends a drained device's maintenance window: the device goes to
     *  PROBATION (earning reinstatement with clean probes) and
     *  becomes placement-eligible again. */
    void completeUpgrade(uint32_t device, Placement &placement);

    /**
     * Forgets the expected-monotone heartbeat floor for a device.
     * Call ONLY when the deployment epoch changed (failover or
     * migration redeployed the device): the fresh SM logic restarts
     * its beat counter at 1, which the kept floor would misread as a
     * replay. The floor is deliberately KEPT across quarantine and
     * probation reinstatement — that is what rejects a stale MAC'd
     * heartbeat captured before the quarantine.
     */
    void resetBeatExpectation(uint32_t deviceId);

    const fpga::HealthTracker &tracker(uint32_t deviceId) const
    {
        return trackers_.at(deviceId);
    }
    fpga::HealthState state(uint32_t deviceId) const
    {
        return trackers_.at(deviceId).state();
    }
    const std::vector<FailoverRecord> &failovers() const
    {
        return failovers_;
    }
    const std::vector<MigrationRecord> &migrations() const
    {
        return migrations_;
    }
    uint64_t polls() const { return polls_; }

  private:
    void maybeFailover();

    SupervisorDeps deps_;
    std::vector<fpga::HealthTracker> trackers_;
    std::vector<FailoverRecord> failovers_;
    std::vector<MigrationRecord> migrations_;
    /** Highest MAC-verified beat count seen per device. An authentic
     *  active-device response at or below the floor is a replayed
     *  stale heartbeat — treated as a forgery. */
    std::vector<uint64_t> beatFloor_;
    uint64_t polls_ = 0;
    /** Failover re-runs the deployment, which can report failures of
     *  its own; never recurse into a second failover from there. */
    bool failingOver_ = false;
};

} // namespace salus::core

#endif // SALUS_SALUS_SUPERVISOR_HPP
