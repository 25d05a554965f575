/**
 * @file
 * Full-platform testbed: manufactures the hardware, provisions the
 * TEE, boots the cloud instance and wires the three network domains
 * of §6.1 (user client / cloud instance / manufacturer server). This
 * is the top of the public API — examples, integration tests and the
 * boot-time benches all drive a Testbed.
 *
 * The testbed owns a POOL of FPGA devices (deviceCount, default 1 for
 * the paper's single-device flows). Each device has its own eFUSE
 * Key_device, DeviceDNA, shell and fault-injector wiring; the SM
 * enclave holds the per-device deployment table, and a
 * FleetSupervisor watches heartbeats and drives attested failover.
 */

#ifndef SALUS_SALUS_TESTBED_HPP
#define SALUS_SALUS_TESTBED_HPP

#include <memory>

#include "manufacturer/manufacturer.hpp"
#include "salus/cl_builder.hpp"
#include "salus/developer.hpp"
#include "salus/scheduler.hpp"
#include "salus/sm_enclave.hpp"
#include "salus/supervisor.hpp"
#include "salus/user_client.hpp"
#include "salus/user_enclave.hpp"
#include "shell/attacks.hpp"
#include "sim/engine.hpp"

namespace salus::core {

/** Testbed construction options. */
struct TestbedConfig
{
    fpga::DeviceModelInfo deviceModel = fpga::testModel();
    uint64_t rngSeed = 1;
    /** Size of the FPGA pool (device 0 starts active). */
    uint32_t deviceCount = 1;
    /** Use MaliciousShells with this plan instead of honest ones
     *  (the CSP ships the same shell on every device). */
    bool maliciousShell = false;
    shell::AttackPlan attackPlan;
    /** Seeded deterministic fault schedule (default: fault-free). */
    sim::FaultPlan faultPlan;
    /** Retry schedule shared by the user client and the SM enclave.
     *  Default: the standard self-healing schedule (a fault-free run
     *  is trace-identical with retries on or off, since backoff is
     *  only charged after a failure). */
    net::RetryPolicy retry = net::RetryPolicy::standard();
    /** Health-breaker tuning for the fleet supervisor. */
    fpga::HealthPolicy health;
    /** Watchdog poll period on the virtual clock. */
    sim::Nanos heartbeatPeriod = 10 * sim::kMs;
    /** Cost model for the virtual clock (defaults: paper calibration). */
    sim::CostModel cost;
    /** The developer's user-enclave build. */
    tee::EnclaveImage userImage;
    /** Batch-scheduler tuning (multi-session secure channel). */
    size_t schedulerQueueCapacity = 256;
    size_t schedulerMaxBatchOps = 32;

    TestbedConfig();
};

/** Endpoint names used on the testbed network. */
namespace endpoints {
inline const char *const kUserClient = "user-client";
inline const char *const kCloudHost = "cloud-host";
inline const char *const kManufacturer = "mft-server";
inline const char *const kSupervisor = "fleet-supervisor";
} // namespace endpoints

/** A complete simulated deployment. */
class Testbed
{
  public:
    explicit Testbed(TestbedConfig config = {});
    ~Testbed();

    // RPC handlers and enclave dependencies capture `this`; the
    // testbed must stay at one address for its lifetime.
    Testbed(const Testbed &) = delete;
    Testbed &operator=(const Testbed &) = delete;

    /**
     * "Development phase": integrates the accelerator with the SM
     * logic, compiles the CL, and publishes bitstream + metadata to
     * the (untrusted) cloud storage this testbed models.
     */
    void installCl(netlist::Cell accelCell,
                   std::vector<netlist::Cell> extraCells = {});

    /**
     * Installs a developer-published signed artifact instead of
     * compiling locally (the realistic IP-marketplace flow).
     * @return false when the signature or digest check fails — the
     *         artifact is then NOT installed.
     */
    bool installArtifact(const ClArtifact &artifact,
                         ByteView expectedDeveloperKey);

    /** "Deployment phase": the full cascaded attestation flow.
     *  @param customize optional hook to adjust the client's policy
     *  (e.g. MRSIGNER pinning, minimum SVN) before it runs. */
    UserClient::Outcome runDeployment(
        const std::function<void(ClientConfig &)> &customize = nullptr);

    // ---- Component access for tests, benches and examples ----------
    sim::VirtualClock &clock() { return clock_; }
    const sim::CostModel &cost() const { return config_.cost; }
    net::Network &network() { return *network_; }
    /** The shared fault fabric (always present; no-op when the plan
     *  is empty). Tests arm additional rules at runtime through it. */
    sim::FaultInjector &faultInjector() { return *injector_; }
    manufacturer::Manufacturer &mft() { return *manufacturer_; }
    tee::TeePlatform &teePlatform() { return *platform_; }
    /** The ACTIVE device/shell (single-device flows never notice the
     *  pool exists). */
    fpga::FpgaDevice &device() { return device(activeDevice()); }
    shell::Shell &shell() { return shell(activeDevice()); }
    /** Pool access by index. */
    fpga::FpgaDevice &device(uint32_t index)
    {
        return *slots_.at(index).device;
    }
    shell::Shell &shell(uint32_t index)
    {
        return *slots_.at(index).shell;
    }
    uint32_t deviceCount() const { return uint32_t(slots_.size()); }
    /** The device currently serving the session. */
    uint32_t activeDevice() const;
    /** Non-null only when configured malicious (active device). */
    shell::MaliciousShell *maliciousShell()
    {
        return slots_.at(activeDevice()).malicious;
    }
    shell::MaliciousShell *maliciousShell(uint32_t index)
    {
        return slots_.at(index).malicious;
    }
    SmEnclaveApp &smApp() { return *smApp_; }
    UserEnclaveApp &userApp() { return userApp(0); }
    FleetSupervisor &supervisor() { return *supervisor_; }

    /**
     * Adds a tenant user enclave with its own SM peer channel and
     * fabric session slot. @return the peer/slot id (>= 1). Call
     * userApp(peer).attachToPlatform() after the platform has booted.
     */
    uint32_t addUserSession();
    /** User enclave by peer id (0 = the session owner). */
    UserEnclaveApp &userApp(uint32_t peer) { return *users_.at(peer); }

    /**
     * The multi-session batch scheduler, lazily built over the
     * supervisor-guarded batched channel. Sessions registered: slot 0
     * plus every addUserSession() peer.
     */
    BatchScheduler &scheduler();
    crypto::RandomSource &rng() { return *rng_; }

    /**
     * The deterministic event engine over this testbed's clock,
     * lazily built (same-instant events run in post order).
     * Event-driven drivers register their actors here.
     */
    sim::Engine &engine();

    /** The published CL artifacts (mutable so tests can tamper). */
    Bytes &storedBitstream() { return storedBitstream_; }
    ClMetadata &metadata() { return metadata_; }
    const ClLayout &layout() const { return layout_; }
    const netlist::ResourceVector &utilization() const
    {
        return utilization_;
    }
    /** Host-side (untrusted) storage of the SM's sealed journal —
     *  mutable so rollback attacks can be staged. */
    Bytes &sealedJournal() { return journalStore_; }

    /** SimHooks bound to this testbed's clock and cost model. */
    SimHooks simHooks();

    /**
     * Simulates an SM-application restart (instance reboot): the old
     * enclave is destroyed and a fresh one loaded from the same
     * image. Optionally imports a sealed device key exported by the
     * previous instance, skipping the manufacturer round trip.
     * @return true when the sealed key (if given) was accepted.
     */
    bool restartSmApp(ByteView sealedDeviceKey = ByteView());

    /**
     * Simulates an SM-enclave CRASH + restart with journal recovery:
     * a fresh enclave instance rehydrates from the host-stored sealed
     * journal (anti-rollback checked, deployed devices re-attested).
     */
    SmEnclaveApp::RecoveryReport crashAndRecoverSmApp();

    /**
     * The full failover sequence the supervisor invokes when the
     * active device is quarantined: switch the SM to `to` (retiring
     * the dead device's secrets) and re-run the entire cascaded
     * attestation against the new DeviceDNA. Exposed for tests.
     */
    FailoverRecord performFailover(uint32_t from, uint32_t to,
                                   const std::string &reason);

    /**
     * The live-migration sequence the supervisor invokes for planned
     * moves (load balancing, rolling upgrades), in order: quiesce the
     * batch scheduler (new ops park under backpressure), obtain the
     * SM's MAC'd migration ticket, commit it (tombstones the source
     * epoch's secrets), re-deploy + re-run the cascaded attestation
     * on the target, then release the parked queue. The queue is
     * released on EVERY exit path — a failed migration leaves the
     * parked ops flowing again on whichever device is active.
     * Exposed for tests.
     * @throws MigrationError when the SM refuses to issue or commit
     *         the ticket (session keeps serving on the source).
     */
    MigrationRecord performMigration(uint32_t to,
                                     const std::string &reason);

  private:
    struct DeviceSlot
    {
        std::unique_ptr<fpga::FpgaDevice> device;
        std::unique_ptr<shell::Shell> shell;
        shell::MaliciousShell *malicious = nullptr;
    };

    SmEnclaveDeps makeSmDeps();
    void rebuildSmApp();
    /** Builds the user enclave for an allocated SM peer, wired to that
     *  peer's LA responder and sealed channel. */
    void addUser(uint32_t peer, tee::EnclaveImage image);

    TestbedConfig config_;
    sim::VirtualClock clock_;
    std::unique_ptr<crypto::CtrDrbg> rng_;
    std::unique_ptr<sim::FaultInjector> injector_;
    std::unique_ptr<manufacturer::Manufacturer> manufacturer_;
    std::unique_ptr<tee::TeePlatform> platform_;
    std::vector<DeviceSlot> slots_;
    std::unique_ptr<net::Network> network_;
    std::unique_ptr<SmEnclaveApp> smApp_;
    /** User enclaves, indexed by SM peer/slot id (0 = the owner). */
    std::vector<std::unique_ptr<UserEnclaveApp>> users_;
    std::unique_ptr<BatchScheduler> scheduler_;
    std::unique_ptr<FleetSupervisor> supervisor_;
    std::unique_ptr<sim::Engine> engine_;

    Bytes storedBitstream_;
    ClMetadata metadata_;
    ClLayout layout_;
    netlist::ResourceVector utilization_;
    bool clInstalled_ = false;
    Bytes journalStore_;
};

} // namespace salus::core

#endif // SALUS_SALUS_TESTBED_HPP
