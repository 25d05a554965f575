/**
 * @file
 * The secure-manager (SM) enclave application (paper §4.1, §5.2.2) —
 * the manufacturer-released SDK enclave that owns all secure CL
 * booting functionality:
 *
 *  - answers the user enclave's local attestation and receives the
 *    bitstream metadata (H, Loc_*) over the sealed channel;
 *  - remote-attests itself to the manufacturer's key-distribution
 *    service and receives Key_device wrapped to an ephemeral key that
 *    the quote itself binds (step ④);
 *  - verifies the fetched bitstream against H, generates fresh CL
 *    secrets, injects them by bitstream manipulation, encrypts with
 *    Key_device and hands the ciphertext to the shell (steps ⑤⑥);
 *  - runs the symmetric CL attestation of Fig. 4a (step ⑦);
 *  - afterwards serves as the host end of the secure register channel
 *    (§4.5).
 *
 * Fleet extensions (beyond the paper's single-device prototype):
 *
 *  - manages a pool of FPGA devices, each with its own DeviceDNA and
 *    Key_device; exactly one device is *active* (serves the session);
 *  - answers MAC'd liveness probes for the fleet supervisor
 *    (heartbeatDevice);
 *  - fails over to a spare on demand (setActiveDevice): the dead
 *    device's session secrets are retired (fingerprinted + wiped) and
 *    may never be reused — deployCl asserts every fresh secret set
 *    against the retirement list;
 *  - persists its deployment record + session slots in a sealed,
 *    monotonic-counter-versioned journal so a crashed SM instance can
 *    rehydrate (rehydrate()); rolled-back journals are rejected and
 *    the enclave fails closed.
 *
 * Public methods model the untrusted host process invoking enclave
 * entry points: every argument is attacker-influencable, and nothing
 * secret ever appears in a return value unless sealed/encrypted.
 */

#ifndef SALUS_SALUS_SM_ENCLAVE_HPP
#define SALUS_SALUS_SM_ENCLAVE_HPP

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "net/network.hpp"
#include "salus/dma_channel.hpp"
#include "salus/messages.hpp"
#include "salus/placement.hpp"
#include "salus/reg_channel.hpp"
#include "salus/secrets.hpp"
#include "salus/sim_hooks.hpp"
#include "salus/sm_logic.hpp"
#include "shell/shell.hpp"
#include "sim/fault.hpp"
#include "tee/local_attest.hpp"
#include "tee/platform.hpp"

namespace salus::core {

/** Channel message types (user enclave -> SM enclave). */
enum class SmChannelMsg : uint8_t {
    SetMetadata = 1,
    RunSecureBoot = 2,
    SecureRegOp = 3,
    QueryStatus = 4,
    RekeySession = 5,   ///< roll the register-channel session keys
    SecureRegBatch = 6, ///< burst of ops over the batched channel
};

/** One FPGA the SM enclave can deploy to. */
struct SmDeviceBinding
{
    shell::Shell *shell = nullptr;
    uint64_t dna = 0; ///< CSP-advertised DeviceDNA
};

/** Host-side/service dependencies handed to the SM application. */
struct SmEnclaveDeps
{
    net::Network *network = nullptr;
    std::string selfEndpoint;         ///< our RPC endpoint name
    std::string manufacturerEndpoint; ///< key-distribution endpoint
    /** The device pool; device 0 starts active. */
    std::vector<SmDeviceBinding> devices;
    /** Views the CL bitstream file in (untrusted) cloud storage. The
     *  view must stay valid until the deployment that asked returns;
     *  the SM enclave copies it once before reading any byte. */
    std::function<ByteView()> fetchBitstream;
    /** Retry schedule for transport faults (manufacturer round trip,
     *  secure-boot attempts, register-channel ops). The default
     *  disables retries; security rejections are never retried. */
    net::RetryPolicy retry;
    SimHooks sim;
    /** Fault injector consulted at journal-write crash points. */
    sim::FaultInjector *fault = nullptr;
    /** Host-owned storage (untrusted) for the sealed journal; required.
     *  Every commit overwrites it and rehydrate() reads it back, so a
     *  restarted instance pointed at the same bytes resumes the
     *  deployment. */
    Bytes *journal = nullptr;
    /** Invoked when a device exhausts the retry schedule on the
     *  register channel or secure boot — the fleet supervisor's cue
     *  to consider failover. */
    std::function<void(uint32_t, const ErrorContext &)> onDeviceFailure;
};

/** Values a counter span hands out between two journal commits.
 *  Larger strides amortise commits; a crash skips at most this many
 *  values (the fabric only requires strict increase). */
constexpr uint64_t kCtrReserveStride = 64;

/**
 * One stream of never-reused values with a write-ahead reservation:
 * a session slot's register-channel counters or its DMA descriptor
 * sequence numbers. Values below `reserved` may already have reached
 * the fabric; the journal persists `reserved`, so a restart resumes at
 * or above it and never re-issues a value (and with it a keystream).
 */
struct CounterSpan
{
    uint64_t next = 0;     ///< next value handed out
    uint64_t reserved = 0; ///< journalled reservation (exclusive)
    uint64_t bound = 0;    ///< first value never handed out

    /**
     * Hands out the n values [next, next + n). When they run past the
     * reservation, first extends it to min(bound, next + n +
     * kCtrReserveStride) and calls `commit` (the journal write): if
     * that write crashes, the old journal's reservation still covers
     * every value the fabric saw. A span that would reach past `bound`
     * is refused with nothing committed.
     * @return the first value of the span, or nothing when refused.
     */
    template <typename Commit>
    std::optional<uint64_t> reserve(uint64_t n, Commit &&commit)
    {
        if (next > bound || n > bound - next)
            return std::nullopt;
        uint64_t end = next + n;
        if (end > reserved) {
            reserved = end + std::min(bound - end, kCtrReserveStride);
            commit();
        }
        uint64_t first = next;
        next = end;
        return first;
    }

    /** Restart after a crash: never below the journalled reservation. */
    void resume(uint64_t floor) { next = std::max(floor, reserved); }
};

/** Tuning knobs for one windowed DMA transfer. */
struct SmDmaOptions
{
    size_t windowSize = 8; ///< descriptors kept in flight
    /** Payload bytes per descriptor. Writes are capped so an encoded
     *  descriptor fits one staging slot; reads so the sealed response
     *  fits one response slot. */
    size_t descriptorBytes = 64 * 1024;
    uint32_t maxAttempts = 8; ///< sends per descriptor before 0xf8
};

/**
 * The SM enclave program. Like the SM logic it talks to, it keeps one
 * table per kind of thing: peers (user enclaves on the sealed
 * channel), fabric session slots (slot 0 is the base session, the rest
 * are derived) and the device pool. The owner peer 0 and the base
 * slot 0 are entries of those tables, not separate state.
 */
class SmEnclaveApp : public tee::Enclave
{
  public:
    SmEnclaveApp(tee::TeePlatform &platform, SmEnclaveDeps deps);

    /** The manufacturer-published SM enclave build. */
    static tee::EnclaveImage defaultImage();
    /** Measurement of defaultImage() — whitelisted for key release. */
    static tee::Measurement defaultMeasurement();

    // ---- Peers: local attestation responders (untrusted-host entry) -
    //
    // Each peer is one user enclave with its own LA responder, sealed
    // channel sequence space and fabric session slot (peer id ==
    // slot). Peer 0 exists from construction and owns the deployment:
    // only it may set metadata, run secure boot or re-key. Further
    // peers get derived Key_session material fanned out by
    // kSmCmdOpenSession, so tenants never share keystreams. Unknown
    // peers get empty/false answers.

    /** Allocates the next peer/session slot (1..kSmMaxSessions-1).
     *  @throws SalusError when the fabric's slots are exhausted. */
    uint32_t createPeer();
    /** Peers allocated so far, including peer 0. */
    size_t peerCount() const { return peers_.size(); }

    Bytes laAnswer(uint32_t peer, ByteView msg1);
    bool laConfirm(uint32_t peer, ByteView msg3);
    bool laEstablished(uint32_t peer) const;

    // ---- Sealed channel from the user enclave -----------------------
    /**
     * Handles one sealed channel request on the peer's channel and
     * returns the sealed response. Garbage in -> empty reply out
     * (never throws for attacker-controlled input). Refused entirely
     * after a failed journal recovery (fail closed).
     */
    Bytes channelRequest(uint32_t peer, ByteView sealed);

    /**
     * Sends a burst of register ops over the batched secure channel on
     * the given fabric session slot (0 = base session). Chunks beyond
     * regchan::kMaxBatchOps transparently; one result per op, in
     * order. Channel-level failures surface as per-op statuses: 0xfd
     * no attested CL, 0xfc the fabric rejected every sealed attempt,
     * 0xfb the response failed authentication, 0xf7 the slot's
     * counter space cannot hold the burst.
     */
    std::vector<regchan::BatchResult>
    secureRegBatch(uint32_t slot, const std::vector<regchan::RegOp> &ops);

    // ---- Bulk data plane (sealed DMA descriptors) --------------------
    using DmaOptions = SmDmaOptions;

    /**
     * Moves `data` into device DRAM at `addr` through the sliding-
     * window secure DMA plane: the payload is chunked into AES-CTR-
     * encrypted, GMAC-tagged descriptors whose counter stride is bound
     * to the per-slot sequence number, so replay is impossible and
     * retransmits resend identical ciphertext. Report statuses: 0 ok,
     * 0xfd no attested CL behind the channel, 0xf7 the slot's DMA
     * sequence space (dmachan::kDmaMaxSeq) cannot hold the transfer,
     * 0xf8 retransmits exhausted, 0xf9 forged ack, 0xfb forged read
     * response.
     */
    dmachan::DmaTransferReport dmaWrite(uint32_t slot, uint64_t addr,
                                        ByteView data,
                                        const DmaOptions &opts = {});
    /** Scatter variant: `data` is scattered across `sg` in order. */
    dmachan::DmaTransferReport
    dmaWriteSg(uint32_t slot,
               const std::vector<dmachan::DmaSgEntry> &sg, ByteView data,
               const DmaOptions &opts = {});
    /** Gathers `len` bytes from device DRAM at `addr` into `out`;
     *  responses come back sealed under the read-direction keystream
     *  and are rejected wholesale on any MAC mismatch. A `len` that
     *  does not fit one scatter-gather entry (above UINT32_MAX) is
     *  refused with 0xfd and leaves `out` untouched. */
    dmachan::DmaTransferReport dmaRead(uint32_t slot, uint64_t addr,
                                       size_t len, Bytes &out,
                                       const DmaOptions &opts = {});

    // ---- Extensions beyond the paper's prototype ---------------------
    /**
     * Exports Key_device of the active device sealed to this
     * enclave's identity so a later SM instance on the same platform
     * can skip the manufacturer round trip (standard SGX practice;
     * ablation-benched).
     * @return empty when no device key is held.
     */
    Bytes exportSealedDeviceKey() const;

    /**
     * Imports a sealed device key for the active device. Fails
     * (returns false) when the blob was sealed by a different enclave
     * identity or platform, or was tampered with.
     */
    bool importSealedDeviceKey(ByteView sealedBlob);

    /**
     * Rolls the secure register channel's session keys forward
     * (forward freshness; see regchan::deriveRekeyedKeys). Both ends
     * converge on the new keys; the old ones are wiped.
     */
    bool rekeySession();

    /**
     * Runtime re-attestation heartbeat: re-runs the Fig. 4a exchange
     * against the currently loaded CL. The paper defers runtime
     * attestation to future work (§2.1); this detects the "runtime
     * bitstream replacement" attack it names, because a swapped CL
     * cannot hold this deployment's Key_attest.
     */
    bool reattestCl();

    // ---- Fleet supervision ------------------------------------------
    /** Outcome of one liveness probe against a pool device. */
    struct HeartbeatResult
    {
        bool reachable = false; ///< the bus produced a sane response
        bool authentic = false; ///< response MAC verified (or spare)
        uint64_t count = 0;     ///< fabric beat counter (active dev)
        std::string failure;
        bool ok() const { return reachable && authentic; }
    };

    /**
     * Probes one pool device. The active, attested device answers a
     * SipHash-MAC'd challenge under Key_attest whose response binds a
     * monotone beat count — a shell cannot forge or replay "alive".
     * Spares (no CL, no injected secrets yet) get a plain bus-sanity
     * probe; their authenticity is established later by the cascaded
     * attestation that failover re-runs.
     */
    HeartbeatResult heartbeatDevice(uint32_t deviceId);

    /**
     * Fails the session over to another pool device. The current
     * session secrets are retired (fingerprinted, then wiped) — key
     * material bound to the old device is never reused — and the
     * deployment state resets so the next runSecureBoot targets the
     * new device with a fresh Key_session/Ctr_session.
     */
    bool setActiveDevice(uint32_t deviceId);

    uint32_t activeDevice() const { return activeDevice_; }
    size_t deviceCount() const { return deps_.devices.size(); }

    // ---- Live session migration (fleet extension) -------------------
    /**
     * Issues a MAC'd authorization to move the live attested session
     * to `toDevice`. The ticket binds both DeviceDNAs, a fresh nonce
     * and the CURRENT secrets fingerprint under the CURRENT
     * Key_attest, so the untrusted supervisor can transport but never
     * forge, redirect or replay it across epochs.
     * @throws MigrationError on misuse: failed-closed enclave, no
     *         live attested session, unknown or already-active target.
     */
    MigrationTicket issueMigrationTicket(uint32_t toDevice);

    /**
     * Verifies a migration ticket and, when valid, performs the
     * trusted half of the move: retires (tombstones + wipes) the
     * source epoch's secrets, resets the deployment state and makes
     * `toDevice` active, journalling the switch. The next
     * runSecureBoot re-injects a fresh RoT on the target and re-runs
     * cascaded attestation. The ticket arrives through the untrusted
     * host, so every verification failure returns false (no throw):
     * wrong source, unknown target, mismatched DNAs, a fingerprint
     * from an already-retired epoch, or a forged MAC.
     */
    bool commitMigration(const MigrationTicket &ticket);

    /** SHA-256 fingerprint of the live session secrets (empty when
     *  none). Tests assert freshness across failover with this. */
    Bytes secretsFingerprint() const;
    /** True when `fp` names a retired (dead-device) secret set. */
    bool everRetiredFingerprint(ByteView fp) const;

    // ---- Crash recovery ----------------------------------------------
    enum class RecoveryStatus {
        NoJournal,  ///< fresh start, nothing persisted yet
        Recovered,  ///< journal adopted, devices re-attested
        RolledBack, ///< journal older than the monotonic counter
        Corrupt,    ///< seal/parse failure
    };

    struct RecoveryReport
    {
        RecoveryStatus status = RecoveryStatus::NoJournal;
        uint64_t version = 0; ///< adopted journal version
        uint64_t counter = 0; ///< monotonic counter at rehydration
        uint32_t reattestFailures = 0;
        std::string detail;
    };

    /**
     * Rehydrates a restarted SM instance from the host-stored sealed
     * journal. Rejects rollbacks (journal version behind the platform
     * monotonic counter) and corrupt blobs by FAILING CLOSED: the
     * enclave then refuses channel traffic until redeployed from
     * scratch. On success the active device, when the journal claims
     * it attested, is re-attested before traffic is served.
     */
    RecoveryReport rehydrate();

    /** True when a failed recovery latched the enclave shut. */
    bool failedClosed() const { return failClosed_; }

    /** Journal commits so far — the crash-sweep tests enumerate
     *  injection points with this. */
    uint64_t journalWrites() const { return journalSeq_; }

    // ---- Introspection (trusted-side, used by tests/benches) --------
    const ClBootStatus &bootStatus() const { return status_; }
    bool haveDeviceKey() const
    {
        return deviceKeys_.count(activeDna()) != 0;
    }

  private:
    /** One user enclave's end of the sealed channel. */
    struct Peer
    {
        std::unique_ptr<tee::LocalAttestResponder> la;
        uint64_t seq = 0; ///< last accepted channel sequence number
    };

    /** One fabric session slot the SM multiplexes. Slot 0 is the base
     *  session keyed by the injected Key_session; the others are
     *  derived slots opened by kSmCmdOpenSession. */
    struct SessionSlot
    {
        bool opened = false; ///< derived slot opened on the fabric
        /** The slot's session keys. A derived slot's are set when it
         *  opens and live only here; slot 0's mirror
         *  secrets_.keySession (see slotKeys()). */
        std::unique_ptr<regchan::SessionKeys> keys;
        uint64_t openNonce = 0; ///< nonce the slot was opened with
        /** Register-channel counters. The fabric accepts only values
         *  above the last it saw, so a derived slot starts at 1 and
         *  slot 0 just above Ctr_session. */
        CounterSpan reg{1, 0, UINT64_MAX};
        /** DMA descriptor sequence numbers; past kDmaMaxSeq the
         *  counter strides would overlap. */
        CounterSpan dma{0, 0, dmachan::kDmaMaxSeq};
    };

    /** Retry-loop state for converging on a re-key whose completion
     *  was lost (base slot only). */
    struct RekeyProbe
    {
        Bytes preAdoptSession;
        bool usingPendingKeys = false;
    };

    Bytes handlePlainRequest(uint32_t peer, ByteView plain);
    Peer *findPeer(uint32_t peer);
    /** Opens the fabric session slot if not already open (lazy, after
     *  every failover the next batch re-opens it under the fresh base
     *  keys). The base slot is always open. */
    bool ensureFabricSession(uint32_t slot);
    /** Takes n values from `span`, committing the journal first when
     *  the reservation must grow (see CounterSpan::reserve). */
    std::optional<uint64_t> take(CounterSpan &span, uint64_t n)
    {
        return span.reserve(n, [this] { commitJournal(); });
    }
    /** One sealed burst attempt. @return 0 ok (out filled), 0xfc
     *  fabric rejected, 0xfb response forged. */
    uint8_t secureRegBatchOnce(uint32_t slot, uint64_t ctrBase,
                               const std::vector<regchan::RegOp> &ops,
                               std::vector<regchan::BatchResult> &out);
    /** The slot's session keys. Slot 0's are rebuilt only when
     *  secrets_.keySession no longer matches them (re-key, pending
     *  re-key convergence, failover and journal restore all replace
     *  those bytes); a derived slot's must already be open. */
    const regchan::SessionKeys &slotKeys(uint32_t slot);
    /** The shared windowed-transfer driver behind dmaWrite/dmaRead. */
    dmachan::DmaTransferReport
    dmaTransfer(uint32_t slot, bool read,
                const std::vector<dmachan::DmaSgEntry> &sg,
                ByteView data, Bytes *out, const DmaOptions &opts);
    /** The bounded-attempt secure-boot loop (graceful degradation):
     *  retries transport-class failures with backoff, stops on
     *  security rejections, and redeploys after failed loads or
     *  uncorrectable configuration upsets. */
    void runSecureBoot();
    bool attemptSecureBoot(std::string &failure, bool &retryable);
    bool fetchDeviceKey(std::string &failure, bool &retryable);
    bool deployCl(std::string &failure, bool &retryable);
    bool attestCl(std::string &failure);
    /** Scrub probe after an attestation failure: corrects single-bit
     *  upsets and re-attests; false = redeploy needed. */
    bool tryScrubRecovery(std::string &failure);
    std::pair<uint8_t, uint64_t> secureRegOp(const regchan::RegOp &op);
    /** The sealed-attempt loop behind secureRegOp and secureRegBatch:
     *  up to the retry schedule's attempts, backoff before each retry.
     *  `attempt` seals under fresh counters, sends once and returns
     *  true when the fabric accepted; every attempt on the base slot
     *  steps the pending-rekey convergence. When all attempts fail,
     *  reports the device as `method` and returns false. */
    template <typename Attempt>
    bool runSealedAttempts(uint32_t slot, const char *method,
                           Attempt &&attempt);
    std::pair<uint8_t, uint64_t> secureRegOpOnce(const regchan::RegOp &op);
    /** One step of the pending-rekey convergence after an attempt on
     *  the base slot. Accepted: commit to the rolled keys if they were
     *  being tried. Rejected: the fabric may have rolled while the
     *  completion was lost, so try the rolled keys; if those were
     *  already being tried, the roll never happened — revert. */
    void convergePendingRekey(RekeyProbe &probe, bool accepted);
    /** Replaces the base session keys with their roll under
     *  (macKey, nonce) (see regchan::deriveRekeyedKeys). */
    void installRolledKeys(ByteView macKey, uint64_t nonce);
    void clearPendingRekey();
    /** Tells the fleet supervisor the active device exhausted the
     *  attempt budget of `method`. */
    void reportDeviceFailure(const char *method, int attempts);
    /** Retires the live session and makes `deviceId` active; the next
     *  runSecureBoot deploys to it with fresh secrets. */
    void switchDevice(uint32_t deviceId);

    /** True when `deviceId` names a pool device with a shell. */
    bool inPool(uint32_t deviceId) const
    {
        return deviceId < deps_.devices.size() &&
               deps_.devices[deviceId].shell != nullptr;
    }
    shell::Shell &activeShell() const;
    uint64_t activeDna() const;
    /** Fingerprints + wipes the live secrets (no-op when none). */
    void retireCurrentSecrets();
    /** Persists the deployment record + session slots: seal, store
     *  at version counter+1, then increment the counter. Crash points
     *  before and after the store are fault-injectable. */
    void commitJournal();
    SmJournal buildJournal() const;

    SmEnclaveDeps deps_;
    std::vector<Peer> peers_;
    std::array<SessionSlot, kSmMaxSessions> slots_;

    ClMetadata metadata_;
    bool haveMetadata_ = false;
    /** Key_device per DeviceDNA (one manufacturer round trip each). */
    std::map<uint64_t, Bytes> deviceKeys_;
    ClSecrets secrets_;
    bool haveSecrets_ = false;
    ClBootStatus status_;
    /** Set when a re-key command's completion was lost: the fabric
     *  may have rolled its keys while we kept the old ones. Holds the
     *  pre-roll MAC key + nonce needed to converge. */
    Bytes pendingRekeyMacKey_;
    uint64_t pendingRekeyNonce_ = 0;
    bool havePendingRekey_ = false;

    // ---- Fleet + journal state --------------------------------------
    uint32_t activeDevice_ = 0;
    /** Fingerprints of every secret set ever retired. */
    std::set<Bytes> retiredFingerprints_;
    uint64_t journalSeq_ = 0;
    bool failClosed_ = false;
};

} // namespace salus::core

#endif // SALUS_SALUS_SM_ENCLAVE_HPP
