#include "salus/testbed.hpp"

#include <algorithm>

#include "bitstream/compiler.hpp"
#include "common/errors.hpp"
#include "crypto/sha256.hpp"
#include "obs/trace.hpp"
#include "salus/sm_logic.hpp"

namespace salus::core {

TestbedConfig::TestbedConfig()
    : userImage(UserEnclaveApp::defaultImage())
{
}

Testbed::Testbed(TestbedConfig config) : config_(std::move(config))
{
    rng_ = std::make_unique<crypto::CtrDrbg>(config_.rngSeed);
    injector_ = std::make_unique<sim::FaultInjector>(config_.faultPlan,
                                                     clock_);

    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    // --- manufacturing + provisioning --------------------------------
    manufacturer_ = std::make_unique<manufacturer::Manufacturer>(*rng_);
    platform_ = std::make_unique<tee::TeePlatform>("platform-1", *rng_);
    manufacturer_->provisionPlatform(*platform_);
    manufacturer_->allowSmEnclave(SmEnclaveApp::defaultMeasurement());

    // --- cloud instance: the FPGA pool -------------------------------
    // Every device is individually manufactured (own eFUSE Key_device,
    // own DeviceDNA) and fronted by its own shell; the CSP ships the
    // same (possibly malicious) shell build on all of them. One fault
    // fabric spans all layers; device-scoped rules select by index.
    uint32_t count = std::max<uint32_t>(1, config_.deviceCount);
    for (uint32_t i = 0; i < count; ++i) {
        DeviceSlot slot;
        slot.device = manufacturer_->manufactureFpga(config_.deviceModel);
        slot.device->setDeviceIndex(i);
        slot.device->setFaultInjector(injector_.get());
        if (config_.maliciousShell) {
            auto mal = std::make_unique<shell::MaliciousShell>(
                *slot.device, clock_, config_.cost, config_.attackPlan);
            slot.malicious = mal.get();
            slot.shell = std::move(mal);
        } else {
            slot.shell = std::make_unique<shell::Shell>(
                *slot.device, clock_, config_.cost);
        }
        slot.shell->setDeviceIndex(i);
        slot.shell->setFaultInjector(injector_.get());
        slots_.push_back(std::move(slot));
    }

    network_ = std::make_unique<net::Network>(clock_, config_.cost);
    network_->setFaultInjector(injector_.get());
    network_->addEndpoint(endpoints::kUserClient);
    network_->addEndpoint(endpoints::kCloudHost);
    network_->addEndpoint(endpoints::kManufacturer);
    network_->addEndpoint(endpoints::kSupervisor);
    network_->link(endpoints::kUserClient, endpoints::kCloudHost,
                   sim::LinkKind::Wan);
    network_->link(endpoints::kCloudHost, endpoints::kManufacturer,
                   sim::LinkKind::IntraCloud);
    network_->link(endpoints::kSupervisor, endpoints::kCloudHost,
                   sim::LinkKind::IntraCloud);

    // --- enclave applications ----------------------------------------
    smApp_ = std::make_unique<SmEnclaveApp>(*platform_, makeSmDeps());
    addUser(0, config_.userImage);

    // --- fleet supervisor --------------------------------------------
    SupervisorDeps supDeps;
    supDeps.clock = &clock_;
    supDeps.injector = injector_.get();
    supDeps.deviceCount = count;
    supDeps.health = config_.health;
    supDeps.probePeriod = config_.heartbeatPeriod;
    supDeps.probe = [this](uint32_t deviceId) {
        HeartbeatRequest req;
        req.deviceId = deviceId;
        req.nonce = rng_->nextU64();
        SmEnclaveApp::HeartbeatResult res;
        // No retries here: the supervisor's circuit breaker IS the
        // retry policy; masking lost probes would blind it.
        net::CallOutcome out = network_->callWithRetry(
            endpoints::kSupervisor, endpoints::kCloudHost, "heartbeat",
            req.serialize(), net::RetryPolicy::none(),
            "Fleet Heartbeat");
        if (!out.ok()) {
            res.failure = "probe transport: " + out.error;
            return res;
        }
        try {
            HeartbeatResponse rsp =
                HeartbeatResponse::deserialize(out.response);
            res.reachable = rsp.reachable != 0;
            res.authentic = rsp.authentic != 0;
            res.count = rsp.count;
            res.failure = rsp.failure;
        } catch (const SalusError &e) {
            res.failure = std::string("malformed probe response: ") +
                          e.what();
        }
        return res;
    };
    supDeps.failover = [this](uint32_t from, uint32_t to,
                              const std::string &reason) {
        return performFailover(from, to, reason);
    };
    supDeps.migrate = [this](uint32_t, uint32_t to,
                             const std::string &reason) {
        return performMigration(to, reason);
    };
    supDeps.activeDevice = [this] { return smApp_->activeDevice(); };
    supervisor_ = std::make_unique<FleetSupervisor>(std::move(supDeps));

    // --- RPC handlers --------------------------------------------------
    network_->on(endpoints::kManufacturer, "keyRequest",
                 [this](ByteView req) {
                     // Server-side quote verification (DCAP collateral
                     // fetched over the intra-cloud link).
                     clock_.spend(phases::kDeviceKeyDist,
                                  config_.cost.quoteVerificationOver(
                                      sim::LinkKind::IntraCloud) +
                                      config_.cost.keyEscrowProcessing);
                     manufacturer::KeyRequest parsed;
                     try {
                         parsed = manufacturer::KeyRequest::deserialize(
                             req);
                     } catch (const SalusError &) {
                         manufacturer::KeyResponse bad;
                         bad.status = 2; // unparseable != refused
                         bad.reason = "malformed request";
                         return bad.serialize();
                     }
                     return manufacturer_->handleKeyRequest(parsed)
                         .serialize();
                 });
    network_->on(endpoints::kCloudHost, "raRequest",
                 [this](ByteView req) {
                     return userApp().handleRaRequest(req);
                 });
    network_->on(endpoints::kCloudHost, "dataKey",
                 [this](ByteView req) {
                     Bytes ack(1);
                     ack[0] = userApp().acceptDataKey(req) ? 1 : 0;
                     return ack;
                 });
    network_->on(endpoints::kCloudHost, "heartbeat",
                 [this](ByteView req) {
                     HeartbeatRequest parsed;
                     try {
                         parsed = HeartbeatRequest::deserialize(req);
                     } catch (const SalusError &) {
                         HeartbeatResponse bad;
                         bad.failure = "malformed heartbeat request";
                         return bad.serialize();
                     }
                     SmEnclaveApp::HeartbeatResult r =
                         smApp_->heartbeatDevice(parsed.deviceId);
                     HeartbeatResponse rsp;
                     rsp.reachable = r.reachable ? 1 : 0;
                     rsp.authentic = r.authentic ? 1 : 0;
                     rsp.count = r.count;
                     rsp.nonceEcho = parsed.nonce + 1;
                     rsp.failure = r.failure;
                     return rsp.serialize();
                 });
}

Testbed::~Testbed() = default;

SimHooks
Testbed::simHooks()
{
    return SimHooks{&clock_, &config_.cost};
}

uint32_t
Testbed::activeDevice() const
{
    return smApp_ ? smApp_->activeDevice() : 0;
}

SmEnclaveDeps
Testbed::makeSmDeps()
{
    SmEnclaveDeps smDeps;
    smDeps.network = network_.get();
    smDeps.selfEndpoint = endpoints::kCloudHost;
    smDeps.manufacturerEndpoint = endpoints::kManufacturer;
    for (const DeviceSlot &slot : slots_)
        smDeps.devices.push_back(
            {slot.shell.get(), slot.device->dna().value});
    smDeps.fetchBitstream = [this]() -> ByteView {
        return storedBitstream_;
    };
    smDeps.retry = config_.retry;
    smDeps.sim = simHooks();
    smDeps.fault = injector_.get();
    smDeps.journal = &journalStore_;
    smDeps.onDeviceFailure = [this](uint32_t deviceId,
                                    const ErrorContext &ctx) {
        if (supervisor_)
            supervisor_->noteDeviceFailure(deviceId, ctx);
    };
    return smDeps;
}

void
Testbed::rebuildSmApp()
{
    smApp_ = std::make_unique<SmEnclaveApp>(*platform_, makeSmDeps());
    // Re-create the tenant peer endpoints so peer ids stay valid on
    // the fresh instance; each tenant must attachToPlatform() again
    // (its old LA session died with the old enclave).
    while (smApp_->peerCount() < users_.size())
        smApp_->createPeer();
}

void
Testbed::addUser(uint32_t peer, tee::EnclaveImage image)
{
    SmTransport transport;
    transport.la1 = [this, peer](ByteView m) {
        return smApp_->laAnswer(peer, m);
    };
    transport.la3 = [this, peer](ByteView m) {
        return smApp_->laConfirm(peer, m);
    };
    transport.channel = [this, peer](ByteView m) {
        return smApp_->channelRequest(peer, m);
    };
    users_.push_back(std::make_unique<UserEnclaveApp>(
        *platform_, std::move(image), SmEnclaveApp::defaultMeasurement(),
        transport, simHooks()));
}

uint32_t
Testbed::addUserSession()
{
    uint32_t peer = smApp_->createPeer();
    tee::EnclaveImage image = config_.userImage;
    image.name += "-tenant-" + std::to_string(peer);
    addUser(peer, std::move(image));
    if (scheduler_)
        scheduler_->addSession(peer);
    return peer;
}

sim::Engine &
Testbed::engine()
{
    if (!engine_)
        engine_ = std::make_unique<sim::Engine>(clock_);
    return *engine_;
}

BatchScheduler &
Testbed::scheduler()
{
    if (!scheduler_) {
        BatchScheduler::Config cfg;
        cfg.queueCapacity = config_.schedulerQueueCapacity;
        cfg.maxBatchOps = config_.schedulerMaxBatchOps;
        // Slice latencies are stamped from the shared virtual clock so
        // QoS benches can read per-tenant service times deterministically.
        cfg.clock = &clock_;
        scheduler_ = std::make_unique<BatchScheduler>(
            [this](uint32_t slot,
                   const std::vector<regchan::RegOp> &ops) {
                std::vector<regchan::BatchResult> results;
                // Channel-level failures (fabric reject / forged
                // response / no attested CL) count as device failures
                // for the supervisor's circuit breaker; a triggered
                // failover surfaces as FailoverError through here.
                supervisor_->guardedOp(
                    [&] {
                        results = smApp_->secureRegBatch(slot, ops);
                        for (const regchan::BatchResult &r : results) {
                            if (r.status == 0xfd || r.status == 0xfc ||
                                r.status == 0xfb)
                                return false;
                        }
                        return true;
                    },
                    "secureRegBatch");
                return results;
            },
            cfg);
        scheduler_->setDmaDispatch(
            [this](uint32_t slot, const BatchScheduler::DmaJob &job) {
                dmachan::DmaTransferReport report;
                SmEnclaveApp::DmaOptions opts;
                opts.windowSize = job.windowSize;
                // Exhausted retransmits, forged acks and a missing
                // attested CL feed the same circuit breaker as the
                // register channel.
                supervisor_->guardedOp(
                    [&] {
                        report = smApp_->dmaWrite(slot, job.addr,
                                                  job.data, opts);
                        return report.status != 0xfd &&
                               report.status != 0xf8 &&
                               report.status != 0xf9;
                    },
                    "dmaWrite");
                return report;
            });
        for (uint32_t peer = 0; peer < users_.size(); ++peer)
            scheduler_->addSession(peer);
    }
    return *scheduler_;
}

bool
Testbed::restartSmApp(ByteView sealedDeviceKey)
{
    rebuildSmApp();
    if (sealedDeviceKey.empty())
        return true;
    return smApp_->importSealedDeviceKey(sealedDeviceKey);
}

SmEnclaveApp::RecoveryReport
Testbed::crashAndRecoverSmApp()
{
    rebuildSmApp();
    return smApp_->rehydrate();
}

FailoverRecord
Testbed::performFailover(uint32_t from, uint32_t to,
                         const std::string &reason)
{
    obs::Span span(obs::Category::Supervisor, "perform_failover",
                   uint64_t(to));
    FailoverRecord rec;
    rec.fromDevice = from;
    rec.toDevice = to;
    rec.reason = reason;
    // Fingerprint the dying session BEFORE the switch retires it.
    rec.oldFingerprint = smApp_->secretsFingerprint();
    if (!smApp_->setActiveDevice(to))
        return rec; // no such spare; record stays un-attested

    // Re-run the ENTIRE deployment flow against the new DeviceDNA:
    // Key_device fetch (manufacturer round trip) for the spare, RoT
    // injection into a fresh bitstream copy, and the full cascaded
    // attestation from the user client down. Nothing from the dead
    // device's session survives.
    UserClient::Outcome out = runDeployment();
    rec.attested = out.ok ? 1 : 0;
    rec.attempts = uint32_t(std::max(0, out.attempts));
    rec.newFingerprint = smApp_->secretsFingerprint();
    return rec;
}

MigrationRecord
Testbed::performMigration(uint32_t to, const std::string &reason)
{
    obs::Span span(obs::Category::Supervisor, "perform_migration",
                   uint64_t(to));
    MigrationRecord rec;
    rec.fromDevice = activeDevice();
    rec.toDevice = to;
    rec.reason = reason;

    // Phase 1: quiesce. In-flight bursts already completed (the
    // scheduler is synchronous); from here new submissions park in
    // the bounded per-session queues and callers see only ordinary
    // backpressure once those fill. Nothing further reaches the
    // source device.
    bool quiesced = false;
    if (scheduler_) {
        obs::Span q(obs::Category::Supervisor, "migration_quiesce");
        rec.parkedOps = scheduler_->quiesce();
        quiesced = true;
    }
    // The queue is released on EVERY exit path: success (parked ops
    // flow to the target) and failure (they flow on the source, which
    // still holds its attested session).
    struct ReleaseGuard
    {
        Testbed *tb;
        bool armed;
        ~ReleaseGuard()
        {
            if (armed && tb->scheduler_) {
                obs::Span r(obs::Category::Supervisor,
                            "migration_release");
                tb->scheduler_->release();
            }
        }
    } release{this, quiesced};

    // Phase 2: the SM enclave authorizes the move under the current
    // Key_attest. Throws MigrationError on misuse (no live session,
    // bad target) — the guard re-opens the queue on the source.
    MigrationTicket ticket;
    {
        obs::Span t(obs::Category::Supervisor, "migration_ticket");
        ticket = smApp_->issueMigrationTicket(to);
    }

    // Phase 3: tombstone. The commit verifies the (host-relayed)
    // ticket, retires + fingerprints the source epoch's secrets and
    // journals the device switch; a crash anywhere in here lands in
    // the sweep-tested journal recovery. Round-trip the ticket
    // through its wire form — that is what actually crosses the
    // untrusted supervisor.
    {
        obs::Span t(obs::Category::Supervisor, "migration_tombstone");
        rec.oldFingerprint = smApp_->secretsFingerprint();
        MigrationTicket relayed =
            MigrationTicket::deserialize(ticket.serialize());
        if (!smApp_->commitMigration(relayed))
            throw MigrationError(
                "SM refused the migration ticket for device " +
                std::to_string(to));
    }

    // Phase 4: re-inject a fresh RoT and re-run the ENTIRE cascaded
    // attestation against the target's DeviceDNA. Per-slot counters
    // come from the fresh epoch; nothing from the source survives.
    {
        obs::Span t(obs::Category::Supervisor, "migration_attest");
        UserClient::Outcome out = runDeployment();
        rec.attested = out.ok ? 1 : 0;
    }
    rec.newFingerprint = smApp_->secretsFingerprint();
    return rec;
    // Phase 5 (guard): migration_release re-opens the parked queue.
}

void
Testbed::installCl(netlist::Cell accelCell,
                   std::vector<netlist::Cell> extraCells)
{
    obs::Span span(obs::Category::Bitstream, "install_cl");
    ClDesign design = buildClDesign("cl_top", std::move(accelCell),
                                    std::move(extraCells));
    layout_ = design.layout;

    bitstream::Compiler compiler(config_.deviceModel.name);
    bitstream::CompiledDesign compiled = compiler.compile(
        design.netlist, config_.deviceModel.partitions.at(0));

    storedBitstream_ = std::move(compiled.file);
    utilization_ = compiled.utilization;

    metadata_.digestH = crypto::Sha256::digest(storedBitstream_);
    metadata_.logicLocations = compiled.logicLocations.serialize();
    metadata_.keyAttestPath = layout_.keyAttestPath;
    metadata_.keySessionPath = layout_.keySessionPath;
    metadata_.ctrSessionPath = layout_.ctrSessionPath;
    clInstalled_ = true;
}

bool
Testbed::installArtifact(const ClArtifact &artifact,
                         ByteView expectedDeveloperKey)
{
    if (!verifyArtifact(artifact, expectedDeveloperKey))
        return false;

    ClMetadata meta = ClMetadata::deserialize(artifact.metadata);
    storedBitstream_ = artifact.bitstream;
    metadata_ = meta;
    layout_.keyAttestPath = meta.keyAttestPath;
    layout_.keySessionPath = meta.keySessionPath;
    layout_.ctrSessionPath = meta.ctrSessionPath;
    // SM cell path follows the builder convention (sibling of the
    // key cells).
    layout_.smCellPath =
        meta.keyAttestPath.substr(0, meta.keyAttestPath.rfind('/')) +
        "/logic";
    layout_.accelCellPath.clear();
    clInstalled_ = true;
    return true;
}

UserClient::Outcome
Testbed::runDeployment(
    const std::function<void(ClientConfig &)> &customize)
{
    if (!clInstalled_)
        throw SalusError("no CL installed; call installCl() first");
    obs::Span span(obs::Category::Boot, "run_deployment");

    ClientConfig cfg;
    cfg.expectedUserEnclave = userApp().measurement();
    cfg.expectedSm = SmEnclaveApp::defaultMeasurement();
    cfg.metadata = metadata_;
    cfg.selfEndpoint = endpoints::kUserClient;
    cfg.cloudEndpoint = endpoints::kCloudHost;
    cfg.retry = config_.retry;
    if (customize)
        customize(cfg);

    UserClient client(cfg, manufacturer_->verificationService(),
                      *network_, *rng_, simHooks());
    return client.deployAndAttest();
}

} // namespace salus::core
