#include "salus/scenario.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "fpga/ip.hpp"
#include "obs/trace.hpp"
#include "salus/dma_channel.hpp"
#include "sim/engine.hpp"

namespace salus::core {

namespace {

// ---- Parsing helpers (never let std:: parse exceptions escape) -----

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

uint64_t
parseU64(const std::string &key, const std::string &value)
{
    if (value.empty() || value.size() > 18)
        throw ScenarioError("bad integer for '" + key + "': '" + value +
                            "'");
    uint64_t out = 0;
    for (char c : value) {
        if (c < '0' || c > '9')
            throw ScenarioError("bad integer for '" + key + "': '" +
                                value + "'");
        out = out * 10 + uint64_t(c - '0');
    }
    return out;
}

uint32_t
parseU32(const std::string &key, const std::string &value)
{
    uint64_t v = parseU64(key, value);
    if (v > ~uint32_t(0))
        throw ScenarioError("value for '" + key + "' out of range");
    return uint32_t(v);
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "no")
        return false;
    throw ScenarioError("bad boolean for '" + key + "': '" + value +
                        "'");
}

double
parseProb(const std::string &key, const std::string &value)
{
    if (value.empty() || value.size() > 32)
        throw ScenarioError("bad probability for '" + key + "'");
    const char *begin = value.c_str();
    char *end = nullptr;
    double v = std::strtod(begin, &end);
    if (end != begin + value.size() || !(v >= 0.0) || !(v <= 1.0))
        throw ScenarioError("probability '" + key +
                            "' must be in [0,1], got '" + value + "'");
    return v;
}

// ---- Section appliers ----------------------------------------------

void
applyScenarioKey(Scenario &sc, const std::string &key,
                 const std::string &value)
{
    if (key == "name")
        sc.name = value;
    else if (key == "seed")
        sc.seed = parseU64(key, value);
    else if (key == "devices")
        sc.devices = parseU32(key, value);
    else if (key == "sweeps")
        sc.sweeps = parseU32(key, value);
    else if (key == "poll_every")
        sc.pollEvery = parseU32(key, value);
    else if (key == "malicious_shell")
        sc.maliciousShell = parseBool(key, value);
    else if (key == "forge_heartbeats")
        sc.forgeHeartbeats = parseBool(key, value);
    else
        throw ScenarioError("unknown [scenario] key '" + key + "'");
}

void
applyBrokerKey(Scenario &sc, const std::string &key,
               const std::string &value)
{
    if (key == "max_total_queued_ops")
        sc.broker.maxTotalQueuedOps = parseU64(key, value);
    else if (key == "shed_low_water")
        sc.broker.shedLowWater = parseU64(key, value);
    else if (key == "max_total_sessions")
        sc.broker.maxTotalSessions = parseU32(key, value);
    else
        throw ScenarioError("unknown [broker] key '" + key + "'");
}

void
applyTenantKey(ScenarioTenant &t, const std::string &key,
               const std::string &value)
{
    if (key == "weight")
        t.policy.weight = parseU32(key, value);
    else if (key == "max_sessions")
        t.policy.maxSessions = parseU32(key, value);
    else if (key == "max_queued_ops")
        t.policy.maxQueuedOps = parseU64(key, value);
    else if (key == "rate_per_sec")
        t.policy.ratePerSec = parseU64(key, value);
    else if (key == "burst")
        t.policy.burst = parseU64(key, value);
    else if (key == "sessions")
        t.sessions = parseU32(key, value);
    else if (key == "pattern") {
        if (value != "flood" && value != "burst" && value != "trickle" &&
            value != "idle")
            throw ScenarioError("unknown tenant pattern '" + value + "'");
        t.pattern = value;
    } else if (key == "ops_per_sweep")
        t.opsPerSweep = parseU32(key, value);
    else if (key == "start_sweep")
        t.startSweep = parseU32(key, value);
    else if (key == "stop_sweep")
        t.stopSweep = parseU32(key, value);
    else if (key == "burst_on")
        t.burstOn = parseU32(key, value);
    else if (key == "burst_off")
        t.burstOff = parseU32(key, value);
    else
        throw ScenarioError("unknown [tenant] key '" + key + "'");
}

void
applyFaultKey(ScenarioFault &f, const std::string &key,
              const std::string &value)
{
    if (key == "kind")
        f.kind = value;
    else if (key == "probability")
        f.probability = parseProb(key, value);
    else if (key == "from")
        f.from = value;
    else if (key == "to")
        f.to = value;
    else if (key == "method")
        f.method = value;
    else if (key == "device")
        f.device = parseU32(key, value);
    else if (key == "partition")
        f.partition = parseU32(key, value);
    else if (key == "bit")
        f.bit = parseU64(key, value);
    else if (key == "delay_us")
        f.delayUs = parseU64(key, value);
    else if (key == "at_ms")
        f.atMs = parseU64(key, value);
    else if (key == "until_ms")
        f.untilMs = parseU64(key, value);
    else if (key == "times")
        f.times = parseU32(key, value);
    else
        throw ScenarioError("unknown [fault] key '" + key + "'");
}

void
applyActionKey(ScenarioAction &a, const std::string &key,
               const std::string &value)
{
    if (key == "kind") {
        if (value != "rekey" && value != "replay" && value != "dma")
            throw ScenarioError("unknown action kind '" + value + "'");
        a.kind = value;
    } else if (key == "at_sweep")
        a.atSweep = parseU32(key, value);
    else if (key == "every_sweeps")
        a.everySweeps = parseU32(key, value);
    else if (key == "bytes")
        a.bytes = parseU64(key, value);
    else if (key == "window")
        a.window = parseU32(key, value);
    else
        throw ScenarioError("unknown [action] key '" + key + "'");
}

void
applyExpectKey(ScenarioExpect &e, const std::string &key,
               const std::string &value)
{
    if (key == "completed_min")
        e.completedMin = parseU64(key, value);
    else if (key == "quota_rejected_min")
        e.quotaRejectedMin = parseU64(key, value);
    else if (key == "rate_rejected_min")
        e.rateRejectedMin = parseU64(key, value);
    else if (key == "shed_rejected_min")
        e.shedRejectedMin = parseU64(key, value);
    else if (key == "seus_min")
        e.seusMin = parseU64(key, value);
    else if (key == "recovered_from_shed")
        e.recoveredFromShed = parseBool(key, value);
    else if (key == "no_starvation")
        e.noStarvation = parseBool(key, value);
    else if (key == "failovers_max")
        e.failoversMax = parseU64(key, value);
    else if (key == "dma_bytes_min")
        e.dmaBytesMin = parseU64(key, value);
    else
        throw ScenarioError("unknown [expect] key '" + key + "'");
}

void
validate(const Scenario &sc)
{
    if (sc.devices < 1 || sc.devices > 16)
        throw ScenarioError("devices must be in [1,16]");
    if (sc.sweeps < 1 || sc.sweeps > 100000)
        throw ScenarioError("sweeps must be in [1,100000]");
    if (sc.tenants.empty())
        throw ScenarioError("at least one [tenant <name>] required");
    if (sc.tenants.size() > 16)
        throw ScenarioError("at most 16 tenants");
    for (const ScenarioTenant &t : sc.tenants) {
        if (t.sessions < 1 || t.sessions > 8)
            throw ScenarioError("tenant '" + t.name +
                                "': sessions must be in [1,8]");
        if (t.opsPerSweep > 4096)
            throw ScenarioError("tenant '" + t.name +
                                "': ops_per_sweep must be <= 4096");
        if (t.pattern == "burst" && t.burstOn == 0)
            throw ScenarioError("tenant '" + t.name +
                                "': burst_on must be >= 1");
    }
    for (const ScenarioFault &f : sc.faults)
        f.toRule(); // validates the kind and parameters
    for (const ScenarioAction &a : sc.actions) {
        if (a.kind.empty())
            throw ScenarioError("[action] missing 'kind'");
        if (a.kind == "replay" && !sc.maliciousShell)
            throw ScenarioError(
                "replay action needs malicious_shell = 1");
        if (a.kind == "dma") {
            if (a.bytes < 1 || a.bytes > (uint64_t(1) << 20))
                throw ScenarioError(
                    "dma action: bytes must be in [1, 1048576]");
            if (a.window < 1 || a.window > dmachan::kDmaMaxWindow)
                throw ScenarioError("dma action: window must be in [1," +
                                    std::to_string(
                                        dmachan::kDmaMaxWindow) +
                                    "]");
        }
    }
    if (sc.broker.maxTotalQueuedOps < 1)
        throw ScenarioError("max_total_queued_ops must be >= 1");
    if (sc.broker.shedLowWater >= sc.broker.maxTotalQueuedOps)
        throw ScenarioError(
            "shed_low_water must be below max_total_queued_ops");
}

netlist::Cell
scenarioAccel()
{
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {10, 10, 0, 0};
    return accel;
}

bool
tenantActive(const ScenarioTenant &t, uint32_t sweep)
{
    if (sweep < t.startSweep || sweep >= t.stopSweep)
        return false;
    if (t.pattern == "idle")
        return false;
    if (t.pattern == "burst") {
        uint32_t cycle = t.burstOn + t.burstOff;
        if (cycle == 0)
            return true;
        return (sweep - t.startSweep) % cycle < t.burstOn;
    }
    return true;
}

} // namespace

sim::FaultRule
ScenarioFault::toRule() const
{
    sim::FaultRule rule;
    if (kind == "drop_rpc")
        rule = sim::FaultRule::dropRpc(probability);
    else if (kind == "corrupt_rpc")
        rule = sim::FaultRule::corruptRpc(probability);
    else if (kind == "duplicate_rpc")
        rule = sim::FaultRule::duplicateRpc(probability);
    else if (kind == "reorder_rpc")
        rule = sim::FaultRule::reorderRpc(probability);
    else if (kind == "delay_rpc")
        rule = sim::FaultRule::delayRpc(probability,
                                        sim::Nanos(delayUs) * sim::kUs);
    else if (kind == "reg_fault")
        rule = sim::FaultRule::regFault(probability);
    else if (kind == "bitstream_load_fail")
        rule = sim::FaultRule::bitstreamLoadFail(times ? times : 1);
    else if (kind == "seu")
        rule = sim::FaultRule::seu(partition, bit,
                                   sim::Nanos(atMs) * sim::kMs);
    else if (kind == "device_dead") {
        if (device == sim::kAnyDevice)
            throw ScenarioError("device_dead needs an explicit device");
        rule = sim::FaultRule::deviceDead(device,
                                          sim::Nanos(atMs) * sim::kMs);
    } else if (kind == "heartbeat_loss") {
        if (device == sim::kAnyDevice)
            throw ScenarioError(
                "heartbeat_loss needs an explicit device");
        rule = sim::FaultRule::heartbeatLoss(device, probability);
    } else if (kind == "dma_drop")
        rule = sim::FaultRule::dropDma(probability);
    else if (kind == "dma_corrupt")
        rule = sim::FaultRule::corruptDma(probability);
    else if (kind == "dma_reorder")
        rule = sim::FaultRule::reorderDma(probability);
    else
        throw ScenarioError("unknown fault kind '" + kind + "'");

    if (!from.empty() || !to.empty() || !method.empty())
        rule.on(from, to, method);
    if (device != sim::kAnyDevice && kind != "device_dead" &&
        kind != "heartbeat_loss")
        rule.onDevice(device);
    if (atMs || untilMs)
        rule.during(sim::Nanos(atMs) * sim::kMs,
                    untilMs ? sim::Nanos(untilMs) * sim::kMs
                            : ~sim::Nanos(0));
    if (times)
        rule.times(times);
    return rule;
}

Scenario
parseScenario(const std::string &text)
{
    if (text.size() > 1 << 20)
        throw ScenarioError("scenario file too large");

    Scenario sc;
    // Section state: which section the cursor is in, and the
    // in-flight tenant/fault/action being filled.
    enum class Section {
        None,
        Scenario,
        Broker,
        Tenant,
        Fault,
        Action,
        Expect
    };
    Section section = Section::None;
    ScenarioTenant tenant;
    ScenarioFault fault;
    ScenarioAction action;
    bool sawScenario = false;

    auto flush = [&](Section closing) {
        if (closing == Section::Tenant)
            sc.tenants.push_back(tenant);
        else if (closing == Section::Fault) {
            if (fault.kind.empty())
                throw ScenarioError("[fault] missing 'kind'");
            sc.faults.push_back(fault);
        } else if (closing == Section::Action) {
            if (action.kind.empty())
                throw ScenarioError("[action] missing 'kind'");
            sc.actions.push_back(action);
        }
    };

    std::istringstream in(text);
    std::string raw;
    size_t lineNo = 0;
    while (std::getline(in, raw)) {
        ++lineNo;
        std::string line = raw;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']')
                throw ScenarioError("line " + std::to_string(lineNo) +
                                    ": unterminated section header");
            std::string header = trim(line.substr(1, line.size() - 2));
            flush(section);
            if (header == "scenario") {
                section = Section::Scenario;
                sawScenario = true;
            } else if (header == "broker")
                section = Section::Broker;
            else if (header.rfind("tenant ", 0) == 0) {
                section = Section::Tenant;
                tenant = ScenarioTenant();
                tenant.name = trim(header.substr(7));
                if (tenant.name.empty())
                    throw ScenarioError("line " + std::to_string(lineNo) +
                                        ": tenant needs a name");
                for (const ScenarioTenant &t : sc.tenants)
                    if (t.name == tenant.name)
                        throw ScenarioError("duplicate tenant '" +
                                            tenant.name + "'");
            } else if (header == "fault") {
                section = Section::Fault;
                fault = ScenarioFault();
            } else if (header == "action") {
                section = Section::Action;
                action = ScenarioAction();
            } else if (header == "expect")
                section = Section::Expect;
            else
                throw ScenarioError("line " + std::to_string(lineNo) +
                                    ": unknown section [" + header + "]");
            continue;
        }

        size_t eq = line.find('=');
        if (eq == std::string::npos)
            throw ScenarioError("line " + std::to_string(lineNo) +
                                ": expected 'key = value'");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            throw ScenarioError("line " + std::to_string(lineNo) +
                                ": empty key");

        try {
            switch (section) {
              case Section::None:
                throw ScenarioError("key before any section header");
              case Section::Scenario:
                applyScenarioKey(sc, key, value);
                break;
              case Section::Broker:
                applyBrokerKey(sc, key, value);
                break;
              case Section::Tenant:
                applyTenantKey(tenant, key, value);
                break;
              case Section::Fault:
                applyFaultKey(fault, key, value);
                break;
              case Section::Action:
                applyActionKey(action, key, value);
                break;
              case Section::Expect:
                applyExpectKey(sc.expect, key, value);
                break;
            }
        } catch (const ScenarioError &e) {
            throw ScenarioError("line " + std::to_string(lineNo) + ": " +
                                e.what());
        }
    }
    flush(section);

    if (!sawScenario)
        throw ScenarioError("missing [scenario] section");
    validate(sc);
    return sc;
}

Scenario
parseScenarioFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ScenarioError("cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return parseScenario(buf.str());
    } catch (const ScenarioError &e) {
        throw ScenarioError(path + ": " + e.what());
    }
}

namespace {

/**
 * Drives one campaign's sweep loop as an engine event chain. A kSweep
 * event runs the scheduled actions and tenant submissions inline, then
 * posts a kPump, a kPoll (when due) and the next kSweep to itself AT
 * THE SAME INSTANT: FIFO dispatch runs them in post order, so every
 * sweep runs actions -> submissions -> pump -> poll. Drain and
 * harvest run once the engine goes idle.
 */
struct SweepActor final : sim::Actor
{
    static constexpr uint32_t kSweep = 1;
    static constexpr uint32_t kPump = 2;
    static constexpr uint32_t kPoll = 3;

    const Scenario &sc;
    Testbed &tb;
    Broker &broker;
    ScenarioOutcome &out;
    std::vector<uint32_t> tenantIds;
    std::vector<std::vector<uint32_t>> tenantSessions;
    uint32_t actorId = 0;

    SweepActor(const Scenario &scenario, Testbed &testbed, Broker &b,
               ScenarioOutcome &outcome)
        : sc(scenario), tb(testbed), broker(b), out(outcome)
    {}

    /** Opens tenants, runs every sweep on the testbed's engine, then
     *  drains and evaluates the campaign's expectations. */
    void run()
    {
        openTenants();
        sim::Engine &engine = tb.engine();
        actorId = engine.addActor(*this, "scenario.sweeps");
        if (sc.sweeps > 0)
            engine.postNow(actorId, kSweep, 0);
        // Each sweep event posts at most 3 others; the budget is a
        // runaway backstop, not a schedule.
        if (!engine.runUntilIdle(uint64_t(sc.sweeps) * 4 + 16))
            out.violations.push_back("engine: event budget exhausted");
        drain();
        harvest();
    }

    void onEvent(sim::Engine &engine, const sim::Event &event) override
    {
        switch (event.kind) {
          case kSweep:
            runSweep(engine, uint32_t(event.a));
            break;
          case kPump:
            pumpBroker();
            break;
          case kPoll:
            poll();
            break;
        }
    }

    void runSweep(sim::Engine &engine, uint32_t sweep)
    {
        actions(sweep);
        submissions(sweep);
        engine.postNow(actorId, kPump);
        if (sc.pollEvery && (sweep + 1) % sc.pollEvery == 0)
            engine.postNow(actorId, kPoll);
        if (sweep + 1 < sc.sweeps)
            engine.postNow(actorId, kSweep, sweep + 1);
    }

    /** Tenants + sessions, in file order (determinism: ids are dense
     *  and the sweep loop walks this fixed layout). */
    void openTenants()
    {
        for (const ScenarioTenant &t : sc.tenants) {
            uint32_t id = broker.registerTenant(t.name, t.policy);
            tenantIds.push_back(id);
            std::vector<uint32_t> sessions;
            for (uint32_t i = 0; i < t.sessions; ++i) {
                try {
                    sessions.push_back(broker.openSession(id));
                } catch (const PolicyError &) {
                    // Session quota walls are a legitimate part of
                    // a campaign; the tenant runs with fewer.
                    break;
                }
            }
            tenantSessions.push_back(std::move(sessions));
        }
    }

    void actions(uint32_t sweep)
    {
        for (const ScenarioAction &a : sc.actions) {
            if (!a.firesAt(sweep))
                continue;
            if (a.kind == "rekey")
                tb.smApp().rekeySession();
            else if (a.kind == "replay" && tb.maliciousShell())
                tb.maliciousShell()->replayRecordedSmWrites();
            else if (a.kind == "dma") {
                // Bulk transfer through the secure DMA lane on
                // the first open session; the job rides the
                // scheduler's sweep, so faults armed on the
                // memory channel exercise the window protocol.
                uint32_t slot = 0;
                bool haveSlot = false;
                for (const auto &sessions : tenantSessions)
                    if (!sessions.empty()) {
                        slot = sessions.front();
                        haveSlot = true;
                        break;
                    }
                if (!haveSlot)
                    continue;
                BatchScheduler::DmaJob job;
                job.addr = 0x10000;
                job.windowSize = a.window;
                job.data.resize(a.bytes);
                for (size_t i = 0; i < job.data.size(); ++i)
                    job.data[i] = uint8_t(sweep * 131 + i * 7 + 5);
                ScenarioOutcome &res = out;
                job.done =
                    [&res](const dmachan::DmaTransferReport &report) {
                        ++res.dmaJobs;
                        if (report.status == 0)
                            res.dmaBytes += report.bytes;
                    };
                tb.scheduler().submitDma(slot, std::move(job));
            }
        }
    }

    void submissions(uint32_t sweep)
    {
        for (size_t ti = 0; ti < sc.tenants.size(); ++ti) {
            const ScenarioTenant &t = sc.tenants[ti];
            const std::vector<uint32_t> &sessions = tenantSessions[ti];
            if (sessions.empty() || !tenantActive(t, sweep))
                continue;
            uint32_t want =
                t.pattern == "trickle"
                    ? std::max<uint32_t>(1, t.opsPerSweep / 4)
                    : t.opsPerSweep;
            for (uint32_t i = 0; i < want; ++i) {
                regchan::RegOp op;
                op.isWrite = true;
                op.addr = uint32_t(8 * ti);
                op.data = (uint64_t(sweep) << 16) | i;
                try {
                    broker.submit(tenantIds[ti],
                                  sessions[i % sessions.size()], op);
                } catch (const Overloaded &) {
                    break; // shed: the whole sweep is refused
                } catch (const RateLimited &) {
                    break; // bucket dry until time passes
                } catch (const QuotaExceeded &) {
                    // Per-session wall; other sessions may
                    // still have room.
                }
            }
        }
    }

    void pumpBroker()
    {
        try {
            out.completed += broker.pump();
        } catch (const FailoverError &) {
            // The batch did not commit. The failover itself is in the
            // supervisor's record, which harvest() counts.
        }
    }

    /** One watchdog pass. A failover it completes is in the
     *  supervisor's record; one it cannot complete is a violation. */
    void poll()
    {
        try {
            tb.supervisor().pollOnce();
        } catch (const SalusError &e) {
            out.violations.push_back(std::string("supervisor poll: ") +
                                     e.what());
        }
    }

    /** Drain (failover-tolerant, bounded). */
    void drain()
    {
        for (int attempt = 0; attempt < 4; ++attempt) {
            try {
                out.completed += broker.drainAll();
                break;
            } catch (const FailoverError &) {
                // Counted from the supervisor's record; drain again.
            }
        }
    }

    void harvest()
    {
        uint64_t totalW = tb.scheduler().totalWeight();
        for (size_t ti = 0; ti < sc.tenants.size(); ++ti) {
            const TenantStats &ts = broker.tenantStats(tenantIds[ti]);
            out.tenants.push_back({sc.tenants[ti].name, ts});
            out.admitted += ts.admitted;
            out.quotaRejected += ts.quotaRejected;
            out.rateRejected += ts.rateRejected;
            out.shedRejected += ts.shedRejected;
            uint64_t w = sc.tenants[ti].policy.weight;
            uint64_t bound =
                std::max<uint64_t>(1, (totalW + w - 1) / w);
            for (uint32_t s : tenantSessions[ti]) {
                uint64_t waited =
                    tb.scheduler().sessionStats(s).maxSweepsWaited;
                out.maxSweepsWaited =
                    std::max(out.maxSweepsWaited, waited);
                if (sc.expect.noStarvation && waited > bound)
                    out.violations.push_back(
                        "starvation: tenant '" + sc.tenants[ti].name +
                        "' session " + std::to_string(s) + " waited " +
                        std::to_string(waited) + " sweeps (bound " +
                        std::to_string(bound) + ")");
            }
        }
        uint64_t completedAll = 0;
        for (const auto &[name, ts] : out.tenants)
            completedAll += ts.completed;
        out.completed = completedAll;
        out.failovers = tb.supervisor().failovers().size();
        out.shedLevelEnd = broker.shedLevel();
        out.seusInjected = tb.faultInjector().stats().seusInjected;
        out.clockEnd = tb.clock().now();

        const ScenarioExpect &e = sc.expect;
        auto atLeast = [&](const char *what, uint64_t got,
                          uint64_t min) {
            if (got < min)
                out.violations.push_back(
                    std::string(what) + ": got " + std::to_string(got) +
                    ", expected >= " + std::to_string(min));
        };
        atLeast("completed", out.completed, e.completedMin);
        atLeast("quota_rejected", out.quotaRejected,
                e.quotaRejectedMin);
        atLeast("rate_rejected", out.rateRejected, e.rateRejectedMin);
        atLeast("shed_rejected", out.shedRejected, e.shedRejectedMin);
        atLeast("seus_injected", out.seusInjected, e.seusMin);
        atLeast("dma_bytes", out.dmaBytes, e.dmaBytesMin);
        if (e.recoveredFromShed && out.shedLevelEnd != 0)
            out.violations.push_back(
                "shed level still " + std::to_string(out.shedLevelEnd) +
                " after drain");
        if (out.failovers > e.failoversMax)
            out.violations.push_back(
                "failovers: got " + std::to_string(out.failovers) +
                ", expected <= " + std::to_string(e.failoversMax));
    }
};

} // namespace

ScenarioOutcome
runScenarioOnEngine(const Scenario &scenario)
{
    ScenarioOutcome out;

    TestbedConfig cfg;
    cfg.rngSeed = scenario.seed;
    cfg.deviceCount = scenario.devices;
    cfg.faultPlan.seed = scenario.seed;
    for (const ScenarioFault &f : scenario.faults)
        cfg.faultPlan.add(f.toRule());
    cfg.maliciousShell = scenario.maliciousShell;
    cfg.attackPlan.forgeHeartbeats = scenario.forgeHeartbeats;
    Testbed tb(cfg);

    obs::TraceRecorder recorder(tb.clock());
    obs::MetricsRegistry metricsReg;
    {
        obs::ObsScope scope(&recorder, &metricsReg);
        tb.installCl(scenarioAccel());
        out.deployOk = tb.runDeployment().ok;
        if (!out.deployOk) {
            out.violations.push_back("deployment failed");
        } else {
            Broker broker(tb, scenario.broker);
            SweepActor(scenario, tb, broker, out).run();
        }
    }
    // The seed is part of the run's identity: a seed change must move
    // the metrics artifact even when the campaign never draws from it.
    metricsReg.add("scenario.seed", scenario.seed);
    out.traceJson = recorder.chromeTraceJson();
    out.metricsText = metricsReg.renderText();
    return out;
}

} // namespace salus::core
