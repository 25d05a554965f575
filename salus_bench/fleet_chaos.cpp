/**
 * @file
 * fleet_chaos: a strict-INI campaign generated from the seed and run
 * with runScenarioOnEngine — 4 devices, 4 tenants (flood, burst,
 * trickle, rate-limited), 6000 sweeps, DMA actions, periodic rekeys,
 * SEUs, dma_drop, delay_rpc and one device_dead that forces a
 * failover. An open loop on the virtual clock, and the only workload
 * that drives the broker, supervisor, engine, fault injector and obs
 * export; it uses the channels under faults, rekeys and policy.
 *
 * The scenario records its own obs trace and metrics in every run, so
 * its virtual per-layer numbers come from those artifacts. Host time
 * per layer inside the scenario cannot be separated from the outside.
 */

#include <cstring>
#include <string>

#include "crypto/random.hpp"
#include "obs/trace.hpp"
#include "salus/scenario.hpp"
#include "workloads.hpp"

namespace salus::bench {

namespace {

const MetricSpec kChaosOpsPerVs{"chaos_ops_per_vs", "ops/s", Clock::Virtual,
                                "higher", ""};
const MetricSpec kChaosRecoveryMs{"chaos_recovery_ms", "ms", Clock::Virtual,
                                  "lower", ""};
const MetricSpec kChaosMaxSweepsWaited{"chaos_max_sweeps_waited", "sweeps",
                                       Clock::Tally, "lower", ""};

/** Virtual cost of the campaign's deployment and of one sweep on the
 *  test device: device_dead lands 45% of the way through the sweeps. */
constexpr uint64_t kDeployMs = 4300;
constexpr double kMsPerSweep = 26.0;

struct Campaign
{
    std::string text;
    uint64_t dmaFirings = 0;
    uint64_t dmaBytes = 0;
};

/** The campaign file for a seed. The seed varies the fault RNG, the
 *  SEU bits, the RPC delay and the instant of the device death; the
 *  campaign's shape stays fixed so the virtual rates stay comparable
 *  across seeds. */
Campaign
generate(const Options &opts)
{
    uint32_t sweeps = opts.smoke ? 60 : 6000;
    crypto::CtrDrbg rng(opts.seed + 0xca05);
    uint64_t deadMs = kDeployMs + uint64_t(0.45 * sweeps * kMsPerSweep) +
                      rng.below(sweeps / 30 + 1);
    auto n = [](uint64_t v) { return std::to_string(v); };

    Campaign c;
    std::string &s = c.text;
    s += "[scenario]\nname = fleet-chaos\nseed = " + n(opts.seed) +
         "\ndevices = 4\nsweeps = " + n(sweeps) + "\npoll_every = 4\n";
    s += "[broker]\nmax_total_queued_ops = 512\nshed_low_water = 128\n"
         "max_total_sessions = 8\n";
    s += "[tenant flood]\nweight = 2\nmax_sessions = 1\n"
         "max_queued_ops = 128\npattern = flood\nops_per_sweep = 48\n";
    s += "[tenant burst]\nweight = 1\nmax_sessions = 1\n"
         "max_queued_ops = 128\npattern = burst\nops_per_sweep = 32\n"
         "burst_on = 5\nburst_off = 7\n";
    s += "[tenant trickle]\nweight = 1\nmax_sessions = 1\n"
         "max_queued_ops = 64\npattern = trickle\nops_per_sweep = 8\n";
    s += "[tenant metered]\nweight = 1\nmax_sessions = 1\n"
         "max_queued_ops = 64\npattern = flood\nops_per_sweep = 16\n"
         "rate_per_sec = 300\nburst = 32\n";
    uint32_t dmaEvery = 40;
    s += "[action]\nkind = dma\nat_sweep = 3\nevery_sweeps = " +
         n(dmaEvery) + "\nbytes = 65536\nwindow = 8\n";
    c.dmaFirings = sweeps > 3 ? (sweeps - 3 - 1) / dmaEvery + 1 : 0;
    c.dmaBytes = c.dmaFirings * 65536;
    s += "[action]\nkind = rekey\nat_sweep = 10\nevery_sweeps = 250\n";
    for (int i = 0; i < 2; ++i)
        s += "[fault]\nkind = seu\npartition = 0\nbit = " +
             n(rng.below(4096)) + "\ntimes = 2\n";
    s += "[fault]\nkind = dma_drop\nprobability = 0.05\n";
    s += "[fault]\nkind = delay_rpc\nprobability = 0.02\ndelay_us = " +
         n(200 + rng.below(200)) + "\n";
    s += "[fault]\nkind = device_dead\ndevice = 0\nat_ms = " + n(deadMs) +
         "\n";
    s += "[expect]\nno_starvation = 1\nfailovers_max = 1\n";
    return c;
}

/** A completed span of the scenario's Chrome trace. */
struct TraceSpan
{
    size_t tid = 0;
    sim::Nanos dur = 0;
    uint32_t id = 0;
    uint32_t parent = 0;
    bool failover = false; ///< a perform_failover span
};

/** "123.456" (microseconds with an exact 3-digit fraction) -> ns. */
sim::Nanos
parseMicros(const char *p)
{
    char *end = nullptr;
    sim::Nanos whole = std::strtoull(p, &end, 10);
    sim::Nanos frac = *end == '.' ? std::strtoull(end + 1, nullptr, 10) : 0;
    return whole * 1000 + frac;
}

/** Reads the "X" events of a TraceRecorder::chromeTraceJson export
 *  (one event per line). @return false on a line it cannot read. */
bool
parseTrace(const std::string &json, std::vector<TraceSpan> &spans)
{
    size_t pos = 0;
    while (pos < json.size()) {
        size_t eol = json.find('\n', pos);
        if (eol == std::string::npos)
            eol = json.size();
        std::string line = json.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        const char *tid = std::strstr(line.c_str(), "\"tid\":");
        const char *dur = std::strstr(line.c_str(), "\"dur\":");
        const char *id = std::strstr(line.c_str(), "\"args\":{\"id\":");
        const char *parent = id ? std::strstr(id, "\"parent\":") : nullptr;
        if (!tid || !dur || !id || !parent)
            return false;
        TraceSpan span;
        span.tid = std::strtoull(tid + 6, nullptr, 10);
        span.dur = parseMicros(dur + 6);
        span.id = uint32_t(std::strtoul(id + 13, nullptr, 10));
        span.parent = uint32_t(std::strtoul(parent + 9, nullptr, 10));
        span.failover =
            line.find("\"name\":\"perform_failover\"") != std::string::npos;
        spans.push_back(span);
    }
    return true;
}

/** Value of `counter <name> <v>` in a metrics text dump (0 if absent). */
uint64_t
counter(const std::string &text, const std::string &name)
{
    std::string key = "counter " + name + " ";
    size_t at = text.find(key);
    if (at == std::string::npos)
        return 0;
    return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

/** Virtual self time per obs category, from the trace's parent ids. */
struct Ledger
{
    /** Index = obs::Category; Clock leaves count as their parent's
     *  own work, so only the seven span categories get self time. */
    sim::Nanos self[obs::kCategoryCount] = {};
    sim::Nanos leaves = 0;     ///< every clock slice
    sim::Nanos rootLeaves = 0; ///< clock slices outside any span
    sim::Nanos failover = 0;   ///< perform_failover span time
    bool nested = true;        ///< every span covers its children
};

Ledger
ledger(const std::vector<TraceSpan> &spans)
{
    constexpr size_t kClockTid = size_t(obs::Category::Clock) + 1;
    uint32_t maxId = 0;
    for (const TraceSpan &s : spans)
        maxId = std::max(maxId, s.id);
    std::vector<sim::Nanos> children(maxId + 1, 0);
    for (const TraceSpan &s : spans)
        if (s.tid != kClockTid && s.parent <= maxId)
            children[s.parent] += s.dur;
    Ledger l;
    for (const TraceSpan &s : spans) {
        if (s.tid == kClockTid) {
            l.leaves += s.dur;
            l.rootLeaves += s.parent == 0 ? s.dur : 0;
            continue;
        }
        if (children[s.id] > s.dur) {
            l.nested = false;
            continue;
        }
        if (s.tid >= 1 && s.tid <= obs::kCategoryCount)
            l.self[s.tid - 1] += s.dur - children[s.id];
        if (s.failover)
            l.failover += s.dur;
    }
    return l;
}

/** Runs one campaign and checks it. */
core::ScenarioOutcome
runCampaign(const core::Scenario &sc, const Campaign &c, RunResult &result,
            double &hostS)
{
    HostSpan span(nullptr, "scenario.run");
    core::ScenarioOutcome out = core::runScenarioOnEngine(sc);
    hostS = span.stop();
    result.tally(out.admitted, out.admitted - std::min(out.completed,
                                                       out.admitted),
                 "admitted ops lost");
    result.tally(c.dmaFirings, out.dmaJobs == c.dmaFirings ? 0 : 1,
                 "DMA jobs missing");
    result.check(out.dmaBytes == c.dmaBytes,
                 "DMA actions did not deliver every byte");
    result.check(out.deployOk, "campaign deployment failed");
    for (const std::string &v : out.violations)
        result.check(false, "scenario invariant: " + v);
    result.check(out.failovers == 1, "device_dead did not force one failover");
    return out;
}

void
checkLedger(const Ledger &l, const core::ScenarioOutcome &out,
            RunResult &result)
{
    sim::Nanos selfSum = l.rootLeaves;
    for (sim::Nanos v : l.self)
        selfSum += v;
    result.check(l.nested, "a trace span is shorter than its children");
    result.check(l.leaves == out.clockEnd,
                 "clock leaves do not sum to the campaign's virtual time");
    result.check(selfSum == l.leaves,
                 "category self times do not sum to the virtual time");
}

Ledger
readTrace(const core::ScenarioOutcome &out, RunResult &result)
{
    std::vector<TraceSpan> spans;
    result.check(parseTrace(out.traceJson, spans),
                 "cannot read the scenario trace");
    Ledger l = ledger(spans);
    checkLedger(l, out, result);
    return l;
}

} // namespace

const std::vector<MetricSpec> kFleetChaosLayers = {
    {"scenario.parse_ms", "ms", Clock::Host, "lower", "setup_s"},
    {"obs.trace_bytes", "B", Clock::Tally, "lower", "host_s"},
    {"virt.boot_self_ms", "ms", Clock::Virtual, "lower", "chaos_ops_per_vs"},
    {"virt.attestation_self_ms", "ms", Clock::Virtual, "lower",
     "chaos_recovery_ms"},
    {"virt.bitstream_self_ms", "ms", Clock::Virtual, "lower",
     "chaos_recovery_ms"},
    {"virt.channel_self_ms", "ms", Clock::Virtual, "lower",
     "chaos_ops_per_vs"},
    {"virt.scheduler_self_ms", "ms", Clock::Virtual, "lower",
     "chaos_ops_per_vs"},
    {"virt.supervisor_self_ms", "ms", Clock::Virtual, "lower",
     "chaos_recovery_ms"},
    {"virt.shell_self_ms", "ms", Clock::Virtual, "lower",
     "chaos_ops_per_vs"},
    {"supervisor.failovers", "count", Clock::Tally, "lower",
     "chaos_recovery_ms"},
    {"supervisor.polls", "count", Clock::Tally, "lower", "chaos_ops_per_vs"},
    {"broker.admit_ratio", "fraction", Clock::Tally, "higher",
     "chaos_ops_per_vs"},
    {"broker.quota_rejected", "count", Clock::Tally, "lower",
     "chaos_ops_per_vs"},
    {"broker.rate_rejected", "count", Clock::Tally, "lower",
     "chaos_ops_per_vs"},
    {"broker.overloaded_rejected", "count", Clock::Tally, "lower",
     "chaos_ops_per_vs"},
    {"scheduler.dispatch_backpressure", "count", Clock::Tally, "lower",
     "chaos_max_sweeps_waited"},
    {"dma.retransmits", "count", Clock::Tally, "lower", "dma_mb_per_vs"},
    {"channel.rejects", "count", Clock::Tally, "lower", "error_rate"},
    {"sm.journal_commits", "count", Clock::Tally, "lower",
     "chaos_ops_per_vs"},
};

RunResult
runFleetChaos(const Options &opts)
{
    RunResult result;
    std::vector<double> setups;
    std::vector<double> reps;
    core::ScenarioOutcome last;
    repeatFor(opts.seconds, opts.smoke ? 1 : 3, opts.smoke ? 1 : 1000,
              [&](int) {
                  // Free the previous rep's ~57 MB trace first, so the
                  // peak RSS holds one campaign's artifacts, not two.
                  last = core::ScenarioOutcome{};
                  HostSpan setup(nullptr, "setup");
                  Campaign c = generate(opts);
                  core::Scenario sc = core::parseScenario(c.text);
                  setups.push_back(setup.stop());
                  double hostS = 0;
                  last = runCampaign(sc, c, result, hostS);
                  reps.push_back(hostS);
              });
    Ledger l = readTrace(last, result);
    double opsPerVs = double(last.completed) / (double(last.clockEnd) / 1e9);
    result.add(kChaosOpsPerVs, Kind::Headline, opsPerVs);
    result.add(kChaosRecoveryMs, Kind::Headline, double(l.failover) / 1e6);
    result.add(kChaosMaxSweepsWaited, Kind::Headline,
               double(last.maxSweepsWaited));
    addEndToEnd(result, median(setups), median(reps), opsPerVs);
    return result;
}

RunResult
tracedFleetChaos(const Options &opts, HostTrace &trace)
{
    RunResult result;
    result.notes.push_back(
        "host time per layer inside runScenarioOnEngine cannot be "
        "separated from outside the program; only scenario.parse_ms is "
        "host-timed, the rest of this workload's ledger is virtual");
    std::vector<double> parses;
    core::ScenarioOutcome out;
    repeatFor(opts.seconds, opts.smoke ? 1 : 2, opts.smoke ? 1 : 1000,
              [&](int) {
        uint32_t repSpan = trace.begin("rep");
        Campaign c = generate(opts);
        core::Scenario sc;
        for (int i = 0; i < 50; ++i) {
            HostSpan span(&trace, "scenario.parse");
            sc = core::parseScenario(c.text);
            parses.push_back(span.stop());
        }
        {
            HostSpan span(&trace, "scenario.run");
            double hostS = 0;
            out = runCampaign(sc, c, result, hostS);
        }
        trace.end(repSpan);
    });

    Ledger l;
    {
        HostSpan span(&trace, "trace.read");
        l = readTrace(out, result);
    }
    const std::vector<MetricSpec> &spec = kFleetChaosLayers;
    const std::string &m = out.metricsText;
    uint64_t rejected = out.quotaRejected + out.rateRejected +
                        out.shedRejected;
    result.add(spec[0], Kind::Layer, median(parses) * 1e3);
    result.add(spec[1], Kind::Layer, double(out.traceJson.size()));
    for (size_t i = 0; i < 7; ++i)
        result.add(spec[2 + i], Kind::Layer, double(l.self[i]) / 1e6);
    result.add(spec[9], Kind::Layer,
               double(counter(m, "supervisor.failovers")));
    result.add(spec[10], Kind::Layer, double(counter(m, "supervisor.polls")));
    result.add(spec[11], Kind::Layer,
               out.admitted + rejected
                   ? double(out.admitted) / double(out.admitted + rejected)
                   : 0);
    result.add(spec[12], Kind::Layer, double(out.quotaRejected));
    result.add(spec[13], Kind::Layer, double(out.rateRejected));
    result.add(spec[14], Kind::Layer, double(out.shedRejected));
    result.add(spec[15], Kind::Layer,
               double(counter(m, "scheduler.dispatch_backpressure")));
    result.add(spec[16], Kind::Layer, double(counter(m, "dma.retransmits")));
    result.add(spec[17], Kind::Layer, double(counter(m, "channel.rejects")));
    result.add(spec[18], Kind::Layer,
               double(counter(m, "sm.journal_commits")));
    return result;
}

} // namespace salus::bench
