/**
 * @file
 * salus_bench: one two-clock benchmark of the Salus simulator with
 * four workloads and a per-layer ledger.
 *
 *   salus_bench --workload W --seed N --seconds S --trace 0|1 [--out F]
 *       One run of one workload. --trace 0 runs the untraced timed
 *       reps (end-to-end metrics); --trace 1 the traced run (per-layer
 *       metrics, host spans written to HOSTTRACE_<W>.json). Prints
 *       every metric with its unit and clock, then one JSON line:
 *       {"correct", "attempted", "failed", "metrics"}. --out writes
 *       the run's full record (every metric, failures, environment).
 *   salus_bench --all --seed N [--seconds S] --out BENCH_salus.json
 *       Every workload and its traced run, each in a child process so
 *       peak_rss_mb is per workload; merges their records.
 *   salus_bench --smoke --benchmark-json BENCHMARK.json
 *       Every workload at about 1% of its size, checks that every
 *       metric BENCHMARK.json names is reported, and that one
 *       deliberately corrupted readback is counted as a failure.
 *
 * Exit status: 0 when every check passed, 1 on any correctness
 * failure, 2 on a usage error.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "crypto/backend.hpp"
#include "fpga/ip.hpp"
#include "salus/sm_logic.hpp"
#include "workloads.hpp"

#ifndef SALUS_BENCH_BUILD_TYPE
#define SALUS_BENCH_BUILD_TYPE "unknown"
#endif

namespace salus::bench {
namespace {

struct WorkloadDef
{
    const char *name;
    const char *why;
    RunResult (*run)(const Options &);
    RunResult (*traced)(const Options &, HostTrace &);
    const std::vector<MetricSpec> *layers;
};

const WorkloadDef kWorkloads[] = {
    {"cold_boot_32m",
     "closed loop of fresh 32 MiB deployments: the paper's Fig. 9 flow; "
     "crypto, bitstream and fpga layers",
     runColdBoot, tracedColdBoot, &kColdBootLayers},
    {"tenant_regchan",
     "closed loop of 2M register ops, 3 bulk sessions x 64 outstanding + "
     "1 interactive: reg channel, scheduler, sm_logic; no GCM",
     runTenantRegchan, tracedTenantRegchan, &kTenantRegchanLayers},
    {"bulk_dma",
     "closed loop moving 256 MiB through the sealed DMA plane, every byte "
     "read back: AES-CTR, HMAC, dma_channel; no GCM",
     runBulkDma, tracedBulkDma, &kBulkDmaLayers},
    {"fleet_chaos",
     "open loop on the virtual clock: seeded 6000-sweep campaign on 4 "
     "devices with faults and one forced failover",
     runFleetChaos, tracedFleetChaos, &kFleetChaosLayers},
};

const MetricSpec kErrorRate{"error_rate", "fraction", Clock::Tally,
                            "lower", ""};

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** Every workload's per-layer metrics, first mention wins. */
std::vector<MetricSpec>
allLayers()
{
    std::vector<MetricSpec> out;
    std::set<std::string> seen;
    for (const WorkloadDef &w : kWorkloads)
        for (const MetricSpec &spec : *w.layers)
            if (seen.insert(spec.name).second)
                out.push_back(spec);
    return out;
}

const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::EndToEnd:
        return "end_to_end";
    case Kind::Headline:
        return "headline";
    case Kind::Layer:
        return "layer";
    }
    return "?";
}

std::string
envJson(const Options &opts)
{
    std::ostringstream os;
    os << "{\"crypto_backend\": \"" << jsonEscape(crypto::backendSummary())
       << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"build_type\": \"" << SALUS_BENCH_BUILD_TYPE
       << "\", \"compiler\": \"" << jsonEscape(__VERSION__)
       << "\", \"seed\": " << opts.seed
       << ", \"seconds\": " << jsonNumber(opts.seconds) << "}";
    return os.str();
}

/** Makes the run's metric set complete and well-formed: the four
 *  end-to-end metrics (positive) on an untraced run, exactly the
 *  workload's specs on a traced one, every value finite. */
void
validate(const WorkloadDef &w, bool traced, RunResult &r)
{
    for (const Metric &m : r.metrics)
        r.check(std::isfinite(m.value),
                std::string("metric ") + m.spec->name + " is not finite");
    if (!traced) {
        for (const MetricSpec *spec : kEndToEnd) {
            const Metric *m = r.find(spec->name);
            r.check(m && m->value > 0,
                    std::string("end-to-end metric missing or zero: ") +
                        spec->name);
        }
        return;
    }
    std::set<std::string> specNames;
    for (const MetricSpec &spec : *w.layers) {
        specNames.insert(spec.name);
        r.check(r.find(spec.name) != nullptr,
                std::string("per-layer metric missing: ") + spec.name);
    }
    for (const Metric &m : r.metrics)
        r.check(m.kind != Kind::Layer || specNames.count(m.spec->name),
                std::string("per-layer metric without a spec: ") +
                    m.spec->name);
}

/** The full record of one run (what --out writes). */
std::string
recordJson(const WorkloadDef &w, bool traced, const Options &opts,
           const RunResult &r)
{
    std::ostringstream os;
    os << "{\"workload\": \"" << w.name << "\", \"why\": \""
       << jsonEscape(w.why) << "\", \"trace\": " << (traced ? 1 : 0)
       << ", \"env\": " << envJson(opts) << ", \"correct\": "
       << (r.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ",\n \"failures\": [";
    for (size_t i = 0; i < r.failures.size(); ++i)
        os << (i ? ", " : "") << '"' << jsonEscape(r.failures[i]) << '"';
    os << "],\n \"notes\": [";
    for (size_t i = 0; i < r.notes.size(); ++i)
        os << (i ? ", " : "") << '"' << jsonEscape(r.notes[i]) << '"';
    os << "],\n \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const MetricSpec &spec = *r.metrics[i].spec;
        os << (i ? ",\n  " : "\n  ") << '"' << spec.name
           << "\": {\"value\": " << jsonNumber(r.metrics[i].value)
           << ", \"unit\": \"" << spec.unit << "\", \"clock\": \""
           << clockName(spec.clock) << "\", \"better\": \"" << spec.better
           << "\", \"kind\": \"" << kindName(r.metrics[i].kind)
           << "\", \"moves\": \"" << jsonEscape(spec.moves) << "\"}";
    }
    os << "}}";
    return os.str();
}

/** The result line: every BENCHMARK.json metric of this run's kind. */
std::string
resultLine(bool traced, const RunResult &r)
{
    std::ostringstream os;
    os << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<uint64_t>(r.attempted, 1)
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
    auto emit = [&](const MetricSpec &spec, bool first) {
        const Metric *m = r.find(spec.name);
        // A per-layer metric of another workload's layer did no work
        // in this workload.
        double v = m && std::isfinite(m->value) ? m->value : 0;
        os << (first ? "" : ", ") << '"' << spec.name
           << "\": {\"value\": " << jsonNumber(v) << ", \"unit\": \""
           << spec.unit << "\"}";
    };
    bool first = true;
    if (traced) {
        for (const MetricSpec &spec : allLayers()) {
            emit(spec, first);
            first = false;
        }
    } else {
        for (const MetricSpec *spec : kEndToEnd) {
            emit(*spec, first);
            first = false;
        }
    }
    os << "}}";
    return os.str();
}

void
printTable(const WorkloadDef &w, bool traced, const RunResult &r)
{
    std::printf("== %s (%s run): %llu checked, %llu failed\n", w.name,
                traced ? "traced" : "untraced",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (const Metric &m : r.metrics)
        std::printf("  %-34s %16.6f %-9s %-8s %s\n", m.spec->name, m.value,
                    m.spec->unit, clockName(m.spec->clock), kindName(m.kind));
    for (const std::string &f : r.failures)
        std::printf("  FAILED: %s\n", f.c_str());
    for (const std::string &n : r.notes)
        std::printf("  note: %s\n", n.c_str());
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    return bool(out.flush());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Runs one workload in this process. @return its result. */
RunResult
runOne(const WorkloadDef &w, bool traced, const Options &opts)
{
    RunResult r;
    HostTrace trace;
    try {
        r = traced ? w.traced(opts, trace) : w.run(opts);
    } catch (const std::exception &e) {
        r.check(false, std::string("exception: ") + e.what());
    }
    validate(w, traced, r);
    if (!traced)
        r.add(kErrorRate, Kind::Headline,
              double(r.failed) / double(std::max<uint64_t>(r.attempted, 1)));
    if (traced && !opts.smoke)
        r.check(trace.writeChrome(std::string("HOSTTRACE_") + w.name +
                                  ".json"),
                "cannot write the host trace");
    return r;
}

int
singleRun(const WorkloadDef &w, bool traced, const Options &opts,
          const std::string &outPath)
{
    std::printf("salus_bench env: %s\n", envJson(opts).c_str());
    RunResult r = runOne(w, traced, opts);
    if (!outPath.empty())
        r.check(writeFile(outPath, recordJson(w, traced, opts, r)),
                "cannot write " + outPath);
    printTable(w, traced, r);
    std::printf("%s\n", resultLine(traced, r).c_str());
    return r.failed == 0 ? 0 : 1;
}

/** Runs this binary as a child and waits for it. @return exit status. */
int
spawnSelf(const std::vector<std::string> &args)
{
    std::fflush(stdout);
    pid_t pid = fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        std::vector<char *> argv;
        static char self[] = "/proc/self/exe";
        argv.push_back(self);
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        execv(self, argv.data());
        _exit(127);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int
allRuns(const Options &opts, const std::string &outPath)
{
    bool ok = true;
    std::ostringstream os;
    os << "{\"bench\": \"salus_bench\", \"env\": " << envJson(opts)
       << ",\n\"workloads\": {";
    bool firstWorkload = true;
    for (const WorkloadDef &w : kWorkloads) {
        os << (firstWorkload ? "\n" : ",\n") << '"' << w.name << "\": {";
        firstWorkload = false;
        for (int traced = 0; traced < 2; ++traced) {
            std::string part = outPath + "." + w.name + "." +
                               std::to_string(traced) + ".part";
            int status = spawnSelf(
                {"--workload", w.name, "--seed", std::to_string(opts.seed),
                 "--seconds", jsonNumber(opts.seconds), "--trace",
                 std::to_string(traced), "--out", part});
            std::string record = readFile(part);
            std::remove(part.c_str());
            if (status != 0 || record.empty()) {
                std::printf("salus_bench: %s (trace %d) FAILED (status %d)\n",
                            w.name, traced, status);
                ok = false;
            }
            os << (traced ? ",\n" : "\n") << (traced ? "\"layers\": "
                                                      : "\"end_to_end\": ")
               << (record.empty() ? "null" : record);
        }
        os << "}";
    }
    os << "},\n\"correct\": " << (ok ? "true" : "false") << "}\n";
    if (!writeFile(outPath, os.str())) {
        std::printf("salus_bench: cannot write %s\n", outPath.c_str());
        return 1;
    }
    std::printf("salus_bench: wrote %s (%s)\n", outPath.c_str(),
                ok ? "all checks passed" : "FAILURES");
    return ok ? 0 : 1;
}

/** The string value of `"field": "..."` inside `object` ("" if absent). */
std::string
stringField(const std::string &object, const std::string &field)
{
    size_t p = object.find('"' + field + '"');
    if (p == std::string::npos)
        return "";
    size_t q1 = object.find('"', object.find(':', p) + 1);
    size_t q2 = object.find('"', q1 + 1);
    return q2 == std::string::npos ? "" : object.substr(q1 + 1, q2 - q1 - 1);
}

/** name -> unit of every object in the BENCHMARK.json array `key`
 *  (the file's arrays hold flat objects with no brackets in them). */
std::map<std::string, std::string>
benchmarkEntries(const std::string &json, const std::string &key)
{
    std::map<std::string, std::string> entries;
    size_t at = json.find('"' + key + '"');
    size_t open = at == std::string::npos ? at : json.find('[', at);
    size_t close = open == std::string::npos ? open : json.find(']', open);
    for (size_t p = open; p < close; ) {
        size_t b = json.find('{', p);
        size_t e = b < close ? json.find('}', b) : std::string::npos;
        if (e == std::string::npos || e > close)
            break;
        std::string object = json.substr(b, e - b + 1);
        entries[stringField(object, "name")] = stringField(object, "unit");
        p = e + 1;
    }
    return entries;
}

int
smoke(const std::string &benchmarkJson)
{
    int problems = 0;
    auto expect = [&](bool ok, const std::string &what) {
        if (!ok) {
            ++problems;
            std::printf("SMOKE FAILURE: %s\n", what.c_str());
        }
    };
    Options opts;
    opts.smoke = true;
    opts.seconds = 0;
    std::set<std::string> layerNames;
    std::map<std::string, std::set<std::string>> e2eByWorkload;
    for (const WorkloadDef &w : kWorkloads) {
        for (bool traced : {false, true}) {
            RunResult r = runOne(w, traced, opts);
            printTable(w, traced, r);
            expect(r.failed == 0, std::string(w.name) + " failed a check");
            for (const Metric &m : r.metrics)
                (traced ? layerNames : e2eByWorkload[w.name])
                    .insert(m.spec->name);
        }
    }

    // Negative case: one corrupted readback must count as one failure.
    opts.corruptReadback = true;
    RunResult bad = runOne(*findWorkload("bulk_dma"), false, opts);
    expect(bad.failed == 1,
           "a corrupted DMA readback was not counted as exactly one "
           "failure (got " + std::to_string(bad.failed) + ")");
    const Metric *rate = bad.find("error_rate");
    expect(rate && rate->value > 0, "error_rate missed the corruption");

    // BENCHMARK.json must name exactly what the binary reports, with
    // the same units.
    std::string json = readFile(benchmarkJson);
    expect(!json.empty(), "cannot read " + benchmarkJson);
    std::map<std::string, std::string> workloads;
    for (const WorkloadDef &w : kWorkloads)
        workloads[w.name] = "";
    expect(benchmarkEntries(json, "workloads") == workloads,
           "BENCHMARK.json workloads differ from the binary's");
    std::map<std::string, std::string> e2e, perLayer;
    for (const MetricSpec *spec : kEndToEnd)
        e2e[spec->name] = spec->unit;
    for (const MetricSpec &spec : allLayers())
        perLayer[spec.name] = spec.unit;
    expect(benchmarkEntries(json, "end_to_end") == e2e,
           "BENCHMARK.json end_to_end names or units differ");
    expect(benchmarkEntries(json, "per_layer") == perLayer,
           "BENCHMARK.json per_layer names or units differ");
    for (const auto &[name, unit] : e2e)
        for (const auto &[workload, names] : e2eByWorkload)
            expect(names.count(name),
                   workload + " does not report end_to_end " + name);
    for (const auto &[name, unit] : perLayer)
        expect(layerNames.count(name), "no workload reports per_layer " + name);
    std::printf("salus_bench smoke: %s\n", problems ? "FAILED" : "ok");
    return problems ? 1 : 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: salus_bench --workload W --seed N --seconds S "
                 "--trace 0|1 [--out FILE]\n"
                 "       salus_bench --all --seed N [--seconds S] --out FILE\n"
                 "       salus_bench --smoke --benchmark-json FILE\n"
                 "workloads:");
    for (const WorkloadDef &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace
} // namespace salus::bench

int
main(int argc, char **argv)
{
    using namespace salus::bench;
    salus::fpga::ensureBuiltinIps();
    salus::core::SmLogic::registerIp();

    Options opts;
    std::string workload, outPath, benchmarkJson = "BENCHMARK.json";
    int trace = -1;
    bool all = false, smokeRun = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool hasValue = i + 1 < argc;
        try {
            if (arg == "--all")
                all = true;
            else if (arg == "--smoke")
                smokeRun = true;
            else if (arg == "--workload" && hasValue)
                workload = argv[++i];
            else if (arg == "--seed" && hasValue)
                opts.seed = std::stoull(argv[++i]);
            else if (arg == "--seconds" && hasValue)
                opts.seconds = std::stod(argv[++i]);
            else if (arg == "--trace" && hasValue)
                trace = std::stoi(argv[++i]);
            else if (arg == "--out" && hasValue)
                outPath = argv[++i];
            else if (arg == "--benchmark-json" && hasValue)
                benchmarkJson = argv[++i];
            else
                return usage();
        } catch (const std::exception &) {
            return usage();
        }
    }
    if (!(opts.seconds >= 0))
        return usage();
    if (smokeRun)
        return smoke(benchmarkJson);
    if (all)
        return outPath.empty() ? usage() : allRuns(opts, outPath);
    const WorkloadDef *w = findWorkload(workload);
    if (!w || (trace != 0 && trace != 1))
        return usage();
    return singleRun(*w, trace == 1, opts, outPath);
}
