#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace salus::bench {

namespace {

/** Failure messages kept per run; the count is always exact. */
constexpr size_t kMaxFailureMessages = 16;

} // namespace

const MetricSpec kSetupS{"setup_s", "s", Clock::Host, "lower", ""};
const MetricSpec kHostS{"host_s", "s", Clock::Host, "lower", ""};
const MetricSpec kPeakRssMb{"peak_rss_mb", "MiB", Clock::Host, "lower",
                            ""};
const MetricSpec kVirtOpsPerVs{"virt_ops_per_vs", "ops/s",
                               Clock::Virtual, "higher", ""};
const MetricSpec *const kEndToEnd[4] = {&kSetupS, &kHostS, &kPeakRssMb,
                                        &kVirtOpsPerVs};

void
addEndToEnd(RunResult &result, double setupS, double hostS,
            double virtOpsPerVs)
{
    result.add(kSetupS, Kind::EndToEnd, setupS);
    result.add(kHostS, Kind::EndToEnd, hostS);
    result.add(kPeakRssMb, Kind::EndToEnd, peakRssMb());
    result.add(kVirtOpsPerVs, Kind::EndToEnd, virtOpsPerVs);
}

const char *
clockName(Clock clock)
{
    switch (clock) {
    case Clock::Host:
        return "host";
    case Clock::Virtual:
        return "virtual";
    case Clock::Tally:
        return "tally";
    }
    return "?";
}

bool
RunResult::check(bool ok, const std::string &what)
{
    tally(1, ok ? 0 : 1, what);
    return ok;
}

void
RunResult::tally(uint64_t ops, uint64_t bad, const std::string &what)
{
    attempted += ops;
    failed += bad;
    if (bad > 0 && failures.size() < kMaxFailureMessages)
        failures.push_back(what + (bad > 1 ? " (x" + std::to_string(bad) +
                                                 ")"
                                           : std::string()));
}

void
RunResult::add(const MetricSpec &spec, Kind kind, double value)
{
    metrics.push_back(Metric{&spec, kind, value});
}

const Metric *
RunResult::find(const std::string &name) const
{
    for (const Metric &m : metrics)
        if (name == m.spec->name)
            return &m;
    return nullptr;
}

HostClock::time_point
HostClock::now() noexcept
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(duration(int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec));
}

// ---- HostTrace --------------------------------------------------------

HostTrace::HostTrace() : origin_(HostClock::now()) {}

int64_t
HostTrace::nowNs() const
{
    return (HostClock::now() - origin_).count();
}

uint32_t
HostTrace::begin(const char *name)
{
    Span span;
    span.id = nextId_++;
    span.parent = open_.empty() ? 0 : open_.back().id;
    span.name = name;
    span.beginNs = nowNs();
    open_.push_back(std::move(span));
    return open_.back().id;
}

double
HostTrace::end(uint32_t id)
{
    int64_t now = nowNs();
    double seconds = 0;
    bool isOpen = std::any_of(open_.begin(), open_.end(),
                              [id](const Span &s) { return s.id == id; });
    while (isOpen && !open_.empty()) {
        Span span = std::move(open_.back());
        open_.pop_back();
        span.endNs = now;
        bool last = span.id == id;
        if (last)
            seconds = double(span.endNs - span.beginNs) / 1e9;
        done_.push_back(std::move(span));
        if (last)
            break;
    }
    return seconds;
}

bool
HostTrace::writeChrome(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
                    "\"generator\":\"salus_bench\",\"clock\":\"host\"},"
                    "\"traceEvents\":[\n");
    bool first = true;
    for (const Span &s : done_) {
        std::fprintf(f,
                     "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                     "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"id\":%u,"
                     "\"parent\":%u}}",
                     first ? "" : ",\n", double(s.beginNs) / 1e3,
                     double(s.endNs - s.beginNs) / 1e3,
                     jsonEscape(s.name).c_str(), s.id, s.parent);
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

HostSpan::HostSpan(HostTrace *trace, const char *name)
    : trace_(trace), start_(HostClock::now())
{
    if (trace_)
        id_ = trace_->begin(name);
}

HostSpan::~HostSpan() { stop(); }

double
HostSpan::stop()
{
    if (seconds_ < 0)
        seconds_ = trace_ ? trace_->end(id_) : secondsSince(start_);
    return seconds_;
}

// ---- Helpers ----------------------------------------------------------

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

sim::Nanos
percentile(std::vector<sim::Nanos> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t rank = size_t(std::ceil(p / 100.0 * double(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string
slug(const std::string &label)
{
    std::string out;
    for (char c : label) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += char(std::tolower(static_cast<unsigned char>(c)));
        else if (!out.empty() && out.back() != '_')
            out += '_';
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c) & 0xff);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace salus::bench
