#include "obs/trace.hpp"

#include <cstdio>

namespace salus::obs {

namespace {

const char *const kCategoryNames[kCategoryCount] = {
    "boot",      "attestation", "bitstream",  "channel",
    "scheduler", "supervisor",  "shell",      "clock",
};

/** Globals read by the one-branch fast-path helpers. The simulator is
 *  single-threaded by construction (virtual clock), so plain pointers
 *  suffice — the TSan CI job keeps that assumption honest. */
TraceRecorder *g_tracer = nullptr;
MetricsRegistry *g_metrics = nullptr;

/** Minimal JSON string escaping (names are internal identifiers and
 *  phase labels; quotes/backslashes/control bytes get escaped). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
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

/** Nanoseconds rendered as microseconds with exact .3 fraction —
 *  integer math only, so output never depends on float rounding. */
std::string
tsMicros(sim::Nanos ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return buf;
}

} // namespace

const char *
categoryName(Category cat)
{
    return kCategoryNames[static_cast<size_t>(cat)];
}

TraceRecorder::TraceRecorder(sim::VirtualClock &clock)
    : clock_(clock)
{
}

uint32_t
TraceRecorder::beginSpan(Category cat, std::string name)
{
    SpanEvent ev;
    ev.id = nextId_++;
    ev.parent = open_.empty() ? 0 : open_.back().id;
    ev.cat = cat;
    ev.name = std::move(name);
    ev.begin = clock_.now();
    open_.push_back(std::move(ev));
    return open_.back().id;
}

uint32_t
TraceRecorder::beginSpan(Category cat, std::string name, uint64_t value)
{
    uint32_t id = beginSpan(cat, std::move(name));
    open_.back().hasValue = true;
    open_.back().value = value;
    return id;
}

void
TraceRecorder::endSpan(uint32_t id)
{
    // Unwind to (and including) `id`; RAII callers always hit the top.
    while (!open_.empty()) {
        SpanEvent ev = std::move(open_.back());
        open_.pop_back();
        uint32_t closed = ev.id;
        ev.end = clock_.now();
        events_.push_back(std::move(ev));
        if (closed == id)
            return;
    }
}

void
TraceRecorder::instant(Category cat, std::string name)
{
    SpanEvent ev;
    ev.id = nextId_++;
    ev.parent = open_.empty() ? 0 : open_.back().id;
    ev.cat = cat;
    ev.instant = true;
    ev.name = std::move(name);
    ev.begin = ev.end = clock_.now();
    events_.push_back(std::move(ev));
}

void
TraceRecorder::instant(Category cat, std::string name, uint64_t value)
{
    instant(cat, std::move(name));
    events_.back().hasValue = true;
    events_.back().value = value;
}

void
TraceRecorder::onSpend(const sim::PhaseRecord &record)
{
    SpanEvent ev;
    ev.id = nextId_++;
    ev.parent = open_.empty() ? 0 : open_.back().id;
    ev.cat = Category::Clock;
    ev.name = record.phase;
    ev.begin = record.start;
    ev.end = record.start + record.duration;
    events_.push_back(std::move(ev));
}

sim::Nanos
TraceRecorder::phaseTotal(std::string_view phase) const
{
    sim::Nanos total = 0;
    for (const SpanEvent &ev : events_) {
        if (ev.cat == Category::Clock && ev.name == phase)
            total += ev.end - ev.begin;
    }
    return total;
}

std::string
TraceRecorder::chromeTraceJson() const
{
    std::string out =
        "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":"
        "\"salus-obs\",\"clock\":\"virtual\",\"unit\":\"ns\"},"
        "\"traceEvents\":[\n";
    char buf[256];

    // One named track per category, emitted unconditionally so the
    // header never depends on which components happened to run.
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
                  "\"process_name\",\"args\":{\"name\":\"salus-sim\"}}");
    out += buf;
    for (size_t i = 0; i < kCategoryCount; ++i) {
        std::snprintf(
            buf, sizeof(buf),
            ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":"
            "\"thread_name\",\"args\":{\"name\":\"%s\"}}",
            i + 1, kCategoryNames[i]);
        out += buf;
    }

    for (const SpanEvent &ev : events_) {
        size_t tid = static_cast<size_t>(ev.cat) + 1;
        std::string name = jsonEscape(ev.name);
        if (ev.instant) {
            std::snprintf(
                buf, sizeof(buf),
                ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%zu,\"ts\":%s,"
                "\"s\":\"t\",\"name\":\"%s\",\"cat\":\"%s\"",
                tid, tsMicros(ev.begin).c_str(), name.c_str(),
                categoryName(ev.cat));
        } else {
            std::snprintf(
                buf, sizeof(buf),
                ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%s,"
                "\"dur\":%s,\"name\":\"%s\",\"cat\":\"%s\"",
                tid, tsMicros(ev.begin).c_str(),
                tsMicros(ev.end - ev.begin).c_str(), name.c_str(),
                categoryName(ev.cat));
        }
        out += buf;
        if (ev.hasValue) {
            std::snprintf(
                buf, sizeof(buf),
                ",\"args\":{\"id\":%u,\"parent\":%u,\"v\":%llu}}",
                ev.id, ev.parent,
                static_cast<unsigned long long>(ev.value));
        } else {
            std::snprintf(buf, sizeof(buf),
                          ",\"args\":{\"id\":%u,\"parent\":%u}}",
                          ev.id, ev.parent);
        }
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

bool
TraceRecorder::writeChromeTrace(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string json = chromeTraceJson();
    size_t written = std::fwrite(json.data(), 1, json.size(), f);
    return std::fclose(f) == 0 && written == json.size();
}

// ---- Global enablement ------------------------------------------------

TraceRecorder *
tracer()
{
    return g_tracer;
}

MetricsRegistry *
metrics()
{
    return g_metrics;
}

ObsScope::ObsScope(TraceRecorder *recorder, MetricsRegistry *registry)
    : prevTracer_(g_tracer), prevMetrics_(g_metrics),
      recorder_(recorder)
{
    g_tracer = recorder;
    g_metrics = registry;
    if (recorder_) {
        // The clock is non-const here by construction: recorders are
        // built over the clock they observe.
        auto &clock = const_cast<sim::VirtualClock &>(recorder_->clock());
        prevObserver_ = clock.spendObserver();
        clock.setSpendObserver(recorder_);
    }
}

ObsScope::~ObsScope()
{
    if (recorder_) {
        auto &clock = const_cast<sim::VirtualClock &>(recorder_->clock());
        clock.setSpendObserver(prevObserver_);
    }
    g_tracer = prevTracer_;
    g_metrics = prevMetrics_;
}

} // namespace salus::obs
