#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace salus::obs {

namespace {

constexpr std::string_view kCategoryNames[kCategoryCount] = {
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
jsonEscape(std::string_view s)
{
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (u < 0x20) {
            out += "\\u00";
            out += kHex[u >> 4];
            out += kHex[u & 0xf];
        } else {
            out += c;
        }
    }
    return out;
}

// Fixed text around each event's fields, in output order.
constexpr std::string_view kInstantHead = ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":";
constexpr std::string_view kSpanHead = ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":";
constexpr std::string_view kTs = ",\"ts\":";
constexpr std::string_view kDur = ",\"dur\":";
constexpr std::string_view kInstantName = ",\"s\":\"t\",\"name\":\"";
constexpr std::string_view kSpanName = ",\"name\":\"";
constexpr std::string_view kCat = "\",\"cat\":\"";
constexpr std::string_view kArgsId = "\",\"args\":{\"id\":";
constexpr std::string_view kParent = ",\"parent\":";
constexpr std::string_view kValue = ",\"v\":";
constexpr std::string_view kClose = "}}";
constexpr std::string_view kTail = "\n]}\n";

constexpr size_t kU64Digits = 20;
constexpr size_t kTidDigits = 1; // tids are 1..kCategoryCount
static_assert(kCategoryCount < 10);

char *
put(char *p, std::string_view s)
{
    std::memcpy(p, s.data(), s.size());
    return p + s.size();
}

template <typename T>
char *
putInt(char *p, T v)
{
    return std::to_chars(p, p + kU64Digits, v).ptr;
}

/** Nanoseconds rendered as microseconds with exact .3 fraction —
 *  integer math only, so output never depends on float rounding. */
char *
putMicros(char *p, sim::Nanos ns)
{
    p = putInt(p, ns / 1000);
    unsigned frac = unsigned(ns % 1000);
    p[0] = '.';
    p[1] = char('0' + frac / 100);
    p[2] = char('0' + frac / 10 % 10);
    p[3] = char('0' + frac % 10);
    return p + 4;
}

size_t
decimalDigits(uint64_t v)
{
    size_t n = 1;
    while (v >= 10) {
        v /= 10;
        ++n;
    }
    return n;
}

} // namespace

const char *
categoryName(Category cat)
{
    return kCategoryNames[static_cast<size_t>(cat)].data();
}

TraceRecorder::TraceRecorder(sim::VirtualClock &clock)
    : clock_(clock)
{
}

uint32_t
TraceRecorder::intern(std::string_view name)
{
    auto it = nameIds_.find(name);
    if (it != nameIds_.end())
        return it->second;
    auto id = uint32_t(names_.size());
    names_.emplace_back(name);
    nameIds_.emplace(names_.back(), id);
    return id;
}

SpanEvent
TraceRecorder::makeEvent(Category cat, std::string_view name)
{
    SpanEvent ev;
    ev.id = nextId_++;
    ev.parent = open_.empty() ? 0 : open_.back().id;
    ev.nameId = intern(name);
    ev.cat = cat;
    return ev;
}

uint32_t
TraceRecorder::beginSpan(Category cat, std::string_view name)
{
    SpanEvent ev = makeEvent(cat, name);
    ev.begin = clock_.now();
    open_.push_back(ev);
    return ev.id;
}

uint32_t
TraceRecorder::beginSpan(Category cat, std::string_view name,
                         uint64_t value)
{
    uint32_t id = beginSpan(cat, name);
    open_.back().hasValue = true;
    open_.back().value = value;
    return id;
}

void
TraceRecorder::endSpan(uint32_t id)
{
    // Unwind to (and including) `id`; RAII callers always hit the top.
    while (!open_.empty()) {
        SpanEvent ev = open_.back();
        open_.pop_back();
        ev.end = clock_.now();
        events_.push_back(ev);
        if (ev.id == id)
            return;
    }
}

void
TraceRecorder::instant(Category cat, std::string_view name)
{
    SpanEvent ev = makeEvent(cat, name);
    ev.instant = true;
    ev.begin = ev.end = clock_.now();
    events_.push_back(ev);
}

void
TraceRecorder::instant(Category cat, std::string_view name,
                       uint64_t value)
{
    instant(cat, name);
    events_.back().hasValue = true;
    events_.back().value = value;
}

void
TraceRecorder::onSpend(const sim::PhaseRecord &record)
{
    SpanEvent ev = makeEvent(Category::Clock, record.phase);
    ev.begin = record.start;
    ev.end = record.start + record.duration;
    events_.push_back(ev);
}

sim::Nanos
TraceRecorder::phaseTotal(std::string_view phase) const
{
    auto it = nameIds_.find(phase);
    if (it == nameIds_.end())
        return 0;
    sim::Nanos total = 0;
    for (const SpanEvent &ev : events_) {
        if (ev.cat == Category::Clock && ev.nameId == it->second)
            total += ev.end - ev.begin;
    }
    return total;
}

std::string
TraceRecorder::chromeTraceJson() const
{
    std::string head =
        "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":"
        "\"salus-obs\",\"clock\":\"virtual\",\"unit\":\"ns\"},"
        "\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
        "\"process_name\",\"args\":{\"name\":\"salus-sim\"}}";
    // One named track per category, emitted unconditionally so the
    // header never depends on which components happened to run.
    for (size_t i = 0; i < kCategoryCount; ++i) {
        head += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
        head += char('1' + i);
        head += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
        head += kCategoryNames[i];
        head += "\"}}";
    }

    // Each name is escaped once; the events then only copy it.
    std::vector<std::string> escaped;
    escaped.reserve(names_.size());
    for (const std::string &name : names_)
        escaped.push_back(jsonEscape(name));

    // Size bound: every field at its widest, so one allocation holds
    // the whole export and the string never doubles.
    constexpr size_t kEventFixed =
        std::max(kInstantHead.size() + kInstantName.size(),
                 kSpanHead.size() + kDur.size() + kSpanName.size()) +
        kTidDigits + kTs.size() + kCat.size() + kArgsId.size() +
        kParent.size() + kClose.size();
    sim::Nanos maxTs = 0;
    size_t bound = head.size() + kTail.size();
    for (const SpanEvent &ev : events_) {
        maxTs = std::max(maxTs, ev.end);
        bound += kEventFixed + escaped[ev.nameId].size() +
                 kCategoryNames[size_t(ev.cat)].size();
        if (ev.hasValue)
            bound += kValue.size() + kU64Digits;
    }
    size_t tsWidth = decimalDigits(maxTs / 1000) + 4;
    size_t idWidth = decimalDigits(nextId_);
    bound += events_.size() * (2 * tsWidth + 2 * idWidth);

    std::string out;
    out.resize(bound);
    char *p = put(out.data(), head);
    for (const SpanEvent &ev : events_) {
        p = put(p, ev.instant ? kInstantHead : kSpanHead);
        *p++ = char('1' + size_t(ev.cat));
        p = putMicros(put(p, kTs), ev.begin);
        if (ev.instant) {
            p = put(p, kInstantName);
        } else {
            p = putMicros(put(p, kDur), ev.end - ev.begin);
            p = put(p, kSpanName);
        }
        p = put(p, escaped[ev.nameId]);
        p = put(put(p, kCat), kCategoryNames[size_t(ev.cat)]);
        p = putInt(put(p, kArgsId), ev.id);
        p = putInt(put(p, kParent), ev.parent);
        if (ev.hasValue)
            p = putInt(put(p, kValue), ev.value);
        p = put(p, kClose);
    }
    p = put(p, kTail);
    out.resize(size_t(p - out.data()));
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
