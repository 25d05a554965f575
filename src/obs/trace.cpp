#include "obs/trace.hpp"

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <new>
#include <stdexcept>

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
/** The event log's first mapping; it doubles from there. */
constexpr size_t kInitialLogBytes = 64 << 10;
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

/** Decimal digits of v: the bit width estimates log10 (1233/4096 is
 *  just over log10 2), one table compare corrects it. */
size_t
decimalDigits(uint64_t v)
{
    static constexpr uint64_t kPow10[20] = {
        0, // so that v = 0 counts one digit
        10ull, 100ull, 1000ull, 10000ull, 100000ull, 1000000ull,
        10000000ull, 100000000ull, 1000000000ull, 10000000000ull,
        100000000000ull, 1000000000000ull, 10000000000000ull,
        100000000000000ull, 1000000000000000ull,
        10000000000000000ull, 100000000000000000ull,
        1000000000000000000ull, 10000000000000000000ull};
    size_t t = size_t(std::bit_width(v)) * 1233 >> 12;
    return t + 1 - (v < kPow10[t]);
}

/** The width putMicros writes for ns. */
size_t
microsWidth(sim::Nanos ns)
{
    return decimalDigits(ns / 1000) + 4;
}

/** The export's fixed opening: process and per-category track
 *  metadata, emitted unconditionally so the header never depends on
 *  which components happened to run. */
std::string
traceHead()
{
    std::string head =
        "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":"
        "\"salus-obs\",\"clock\":\"virtual\",\"unit\":\"ns\"},"
        "\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
        "\"process_name\",\"args\":{\"name\":\"salus-sim\"}}";
    for (size_t i = 0; i < kCategoryCount; ++i) {
        head += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
        head += char('1' + i);
        head += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
        head += kCategoryNames[i];
        head += "\"}}";
    }
    return head;
}

/** Renders one event at a time. Each name is escaped once, up front;
 *  the events then only copy it. */
class EventWriter
{
  public:
    explicit EventWriter(const std::deque<std::string> &names)
    {
        escaped_.reserve(names.size());
        for (const std::string &name : names)
            escaped_.push_back(jsonEscape(name));
    }

    /** The exact number of bytes write() produces for ev, by
     *  arithmetic: the fixed text plus each field's width. */
    size_t length(const SpanEvent &ev) const
    {
        constexpr size_t kInstantFixed =
            kInstantHead.size() + kInstantName.size();
        constexpr size_t kSpanFixed =
            kSpanHead.size() + kDur.size() + kSpanName.size();
        constexpr size_t kFixed = kTidDigits + kTs.size() + kCat.size() +
                                  kArgsId.size() + kParent.size() +
                                  kClose.size();
        size_t n = kFixed + microsWidth(ev.begin) +
                   escaped_[ev.nameId].size() +
                   kCategoryNames[size_t(ev.cat)].size() +
                   decimalDigits(ev.id) + decimalDigits(ev.parent);
        n += ev.instant ? kInstantFixed
                        : kSpanFixed + microsWidth(ev.end - ev.begin);
        if (ev.hasValue)
            n += kValue.size() + decimalDigits(ev.value);
        return n;
    }

    /** Writes ev at p. @return one past its last byte. */
    char *write(char *p, const SpanEvent &ev) const
    {
        p = put(p, ev.instant ? kInstantHead : kSpanHead);
        *p++ = char('1' + size_t(ev.cat));
        p = putMicros(put(p, kTs), ev.begin);
        if (ev.instant) {
            p = put(p, kInstantName);
        } else {
            p = putMicros(put(p, kDur), ev.end - ev.begin);
            p = put(p, kSpanName);
        }
        p = put(p, escaped_[ev.nameId]);
        p = put(put(p, kCat), kCategoryNames[size_t(ev.cat)]);
        p = putInt(put(p, kArgsId), ev.id);
        p = putInt(put(p, kParent), ev.parent);
        if (ev.hasValue)
            p = putInt(put(p, kValue), ev.value);
        return put(p, kClose);
    }

  private:
    std::vector<std::string> escaped_;
};

/** The stream buffer of writeChromeTrace. */
constexpr size_t kStreamBuffer = 64 << 10;

} // namespace

const char *
categoryName(Category cat)
{
    return kCategoryNames[static_cast<size_t>(cat)].data();
}

TraceRecorder::TraceRecorder(sim::VirtualClock &clock)
    : clock_(clock), log_(kInitialLogBytes)
{
}

void
TraceRecorder::append(const SpanEvent &ev)
{
    if ((count_ + 1) * sizeof(SpanEvent) > log_.size())
        log_.grow(2 * log_.size());
    new (log_.data() + count_ * sizeof(SpanEvent)) SpanEvent(ev);
    ++count_;
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
        append(ev);
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
    append(ev);
}

void
TraceRecorder::instant(Category cat, std::string_view name,
                       uint64_t value)
{
    SpanEvent ev = makeEvent(cat, name);
    ev.instant = true;
    ev.hasValue = true;
    ev.value = value;
    ev.begin = ev.end = clock_.now();
    append(ev);
}

void
TraceRecorder::onSpend(const sim::PhaseRecord &record)
{
    SpanEvent ev = makeEvent(Category::Clock, record.phase);
    ev.begin = record.start;
    ev.end = record.start + record.duration;
    append(ev);
}

sim::Nanos
TraceRecorder::phaseTotal(std::string_view phase) const
{
    auto it = nameIds_.find(phase);
    if (it == nameIds_.end())
        return 0;
    sim::Nanos total = 0;
    for (const SpanEvent &ev : events()) {
        if (ev.cat == Category::Clock && ev.nameId == it->second)
            total += ev.end - ev.begin;
    }
    return total;
}

std::string
TraceRecorder::chromeTraceJson() const
{
    EventWriter writer(names_);
    std::string head = traceHead();
    size_t size = head.size() + kTail.size();
    for (const SpanEvent &ev : events())
        size += writer.length(ev);

    std::string out(size, '\0');
    char *p = put(out.data(), head);
    for (const SpanEvent &ev : events())
        p = writer.write(p, ev);
    p = put(p, kTail);
    if (p != out.data() + out.size())
        throw std::logic_error(
            "chromeTraceJson: event lengths disagree with the writer");
    return out;
}

bool
TraceRecorder::writeChromeTrace(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    EventWriter writer(names_);
    std::vector<char> buffer(kStreamBuffer);
    size_t used = 0;
    bool ok = true;
    auto emit = [&](const char *data, size_t n) {
        ok = ok && std::fwrite(data, 1, n, f) == n;
    };

    std::string head = traceHead();
    emit(head.data(), head.size());
    for (const SpanEvent &ev : events()) {
        size_t n = writer.length(ev);
        if (used + n > buffer.size()) {
            emit(buffer.data(), used);
            used = 0;
            // Only an event with a name longer than the buffer needs
            // more room than it has.
            if (n > buffer.size())
                buffer.resize(n);
        }
        char *at = buffer.data() + used;
        if (writer.write(at, ev) != at + n)
            throw std::logic_error(
                "writeChromeTrace: event length disagrees with the writer");
        used += n;
    }
    emit(buffer.data(), used);
    emit(kTail.data(), kTail.size());
    return std::fclose(f) == 0 && ok;
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
