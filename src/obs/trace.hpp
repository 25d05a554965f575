/**
 * @file
 * Deterministic tracing over the virtual clock. A TraceRecorder holds
 * RAII spans (begin/end stamped on sim::VirtualClock, nested parent
 * ids, per-component categories) plus the leaf phase slices it taps
 * from the clock's SpendObserver hook, and exports Chrome
 * `trace_event` JSON for chrome://tracing / Perfetto.
 *
 * Tracing is compiled in but DISABLED by default: components emit
 * through the free helpers below, which read one global pointer — a
 * hot path pays a single predictable branch when tracing is off, and
 * never allocates. Because every timestamp is virtual, two same-seed
 * runs export byte-identical traces (enforced by tests and benches).
 */

#ifndef SALUS_OBS_TRACE_HPP
#define SALUS_OBS_TRACE_HPP

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "sim/clock.hpp"

namespace salus::obs {

/** Per-component trace categories (one Perfetto track each). */
enum class Category : uint8_t {
    Boot,        ///< deployment driver, secure boot, device key dist.
    Attestation, ///< RA / LA / CL attestation cascade
    Bitstream,   ///< build, verify, RoT injection, encrypt, load
    Channel,     ///< secure register channel (single ops + bursts)
    Scheduler,   ///< batch scheduler sweeps and backpressure
    Supervisor,  ///< fleet heartbeats, health, failover
    Shell,       ///< PCIe/MMIO transactions and DMA
    Clock,       ///< leaf cost-model slices mirrored from the clock
};

constexpr size_t kCategoryCount = 8;

/** Stable lowercase category name ("boot", "channel", ...). */
const char *categoryName(Category cat);

/** One completed trace event (span, instant marker or clock slice).
 *  Fixed-size and owning no heap memory: the name is an index into
 *  the recorder's interned names (TraceRecorder::nameOf), each copied
 *  once, the first time the recorder sees it. */
struct SpanEvent
{
    uint32_t id = 0;
    uint32_t parent = 0; ///< enclosing span id; 0 = root
    uint32_t nameId = 0; ///< interned name (TraceRecorder::nameOf)
    Category cat = Category::Boot;
    bool instant = false;  ///< zero-duration marker
    bool hasValue = false; ///< carries the "v" argument
    uint64_t value = 0;    ///< e.g. batch op count, byte count
    sim::Nanos begin = 0;
    sim::Nanos end = 0;
};

static_assert(sizeof(SpanEvent) <= 40, "SpanEvent must stay compact");

/** Records spans against one virtual clock and exports them. */
class TraceRecorder final : public sim::SpendObserver
{
  public:
    explicit TraceRecorder(sim::VirtualClock &clock);
    /** Not copyable: nameIds_ views the recorder's own names_, and a
     *  tapped clock holds the recorder's address. */
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Opens a span nested under the innermost open span. */
    uint32_t beginSpan(Category cat, std::string_view name);
    uint32_t beginSpan(Category cat, std::string_view name,
                       uint64_t value);

    /** Closes a span. Out-of-order ids unwind (and close) every span
     *  opened after `id`, keeping the stack consistent. */
    void endSpan(uint32_t id);

    /** Emits a zero-duration marker at the current virtual time. */
    void instant(Category cat, std::string_view name);
    void instant(Category cat, std::string_view name, uint64_t value);

    /** sim::SpendObserver: mirrors a clock slice as a Clock leaf. */
    void onSpend(const sim::PhaseRecord &record) override;

    const sim::VirtualClock &clock() const { return clock_; }

    /** Completed events, in completion order (Chrome convention).
     *  Valid until the next event is recorded. */
    std::span<const SpanEvent> events() const
    {
        return {reinterpret_cast<const SpanEvent *>(log_.data()), count_};
    }
    size_t openSpans() const { return open_.size(); }

    /** An event's name; valid for the recorder's lifetime. */
    std::string_view nameOf(const SpanEvent &ev) const
    {
        return names_[ev.nameId];
    }

    /** Sum of the Clock leaf slices with this exact phase name —
     *  matches VirtualClock::totalFor for phases spent while the
     *  recorder was tapped. */
    sim::Nanos phaseTotal(std::string_view phase) const;

    /** Chrome trace_event JSON (complete "X" events + instants, one
     *  metadata thread per category). Deterministic byte-for-byte.
     *  The string is allocated at exactly its final size. */
    std::string chromeTraceJson() const;

    /** Streams chromeTraceJson()'s bytes to a file through a 64 KiB
     *  buffer, never holding the whole export. @return false on I/O. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    /** The id of `name`, copying it on first sight (callers may pass
     *  views of temporaries). */
    uint32_t intern(std::string_view name);
    /** A new event with id, parent, category and name filled in. */
    SpanEvent makeEvent(Category cat, std::string_view name);
    /** Appends a completed event, doubling the log when full. */
    void append(const SpanEvent &ev);

    sim::VirtualClock &clock_;
    /** Completed events, on pages of their own: capacity never
     *  written is never resident, and the log goes back to the OS
     *  when the recorder dies. */
    ZeroedBytes log_;
    size_t count_ = 0;
    std::vector<SpanEvent> open_; ///< stack of open spans
    uint32_t nextId_ = 1;
    std::deque<std::string> names_; ///< stable storage, by nameId
    std::unordered_map<std::string_view, uint32_t> nameIds_;
};

// ---- Global enablement (one branch when off) -------------------------

/** The installed recorder, or nullptr when tracing is disabled. */
TraceRecorder *tracer();

/** The installed metrics registry, or nullptr when disabled. */
MetricsRegistry *metrics();

/**
 * RAII enablement: installs the recorder/registry globally and taps
 * the recorder into its clock; the destructor restores whatever was
 * installed before (scopes nest). Either pointer may be null.
 */
class ObsScope
{
  public:
    ObsScope(TraceRecorder *recorder, MetricsRegistry *registry);
    ~ObsScope();
    ObsScope(const ObsScope &) = delete;
    ObsScope &operator=(const ObsScope &) = delete;

  private:
    TraceRecorder *prevTracer_;
    MetricsRegistry *prevMetrics_;
    sim::SpendObserver *prevObserver_ = nullptr;
    TraceRecorder *recorder_;
};

/** RAII span; a complete no-op (single branch) when tracing is off. */
class Span
{
  public:
    Span(Category cat, const char *name)
        : rec_(tracer())
    {
        if (rec_)
            id_ = rec_->beginSpan(cat, name);
    }
    Span(Category cat, const char *name, uint64_t value)
        : rec_(tracer())
    {
        if (rec_)
            id_ = rec_->beginSpan(cat, name, value);
    }
    ~Span()
    {
        if (rec_)
            rec_->endSpan(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    TraceRecorder *rec_;
    uint32_t id_ = 0;
};

/** Zero-duration marker; no-op when tracing is off. */
inline void
mark(Category cat, const char *name)
{
    if (TraceRecorder *r = tracer())
        r->instant(cat, name);
}

inline void
mark(Category cat, const char *name, uint64_t value)
{
    if (TraceRecorder *r = tracer())
        r->instant(cat, name, value);
}

/** Counter increment; no-op when metrics are off. */
inline void
count(const char *name, uint64_t delta = 1)
{
    if (MetricsRegistry *m = metrics())
        m->add(name, delta);
}

/** Histogram observation; no-op when metrics are off. */
inline void
observe(const char *name, uint64_t value)
{
    if (MetricsRegistry *m = metrics())
        m->observe(name, value);
}

} // namespace salus::obs

#endif // SALUS_OBS_TRACE_HPP
