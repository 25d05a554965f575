/**
 * @file
 * Observability-layer tests: span nesting and completion order,
 * histogram bucket-edge semantics, the Chrome trace_event export
 * (golden file), metrics text dump (golden), disabled-mode no-ops,
 * ObsScope install/restore nesting, and the same-seed ⇒ byte-identical
 * trace guarantee over a full testbed deployment.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "salus/boot_report.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"
#include "sim/clock.hpp"

using namespace salus;
using namespace salus::core;

// ---- Histogram bucket edges -----------------------------------------

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds)
{
    obs::Histogram h({10, 20, 40});
    ASSERT_EQ(h.counts.size(), 4u); // 3 bounds + overflow

    h.observe(0);  // <= 10
    h.observe(10); // == bound: lands IN that bucket
    h.observe(11); // just above: next bucket
    h.observe(20); // == bound
    h.observe(40); // == last bound
    h.observe(41); // above every bound: overflow
    h.observe(1u << 30);

    EXPECT_EQ(h.counts[0], 2u); // 0, 10
    EXPECT_EQ(h.counts[1], 2u); // 11, 20
    EXPECT_EQ(h.counts[2], 1u); // 40
    EXPECT_EQ(h.counts[3], 2u); // 41, 2^30
    EXPECT_EQ(h.total, 7u);
    EXPECT_EQ(h.sum, 0u + 10 + 11 + 20 + 40 + 41 + (1u << 30));
}

TEST(Metrics, HistogramBoundsAreSortedAndDeduped)
{
    obs::Histogram h({40, 10, 20, 10});
    ASSERT_EQ(h.bounds.size(), 3u);
    EXPECT_EQ(h.bounds[0], 10u);
    EXPECT_EQ(h.bounds[1], 20u);
    EXPECT_EQ(h.bounds[2], 40u);
    EXPECT_EQ(h.counts.size(), 4u);
}

TEST(Metrics, RegistryCountersAndAutoRegistration)
{
    obs::MetricsRegistry reg;
    EXPECT_EQ(reg.counter("never.touched"), 0u);

    reg.add("channel.ops");
    reg.add("channel.ops", 4);
    EXPECT_EQ(reg.counter("channel.ops"), 5u);

    // observe() auto-registers with the default power-of-two bounds.
    reg.observe("channel.batch_size", 8);
    const obs::Histogram *h = reg.findHistogram("channel.batch_size");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->bounds, obs::MetricsRegistry::defaultBounds());
    EXPECT_EQ(h->total, 1u);

    // Re-registering never changes the original bounds.
    obs::Histogram &again = reg.histogram("channel.batch_size", {1});
    EXPECT_EQ(again.bounds.size(),
              obs::MetricsRegistry::defaultBounds().size());
    EXPECT_EQ(reg.counterCount(), 1u);
    EXPECT_EQ(reg.histogramCount(), 1u);
}

TEST(Metrics, RenderTextGolden)
{
    obs::MetricsRegistry reg;
    reg.add("b.second", 2);
    reg.add("a.first", 7);
    reg.histogram("z.depth", {1, 4});
    reg.observe("z.depth", 1);
    reg.observe("z.depth", 3);
    reg.observe("z.depth", 9);

    const std::string expected = "# salus-metrics v1\n"
                                 "counter a.first 7\n"
                                 "counter b.second 2\n"
                                 "histogram z.depth count 3 sum 13\n"
                                 "  le 1 1\n"
                                 "  le 4 1\n"
                                 "  le +inf 1\n";
    EXPECT_EQ(reg.renderText(), expected);
}

// ---- Span nesting and ordering --------------------------------------

TEST(Trace, SpanNestingParentsAndCompletionOrder)
{
    sim::VirtualClock clock;
    obs::TraceRecorder rec(clock);

    uint32_t outer = rec.beginSpan(obs::Category::Boot, "outer");
    clock.advance(100);
    uint32_t inner = rec.beginSpan(obs::Category::Channel, "inner");
    clock.advance(50);
    rec.endSpan(inner);
    clock.advance(25);
    rec.endSpan(outer);

    ASSERT_EQ(rec.events().size(), 2u);
    ASSERT_EQ(rec.openSpans(), 0u);

    // Completion order: inner closes first (Chrome convention).
    const obs::SpanEvent &first = rec.events()[0];
    const obs::SpanEvent &second = rec.events()[1];
    EXPECT_EQ(rec.nameOf(first), "inner");
    EXPECT_EQ(first.parent, outer);
    EXPECT_EQ(first.begin, 100u);
    EXPECT_EQ(first.end, 150u);
    EXPECT_EQ(rec.nameOf(second), "outer");
    EXPECT_EQ(second.parent, 0u);
    EXPECT_EQ(second.begin, 0u);
    EXPECT_EQ(second.end, 175u);
    EXPECT_NE(first.id, second.id);
}

TEST(Trace, OutOfOrderEndUnwindsTheStack)
{
    sim::VirtualClock clock;
    obs::TraceRecorder rec(clock);

    uint32_t a = rec.beginSpan(obs::Category::Boot, "a");
    rec.beginSpan(obs::Category::Boot, "b");
    rec.beginSpan(obs::Category::Boot, "c");
    clock.advance(10);
    rec.endSpan(a); // closes c, b, a — stack stays consistent

    ASSERT_EQ(rec.events().size(), 3u);
    EXPECT_EQ(rec.openSpans(), 0u);
    EXPECT_EQ(rec.nameOf(rec.events()[0]), "c");
    EXPECT_EQ(rec.nameOf(rec.events()[1]), "b");
    EXPECT_EQ(rec.nameOf(rec.events()[2]), "a");
    for (const obs::SpanEvent &ev : rec.events())
        EXPECT_EQ(ev.end, 10u);
}

TEST(Trace, ClockSlicesBecomeLeavesAndSumToPhaseTotals)
{
    sim::VirtualClock clock;
    obs::TraceRecorder rec(clock);
    obs::MetricsRegistry reg;
    obs::ObsScope scope(&rec, &reg);

    obs::Span span(obs::Category::Channel, "op");
    clock.spend("Phase A", 300);
    clock.spend("Phase B", 200);
    clock.spend("Phase A", 100);

    ASSERT_EQ(rec.events().size(), 3u); // three leaves, span still open
    for (const obs::SpanEvent &ev : rec.events()) {
        EXPECT_EQ(ev.cat, obs::Category::Clock);
        EXPECT_NE(ev.parent, 0u); // nested under the open span
    }
    EXPECT_EQ(rec.phaseTotal("Phase A"), clock.totalFor("Phase A"));
    EXPECT_EQ(rec.phaseTotal("Phase A"), 400u);
    EXPECT_EQ(rec.phaseTotal("Phase B"), 200u);
    EXPECT_EQ(rec.phaseTotal("Phase C"), 0u);
}

// ---- Chrome trace export (golden) -----------------------------------

TEST(Trace, ChromeTraceExportMatchesGolden)
{
    sim::VirtualClock clock;
    obs::TraceRecorder rec(clock);
    obs::MetricsRegistry reg;
    {
        obs::ObsScope scope(&rec, &reg);
        obs::Span outer(obs::Category::Boot, "outer"); // id 1
        clock.spend("Phase A", 1500);                  // leaf id 2
        obs::mark(obs::Category::Channel, "tick", 7);  // instant id 3
    }

    const std::string expected =
        "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":"
        "\"salus-obs\",\"clock\":\"virtual\",\"unit\":\"ns\"},"
        "\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"salus-sim\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"boot\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"attestation\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"bitstream\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":4,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"channel\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":5,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"scheduler\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":6,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"supervisor\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":7,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"shell\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":8,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"clock\"}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":8,\"ts\":0.000,\"dur\":1.500,"
        "\"name\":\"Phase A\",\"cat\":\"clock\","
        "\"args\":{\"id\":2,\"parent\":1}},\n"
        "{\"ph\":\"i\",\"pid\":1,\"tid\":4,\"ts\":1.500,\"s\":\"t\","
        "\"name\":\"tick\",\"cat\":\"channel\","
        "\"args\":{\"id\":3,\"parent\":1,\"v\":7}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"dur\":1.500,"
        "\"name\":\"outer\",\"cat\":\"boot\","
        "\"args\":{\"id\":1,\"parent\":0}}\n"
        "]}\n";
    EXPECT_EQ(rec.chromeTraceJson(), expected);
}

TEST(Trace, JsonEscapesHostileNames)
{
    sim::VirtualClock clock;
    obs::TraceRecorder rec(clock);
    rec.instant(obs::Category::Shell, "quote\"back\\slash\n");
    std::string json = rec.chromeTraceJson();
    EXPECT_NE(json.find("quote\\\"back\\\\slash\\u000a"),
              std::string::npos);
    // The raw control byte never reaches the output unescaped.
    EXPECT_EQ(json.find("slash\n"), std::string::npos);
}

TEST(Trace, StreamedFileEqualsTheStringExport)
{
    // Several times the 64 KiB stream buffer, with one event wider
    // than the whole buffer.
    sim::VirtualClock clock;
    obs::TraceRecorder rec(clock);
    obs::MetricsRegistry reg;
    obs::ObsScope scope(&rec, &reg);
    for (uint64_t i = 0; i < 4000; ++i) {
        obs::Span span(obs::Category::Channel, "burst", i);
        clock.spend("Phase W", 1000 + i);
        if (i == 2000)
            rec.instant(obs::Category::Shell, std::string(100 << 10, 'n'));
    }
    std::string json = rec.chromeTraceJson();
    ASSERT_GT(json.size(), size_t(4 * (64 << 10)));

    std::string path = testing::TempDir() + "salus_trace_stream.json";
    ASSERT_TRUE(rec.writeChromeTrace(path));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string file(json.size() + 1, '\0');
    file.resize(std::fread(file.data(), 1, file.size(), f));
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_TRUE(file == json) << "file " << file.size() << " B, string "
                              << json.size() << " B";

    EXPECT_FALSE(rec.writeChromeTrace(testing::TempDir() +
                                      "no-such-dir/trace.json"));
}

namespace {

/** The export after the fixed header (process + category tracks). */
std::string
eventLines(const std::string &json)
{
    const std::string lastTrack = "\"args\":{\"name\":\"clock\"}}";
    size_t at = json.find(lastTrack);
    return at == std::string::npos ? json
                                   : json.substr(at + lastTrack.size());
}

} // namespace

TEST(Trace, ExportRendersFractionsZeroDurationsAndMaxValues)
{
    sim::VirtualClock clock;
    obs::TraceRecorder rec(clock);
    obs::MetricsRegistry reg;
    obs::ObsScope scope(&rec, &reg);
    clock.advance(1000);
    obs::mark(obs::Category::Boot, "at_000");
    clock.advance(1007);
    obs::mark(obs::Category::Shell, "at_007", UINT64_MAX);
    rec.endSpan(rec.beginSpan(obs::Category::Channel, "zero"));
    clock.spend("Phase Z", 0);
    clock.spend("Phase Seven", 7);
    clock.advance(1056);
    clock.spend("Phase Seventy", 70);
    uint32_t big =
        rec.beginSpan(obs::Category::Scheduler, "max", UINT64_MAX);
    clock.advance(123456789007ull);
    rec.endSpan(big);

    const std::string expected =
        ",\n"
        "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":1.000,\"s\":\"t\","
        "\"name\":\"at_000\",\"cat\":\"boot\","
        "\"args\":{\"id\":1,\"parent\":0}},\n"
        "{\"ph\":\"i\",\"pid\":1,\"tid\":7,\"ts\":2.007,\"s\":\"t\","
        "\"name\":\"at_007\",\"cat\":\"shell\","
        "\"args\":{\"id\":2,\"parent\":0,\"v\":18446744073709551615}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":4,\"ts\":2.007,\"dur\":0.000,"
        "\"name\":\"zero\",\"cat\":\"channel\","
        "\"args\":{\"id\":3,\"parent\":0}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":8,\"ts\":2.007,\"dur\":0.000,"
        "\"name\":\"Phase Z\",\"cat\":\"clock\","
        "\"args\":{\"id\":4,\"parent\":0}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":8,\"ts\":2.007,\"dur\":0.007,"
        "\"name\":\"Phase Seven\",\"cat\":\"clock\","
        "\"args\":{\"id\":5,\"parent\":0}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":8,\"ts\":3.070,\"dur\":0.070,"
        "\"name\":\"Phase Seventy\",\"cat\":\"clock\","
        "\"args\":{\"id\":6,\"parent\":0}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":5,\"ts\":3.140,"
        "\"dur\":123456789.007,\"name\":\"max\",\"cat\":\"scheduler\","
        "\"args\":{\"id\":7,\"parent\":0,\"v\":18446744073709551615}}\n"
        "]}\n";
    EXPECT_EQ(eventLines(rec.chromeTraceJson()), expected);
}

TEST(Trace, NamesAreInternedByTextAndCopiedOnFirstSight)
{
    sim::VirtualClock clock;
    obs::TraceRecorder rec(clock);
    obs::MetricsRegistry reg;
    obs::ObsScope scope(&rec, &reg);

    // Same text, two different pointers: one interned entry.
    std::string heap = "a span name longer than the small-string buffer";
    char stack[] = "a span name longer than the small-string buffer";
    ASSERT_NE(static_cast<const void *>(heap.data()),
              static_cast<const void *>(stack));
    rec.instant(obs::Category::Boot, heap);
    rec.instant(obs::Category::Boot, stack);
    ASSERT_EQ(rec.events().size(), 2u);
    EXPECT_EQ(rec.events()[0].nameId, rec.events()[1].nameId);

    // A phase spent from a temporary that is gone (and was scribbled
    // over) before export: the recorder kept its own copy.
    {
        std::string phase = std::string("temporary phase ") +
                            "owned by a scope that ends first";
        clock.spend(phase, 42);
        phase.assign(phase.size(), 'x');
    }
    clock.spend("temporary phase owned by a scope that ends first", 8);
    EXPECT_EQ(rec.events()[2].nameId, rec.events()[3].nameId);
    EXPECT_EQ(rec.phaseTotal(
                  "temporary phase owned by a scope that ends first"),
              50u);

    const std::string expected =
        ",\n"
        "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"s\":\"t\","
        "\"name\":\"a span name longer than the small-string buffer\","
        "\"cat\":\"boot\",\"args\":{\"id\":1,\"parent\":0}},\n"
        "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"s\":\"t\","
        "\"name\":\"a span name longer than the small-string buffer\","
        "\"cat\":\"boot\",\"args\":{\"id\":2,\"parent\":0}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":8,\"ts\":0.000,\"dur\":0.042,"
        "\"name\":\"temporary phase owned by a scope that ends first\","
        "\"cat\":\"clock\",\"args\":{\"id\":3,\"parent\":0}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":8,\"ts\":0.042,\"dur\":0.008,"
        "\"name\":\"temporary phase owned by a scope that ends first\","
        "\"cat\":\"clock\",\"args\":{\"id\":4,\"parent\":0}}\n"
        "]}\n";
    EXPECT_EQ(eventLines(rec.chromeTraceJson()), expected);
}

// ---- Disabled-mode and scope nesting --------------------------------

TEST(Trace, HelpersAreNoOpsWhenDisabled)
{
    ASSERT_EQ(obs::tracer(), nullptr);
    ASSERT_EQ(obs::metrics(), nullptr);
    {
        obs::Span span(obs::Category::Boot, "ignored");
        obs::mark(obs::Category::Boot, "ignored");
        obs::count("ignored.counter");
        obs::observe("ignored.histogram", 3);
    }
    EXPECT_EQ(obs::tracer(), nullptr);
}

TEST(Trace, ObsScopeInstallsNestsAndRestores)
{
    sim::VirtualClock clock;
    obs::TraceRecorder outer(clock);
    obs::TraceRecorder inner(clock);
    obs::MetricsRegistry regOuter;
    obs::MetricsRegistry regInner;

    ASSERT_EQ(obs::tracer(), nullptr);
    {
        obs::ObsScope a(&outer, &regOuter);
        EXPECT_EQ(obs::tracer(), &outer);
        EXPECT_EQ(obs::metrics(), &regOuter);
        EXPECT_EQ(clock.spendObserver(), &outer);
        {
            obs::ObsScope b(&inner, &regInner);
            EXPECT_EQ(obs::tracer(), &inner);
            EXPECT_EQ(clock.spendObserver(), &inner);
            clock.spend("P", 10);
        }
        EXPECT_EQ(obs::tracer(), &outer);
        EXPECT_EQ(clock.spendObserver(), &outer);
        clock.spend("P", 10);
    }
    EXPECT_EQ(obs::tracer(), nullptr);
    EXPECT_EQ(clock.spendObserver(), nullptr);
    // Each recorder saw exactly the slices spent under its scope.
    EXPECT_EQ(inner.events().size(), 1u);
    EXPECT_EQ(outer.events().size(), 1u);
}

// ---- Same seed ⇒ byte-identical trace -------------------------------

namespace {

struct TracedBoot
{
    bool ok = false;
    std::string traceJson;
    std::string metricsText;
};

TracedBoot
runTracedBoot(uint64_t seed)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    TracedBoot out;
    TestbedConfig cfg;
    cfg.rngSeed = seed;
    Testbed tb(cfg);
    obs::TraceRecorder rec(tb.clock());
    obs::MetricsRegistry reg;
    {
        obs::ObsScope scope(&rec, &reg);
        netlist::Cell accel;
        accel.path = "engine";
        accel.kind = netlist::CellKind::Logic;
        accel.behaviorId = fpga::kIpLoopback;
        accel.resources = {100, 100, 0, 0};
        tb.installCl(accel);
        out.ok = tb.runDeployment().ok;
        if (out.ok) {
            out.ok = tb.userApp().secureWrite(0x00, 5) &&
                     tb.userApp().secureRead(0x00) == 5u;
        }
    }
    out.traceJson = rec.chromeTraceJson();
    out.metricsText = reg.renderText();
    return out;
}

} // namespace

TEST(Trace, ClockTotalsEqualRecorderPhaseTotalsForFigure9)
{
    // The clock keeps per-phase totals; the recorder keeps the ordered
    // slices. Tapped from the start, the two agree to the nanosecond.
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    Testbed tb;
    obs::TraceRecorder rec(tb.clock());
    {
        obs::ObsScope scope(&rec, nullptr);
        netlist::Cell accel;
        accel.path = "engine";
        accel.kind = netlist::CellKind::Logic;
        accel.behaviorId = fpga::kIpLoopback;
        accel.resources = {100, 100, 0, 0};
        tb.installCl(accel);
        ASSERT_TRUE(tb.runDeployment().ok);
    }
    BootReport report = buildBootReport(tb.clock());
    ASSERT_EQ(report.rows.size(), 7u);
    for (const BootPhaseRow &row : report.rows) {
        EXPECT_GT(row.modelTime, 0u) << row.phase;
        EXPECT_EQ(tb.clock().totalFor(row.phase),
                  rec.phaseTotal(row.phase))
            << row.phase;
    }
}

TEST(Trace, SameSeedDeploymentTraceIsByteIdentical)
{
    TracedBoot a = runTracedBoot(21);
    TracedBoot b = runTracedBoot(21);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    ASSERT_GT(a.traceJson.size(), 1000u);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.metricsText, b.metricsText);

    // A different seed still produces the same span/metric structure
    // (virtual costs are seed-independent here), so we only assert
    // both runs completed and exported something sane.
    TracedBoot c = runTracedBoot(22);
    ASSERT_TRUE(c.ok);
    EXPECT_GT(c.traceJson.size(), 1000u);
}
