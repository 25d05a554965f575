/**
 * @file
 * The salus_bench ledger: what one workload run reports (metrics with
 * their unit and clock, checked operations, failures) and the host
 * span recorder its traced run writes as a Chrome trace.
 *
 * Two clocks: Host metrics are CPU time of this process (HostClock)
 * measured around public calls; Virtual metrics come from the
 * simulator's virtual clock and obs capture and repeat exactly for a
 * given seed.
 */

#ifndef SALUS_BENCH_LEDGER_HPP
#define SALUS_BENCH_LEDGER_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/clock.hpp"

namespace salus::bench {

enum class Clock { Host, Virtual, Tally };

/** "host", "virtual" or "tally" (a count or ratio of counts). */
const char *clockName(Clock clock);

/** Where a metric is published. */
enum class Kind {
    EndToEnd, ///< every workload reports it; BENCHMARK.json end_to_end
    Headline, ///< workload-specific end-to-end number (BENCH_salus.json)
    Layer,    ///< per-layer; BENCHMARK.json per_layer
};

/** Static description of a per-layer or headline metric. */
struct MetricSpec
{
    const char *name;
    const char *unit;
    Clock clock;
    const char *better; ///< "lower" or "higher"
    const char *moves;  ///< per-layer: end-to-end metric it should move
};

/** One reported number; the strings point into its MetricSpec. */
struct Metric
{
    const MetricSpec *spec = nullptr;
    Kind kind = Kind::Layer;
    double value = 0;
};

/** Everything one workload run reports. */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few failure messages
    std::vector<Metric> metrics;
    std::vector<std::string> notes;

    /** Counts one checked operation; a false `ok` is a failure. */
    bool check(bool ok, const std::string &what);
    /** Counts `ops` checked operations of which `bad` failed. */
    void tally(uint64_t ops, uint64_t bad, const std::string &what);

    /** Adds a metric; `spec` must outlive the result. */
    void add(const MetricSpec &spec, Kind kind, double value);
    /** The named metric's value, or nullptr when absent. */
    const Metric *find(const std::string &name) const;
};

/** The end-to-end metrics every workload reports (BENCHMARK.json
 *  end_to_end, in that order). */
extern const MetricSpec kSetupS;
extern const MetricSpec kHostS;
extern const MetricSpec kPeakRssMb;
extern const MetricSpec kVirtOpsPerVs;
extern const MetricSpec *const kEndToEnd[4];

/** Bound of host_s in BENCHMARK.json; also how far a host replay may
 *  exceed the time it was replayed from. */
constexpr double kHostBound = 0.25;

/** Adds the end-to-end metrics; peak RSS is read here, so call it
 *  after the workload's last rep. */
void addEndToEnd(RunResult &result, double setupS, double hostS,
                 double virtOpsPerVs);

/**
 * The host clock: CPU time of this process (user + system, all
 * threads). The simulator is single-threaded, so on an idle machine
 * this equals wall time; unlike wall time it leaves out the time the
 * process waits for a CPU (other processes, or a hypervisor running
 * another guest), so a loaded shared host moves it much less. A change
 * that adds threads cannot show a gain on it.
 */
struct HostClock
{
    using duration = std::chrono::nanoseconds;
    using rep = duration::rep;
    using period = duration::period;
    using time_point = std::chrono::time_point<HostClock>;
    static constexpr bool is_steady = true;

    static time_point now() noexcept;
};

/** Host-clock seconds since `start`. */
inline double
secondsSince(HostClock::time_point start)
{
    return std::chrono::duration<double>(HostClock::now() - start).count();
}

/**
 * Host spans (name, start, end, parent) kept in memory and written at
 * exit as Chrome trace_event JSON. Single-threaded by construction.
 */
class HostTrace
{
  public:
    HostTrace();

    uint32_t begin(const char *name);
    /** Closes `id` (and anything opened after it); a no-op returning 0
     *  when `id` is not open. @return the span's seconds. */
    double end(uint32_t id);

    bool writeChrome(const std::string &path) const;

  private:
    struct Span
    {
        uint32_t id = 0;
        uint32_t parent = 0;
        std::string name;
        int64_t beginNs = 0;
        int64_t endNs = 0;
    };

    int64_t nowNs() const;

    HostClock::time_point origin_;
    std::vector<Span> done_;
    std::vector<Span> open_;
    uint32_t nextId_ = 1;
};

/**
 * Times one call into a layer. With a trace it also records a span
 * nested under the innermost open one; without (the untraced
 * end-to-end reps) it is a plain stopwatch.
 */
class HostSpan
{
  public:
    HostSpan(HostTrace *trace, const char *name);
    ~HostSpan();
    HostSpan(const HostSpan &) = delete;
    HostSpan &operator=(const HostSpan &) = delete;

    /** Stops the span (idempotent). @return its seconds. */
    double stop();

  private:
    HostTrace *trace_;
    uint32_t id_ = 0;
    HostClock::time_point start_;
    double seconds_ = -1;
};

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> values);

/** Nearest-rank percentile (p in [0, 100]) of virtual durations. */
sim::Nanos percentile(std::vector<sim::Nanos> values, double p);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Lowercase identifier form of a label ("Bitstream Verif. & Enc." ->
 *  "bitstream_verif_enc"). */
std::string slug(const std::string &label);

/** Minimal JSON string escaping. */
std::string jsonEscape(const std::string &s);

/** A finite double printed with every significant digit. */
std::string jsonNumber(double value);

} // namespace salus::bench

#endif // SALUS_BENCH_LEDGER_HPP
