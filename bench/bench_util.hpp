/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: aligned
 * table printing and wall-clock measurement.
 */

#ifndef SALUS_BENCH_BENCH_UTIL_HPP
#define SALUS_BENCH_BENCH_UTIL_HPP

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>

#include "obs/trace.hpp"
#include "sim/clock.hpp"

namespace salus::bench {

/** Prints a section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Milliseconds with 2 decimals from virtual nanos. */
inline double
ms(sim::Nanos n)
{
    return double(n) / 1e6;
}

/** Measures a callable's real wall-clock time in seconds. */
template <typename F>
double
wallSeconds(F &&fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
}

/**
 * RAII trace + metrics capture over one virtual clock, for benches
 * that publish observability artifacts. Construction installs the
 * recorder globally (see obs::ObsScope); writeArtifacts() (or
 * destruction) uninstalls it.
 */
class ObsCapture
{
  public:
    explicit ObsCapture(sim::VirtualClock &clock) : recorder_(clock)
    {
        scope_.emplace(&recorder_, &metrics_);
    }

    obs::TraceRecorder &trace() { return recorder_; }

    /** Uninstalls the capture, then writes TRACE_<name>.json and
     *  METRICS_<name>.txt into the current directory.
     *  @return false if either write failed. */
    bool writeArtifacts(const std::string &name)
    {
        scope_.reset();
        std::string tracePath = "TRACE_" + name + ".json";
        std::string metricsPath = "METRICS_" + name + ".txt";
        bool ok = recorder_.writeChromeTrace(tracePath);
        ok = metrics_.writeText(metricsPath) && ok;
        if (ok)
            std::printf("wrote %s (%zu events) and %s\n",
                        tracePath.c_str(), recorder_.events().size(),
                        metricsPath.c_str());
        else
            std::printf("cannot write %s / %s\n", tracePath.c_str(),
                        metricsPath.c_str());
        return ok;
    }

  private:
    obs::TraceRecorder recorder_;
    obs::MetricsRegistry metrics_;
    std::optional<obs::ObsScope> scope_;
};

} // namespace salus::bench

#endif // SALUS_BENCH_BENCH_UTIL_HPP
