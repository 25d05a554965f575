/**
 * @file
 * Virtual time. The paper reports wall-clock measurements on a testbed
 * we cannot access; protocol code here charges its operations to a
 * virtual clock through a calibrated CostModel instead, and benches
 * report the virtual totals next to the paper's numbers.
 */

#ifndef SALUS_SIM_CLOCK_HPP
#define SALUS_SIM_CLOCK_HPP

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace salus::sim {

/** Virtual durations/timestamps in nanoseconds. */
using Nanos = uint64_t;

constexpr Nanos kUs = 1000;
constexpr Nanos kMs = 1000 * kUs;
constexpr Nanos kSec = 1000 * kMs;

/** Renders a duration as a human-friendly string ("13.8 s", "836 us"). */
std::string formatNanos(Nanos d);

/** One attributed slice of virtual time, handed to a SpendObserver. */
struct PhaseRecord
{
    std::string_view phase; ///< e.g. "Bitstream Manipulation"
    Nanos start;            ///< virtual timestamp at which it began
    Nanos duration;
};

/**
 * Observes every attributed slice as it is recorded. The obs layer's
 * TraceRecorder taps this to mirror phase slices into trace spans;
 * the clock itself never depends on the observability subsystem.
 */
class SpendObserver
{
  public:
    virtual ~SpendObserver() = default;
    virtual void onSpend(const PhaseRecord &record) = 0;
};

/**
 * A monotonically advancing virtual clock with per-phase attribution.
 * Components call spend() naming the activity; the clock keeps one
 * running total per distinct phase (memory is O(phases), not
 * O(slices)), which benches read to rebuild the paper's Figure 9
 * breakdown. The ordered slice log is the obs TraceRecorder's Clock
 * leaves, kept only while something traces.
 */
class VirtualClock
{
  public:
    /** Current virtual time. */
    Nanos now() const { return now_; }

    /** Advances time, attributing it to the named phase. */
    void spend(std::string_view phase, Nanos duration);

    /** Advances time, attributed to the innermost active phase. */
    void spend(Nanos duration);

    /** Advances time without attribution (idle / untracked). */
    void advance(Nanos duration) { now_ += duration; }

    /** Pushes a phase label; components that don't know the protocol
     *  step charge time to the innermost label. */
    void pushPhase(std::string_view phase);
    void popPhase();
    /** Innermost label, or "(untracked)" when none is active. The
     *  reference stays valid for the clock's lifetime. */
    const std::string &currentPhase() const;

    /** Sum of all slices attributed to the given phase. */
    Nanos totalFor(std::string_view phase) const;

    /** Zeroes every phase total and rewinds to zero. */
    void reset();

    /** Taps every future spend() slice (nullptr = untapped). The
     *  observer sees slices AFTER they are added to the totals; the
     *  record's phase view lives as long as the clock. */
    void setSpendObserver(SpendObserver *observer)
    {
        observer_ = observer;
    }
    SpendObserver *spendObserver() const { return observer_; }

  private:
    /** Index of `phase` in names_/totals_, adding it on first sight. A
     *  linear scan behind a last-hit check: phases are few and most
     *  spends repeat the previous one. */
    uint32_t phaseIndex(std::string_view phase);
    void charge(uint32_t index, Nanos duration);

    Nanos now_ = 0;
    std::deque<std::string> names_; ///< distinct phases; never move
    std::vector<Nanos> totals_;     ///< running total, by names_ index
    uint32_t lastHit_ = 0;
    std::vector<uint32_t> phaseStack_; ///< indices into names_
    SpendObserver *observer_ = nullptr;
};

/** RAII phase scope. */
class ScopedPhase
{
  public:
    ScopedPhase(VirtualClock &clock, std::string_view phase)
        : clock_(clock)
    {
        clock_.pushPhase(phase);
    }
    ~ScopedPhase() { clock_.popPhase(); }
    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    VirtualClock &clock_;
};

} // namespace salus::sim

#endif // SALUS_SIM_CLOCK_HPP
