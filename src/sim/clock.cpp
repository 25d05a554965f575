#include "sim/clock.hpp"

#include <algorithm>
#include <cstdio>

namespace salus::sim {

std::string
formatNanos(Nanos d)
{
    char buf[64];
    if (d >= kSec)
        std::snprintf(buf, sizeof(buf), "%.2f s", double(d) / kSec);
    else if (d >= kMs)
        std::snprintf(buf, sizeof(buf), "%.2f ms", double(d) / kMs);
    else if (d >= kUs)
        std::snprintf(buf, sizeof(buf), "%.1f us", double(d) / kUs);
    else
        std::snprintf(buf, sizeof(buf), "%llu ns",
                      static_cast<unsigned long long>(d));
    return buf;
}

namespace {

constexpr std::string_view kUntracked = "(untracked)";

} // namespace

uint32_t
VirtualClock::phaseIndex(std::string_view phase)
{
    if (lastHit_ < names_.size() && names_[lastHit_] == phase)
        return lastHit_;
    for (uint32_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == phase)
            return lastHit_ = i;
    }
    names_.emplace_back(phase);
    totals_.push_back(0);
    return lastHit_ = uint32_t(names_.size() - 1);
}

void
VirtualClock::charge(uint32_t index, Nanos duration)
{
    totals_[index] += duration;
    PhaseRecord record{names_[index], now_, duration};
    now_ += duration;
    if (observer_)
        observer_->onSpend(record);
}

void
VirtualClock::spend(std::string_view phase, Nanos duration)
{
    charge(phaseIndex(phase), duration);
}

void
VirtualClock::spend(Nanos duration)
{
    charge(phaseStack_.empty() ? phaseIndex(kUntracked)
                               : phaseStack_.back(),
           duration);
}

void
VirtualClock::pushPhase(std::string_view phase)
{
    phaseStack_.push_back(phaseIndex(phase));
}

void
VirtualClock::popPhase()
{
    if (!phaseStack_.empty())
        phaseStack_.pop_back();
}

const std::string &
VirtualClock::currentPhase() const
{
    static const std::string untracked(kUntracked);
    return phaseStack_.empty() ? untracked : names_[phaseStack_.back()];
}

Nanos
VirtualClock::totalFor(std::string_view phase) const
{
    for (size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == phase)
            return totals_[i];
    }
    return 0;
}

void
VirtualClock::reset()
{
    // Names stay (open ScopedPhases hold their indices); only the
    // totals and the time go back to zero.
    now_ = 0;
    std::fill(totals_.begin(), totals_.end(), Nanos(0));
}

} // namespace salus::sim
