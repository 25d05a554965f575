#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace salus::sim {

Engine::Engine(VirtualClock &clock)
    : clock_(clock)
{
    actors_.push_back(nullptr); // actor id 0 is reserved (invalid)
    actorNames_.push_back("(none)");
}

uint32_t
Engine::addActor(Actor &actor, std::string name)
{
    actors_.push_back(&actor);
    actorNames_.push_back(std::move(name));
    return uint32_t(actors_.size() - 1);
}

const std::string &
Engine::actorName(uint32_t id) const
{
    return actorNames_.at(id);
}

void
Engine::push(const Event &event)
{
    uint64_t seq = nextSeq_++;
    pending_[event.id] = PendingEvent{event, seq};
    heap_.push(HeapEntry{event.at, event.priority, seq, event.id});
    ++stats_.scheduled;
    stats_.maxQueued = std::max(stats_.maxQueued, pending_.size());
}

EventId
Engine::post(Nanos at, uint8_t priority, uint32_t actor, uint32_t kind,
             uint64_t a, uint64_t b)
{
    if (actor == 0 || actor >= actors_.size())
        throw std::out_of_range("engine: post to unknown actor");
    Event event;
    event.id = nextId_++;
    event.at = std::max(at, clock_.now()); // the loop never rewinds
    event.priority = priority;
    event.actor = actor;
    event.kind = kind;
    event.a = a;
    event.b = b;
    push(event);
    return event.id;
}

EventId
Engine::postIn(Nanos delay, uint8_t priority, uint32_t actor,
               uint32_t kind, uint64_t a, uint64_t b)
{
    return post(clock_.now() + delay, priority, actor, kind, a, b);
}

EventId
Engine::postNow(uint32_t actor, uint32_t kind, uint64_t a, uint64_t b)
{
    return post(clock_.now(), kPriorityDefault, actor, kind, a, b);
}

bool
Engine::cancel(EventId id)
{
    auto it = pending_.find(id);
    if (it == pending_.end())
        return false;
    pending_.erase(it); // the heap entry dies lazily at pop
    ++stats_.cancelled;
    return true;
}

bool
Engine::reschedule(EventId id, Nanos at)
{
    auto it = pending_.find(id);
    if (it == pending_.end())
        return false;
    Event event = it->second.event;
    pending_.erase(it); // invalidates the old heap entry's seq
    event.at = std::max(at, clock_.now());
    push(event);
    return true;
}

Nanos
Engine::pendingAt(EventId id) const
{
    auto it = pending_.find(id);
    return it == pending_.end() ? Nanos(0) : it->second.event.at;
}

bool
Engine::step()
{
    while (!heap_.empty()) {
        HeapEntry top = heap_.top();
        heap_.pop();
        auto it = pending_.find(top.id);
        if (it == pending_.end() || it->second.seq != top.seq)
            continue; // cancelled or rescheduled — skip the corpse
        Event event = it->second.event;
        pending_.erase(it);
        if (event.at > clock_.now())
            clock_.advance(event.at - clock_.now());
        ++stats_.dispatched;
        actors_[event.actor]->onEvent(*this, event);
        return true;
    }
    return false;
}

bool
Engine::runUntilIdle(uint64_t maxEvents)
{
    for (uint64_t n = 0; n < maxEvents; ++n)
        if (!step())
            return true;
    return heap_.empty();
}

uint64_t
Engine::runUntil(Nanos deadline)
{
    uint64_t dispatched = 0;
    while (!heap_.empty()) {
        // Skim dead heap entries so top() reflects a live event.
        HeapEntry top = heap_.top();
        auto it = pending_.find(top.id);
        if (it == pending_.end() || it->second.seq != top.seq) {
            heap_.pop();
            continue;
        }
        if (top.at > deadline)
            break;
        step();
        ++dispatched;
    }
    if (clock_.now() < deadline)
        clock_.advance(deadline - clock_.now());
    return dispatched;
}

} // namespace salus::sim
