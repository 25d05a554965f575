/**
 * @file
 * Deterministic discrete-event engine over the virtual clock.
 *
 * Actors (SM enclave, shells, FPGA devices, user clients, broker,
 * supervisor) exchange queued events; a single-threaded run loop pops
 * them in a stable total order and advances the shared VirtualClock
 * to each event's due time. The order is (time, priority, seq):
 * earlier virtual time first, then lower priority value, then
 * submission order, so events posted for one instant at one priority
 * dispatch FIFO (the scenario driver relies on this). The same inputs
 * therefore give the bit-identical event sequence and, because all
 * time attribution still flows through VirtualClock::spend(),
 * bit-identical traces and metrics (the gallery golden digests pin
 * this).
 *
 * Handlers may spend() virtual time, which moves the clock past
 * not-yet-dispatched events; the loop never rewinds — a past-due
 * event simply dispatches at the current (later) time. Cancellation
 * is lazy: cancelled ids are skipped at pop, and reschedule keeps the
 * event's payload while moving its due time (the old heap entry is
 * invalidated by a sequence-number bump).
 */

#ifndef SALUS_SIM_ENGINE_HPP
#define SALUS_SIM_ENGINE_HPP

#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/clock.hpp"

namespace salus::sim {

class Engine;

/** Dispatch tiers at equal due time (lower dispatches first). */
constexpr uint8_t kPriorityControl = 0; ///< supervisor/health/cancel
constexpr uint8_t kPriorityDefault = 64;
constexpr uint8_t kPriorityBulk = 128; ///< DMA chunks, background

/** Handle for cancel/reschedule; 0 is never a valid id. */
using EventId = uint64_t;

/** One queued (or in-dispatch) event. */
struct Event
{
    EventId id = 0;
    Nanos at = 0;         ///< due time it was scheduled for
    uint8_t priority = kPriorityDefault;
    uint32_t actor = 0;   ///< destination actor id
    uint32_t kind = 0;    ///< actor-defined discriminator
    uint64_t a = 0;       ///< payload word (actor-defined)
    uint64_t b = 0;       ///< payload word (actor-defined)
};

/**
 * An event destination. Actors register with the engine once and keep
 * their id for the engine's lifetime; delivery is a virtual call on
 * the single run-loop thread.
 */
class Actor
{
  public:
    virtual ~Actor() = default;

    /** Handles one delivered event. May post/cancel/reschedule and
     *  may spend() virtual time on the engine's clock. */
    virtual void onEvent(Engine &engine, const Event &event) = 0;
};

/** The single-threaded deterministic run loop. */
class Engine
{
  public:
    struct Stats
    {
        uint64_t scheduled = 0;
        uint64_t dispatched = 0;
        uint64_t cancelled = 0;
        size_t maxQueued = 0;
    };

    explicit Engine(VirtualClock &clock);

    /** Registers an actor; the returned id addresses post(). The
     *  actor must outlive the engine (or at least every event posted
     *  to it). Names are for diagnostics only. */
    uint32_t addActor(Actor &actor, std::string name);
    const std::string &actorName(uint32_t id) const;

    /** Queues an event at an absolute virtual time (clamped forward
     *  to now: the loop never rewinds). @return its cancel handle. */
    EventId post(Nanos at, uint8_t priority, uint32_t actor,
                 uint32_t kind, uint64_t a = 0, uint64_t b = 0);
    /** Queues an event `delay` after the current virtual time. */
    EventId postIn(Nanos delay, uint8_t priority, uint32_t actor,
                   uint32_t kind, uint64_t a = 0, uint64_t b = 0);
    /** Queues an event at the current virtual time (dispatches after
     *  everything already queued for this instant — FIFO). */
    EventId postNow(uint32_t actor, uint32_t kind, uint64_t a = 0,
                    uint64_t b = 0);

    /** Cancels a pending event. @return false when it already
     *  dispatched, was cancelled, or never existed. */
    bool cancel(EventId id);

    /** Moves a pending event to a new due time, keeping its payload
     *  and identity; ties at the new time order by the NEW submission
     *  sequence. @return false (and no change) when `id` is not
     *  pending. */
    bool reschedule(EventId id, Nanos at);

    /** Due time of a pending event (0 when not pending). */
    Nanos pendingAt(EventId id) const;

    VirtualClock &clock() { return clock_; }
    Nanos now() const { return clock_.now(); }
    size_t pending() const { return pending_.size(); }
    const Stats &stats() const { return stats_; }

    /**
     * Dispatches events until the queue is empty or `maxEvents` were
     * delivered. @return true when the queue drained (false = event
     * budget exhausted with work left — a runaway-loop backstop).
     */
    bool runUntilIdle(uint64_t maxEvents = ~uint64_t(0));

    /** Dispatches every event due at or before `deadline` (events a
     *  handler posts inside the horizon are picked up too), then
     *  advances the clock to `deadline` if it is still behind.
     *  @return events dispatched. */
    uint64_t runUntil(Nanos deadline);

    /** Dispatches exactly one event. @return false when idle. */
    bool step();

  private:
    struct HeapEntry
    {
        Nanos at;
        uint8_t priority;
        uint64_t seq;
        EventId id;

        bool operator>(const HeapEntry &o) const
        {
            if (at != o.at)
                return at > o.at;
            if (priority != o.priority)
                return priority > o.priority;
            return seq > o.seq;
        }
    };

    struct PendingEvent
    {
        Event event;
        uint64_t seq = 0; ///< heap entries with a stale seq are dead
    };

    void push(const Event &event);

    VirtualClock &clock_;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        heap_;
    std::unordered_map<EventId, PendingEvent> pending_;
    std::vector<Actor *> actors_;
    std::vector<std::string> actorNames_;
    EventId nextId_ = 1;
    uint64_t nextSeq_ = 1;
    Stats stats_;
};

} // namespace salus::sim

#endif // SALUS_SIM_ENGINE_HPP
