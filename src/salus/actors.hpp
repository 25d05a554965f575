/**
 * @file
 * Event-driven actors on the sim::Engine: scheduler pump sweeps,
 * supervisor watchdog polls, and per-device DMA lanes become queued
 * events with the engine's stable (time, priority, seq) ordering, so
 * a fleet of devices makes progress CONCURRENTLY in virtual time
 * instead of serializing on whichever component's synchronous loop
 * ran first.
 *
 * The actors deliberately spend no virtual time themselves: waiting
 * is expressed by scheduling (the clock advances to each event's due
 * time), and work charges time inside the wrapped component.
 */

#ifndef SALUS_SALUS_ACTORS_HPP
#define SALUS_SALUS_ACTORS_HPP

#include <functional>
#include <string>

#include "salus/supervisor.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace salus::core {

/**
 * Scheduler sweeps as events. Each kSweep event runs one pump (the
 * wrapped callback is typically Broker::pump or
 * BatchScheduler::pumpOnce behind the caller's error handling).
 */
class SchedulerPumpActor final : public sim::Actor
{
  public:
    static constexpr uint32_t kSweep = 1;

    /** @param pump runs one sweep, returns ops completed. */
    explicit SchedulerPumpActor(std::function<size_t()> pump)
        : pump_(std::move(pump))
    {}

    /** Registers with the engine (idempotent per engine instance). */
    uint32_t attach(sim::Engine &engine, const std::string &name);
    uint32_t actorId() const { return actorId_; }

    void onEvent(sim::Engine &engine, const sim::Event &event) override;

    uint64_t sweeps() const { return sweeps_; }
    uint64_t opsCompleted() const { return ops_; }

  private:
    std::function<size_t()> pump_;
    uint32_t actorId_ = 0;
    uint64_t sweeps_ = 0;
    uint64_t ops_ = 0;
};

/**
 * Supervisor watchdog polls as events: each kPoll event runs one
 * FleetSupervisor::pollOnce(). Waits between polls are
 * engine-scheduled (untracked idle time), unlike
 * FleetSupervisor::runFor, which charges its waits to the clock's
 * heartbeat phase.
 */
class SupervisorPollActor final : public sim::Actor
{
  public:
    static constexpr uint32_t kPoll = 1;

    /** @param onError invoked when pollOnce throws a SalusError
     *  (failover propagation); the exception is swallowed so the
     *  event loop keeps running. Null = swallow silently. */
    explicit SupervisorPollActor(FleetSupervisor &supervisor,
                                 std::function<void()> onError = nullptr)
        : supervisor_(supervisor), onError_(std::move(onError))
    {}

    uint32_t attach(sim::Engine &engine, const std::string &name);
    uint32_t actorId() const { return actorId_; }

    void onEvent(sim::Engine &engine, const sim::Event &event) override;

    uint64_t polls() const { return polls_; }
    uint64_t errors() const { return errors_; }

  private:
    FleetSupervisor &supervisor_;
    std::function<void()> onError_;
    uint32_t actorId_ = 0;
    uint64_t polls_ = 0;
    uint64_t errors_ = 0;
};

/**
 * One device's bulk-DMA lane as an event-driven pipeline. Each job
 * runs the sealed path's dmachan::DmaWindowEngine — seal crypto
 * overlapped behind a transport budget, `window` descriptors in
 * flight, cumulative acks one PCIe RTT behind the last wire byte —
 * with no-loss hooks on a LANE-LOCAL clock: wire time and window
 * stalls extend this lane's busy horizon instead of spending on the
 * shared clock, so many devices' windows stream concurrently in
 * virtual time. Completion is an engine event at the lane-local
 * finish time.
 *
 * Busy periods are emitted as coalesced root-level trace spans named
 * after the lane (lanes that should aggregate share a name), so span
 * sums equal the busy time the lane accrued — the scale bench's
 * span-sum-vs-cost-model cross-check.
 */
class DmaLaneActor final : public sim::Actor
{
  public:
    static constexpr uint32_t kJobDone = 1;

    struct Job
    {
        uint64_t bytes = 0;
        size_t chunkBytes = 64 * 1024;
        size_t window = 8;
        /** Posted this event when the transfer completes. */
        uint32_t notifyActor = 0;
        uint32_t notifyKind = 0;
        uint64_t notifyA = 0;
    };

    struct LaneStats
    {
        uint64_t jobs = 0;
        uint64_t bytes = 0;
        uint64_t descriptors = 0;
        sim::Nanos busyNanos = 0;      ///< wire + stalls + exposed crypto
        sim::Nanos transportNanos = 0; ///< wire time + ack stalls
        sim::Nanos cryptoNanos = 0;    ///< exposed (not hidden) seal time
        sim::Nanos hiddenCryptoNanos = 0;
        sim::Nanos idleUntil = 0; ///< lane-local busy horizon
    };

    DmaLaneActor(const sim::CostModel &cost, std::string name)
        : cost_(cost), name_(std::move(name))
    {}

    uint32_t attach(sim::Engine &engine);
    uint32_t actorId() const { return actorId_; }

    /** Queues one windowed transfer; lane-local FIFO. The completion
     *  event fires at the lane's finish time for this job. */
    void submit(sim::Engine &engine, const Job &job);

    void onEvent(sim::Engine &engine, const sim::Event &event) override;

    /** Emits the trailing coalesced busy span (call once, after the
     *  run loop drains, before exporting the trace). */
    void flushSpans();

    const LaneStats &stats() const { return stats_; }

  private:
    /** Runs the window engine for one job on a lane-local clock
     *  starting at `from`; returns the finish time. */
    sim::Nanos simulateJob(sim::Nanos from, const Job &job);

    const sim::CostModel &cost_;
    std::string name_;
    uint32_t actorId_ = 0;
    LaneStats stats_;
    sim::Nanos busyStart_ = 0;
    bool busyOpen_ = false;
};

} // namespace salus::core

#endif // SALUS_SALUS_ACTORS_HPP
