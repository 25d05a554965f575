#include "salus/actors.hpp"

#include <algorithm>
#include <vector>

#include "common/errors.hpp"
#include "obs/trace.hpp"
#include "salus/dma_channel.hpp"

namespace salus::core {

// ---- SchedulerPumpActor ----------------------------------------------

uint32_t
SchedulerPumpActor::attach(sim::Engine &engine, const std::string &name)
{
    if (actorId_ == 0)
        actorId_ = engine.addActor(*this, name);
    return actorId_;
}

void
SchedulerPumpActor::onEvent(sim::Engine &, const sim::Event &event)
{
    if (event.kind != kSweep)
        return;
    ++sweeps_;
    if (pump_)
        ops_ += pump_();
}

// ---- SupervisorPollActor ---------------------------------------------

uint32_t
SupervisorPollActor::attach(sim::Engine &engine, const std::string &name)
{
    if (actorId_ == 0)
        actorId_ = engine.addActor(*this, name);
    return actorId_;
}

void
SupervisorPollActor::onEvent(sim::Engine &, const sim::Event &event)
{
    if (event.kind != kPoll)
        return;
    ++polls_;
    try {
        supervisor_.pollOnce();
    } catch (const SalusError &) {
        // Failover propagation surfaces out of pollOnce as an
        // exception; the event loop keeps running and the owner
        // decides what a failover means.
        ++errors_;
        if (onError_)
            onError_();
    }
}

// ---- DmaLaneActor ----------------------------------------------------

uint32_t
DmaLaneActor::attach(sim::Engine &engine)
{
    if (actorId_ == 0)
        actorId_ = engine.addActor(*this, name_);
    return actorId_;
}

sim::Nanos
DmaLaneActor::simulateJob(sim::Nanos from, const Job &job)
{
    // The sealed path's window engine on a LANE-LOCAL clock: stalls
    // and wire time extend this lane's horizon without touching the
    // shared VirtualClock, and exposed seal crypto rides the lane too
    // (the scale model charges crypto to the lane that needs it rather
    // than a shared host core). No-loss hooks: nothing is delivered
    // and every ack covers everything sent.
    sim::VirtualClock lane;
    lane.advance(from);
    dmachan::DmaWindowHooks hooks;
    hooks.sim = {&lane, &cost_};
    hooks.readAck = [](uint64_t &ackSeq) {
        ackSeq = ~uint64_t(0);
        return true;
    };

    size_t chunk = std::max<size_t>(job.chunkBytes, 1);
    std::vector<dmachan::DmaDescriptorWork> work;
    for (uint64_t off = 0; off < job.bytes; off += chunk) {
        dmachan::DmaDescriptorWork w;
        w.seq = work.size();
        w.payloadBytes = size_t(std::min<uint64_t>(job.bytes - off, chunk));
        work.push_back(std::move(w));
    }

    dmachan::DmaWindowEngine::Options opts;
    opts.window = job.window;
    dmachan::DmaTransferReport report;
    {
        // run() reports to obs; the lane's coalesced busy spans are
        // the fleet trace's only record of this work.
        obs::ObsScope quiet(nullptr, nullptr);
        report = dmachan::DmaWindowEngine(std::move(hooks), opts).run(work);
    }
    stats_.descriptors += report.descriptors;
    stats_.cryptoNanos += report.cryptoNanos;
    stats_.hiddenCryptoNanos += report.hiddenCryptoNanos;
    stats_.transportNanos += report.transportNanos;
    return lane.now();
}

void
DmaLaneActor::submit(sim::Engine &engine, const Job &job)
{
    sim::Nanos now = engine.now();
    sim::Nanos start = std::max(now, stats_.idleUntil);
    if (busyOpen_ && start > stats_.idleUntil) {
        // The lane went idle between jobs: close the coalesced busy
        // span before opening the next period.
        if (obs::TraceRecorder *rec = obs::tracer())
            rec->completeSpan(obs::Category::Shell, name_, busyStart_,
                              stats_.idleUntil);
        busyOpen_ = false;
    }
    if (!busyOpen_) {
        busyOpen_ = true;
        busyStart_ = start;
    }

    sim::Nanos finish = simulateJob(start, job);
    stats_.idleUntil = finish;
    stats_.busyNanos += finish - start;
    ++stats_.jobs;
    stats_.bytes += job.bytes;
    obs::count("dma.lane_jobs");

    // The completion event carries the notification target packed
    // into (a, b); kJobDone dispatches at the lane-local finish time.
    uint64_t packed =
        (uint64_t(job.notifyActor) << 32) | uint64_t(job.notifyKind);
    engine.post(finish, sim::kPriorityBulk, actorId_, kJobDone, packed,
                job.notifyA);
}

void
DmaLaneActor::onEvent(sim::Engine &engine, const sim::Event &event)
{
    if (event.kind != kJobDone)
        return;
    uint32_t notifyActor = uint32_t(event.a >> 32);
    uint32_t notifyKind = uint32_t(event.a & 0xffffffffu);
    if (notifyActor != 0)
        engine.postNow(notifyActor, notifyKind, event.b);
}

void
DmaLaneActor::flushSpans()
{
    if (!busyOpen_)
        return;
    if (obs::TraceRecorder *rec = obs::tracer())
        rec->completeSpan(obs::Category::Shell, name_, busyStart_,
                          stats_.idleUntil);
    busyOpen_ = false;
}

} // namespace salus::core
