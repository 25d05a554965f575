#include "net/network.hpp"

#include "common/errors.hpp"
#include "common/log.hpp"

namespace salus::net {

void
Network::addEndpoint(const std::string &name)
{
    handlers_.try_emplace(name);
}

void
Network::link(const std::string &a, const std::string &b,
              sim::LinkKind kind)
{
    if (!handlers_.count(a) || !handlers_.count(b))
        throw NetError("link between unknown endpoints " + a + "," + b);
    links_[{a, b}] = kind;
    links_[{b, a}] = kind;
}

void
Network::on(const std::string &endpoint, const std::string &method,
            Handler handler)
{
    auto it = handlers_.find(endpoint);
    if (it == handlers_.end())
        throw NetError("unknown endpoint " + endpoint);
    it->second[method] = std::move(handler);
}

sim::LinkKind
Network::linkKind(const std::string &a, const std::string &b) const
{
    auto it = links_.find({a, b});
    if (it == links_.end())
        throw NetError("no link between " + a + " and " + b,
                       ErrorContext{a, b, "", 0});
    return it->second;
}

void
Network::deliverHeld()
{
    if (delivering_ || held_.empty())
        return;
    delivering_ = true;
    std::vector<HeldMessage> pending;
    pending.swap(held_);
    for (HeldMessage &m : pending) {
        auto nodeIt = handlers_.find(m.to);
        if (nodeIt == handlers_.end())
            continue;
        auto methodIt = nodeIt->second.find(m.method);
        if (methodIt == nodeIt->second.end())
            continue;
        if (tap_)
            tap_(m.from, m.to, m.method + ":stale", m.payload);
        try {
            // Stale (reordered) delivery: the response, if any, goes
            // nowhere — the original caller already gave up on it.
            // Replay/freshness defenses at the receiver must cope.
            methodIt->second(m.payload);
        } catch (const SalusError &e) {
            logf(LogLevel::Debug, "net", "stale delivery rejected: ",
                 e.what());
        }
    }
    delivering_ = false;
}

Bytes
Network::call(const std::string &from, const std::string &to,
              const std::string &method, ByteView request,
              const std::string &phase, sim::Nanos deadline)
{
    // Reordered messages from earlier calls arrive (stale) first.
    deliverHeld();

    ErrorContext ctx{from, to, method, 0};
    auto nodeIt = handlers_.find(to);
    if (nodeIt == handlers_.end())
        throw NetError("unknown endpoint " + to, ctx);
    auto methodIt = nodeIt->second.find(method);
    if (methodIt == nodeIt->second.end())
        throw NetError("endpoint " + to + " has no method " + method,
                       ctx);

    sim::LinkKind kind = linkKind(from, to);
    const std::string &phaseName =
        phase.empty() ? clock_.currentPhase() : phase;
    sim::Nanos start = clock_.now();

    Bytes req(request.begin(), request.end());
    if (tap_)
        tap_(from, to, method, req);
    bool duplicate = false;
    if (fault_) {
        sim::RpcFault f = fault_->onRpc(from, to, method, req);
        if (f.delay)
            clock_.spend(phaseName, f.delay);
        if (f.drop) {
            clock_.spend(phaseName, cost_.rpc(kind, req.size(), 0));
            throw NetError("message dropped on link " + from + "->" + to,
                           ctx);
        }
        if (f.reorder) {
            // The fabric holds the message and delivers it out of
            // order before the next call; this attempt sees a loss.
            held_.push_back({from, to, method, req});
            clock_.spend(phaseName, cost_.rpc(kind, req.size(), 0));
            throw NetError("message reordered (held) on link " + from +
                               "->" + to,
                           ctx);
        }
        duplicate = f.duplicate;
    }
    if (interposer_) {
        if (!interposer_(from, to, method, req))
            throw NetError("message dropped on link " + from + "->" + to,
                           ctx);
    }

    Bytes response = methodIt->second(req);
    if (duplicate) {
        // Receiver sees the payload twice; the second response is the
        // one the caller observes (exercises handler idempotency).
        response = methodIt->second(req);
    }

    if (tap_)
        tap_(to, from, method + ":response", response);
    if (fault_) {
        sim::RpcFault f =
            fault_->onRpc(to, from, method + ":response", response);
        if (f.delay)
            clock_.spend(phaseName, f.delay);
        if (f.drop || f.reorder) {
            clock_.spend(phaseName,
                         cost_.rpc(kind, req.size(), response.size()));
            throw NetError("response dropped on link " + to + "->" + from,
                           ctx);
        }
    }
    if (interposer_) {
        if (!interposer_(to, from, method + ":response", response))
            throw NetError("response dropped on link " + to + "->" + from,
                           ctx);
    }

    clock_.spend(phaseName, cost_.rpc(kind, request.size(),
                                      response.size()));
    if (deadline && clock_.now() - start > deadline)
        throw TimeoutError("call exceeded deadline of " +
                               sim::formatNanos(deadline),
                           ctx);
    return response;
}

CallOutcome
Network::callWithRetry(const std::string &from, const std::string &to,
                       const std::string &method, ByteView request,
                       const RetryPolicy &policy, const std::string &phase)
{
    CallOutcome out;
    int attempts = policy.maxAttempts < 1 ? 1 : policy.maxAttempts;
    for (int attempt = 1; attempt <= attempts; ++attempt) {
        out.attempts = attempt;
        if (attempt > 1) {
            clock_.spend(kRetryBackoffPhase,
                         policy.backoffBefore(attempt));
            logf(LogLevel::Debug, "net", "retrying ", method, " (",
                 attempt, "/", attempts, ")");
        }
        try {
            out.response = call(from, to, method, request, phase,
                                policy.deadline);
            out.failure = FailureClass::None;
            out.error.clear();
            out.context = ErrorContext{};
            return out;
        } catch (const TimeoutError &e) {
            out.failure = FailureClass::Timeout;
            out.error = e.what();
            out.context = e.context();
            out.context.attempt = attempt;
        } catch (const PolicyError &e) {
            // Deterministic policy verdict (quota/rate/overload): a
            // retry replays the same request into the same wall, so
            // the schedule stops here — unlike transport faults.
            out.failure = FailureClass::Policy;
            out.error = e.what();
            out.context = e.context();
            out.context.attempt = attempt;
            return out;
        } catch (const NetError &e) {
            out.failure = FailureClass::Transport;
            out.error = e.what();
            out.context = e.context();
            out.context.attempt = attempt;
        }
    }
    out.error += " (after " + std::to_string(out.attempts) + " attempts)";
    if (policy.enabled()) {
        // A bounded schedule was exhausted by transport-class faults:
        // classify as persistent so the caller escalates to its
        // supervisor instead of hammering the same device/link.
        out.failure = FailureClass::Persistent;
        if (policy.onExhausted)
            policy.onExhausted(out.context);
    }
    return out;
}

} // namespace salus::net
