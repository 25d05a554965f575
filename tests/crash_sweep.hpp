/**
 * @file
 * The SM crash-sweep harness. A sweep runs one canonical journalled
 * session per crash point: one SM crash armed at journal write
 * `step`, before or after the store, then a restart from the journal.
 * The steps range over the writes the session actually commits,
 * measured once when gtest registers the sweep, so every instance
 * hits a real write and none is skipped.
 */

#ifndef SALUS_TESTS_CRASH_SWEEP_HPP
#define SALUS_TESTS_CRASH_SWEEP_HPP

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>

#include "common/errors.hpp"
#include "salus/testbed.hpp"
#include "sim/fault.hpp"

namespace salus::test {

/** (journal step, crash after the store instead of before it). */
using CrashPoint = std::tuple<int, bool>;
/** A session whose journal writes a sweep enumerates. */
using JournaledSession = std::function<void(core::Testbed &)>;

/** Journal writes `session` commits on a fresh testbed from `cfg`. */
inline int
journalWritesOf(const core::TestbedConfig &cfg,
                const JournaledSession &session)
{
    core::Testbed tb(cfg);
    session(tb);
    return int(tb.smApp().journalWrites());
}

/** Every crash point of a session that commits `writes` steps. */
inline auto
crashPoints(int writes)
{
    return ::testing::Combine(::testing::Range(0, writes),
                              ::testing::Bool());
}

/** Instance name: step<N>_preStore or step<N>_postStore. */
inline std::string
crashPointName(const ::testing::TestParamInfo<CrashPoint> &info)
{
    return "step" + std::to_string(std::get<0>(info.param)) +
           (std::get<1>(info.param) ? "_postStore" : "_preStore");
}

/**
 * The shared sweep prologue: arms one SM crash at `point` in `cfg`,
 * runs `session` on a fresh testbed, restarts the SM from its journal
 * into `rep` and expects an honest-host recovery (recovered, or a
 * fresh start when the crash preceded the first persist; never
 * failed closed). Returns null, failing the test, when the armed
 * crash never fires.
 */
inline std::unique_ptr<core::Testbed>
crashAndRecover(core::TestbedConfig cfg, CrashPoint point,
                const JournaledSession &session,
                core::SmEnclaveApp::RecoveryReport &rep)
{
    auto [step, afterPersist] = point;
    cfg.faultPlan.add(
        sim::FaultRule::smCrash(uint64_t(step), afterPersist));
    auto tb = std::make_unique<core::Testbed>(cfg);
    try {
        session(*tb);
    } catch (const SmCrashError &) {
        rep = tb->crashAndRecoverSmApp();
        using Status = core::SmEnclaveApp::RecoveryStatus;
        EXPECT_TRUE(rep.status == Status::Recovered ||
                    rep.status == Status::NoJournal)
            << rep.detail;
        EXPECT_FALSE(tb->smApp().failedClosed());
        return tb;
    }
    ADD_FAILURE() << "armed crash at step " << step << " never fired";
    return nullptr;
}

} // namespace salus::test

#endif // SALUS_TESTS_CRASH_SWEEP_HPP
