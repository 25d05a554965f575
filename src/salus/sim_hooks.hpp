/**
 * @file
 * Optional virtual-time hooks for protocol components. Unit tests run
 * with null hooks (pure logic); the boot benches wire in a clock and
 * the calibrated cost model to reproduce Figure 9.
 */

#ifndef SALUS_SALUS_SIM_HOOKS_HPP
#define SALUS_SALUS_SIM_HOOKS_HPP

#include "sim/clock.hpp"
#include "sim/cost_model.hpp"

namespace salus::core {

/** Nullable clock/cost pair. */
struct SimHooks
{
    sim::VirtualClock *clock = nullptr;
    const sim::CostModel *cost = nullptr;

    bool active() const { return clock != nullptr && cost != nullptr; }

    void
    spend(std::string_view phase, sim::Nanos duration) const
    {
        if (clock)
            clock->spend(phase, duration);
    }
};

/** RAII phase scope that tolerates null hooks. */
class PhaseScope
{
  public:
    PhaseScope(const SimHooks &hooks, std::string_view phase)
        : clock_(hooks.clock)
    {
        if (clock_)
            clock_->pushPhase(phase);
    }
    ~PhaseScope()
    {
        if (clock_)
            clock_->popPhase();
    }
    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    sim::VirtualClock *clock_;
};

/** Canonical phase names (Figure 9 legend). */
namespace phases {
inline const char *const kUserRa = "User RA";
inline const char *const kLocalAttest = "Local Attestation";
inline const char *const kDeviceKeyDist = "Device Key Dist.";
inline const char *const kBitstreamVerifEnc = "Bitstream Verif. & Enc.";
inline const char *const kBitstreamManip = "Bitstream Manipulation";
inline const char *const kClDeployment = "CL Deployment";
inline const char *const kClAuth = "CL Authentication";
// Steady-state secure channel breakdown (throughput bench legend).
inline const char *const kChanCrypto = "Channel Crypto";
inline const char *const kChanTransport = "Channel Transport";
// Bulk DMA data plane breakdown (dma-throughput bench legend). Crypto
// covers only the *exposed* seal time; keystream precompute hidden
// behind transport is accounted inside the transport stalls.
inline const char *const kDmaCrypto = "DMA Crypto";
inline const char *const kDmaTransport = "DMA Transport";
} // namespace phases

} // namespace salus::core

#endif // SALUS_SALUS_SIM_HOOKS_HPP
