/**
 * @file
 * Virtual-time hooks for protocol components: the clock each step
 * charges and the cost model that prices it. Every component gets
 * both (the Testbed binds its own; standalone rigs pass a local clock
 * and a default CostModel), so each protocol step is priced once, by
 * the flow that runs it.
 */

#ifndef SALUS_SALUS_SIM_HOOKS_HPP
#define SALUS_SALUS_SIM_HOOKS_HPP

#include "sim/clock.hpp"
#include "sim/cost_model.hpp"

namespace salus::core {

/** The clock a component charges and the cost model pricing it;
 *  both must be set before the component runs. */
struct SimHooks
{
    sim::VirtualClock *clock = nullptr;
    const sim::CostModel *cost = nullptr;

    void
    spend(std::string_view phase, sim::Nanos duration) const
    {
        clock->spend(phase, duration);
    }
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
