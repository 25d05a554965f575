#include "sim/cost_model.hpp"

namespace salus::sim {

Nanos
transferTime(double bytesPerSec, size_t bytes)
{
    if (bytesPerSec <= 0)
        return 0;
    return Nanos(double(bytes) / bytesPerSec * double(kSec));
}

Nanos
CostModel::rpc(LinkKind link, size_t requestBytes,
               size_t responseBytes) const
{
    size_t bytes = requestBytes + responseBytes;
    switch (link) {
      case LinkKind::IntraCloud:
        return cloudRtt + transferTime(cloudBandwidth, bytes);
      case LinkKind::Wan:
        return wanRtt + transferTime(wanBandwidth, bytes);
      case LinkKind::Pcie:
        break;
    }
    return pcieRtt + transferTime(pcieBandwidth, bytes);
}

Nanos
CostModel::bitstreamManipulation(size_t bytes) const
{
    return transferTime(manipulationBytesPerSec, bytes);
}

Nanos
CostModel::bitstreamVerifyEncrypt(size_t bytes) const
{
    return transferTime(verifyEncryptBytesPerSec, bytes);
}

Nanos
CostModel::bitstreamDeployment(size_t bytes) const
{
    return transferTime(pcieBandwidth, bytes) +
           transferTime(fpgaConfigBytesPerSec, bytes) + efuseKeyLatch;
}

Nanos
CostModel::localAttestation() const
{
    // Two enclaves exchange EREPORTs over loopback IPC and run ECDH.
    return 2 * (loopbackRtt + localAttestCompute + enclaveTransition);
}

Nanos
CostModel::quoteCreation() const
{
    return quoteGeneration + 2 * enclaveTransition;
}

Nanos
CostModel::quoteVerificationOver(LinkKind link) const
{
    return quoteVerification + Nanos(dcapCollateralRoundTrips) *
                                   rpc(link, 2048, 16384);
}

Nanos
CostModel::batchCrypto(size_t ops) const
{
    // Each op is one AES block in each direction; both the request
    // and the response payload get a single MAC pass.
    return Nanos(2 * ops) * aesCtrBlock + 2 * channelMacBase +
           Nanos(2 * ops) * channelMacPerBlock;
}

Nanos
CostModel::dmaCrypto(size_t bytes) const
{
    // Bulk path: one fixed seal per descriptor, then keystream at the
    // wide-datapath rate (the MAC pass rides the same sweep).
    return dmaDescriptorSeal + transferTime(dmaCryptoBytesPerSec, bytes);
}

} // namespace salus::sim
