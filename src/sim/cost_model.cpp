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
    Nanos rtt;
    double bw;
    switch (link) {
      case LinkKind::IntraCloud:
        rtt = cloudRtt;
        bw = cloudBandwidth;
        break;
      case LinkKind::Wan:
        rtt = wanRtt;
        bw = wanBandwidth;
        break;
      case LinkKind::Pcie:
        rtt = pcieRtt;
        bw = pcieBandwidth;
        break;
      default:
        rtt = 0;
        bw = 0;
        break;
    }
    return rtt + transferTime(bw, requestBytes + responseBytes);
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
CostModel::remoteAttestation(LinkKind link) const
{
    // Challenge RTT + quote generation in the enclave + verification
    // at the service, which itself fetches DCAP collateral over the
    // same link class.
    Nanos collateral = Nanos(dcapCollateralRoundTrips) *
                       rpc(link, 2048, 16384);
    return rpc(link, 64, 4096) + quoteGeneration +
           2 * enclaveTransition + quoteVerification + collateral;
}

Nanos
CostModel::localAttestation() const
{
    // Two enclaves exchange EREPORTs over loopback IPC and run ECDH.
    return 2 * (loopbackRtt + localAttestCompute + enclaveTransition);
}

Nanos
CostModel::clAttestation() const
{
    // Request regs + response regs over PCIe, SipHash on both ends.
    return 4 * pcieRtt + 2 * smLogicMac + 2 * enclaveTransition +
           2 * fpgaDnaReadout;
}

Nanos
CostModel::shefClAttestation(size_t bitstreamBytes) const
{
    // The ShEF security kernel hashes the CL bitstream, signs the
    // measurement, and the verifier walks a CA chain over the WAN.
    return transferTime(shefMeasureBytesPerSec, bitstreamBytes) +
           2 * shefSignatureOp +
           Nanos(shefCaRoundTrips) * rpc(LinkKind::Wan, 1024, 8192) +
           rpc(LinkKind::Wan, 256, 4096);
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
