#include "baseline/sgx_fpga.hpp"

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"

namespace salus::baseline {

uint64_t
PufDevice::respond(uint64_t challenge) const
{
    // An ideal (noise-free) strong PUF: a keyed PRF over the die
    // entropy. Real PUFs add noise + fuzzy extraction; irrelevant to
    // the protocol properties reproduced here.
    uint8_t key[32] = {};
    storeLe64(key, dieEntropy_);
    uint8_t msg[8];
    storeLe64(msg, challenge);
    Bytes mac = crypto::hmacSha256(ByteView(key, 32), ByteView(msg, 8));
    return loadLe64(mac.data());
}

void
CrpDatabase::enroll(const PufDevice &device, size_t numPairs,
                    crypto::RandomSource &rng)
{
    while (pairs_.size() < numPairs) {
        uint64_t challenge = rng.nextU64();
        pairs_[challenge] = device.respond(challenge);
    }
}

bool
CrpDatabase::authenticate(const PufDevice &device)
{
    if (pairs_.empty())
        return false;
    auto it = pairs_.begin();
    uint64_t challenge = it->first;
    uint64_t expected = it->second;
    pairs_.erase(it); // CRPs are single-use
    return device.respond(challenge) == expected;
}

SgxFpgaTimeline
runSgxFpgaFlow(CrpDatabase &db, const PufDevice &device,
               sim::VirtualClock &clock, const sim::CostModel &cost)
{
    SgxFpgaTimeline t;

    // Stage 1: user enclave remote attestation -- the challenge round
    // trip, the quote and its verification over the WAN. The client
    // receives this report and, per the protocol, starts trusting the
    // platform.
    clock.spend("SGX-FPGA: user enclave RA",
                cost.rpc(sim::LinkKind::Wan, 64, 4096) +
                    cost.quoteCreation() +
                    cost.quoteVerificationOver(sim::LinkKind::Wan));
    t.reportIssuedAt = clock.now();

    // Stage 2: host enclave attests the SM-equivalent enclave.
    clock.spend("SGX-FPGA: enclave-to-enclave",
                cost.localAttestation());

    // Stage 3: FPGA PUF challenge-response over PCIe, only now.
    clock.spend("SGX-FPGA: PUF attestation",
                4 * cost.pcieRtt + 2 * cost.smLogicMac);
    t.clAuthentic = db.authenticate(device);
    t.clAttestedAt = clock.now();

    return t;
}

} // namespace salus::baseline
