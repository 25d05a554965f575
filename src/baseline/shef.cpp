#include "baseline/shef.hpp"

#include "common/serde.hpp"
#include "crypto/ct.hpp"
#include "crypto/hmac.hpp"

namespace salus::baseline {

crypto::Ed25519KeyPair
shefManufacturerRoot(ByteView seed)
{
    Bytes material = crypto::hmacSha256(seed, ByteView());
    crypto::Ed25519KeyPair kp;
    kp.seed = material;
    kp.publicKey = crypto::ed25519PublicKey(kp.seed);
    return kp;
}

Bytes
ShefDeviceCert::signedPortion() const
{
    BinaryWriter w;
    w.writeString(deviceId);
    w.writeBytes(devicePublicKey);
    return w.take();
}

Bytes
ShefAttestation::signedPortion() const
{
    BinaryWriter w;
    w.writeBytes(measurement);
    w.writeBytes(nonce);
    return w.take();
}

ShefDevice::ShefDevice(std::string deviceId, ByteView manufacturerRootSeed,
                       crypto::RandomSource &rng)
    : deviceId_(std::move(deviceId)),
      deviceKey_(crypto::ed25519Generate(rng))
{
    crypto::Ed25519KeyPair root =
        shefManufacturerRoot(manufacturerRootSeed);
    cert_.deviceId = deviceId_;
    cert_.devicePublicKey = deviceKey_.publicKey;
    cert_.signature =
        crypto::ed25519Sign(root.seed, cert_.signedPortion());
}

ShefAttestation
ShefDevice::loadAndAttest(ByteView bitstream, ByteView nonce,
                          sim::VirtualClock &clock,
                          const sim::CostModel &cost)
{
    // Hash of the full bitstream on the embedded security kernel,
    // then one signature operation -- the dominant boot costs.
    clock.spend(kShefMeasurePhase,
                sim::transferTime(cost.shefMeasureBytesPerSec,
                                  bitstream.size()));
    clock.spend(kShefSignPhase, cost.shefSignatureOp);

    ShefAttestation att;
    att.measurement = crypto::Sha256::digest(bitstream);
    att.nonce = Bytes(nonce.begin(), nonce.end());
    att.signature =
        crypto::ed25519Sign(deviceKey_.seed, att.signedPortion());
    att.cert = cert_;
    return att;
}

ShefVerifier::ShefVerifier(Bytes manufacturerRootPub,
                           Bytes expectedMeasurement)
    : rootPub_(std::move(manufacturerRootPub)),
      expectedMeasurement_(std::move(expectedMeasurement))
{
}

bool
ShefVerifier::verify(const ShefAttestation &att, ByteView nonce,
                     sim::VirtualClock &clock,
                     const sim::CostModel &cost) const
{
    // CA chain fetches + the verification round trip, over WAN.
    clock.spend(kShefCaPhase,
                sim::Nanos(cost.shefCaRoundTrips) *
                        cost.rpc(sim::LinkKind::Wan, 1024, 8192) +
                    cost.rpc(sim::LinkKind::Wan, 256, 4096));
    clock.spend(kShefVerifyPhase, cost.shefSignatureOp);

    if (!crypto::ed25519Verify(rootPub_, att.cert.signedPortion(),
                               att.cert.signature)) {
        return false;
    }
    if (!crypto::ed25519Verify(att.cert.devicePublicKey,
                               att.signedPortion(), att.signature)) {
        return false;
    }
    if (!crypto::ctEqual(att.measurement, expectedMeasurement_))
        return false;
    if (att.nonce != Bytes(nonce.begin(), nonce.end()))
        return false;
    return true;
}

} // namespace salus::baseline
