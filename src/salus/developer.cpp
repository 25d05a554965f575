#include "salus/developer.hpp"

#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crypto/ct.hpp"
#include "crypto/sha256.hpp"

namespace salus::core {

Bytes
ClArtifact::signedPortion() const
{
    BinaryWriter w;
    w.writeString(name);
    w.writeBytes(metadata);
    return w.take();
}

Bytes
ClArtifact::serialize() const
{
    BinaryWriter w;
    w.writeString(name);
    w.writeBytes(bitstream);
    w.writeBytes(metadata);
    w.writeBytes(developerPubKey);
    w.writeBytes(signature);
    return w.take();
}

ClArtifact
ClArtifact::deserialize(ByteView data)
{
    try {
        BinaryReader r(data);
        ClArtifact a;
        a.name = r.readString();
        a.bitstream = r.readBytes();
        a.metadata = r.readBytes();
        a.developerPubKey = r.readBytes();
        a.signature = r.readBytes();
        return a;
    } catch (const SerdeError &e) {
        throw SalusError(std::string("artifact parse: ") + e.what());
    }
}

bool
verifyArtifact(const ClArtifact &artifact, ByteView expectedDeveloperKey)
{
    if (!expectedDeveloperKey.empty() &&
        Bytes(expectedDeveloperKey.begin(), expectedDeveloperKey.end()) !=
            artifact.developerPubKey) {
        return false;
    }
    if (!crypto::ed25519Verify(artifact.developerPubKey,
                               artifact.signedPortion(),
                               artifact.signature)) {
        return false;
    }
    // The signed metadata pins H; the carried bitstream must match it.
    ClMetadata meta;
    try {
        meta = ClMetadata::deserialize(artifact.metadata);
    } catch (const SalusError &) {
        return false;
    }
    return crypto::ctEqual(crypto::Sha256::digest(artifact.bitstream),
                           meta.digestH);
}

DeveloperKit::DeveloperKit(std::string developerName,
                           crypto::RandomSource &rng)
    : name_(std::move(developerName)),
      identity_(crypto::ed25519Generate(rng))
{
}

ClArtifact
DeveloperKit::develop(const std::string &releaseName,
                      netlist::Cell accelCell,
                      const fpga::DeviceModelInfo &deviceModel,
                      uint32_t partitionId)
{
    const auto *partition = deviceModel.findPartition(partitionId);
    if (!partition)
        throw SalusError("develop: unknown partition");

    ClDesign design =
        buildClDesign(releaseName + "_top", std::move(accelCell));
    lastLayout_ = design.layout;

    bitstream::Compiler compiler(deviceModel.name);
    bitstream::CompiledDesign compiled =
        compiler.compile(design.netlist, *partition);
    lastUtilization_ = compiled.utilization;

    ClMetadata meta;
    meta.digestH = crypto::Sha256::digest(compiled.file);
    meta.logicLocations = compiled.logicLocations.serialize();
    meta.keyAttestPath = design.layout.keyAttestPath;
    meta.keySessionPath = design.layout.keySessionPath;
    meta.ctrSessionPath = design.layout.ctrSessionPath;

    ClArtifact artifact;
    artifact.name = releaseName;
    artifact.bitstream = std::move(compiled.file);
    artifact.metadata = meta.serialize();
    artifact.developerPubKey = identity_.publicKey;
    artifact.signature = crypto::ed25519Sign(identity_.seed,
                                             artifact.signedPortion());
    return artifact;
}

} // namespace salus::core
