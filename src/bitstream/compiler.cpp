#include "bitstream/compiler.hpp"

#include <cstring>

#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crypto/random.hpp"

namespace salus::bitstream {

namespace {

/** Body layout: magic, payload offset/length, pad, payload, filler. */
constexpr uint32_t kBodyMagic = 0x534e4c42; // "SNLB"
constexpr size_t kBodyHeader = 12;

} // namespace

CompiledDesign
Compiler::compile(const netlist::Netlist &design,
                  const PartitionGeometry &geometry) const
{
    netlist::ResourceVector used = design.totalResources();
    if (!used.fitsWithin(geometry.capacity)) {
        throw BitstreamError(
            "design does not fit partition capacity (LUT " +
            std::to_string(used.luts) + "/" +
            std::to_string(geometry.capacity.luts) + ")");
    }

    std::vector<netlist::BramSpan> spans;
    Bytes payload = design.serializeWithSpans(spans);

    size_t bodySize = geometry.bodyBytes();
    if (kBodyHeader + payload.size() > bodySize) {
        throw BitstreamError("design payload exceeds partition frames (" +
                             std::to_string(payload.size()) + " > " +
                             std::to_string(bodySize) + " bytes)");
    }

    // Content-dependent placement: derive the payload offset from the
    // design digest, like P&R producing a different floorplan per
    // design revision.
    Bytes digest = design.digest();
    size_t slack = bodySize - kBodyHeader - payload.size();
    size_t maxPad = std::min(slack, size_t(4096));
    size_t pad = maxPad ? (loadLe32(digest.data()) % maxPad) : 0;
    size_t payloadOffset = kBodyHeader + pad;

    // The file is written in place: header, then the body straight
    // into its slot, then the CRC into the room left for it.
    Bitstream bs;
    bs.deviceModel = deviceModel_;
    bs.partitionId = geometry.partitionId;
    bs.frameStart = geometry.frameStart;
    bs.frameCount = geometry.frameCount;
    bs.frameSize = geometry.frameSize;

    CompiledDesign out;
    out.file = bs.emptyFile();
    out.utilization = used;
    size_t bodyFileOffset = bs.bodyOffsetInFile();
    uint8_t *body = out.file.data() + bodyFileOffset;
    storeLe32(body, kBodyMagic);
    storeLe32(body + 4, uint32_t(payloadOffset));
    storeLe32(body + 8, uint32_t(payload.size()));

    // Deterministic filler standing in for the configuration of
    // unused cells (real partial bitstreams configure every cell of
    // the region, used or not -- paper Observation 2).
    crypto::CtrDrbg filler(digest);
    filler.fill(body + kBodyHeader, bodySize - kBodyHeader);

    std::memcpy(body + payloadOffset, payload.data(), payload.size());
    refreshFileCrc(out.file);

    for (const auto &s : spans) {
        LogicLocationEntry e;
        e.cellPath = s.path;
        e.fileOffset = bodyFileOffset + payloadOffset + s.offset;
        e.length = uint32_t(s.length);
        out.logicLocations.add(std::move(e));
    }
    return out;
}

netlist::Netlist
extractDesign(ByteView body)
{
    if (body.size() < kBodyHeader)
        throw BitstreamError("body too short");
    if (loadLe32(body.data()) != kBodyMagic)
        throw BitstreamError("body carries no valid design");
    uint32_t offset = loadLe32(body.data() + 4);
    uint32_t length = loadLe32(body.data() + 8);
    if (size_t(offset) + length > body.size())
        throw BitstreamError("design payload out of range");
    return netlist::Netlist::deserialize(
        ByteView(body.data() + offset, length));
}

} // namespace salus::bitstream
