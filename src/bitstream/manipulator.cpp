#include "bitstream/manipulator.hpp"

#include <cstring>

#include "bitstream/crc32.hpp"
#include "common/errors.hpp"

namespace salus::bitstream {

namespace {

LogicLocationEntry
lookup(const LogicLocationFile &ll, const std::string &cellPath,
       size_t fileSize)
{
    auto entry = ll.find(cellPath);
    if (!entry)
        throw BitstreamError("no logic location for cell " + cellPath);
    // The span must end before the trailing CRC word. Offsets come
    // from metadata bytes, so compare without wrapping either side.
    if (fileSize < 4)
        throw BitstreamError("bitstream file too short");
    const uint64_t limit = fileSize - 4;
    if (entry->fileOffset > limit || entry->length > limit - entry->fileOffset)
        throw BitstreamError("logic location outside bitstream file");
    return *entry;
}

} // namespace

void
Manipulator::patchCell(std::span<uint8_t> file, const LogicLocationFile &ll,
                       const std::string &cellPath, ByteView newInit)
{
    LogicLocationEntry entry = lookup(ll, cellPath, file.size());
    if (newInit.size() != entry.length) {
        throw BitstreamError(
            "init size mismatch for " + cellPath + ": got " +
            std::to_string(newInit.size()) + ", cell holds " +
            std::to_string(entry.length));
    }
    // Fold the patch into the CRC word instead of re-reading the file:
    // the CRC moves by the CRC of the XOR delta, shifted across the
    // bytes between the cell and the CRC word.
    uint8_t *cell = file.data() + entry.fileOffset;
    Bytes delta(newInit.begin(), newInit.end());
    for (size_t i = 0; i < delta.size(); ++i)
        delta[i] ^= cell[i];
    std::memcpy(cell, newInit.data(), newInit.size());
    uint8_t *crcWord = file.data() + file.size() - 4;
    uint64_t tail = uint64_t(crcWord - cell) - newInit.size();
    storeLe32(crcWord, loadLe32(crcWord) ^ crc32Delta(delta, tail));
}

Bytes
Manipulator::readCell(ByteView file, const LogicLocationFile &ll,
                      const std::string &cellPath)
{
    LogicLocationEntry entry = lookup(ll, cellPath, file.size());
    return Bytes(file.begin() + entry.fileOffset,
                 file.begin() + entry.fileOffset + entry.length);
}

} // namespace salus::bitstream
