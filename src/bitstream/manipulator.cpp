#include "bitstream/manipulator.hpp"

#include <cstring>

#include "bitstream/format.hpp"
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
Manipulator::patchCell(Bytes &file, const LogicLocationFile &ll,
                       const std::string &cellPath, ByteView newInit)
{
    LogicLocationEntry entry = lookup(ll, cellPath, file.size());
    if (newInit.size() != entry.length) {
        throw BitstreamError(
            "init size mismatch for " + cellPath + ": got " +
            std::to_string(newInit.size()) + ", cell holds " +
            std::to_string(entry.length));
    }
    std::memcpy(file.data() + entry.fileOffset, newInit.data(),
                newInit.size());
    refreshFileCrc(file);
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
