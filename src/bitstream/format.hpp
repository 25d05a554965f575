/**
 * @file
 * Partial-bitstream container format.
 *
 * A bitstream *file* is raw bytes — that is what the developer ships,
 * what the SM enclave digests and patches, and what gets encrypted.
 * The device parses a decrypted file's header with parseFileHeader()
 * and decrypts the body straight into its frames; the parsed view
 * (`Bitstream`) serves the cleartext (legacy) load. Layout:
 *
 *   "SBIT" | u16 version | deviceModel | u32 partitionId |
 *   u32 frameStart | u32 frameCount | u32 frameSize |
 *   body (frameCount*frameSize bytes, length-prefixed) | u32 crc32
 *
 * The body length is fixed by the partition geometry regardless of
 * design contents — the paper's Observation 2 and §6.3's "bitstream
 * size only depends on the reserved area" both hinge on this.
 */

#ifndef SALUS_BITSTREAM_FORMAT_HPP
#define SALUS_BITSTREAM_FORMAT_HPP

#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "netlist/netlist.hpp"

namespace salus::bitstream {

/** Geometry and capacity of one reconfigurable partition. */
struct PartitionGeometry
{
    uint32_t partitionId = 0;
    uint32_t frameStart = 0; ///< first frame index in config memory
    uint32_t frameCount = 0;
    uint32_t frameSize = 256; ///< bytes per frame
    netlist::ResourceVector capacity;

    size_t bodyBytes() const { return size_t(frameCount) * frameSize; }
};

/** Parsed plaintext partial bitstream. */
struct Bitstream
{
    uint16_t version = 1;
    std::string deviceModel;
    uint32_t partitionId = 0;
    uint32_t frameStart = 0;
    uint32_t frameCount = 0;
    uint32_t frameSize = 0;
    Bytes body; ///< frameCount * frameSize bytes

    /**
     * The raw file of this header's geometry, of exact size, with the
     * body (frameCount * frameSize bytes at bodyOffsetInFile()) and
     * the trailing CRC word left zero: the compiler fills the body in
     * place, then calls refreshFileCrc(). Ignores `body`.
     */
    Bytes emptyFile() const;

    /**
     * Parses and validates a raw file (magic, sizes, CRC).
     * @throws BitstreamError on any structural violation.
     */
    static Bitstream fromFile(ByteView file);

    /** Byte offset of the body within the serialized file. */
    size_t bodyOffsetInFile() const;
};

/** The header fields of a raw bitstream file, read without its body. */
struct FileHeader
{
    uint16_t version = 1;
    std::string deviceModel;
    uint32_t partitionId = 0;
    uint32_t frameStart = 0;
    uint32_t frameCount = 0;
    uint32_t frameSize = 0;
    size_t bodyOffset = 0; ///< first of the frameCount * frameSize body bytes
};

/** Copies `len` bytes of a file, starting at `offset`, to `out`. */
using FileReader =
    std::function<void(size_t offset, uint8_t *out, size_t len)>;

/**
 * Parses a raw file's header through `read`, so the file need not be
 * in memory (the device decrypts it piece by piece), and checks its
 * structure: magic, field sizes, a body that runs exactly to the CRC
 * word, and a body length that matches the geometry. Does not check
 * the CRC. `read` is only asked for bytes inside the file.
 * @throws BitstreamError on any structural violation.
 */
FileHeader parseFileHeader(size_t fileSize, const FileReader &read);

/** Offset of the body for a file with the given header fields. */
size_t bitstreamBodyOffset(const std::string &deviceModel);

/** Recomputes the trailing CRC of a raw bitstream file in place. */
void refreshFileCrc(Bytes &file);

/** Checks only the trailing CRC of a raw file. */
bool fileCrcValid(ByteView file);

} // namespace salus::bitstream

#endif // SALUS_BITSTREAM_FORMAT_HPP
