/**
 * @file
 * Bitstream encryption (paper §2.3, §5.2: AES-GCM-256 matching the
 * Vivado/xapp1267 scheme). The SM enclave encrypts the manipulated
 * bitstream under the per-device eFUSE key; only the FPGA fabric's
 * internal decrypt engine can open it, so the shell that carries the
 * blob learns nothing about the injected secrets.
 *
 * Envelope layout (clear header doubles as GCM AAD):
 *   "SENC" | deviceModel | u32 partitionId | iv(12) | ct | tag(16)
 */

#ifndef SALUS_BITSTREAM_ENCRYPTOR_HPP
#define SALUS_BITSTREAM_ENCRYPTOR_HPP

#include <optional>
#include <span>
#include <string>

#include "common/bytes.hpp"
#include "crypto/random.hpp"

namespace salus::bitstream {

/** Clear (authenticated) header of an encrypted bitstream. */
struct EncryptedHeader
{
    std::string deviceModel;
    uint32_t partitionId = 0;
};

/**
 * Encrypts a raw bitstream file for a device.
 * @param deviceKey the 32-byte AES key fused into the target device.
 */
Bytes encryptBitstream(ByteView rawFile, ByteView deviceKey,
                       const EncryptedHeader &header,
                       crypto::RandomSource &rng);

/** Reads the clear header without any key (shell routing needs it). */
EncryptedHeader peekEncryptedHeader(ByteView blob);

/**
 * Decrypts and authenticates; nullopt when the key is wrong or the
 * blob was tampered with — the device refuses to configure.
 */
std::optional<Bytes> decryptBitstream(ByteView blob, ByteView deviceKey);

/** The parts of an encrypted blob, as views into it. */
struct SealedBitstream
{
    ByteView aad; ///< the clear header, magic through IV: the GCM AAD
    ByteView iv;
    ByteView ciphertext; ///< the encrypted bitstream file
    ByteView tag;
};

/**
 * Splits a blob into its parts without copying. Nothing is
 * authenticated yet. nullopt when the envelope is malformed.
 */
std::optional<SealedBitstream> parseSealedBitstream(ByteView blob);

/**
 * An encrypted blob built in place around one copy of a raw file: the
 * SM enclave's single bitstream buffer. The constructor copies the
 * file into the blob's layout, with room left for the clear header in
 * front and the tag behind. The caller digests and patches file()
 * where it lies, then seal() encrypts it there, so the bytes that
 * were digested are the bytes that get sealed, and the finished blob
 * holds only ciphertext.
 */
class BitstreamEnvelope
{
  public:
    BitstreamEnvelope(EncryptedHeader header, ByteView rawFile);

    /** The plaintext file inside the blob (until seal()). */
    std::span<uint8_t> file();

    /**
     * Draws the IV, writes the clear header, encrypts file() in place
     * and appends the tag.
     * @return the finished blob; the envelope is spent.
     * @throws CryptoError unless deviceKey is an AES-256 key.
     */
    Bytes seal(ByteView deviceKey, crypto::RandomSource &rng) &&;

  private:
    EncryptedHeader header_;
    size_t fileOffset_;
    Bytes blob_;
};

} // namespace salus::bitstream

#endif // SALUS_BITSTREAM_ENCRYPTOR_HPP
