#include "bitstream/encryptor.hpp"

#include <cstring>

#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crypto/aes_gcm.hpp"

namespace salus::bitstream {

namespace {

const char kMagic[4] = {'S', 'E', 'N', 'C'};

Bytes
headerBytes(const EncryptedHeader &header, ByteView iv)
{
    BinaryWriter w;
    w.writeRaw(ByteView(reinterpret_cast<const uint8_t *>(kMagic), 4));
    w.writeString(header.deviceModel);
    w.writeU32(header.partitionId);
    w.writeBytes(iv);
    return w.take();
}

} // namespace

BitstreamEnvelope::BitstreamEnvelope(EncryptedHeader header,
                                     ByteView rawFile)
    : header_(std::move(header)),
      // The clear header and the ciphertext's length prefix; the IV
      // is always 12 bytes, so the size is known before it is drawn.
      fileOffset_(headerBytes(header_, Bytes(12)).size() + 4)
{
    blob_.reserve(fileOffset_ + rawFile.size() + 4 + crypto::kGcmTagSize);
    blob_.resize(fileOffset_);
    blob_.insert(blob_.end(), rawFile.begin(), rawFile.end());
    blob_.resize(blob_.size() + 4 + crypto::kGcmTagSize);
}

std::span<uint8_t>
BitstreamEnvelope::file()
{
    return std::span<uint8_t>(blob_).subspan(
        fileOffset_, blob_.size() - fileOffset_ - 4 - crypto::kGcmTagSize);
}

Bytes
BitstreamEnvelope::seal(ByteView deviceKey, crypto::RandomSource &rng) &&
{
    if (deviceKey.size() != 32)
        throw CryptoError("bitstream device key must be AES-256");

    Bytes iv = rng.bytes(12);
    Bytes aad = headerBytes(header_, iv);
    std::span<uint8_t> text = file();
    std::memcpy(blob_.data(), aad.data(), aad.size());
    storeLe32(blob_.data() + aad.size(), uint32_t(text.size()));
    uint8_t *tagField = text.data() + text.size();
    storeLe32(tagField, uint32_t(crypto::kGcmTagSize));
    crypto::AesGcm(deviceKey).sealInPlace(iv, aad, text, tagField + 4);
    return std::move(blob_);
}

Bytes
encryptBitstream(ByteView rawFile, ByteView deviceKey,
                 const EncryptedHeader &header,
                 crypto::RandomSource &rng)
{
    return BitstreamEnvelope(header, rawFile).seal(deviceKey, rng);
}

EncryptedHeader
peekEncryptedHeader(ByteView blob)
{
    try {
        BinaryReader r(blob);
        Bytes magic = r.readRaw(4);
        if (std::memcmp(magic.data(), kMagic, 4) != 0)
            throw BitstreamError("not an encrypted bitstream");
        EncryptedHeader h;
        h.deviceModel = r.readString();
        h.partitionId = r.readU32();
        return h;
    } catch (const SerdeError &e) {
        throw BitstreamError(std::string("encrypted header: ") +
                             e.what());
    }
}

std::optional<SealedBitstream>
parseSealedBitstream(ByteView blob)
{
    try {
        BinaryReader r(blob);
        Bytes magic = r.readRaw(4);
        if (std::memcmp(magic.data(), kMagic, 4) != 0)
            return std::nullopt;
        r.readBytesView(); // deviceModel
        r.readU32();       // partitionId
        SealedBitstream s;
        s.iv = r.readBytesView();
        s.aad = blob.first(blob.size() - r.remaining());
        s.ciphertext = r.readBytesView();
        s.tag = r.readBytesView();
        if (!r.atEnd())
            return std::nullopt;
        return s;
    } catch (const SerdeError &) {
        return std::nullopt;
    }
}

std::optional<Bytes>
decryptBitstream(ByteView blob, ByteView deviceKey)
{
    std::optional<SealedBitstream> s = parseSealedBitstream(blob);
    if (!s)
        return std::nullopt;
    return crypto::AesGcm(deviceKey).open(s->iv, s->aad, s->ciphertext,
                                          s->tag);
}

} // namespace salus::bitstream
