#include "crypto/aes_ctr.hpp"

#include <cstring>

#include "common/errors.hpp"

namespace salus::crypto {

namespace {

void
addBe128(uint8_t ctr[16], uint64_t delta)
{
    // Add delta to the low 64 bits, propagate carry into the high half.
    uint64_t low = loadBe64(ctr + 8);
    uint64_t sum = low + delta;
    storeBe64(ctr + 8, sum);
    if (sum < low) {
        uint64_t high = loadBe64(ctr);
        storeBe64(ctr, high + 1);
    }
}

} // namespace

AesCtr::AesCtr(ByteView key, ByteView counterBlock)
{
    owned_.emplace(key);
    aes_ = &*owned_;
    init(counterBlock);
}

AesCtr::AesCtr(const Aes &aes, ByteView counterBlock) : aes_(&aes)
{
    init(counterBlock);
}

AesCtr::~AesCtr()
{
    secureZero(keystream_, sizeof(keystream_));
}

void
AesCtr::init(ByteView counterBlock)
{
    if (counterBlock.size() != kAesBlockSize)
        throw CryptoError("AES-CTR counter block must be 16 bytes");
    std::memcpy(counter0_, counterBlock.data(), kAesBlockSize);
    std::memcpy(counter_, counterBlock.data(), kAesBlockSize);
    used_ = kAesBlockSize;
}

void
AesCtr::crypt(uint8_t *data, size_t len)
{
    size_t i = 0;
    // Keystream left over from a previous partial block comes first.
    while (used_ < kAesBlockSize && i < len)
        data[i++] ^= keystream_[used_++];
    size_t blocks = (len - i) / kAesBlockSize;
    if (blocks > 0) {
        aes_->ctrXor(counter_, data + i, data + i, blocks);
        i += blocks * kAesBlockSize;
    }
    if (i < len) {
        // Partial tail: one keystream block, the rest kept for later.
        std::memset(keystream_, 0, sizeof(keystream_));
        aes_->ctrXor(counter_, keystream_, keystream_, 1);
        used_ = 0;
        while (i < len)
            data[i++] ^= keystream_[used_++];
    }
}

Bytes
AesCtr::crypt(ByteView data)
{
    Bytes out(data.begin(), data.end());
    crypt(out.data(), out.size());
    return out;
}

void
AesCtr::seekBlock(uint64_t blockIndex)
{
    std::memcpy(counter_, counter0_, kAesBlockSize);
    addBe128(counter_, blockIndex);
    used_ = kAesBlockSize;
}

Bytes
aesCtrCrypt(ByteView key, ByteView counterBlock, ByteView data)
{
    AesCtr ctr(key, counterBlock);
    return ctr.crypt(data);
}

} // namespace salus::crypto
