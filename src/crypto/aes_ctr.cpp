#include "crypto/aes_ctr.hpp"

#include <algorithm>
#include <cstring>

#include "common/errors.hpp"

namespace salus::crypto {

namespace {

void
incrementBe128(uint8_t ctr[16])
{
    for (int i = 15; i >= 0; --i) {
        if (++ctr[i] != 0)
            break;
    }
}

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
    used_ = 0;
    avail_ = 0;
}

void
AesCtr::refill(size_t wantBytes)
{
    // Generate only as many blocks as the caller still needs (capped
    // at the batch): a one-block message stays one encrypt, bulk
    // payloads get the full pipelined batch.
    size_t blocks = std::min(
        kBatchBlocks,
        (wantBytes + kAesBlockSize - 1) / kAesBlockSize);
    if (blocks == 0)
        blocks = 1;
    uint8_t counters[kBatchBlocks * kAesBlockSize];
    for (size_t i = 0; i < blocks; ++i) {
        std::memcpy(counters + i * kAesBlockSize, counter_,
                    kAesBlockSize);
        incrementBe128(counter_);
    }
    aes_->encryptBlocks(counters, keystream_, blocks);
    used_ = 0;
    avail_ = blocks * kAesBlockSize;
}

void
AesCtr::crypt(uint8_t *data, size_t len)
{
    size_t i = 0;
    while (i < len) {
        if (used_ == avail_)
            refill(len - i);
        size_t chunk = std::min(avail_ - used_, len - i);
        // Byte-granular head until the keystream cursor is 8-aligned
        // (only ever non-empty after a partial-block previous call).
        while ((used_ & 7) != 0 && chunk > 0) {
            data[i++] ^= keystream_[used_++];
            --chunk;
        }
        // Word-wise body: whole 64-bit lanes of keystream at a time.
        while (chunk >= 8) {
            uint64_t d, k;
            std::memcpy(&d, data + i, 8);
            std::memcpy(&k, keystream_ + used_, 8);
            d ^= k;
            std::memcpy(data + i, &d, 8);
            i += 8;
            used_ += 8;
            chunk -= 8;
        }
        // Byte-granular tail.
        while (chunk > 0) {
            data[i++] ^= keystream_[used_++];
            --chunk;
        }
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
    used_ = 0;
    avail_ = 0;
}

Bytes
aesCtrCrypt(ByteView key, ByteView counterBlock, ByteView data)
{
    AesCtr ctr(key, counterBlock);
    return ctr.crypt(data);
}

} // namespace salus::crypto
