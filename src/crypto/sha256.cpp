#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/backend.hpp"
#include "crypto/backend_x86.hpp"

namespace salus::crypto {

namespace {

const uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t
rotr(uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

} // namespace

void
Sha256::reset()
{
    state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    bufLen_ = 0;
    total_ = 0;
}

void
Sha256::compress(const uint8_t block[64])
{
    uint32_t w[64];
    for (int i = 0; i < 16; ++i)
        w[i] = loadBe32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
        uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                      (w[i - 15] >> 3);
        uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                      (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

    for (int i = 0; i < 64; ++i) {
        uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        uint32_t ch = (e & f) ^ (~e & g);
        uint32_t t1 = h + s1 + ch + kK[i] + w[i];
        uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }

    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
}

/** Runs n consecutive 64-byte blocks through the dispatch-selected
 *  compression function in one call. */
void
Sha256::compressMany(const uint8_t *blocks, size_t n)
{
#ifdef SALUS_CRYPTO_HAVE_X86_BACKEND
    if (sha256BackendActive()) {
        x86::shaniSha256Compress(state_.data(), blocks, n);
        return;
    }
#endif
    for (size_t i = 0; i < n; ++i)
        compress(blocks + 64 * i);
}

void
Sha256::update(ByteView data)
{
    if (data.empty())
        return;
    total_ += data.size();
    size_t off = 0;
    if (bufLen_ > 0) {
        size_t take = std::min(data.size(), size_t(64) - bufLen_);
        std::memcpy(buf_ + bufLen_, data.data(), take);
        bufLen_ += take;
        off = take;
        if (bufLen_ == 64) {
            compressMany(buf_, 1);
            bufLen_ = 0;
        }
    }
    size_t full = (data.size() - off) / 64;
    if (full > 0) {
        compressMany(data.data() + off, full);
        off += full * 64;
    }
    if (off < data.size()) {
        std::memcpy(buf_ + bufLen_, data.data() + off, data.size() - off);
        bufLen_ += data.size() - off;
    }
}

void
Sha256::finish(uint8_t *out)
{
    uint64_t bitLen = total_ * 8;
    uint8_t pad[72] = {0x80};
    size_t padLen = (bufLen_ < 56) ? (56 - bufLen_) : (120 - bufLen_);
    update(ByteView(pad, padLen));
    uint8_t lenBytes[8];
    storeBe64(lenBytes, bitLen);
    update(ByteView(lenBytes, 8));

    for (int i = 0; i < 8; ++i)
        storeBe32(out + 4 * i, state_[i]);
    reset();
}

Bytes
Sha256::finish()
{
    Bytes out(kSha256DigestSize);
    finish(out.data());
    return out;
}

Bytes
Sha256::digest(ByteView data)
{
    Sha256 h;
    h.update(data);
    return h.finish();
}

} // namespace salus::crypto
