#include "crypto/aes.hpp"

#include <cstring>

#include "common/errors.hpp"
#include "crypto/backend.hpp"
#include "crypto/backend_x86.hpp"

namespace salus::crypto {

namespace {

const uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5,
    0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc,
    0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85,
    0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17,
    0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88,
    0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9,
    0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6,
    0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94,
    0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68,
    0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
};

struct InvSbox
{
    uint8_t tbl[256];

    InvSbox()
    {
        for (int i = 0; i < 256; ++i)
            tbl[kSbox[i]] = uint8_t(i);
    }
};

const InvSbox kInvSbox;

/**
 * Encryption T-tables (generated from the S-box at startup, nothing
 * hardcoded): Te0[x] = (2*S[x], S[x], S[x], 3*S[x]) packed big-endian;
 * the other three tables are byte rotations of Te0.
 */
struct EncTables
{
    uint32_t te0[256], te1[256], te2[256], te3[256];

    EncTables()
    {
        for (int i = 0; i < 256; ++i) {
            uint8_t s = kSbox[i];
            uint8_t s2 = uint8_t((s << 1) ^ ((s >> 7) * 0x1b));
            uint8_t s3 = uint8_t(s2 ^ s);
            uint32_t w = (uint32_t(s2) << 24) | (uint32_t(s) << 16) |
                         (uint32_t(s) << 8) | s3;
            te0[i] = w;
            te1[i] = (w >> 8) | (w << 24);
            te2[i] = (w >> 16) | (w << 16);
            te3[i] = (w >> 24) | (w << 8);
        }
    }
};

const EncTables kTe;

inline uint8_t
xtime(uint8_t x)
{
    return uint8_t((x << 1) ^ ((x >> 7) * 0x1b));
}

/** GF(2^8) multiply, only used with small constants. */
inline uint8_t
gmul(uint8_t a, uint8_t b)
{
    uint8_t p = 0;
    for (int i = 0; i < 8; ++i) {
        if (b & 1)
            p ^= a;
        a = xtime(a);
        b >>= 1;
    }
    return p;
}

inline uint32_t
subWord(uint32_t w)
{
    return (uint32_t(kSbox[(w >> 24) & 0xff]) << 24) |
           (uint32_t(kSbox[(w >> 16) & 0xff]) << 16) |
           (uint32_t(kSbox[(w >> 8) & 0xff]) << 8) |
           uint32_t(kSbox[w & 0xff]);
}

inline uint32_t
rotWord(uint32_t w)
{
    return (w << 8) | (w >> 24);
}

} // namespace

Aes::Aes(ByteView key)
{
    int nk;
    switch (key.size()) {
      case 16: nk = 4; rounds_ = 10; break;
      case 24: nk = 6; rounds_ = 12; break;
      case 32: nk = 8; rounds_ = 14; break;
      default:
        throw CryptoError("AES key must be 16/24/32 bytes");
    }

    const int nw = 4 * (rounds_ + 1);
    for (int i = 0; i < nk; ++i)
        roundKeys_[i] = loadBe32(key.data() + 4 * i);

    uint32_t rcon = 0x01000000;
    for (int i = nk; i < nw; ++i) {
        uint32_t temp = roundKeys_[i - 1];
        if (i % nk == 0) {
            temp = subWord(rotWord(temp)) ^ rcon;
            rcon = uint32_t(xtime(uint8_t(rcon >> 24))) << 24;
        } else if (nk > 6 && i % nk == 4) {
            temp = subWord(temp);
        }
        roundKeys_[i] = roundKeys_[i - nk] ^ temp;
    }

    // Cache the byte form once per key; the hardware backend loads
    // round keys straight from it on every encrypt call.
    for (int i = 0; i < nw; ++i)
        storeBe32(roundKeyBytes_.data() + 4 * i, roundKeys_[i]);
}

Aes::~Aes()
{
    secureZero(reinterpret_cast<uint8_t *>(roundKeys_.data()),
               roundKeys_.size() * sizeof(uint32_t));
    secureZero(roundKeyBytes_.data(), roundKeyBytes_.size());
}

namespace {

inline void
addRoundKey(uint8_t s[16], const uint32_t *rk)
{
    for (int c = 0; c < 4; ++c) {
        uint32_t w = rk[c];
        s[4 * c + 0] ^= uint8_t(w >> 24);
        s[4 * c + 1] ^= uint8_t(w >> 16);
        s[4 * c + 2] ^= uint8_t(w >> 8);
        s[4 * c + 3] ^= uint8_t(w);
    }
}

inline void
invShiftRows(uint8_t s[16])
{
    uint8_t t[16];
    for (int c = 0; c < 4; ++c)
        for (int r = 0; r < 4; ++r)
            t[4 * ((c + r) & 3) + r] = s[4 * c + r];
    std::memcpy(s, t, 16);
}

inline void
invMixColumns(uint8_t s[16])
{
    for (int c = 0; c < 4; ++c) {
        uint8_t *col = s + 4 * c;
        uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = uint8_t(gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^
                         gmul(a3, 9));
        col[1] = uint8_t(gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^
                         gmul(a3, 13));
        col[2] = uint8_t(gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^
                         gmul(a3, 11));
        col[3] = uint8_t(gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^
                         gmul(a3, 14));
    }
}

} // namespace

void
Aes::encryptBlock(const uint8_t in[16], uint8_t out[16]) const
{
#ifdef SALUS_CRYPTO_HAVE_X86_BACKEND
    if (aesBackendActive()) {
        x86::aesniEcbEncrypt(roundKeyBytes_.data(), rounds_, in, out,
                             1, false);
        return;
    }
#endif
    encryptBlockScalar(in, out);
}

void
Aes::encryptBlocks(const uint8_t *in, uint8_t *out, size_t n) const
{
#ifdef SALUS_CRYPTO_HAVE_X86_BACKEND
    if (aesBackendActive()) {
        x86::aesniEcbEncrypt(roundKeyBytes_.data(), rounds_, in, out,
                             n, backendInfo().vaes);
        return;
    }
#endif
    for (size_t i = 0; i < n; ++i)
        encryptBlockScalar(in + 16 * i, out + 16 * i);
}

void
Aes::ctrXor(uint8_t ctr[16], const uint8_t *in, uint8_t *out,
            size_t nBlocks) const
{
    while (nBlocks > 0) {
        // Split where the low 64 counter bits wrap: the kernel steps
        // only that half, and the carry into the high half lands here.
        const uint64_t low = loadBe64(ctr + 8);
        size_t run = nBlocks;
        if (uint64_t(run - 1) > ~low)
            run = size_t(~low) + 1;
#ifdef SALUS_CRYPTO_HAVE_X86_BACKEND
        if (aesBackendActive()) {
            x86::aesniCtrXor(roundKeyBytes_.data(), rounds_, ctr, in, out,
                             run, backendInfo().vaes,
                             backendInfo().vaes512);
        } else
#endif
        {
            uint8_t block[16], ks[16];
            std::memcpy(block, ctr, 8);
            for (size_t i = 0; i < run; ++i) {
                storeBe64(block + 8, low + i);
                encryptBlockScalar(block, ks);
                for (size_t w = 0; w < 16; w += 8) {
                    uint64_t d, k;
                    std::memcpy(&d, in + 16 * i + w, 8);
                    std::memcpy(&k, ks + w, 8);
                    d ^= k;
                    std::memcpy(out + 16 * i + w, &d, 8);
                }
            }
            secureZero(ks, sizeof(ks));
        }
        const uint64_t next = low + run;
        storeBe64(ctr + 8, next);
        if (next < low)
            storeBe64(ctr, loadBe64(ctr) + 1);
        in += 16 * run;
        out += 16 * run;
        nBlocks -= run;
    }
}

void
Aes::encryptBlockScalar(const uint8_t in[16], uint8_t out[16]) const
{
    const uint32_t *rk = roundKeys_.data();
    uint32_t s0 = loadBe32(in) ^ rk[0];
    uint32_t s1 = loadBe32(in + 4) ^ rk[1];
    uint32_t s2 = loadBe32(in + 8) ^ rk[2];
    uint32_t s3 = loadBe32(in + 12) ^ rk[3];

    // T-table rounds with ShiftRows folded into the byte selection.
    for (int round = 1; round < rounds_; ++round) {
        rk += 4;
        uint32_t t0 = kTe.te0[s0 >> 24] ^ kTe.te1[(s1 >> 16) & 0xff] ^
                      kTe.te2[(s2 >> 8) & 0xff] ^ kTe.te3[s3 & 0xff] ^
                      rk[0];
        uint32_t t1 = kTe.te0[s1 >> 24] ^ kTe.te1[(s2 >> 16) & 0xff] ^
                      kTe.te2[(s3 >> 8) & 0xff] ^ kTe.te3[s0 & 0xff] ^
                      rk[1];
        uint32_t t2 = kTe.te0[s2 >> 24] ^ kTe.te1[(s3 >> 16) & 0xff] ^
                      kTe.te2[(s0 >> 8) & 0xff] ^ kTe.te3[s1 & 0xff] ^
                      rk[2];
        uint32_t t3 = kTe.te0[s3 >> 24] ^ kTe.te1[(s0 >> 16) & 0xff] ^
                      kTe.te2[(s1 >> 8) & 0xff] ^ kTe.te3[s2 & 0xff] ^
                      rk[3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
    rk += 4;
    uint32_t o0 = (uint32_t(kSbox[s0 >> 24]) << 24) |
                  (uint32_t(kSbox[(s1 >> 16) & 0xff]) << 16) |
                  (uint32_t(kSbox[(s2 >> 8) & 0xff]) << 8) |
                  kSbox[s3 & 0xff];
    uint32_t o1 = (uint32_t(kSbox[s1 >> 24]) << 24) |
                  (uint32_t(kSbox[(s2 >> 16) & 0xff]) << 16) |
                  (uint32_t(kSbox[(s3 >> 8) & 0xff]) << 8) |
                  kSbox[s0 & 0xff];
    uint32_t o2 = (uint32_t(kSbox[s2 >> 24]) << 24) |
                  (uint32_t(kSbox[(s3 >> 16) & 0xff]) << 16) |
                  (uint32_t(kSbox[(s0 >> 8) & 0xff]) << 8) |
                  kSbox[s1 & 0xff];
    uint32_t o3 = (uint32_t(kSbox[s3 >> 24]) << 24) |
                  (uint32_t(kSbox[(s0 >> 16) & 0xff]) << 16) |
                  (uint32_t(kSbox[(s1 >> 8) & 0xff]) << 8) |
                  kSbox[s2 & 0xff];
    storeBe32(out, o0 ^ rk[0]);
    storeBe32(out + 4, o1 ^ rk[1]);
    storeBe32(out + 8, o2 ^ rk[2]);
    storeBe32(out + 12, o3 ^ rk[3]);
}

void
Aes::decryptBlock(const uint8_t in[16], uint8_t out[16]) const
{
    uint8_t s[16];
    std::memcpy(s, in, 16);

    addRoundKey(s, roundKeys_.data() + 4 * rounds_);
    for (int round = rounds_ - 1; round >= 1; --round) {
        invShiftRows(s);
        for (auto &b : s)
            b = kInvSbox.tbl[b];
        addRoundKey(s, roundKeys_.data() + 4 * round);
        invMixColumns(s);
    }
    invShiftRows(s);
    for (auto &b : s)
        b = kInvSbox.tbl[b];
    addRoundKey(s, roundKeys_.data());

    std::memcpy(out, s, 16);
}

} // namespace salus::crypto
