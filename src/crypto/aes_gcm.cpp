#include "crypto/aes_gcm.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/errors.hpp"
#include "crypto/backend.hpp"
#include "crypto/backend_x86.hpp"
#include "crypto/ct.hpp"

namespace salus::crypto {

namespace {

/**
 * Shoup 4-bit table GHASH key schedule. All tables are derived from H
 * at construction: hh/hl[v] = v-interpreted-nibble * H, red4[r] = the
 * reduction polynomial contribution of 4 bits shifted out of the low
 * end (computed by simulating four single-bit reductions, no magic
 * constants).
 */
struct GhashTables
{
    uint64_t hh[16], hl[16], red4[16];

    GhashTables(uint64_t h0, uint64_t h1)
    {
        for (uint64_t r = 0; r < 16; ++r) {
            uint64_t zh = 0, zl = r;
            for (int b = 0; b < 4; ++b) {
                uint64_t lsb = zl & 1;
                zl = (zl >> 1) | (zh << 63);
                zh >>= 1;
                if (lsb)
                    zh ^= 0xe100000000000000ULL;
            }
            red4[r] = zh;
        }

        hh[8] = h0;
        hl[8] = h1;
        for (int i = 4; i > 0; i >>= 1) {
            uint64_t th = hh[i << 1], tl = hl[i << 1];
            uint64_t lsb = tl & 1;
            tl = (tl >> 1) | (th << 63);
            th >>= 1;
            if (lsb)
                th ^= 0xe100000000000000ULL;
            hh[i] = th;
            hl[i] = tl;
        }
        hh[0] = 0;
        hl[0] = 0;
        for (int i = 2; i < 16; i <<= 1) {
            for (int j = 1; j < i; ++j) {
                hh[i + j] = hh[i] ^ hh[j];
                hl[i + j] = hl[i] ^ hl[j];
            }
        }
    }

    /** (zh, zl) = X * H where X is the 16-byte block. */
    void
    mult(uint64_t &zh, uint64_t &zl, const uint8_t x[16]) const
    {
        uint8_t lo = x[15] & 0xf;
        uint8_t hi = x[15] >> 4;
        zh = hh[lo];
        zl = hl[lo];

        auto fold = [&](uint8_t nibble) {
            uint64_t rem = zl & 0xf;
            zl = (zl >> 4) | (zh << 60);
            zh = (zh >> 4) ^ red4[rem];
            zh ^= hh[nibble];
            zl ^= hl[nibble];
        };
        fold(hi);
        for (int i = 14; i >= 0; --i) {
            fold(x[i] & 0xf);
            fold(x[i] >> 4);
        }
    }
};

} // namespace

/** Streaming GHASH accumulator. With PCLMULQDQ active the blocks go
 *  through the carry-less-multiply backend and the Shoup tables are
 *  never built; the scalar tables are constructed lazily on the first
 *  scalar multiply (they cost more than hashing a short message). */
struct AesGcm::Ghash
{
    uint64_t h0, h1;
    std::optional<GhashTables> tables;
    uint64_t yh = 0, yl = 0;

    Ghash(uint64_t h0In, uint64_t h1In) : h0(h0In), h1(h1In) {}

    /** Absorbs n consecutive 16-byte blocks. */
    void
    blocks(const uint8_t *data, size_t n)
    {
#ifdef SALUS_CRYPTO_HAVE_X86_BACKEND
        if (ghashBackendActive()) {
            x86::pclmulGhashBlocks(yh, yl, data, n, h0, h1,
                                   backendInfo().vaes512);
            return;
        }
#endif
        if (!tables)
            tables.emplace(h0, h1);
        for (size_t i = 0; i < n; ++i, data += 16) {
            uint8_t x[16];
            storeBe64(x, yh ^ loadBe64(data));
            storeBe64(x + 8, yl ^ loadBe64(data + 8));
            tables->mult(yh, yl, x);
        }
    }

    void
    block(const uint8_t b[16])
    {
        blocks(b, 1);
    }

    /** Absorbs data padded with zeros to a block boundary. */
    void
    absorbPadded(ByteView data)
    {
        size_t full = data.size() / 16;
        if (full)
            blocks(data.data(), full);
        size_t rem = data.size() % 16;
        if (rem) {
            uint8_t last[16] = {};
            std::memcpy(last, data.data() + 16 * full, rem);
            block(last);
        }
    }

    void
    lengths(uint64_t aadBytes, uint64_t textBytes)
    {
        uint8_t lenBlock[16];
        storeBe64(lenBlock, aadBytes * 8);
        storeBe64(lenBlock + 8, textBytes * 8);
        block(lenBlock);
    }

    void
    digest(uint8_t out[16]) const
    {
        storeBe64(out, yh);
        storeBe64(out + 8, yl);
    }
};

AesGcm::AesGcm(ByteView key) : aes_(key)
{
    uint8_t zero[16] = {};
    uint8_t h[16];
    aes_.encryptBlock(zero, h);
    h_[0] = loadBe64(h);
    h_[1] = loadBe64(h + 8);
    secureZero(h, 16);
}

AesGcm::~AesGcm()
{
    secureZero(reinterpret_cast<uint8_t *>(h_), sizeof(h_));
}

void
AesGcm::deriveCounter0(ByteView iv, uint8_t j0[16]) const
{
    if (iv.size() == 12) {
        std::memcpy(j0, iv.data(), 12);
        storeBe32(j0 + 12, 1);
    } else {
        Ghash g(h_[0], h_[1]);
        g.absorbPadded(iv);
        g.lengths(0, iv.size());
        g.digest(j0);
    }
}

void
AesGcm::ctrCrypt(const uint8_t j0[16], uint64_t offset, const uint8_t *src,
                 uint8_t *dst, size_t len) const
{
    // Byte `offset` of the text sits in block offset / 16, keyed by
    // inc32^(block + 1)(J0). GCM steps only the low 32 counter bits
    // (inc32, wrapping mod 2^32). Aes::ctrXor steps all 128, which
    // agrees until that word wraps, so the text runs through it in
    // pieces that stop at the wrap; the upper 96 bits are restored
    // from J0 after each piece.
    uint8_t ctr[16];
    std::memcpy(ctr, j0, 16);
    storeBe32(ctr + 12, loadBe32(j0 + 12) + 1 + uint32_t(offset / 16));
    size_t skip = size_t(offset % 16);
    if (skip > 0 && len > 0) {
        uint8_t ks[16] = {};
        aes_.ctrXor(ctr, ks, ks, 1);
        std::memcpy(ctr, j0, 12);
        size_t n = std::min(len, 16 - skip);
        for (size_t i = 0; i < n; ++i)
            dst[i] = uint8_t(src[i] ^ ks[skip + i]);
        secureZero(ks, sizeof(ks));
        src += n;
        dst += n;
        len -= n;
    }
    size_t blocks = len / 16;
    while (blocks > 0) {
        size_t run = size_t(std::min<uint64_t>(
            blocks, (uint64_t(1) << 32) - loadBe32(ctr + 12)));
        aes_.ctrXor(ctr, src, dst, run);
        std::memcpy(ctr, j0, 12);
        src += 16 * run;
        dst += 16 * run;
        blocks -= run;
    }
    size_t tail = len % 16;
    if (tail > 0) {
        uint8_t last[16] = {};
        std::memcpy(last, src, tail);
        aes_.ctrXor(ctr, last, last, 1);
        std::memcpy(dst, last, tail);
        secureZero(last, sizeof(last));
    }
}

void
AesGcm::ctrCryptRaw(const uint8_t j0[16], ByteView in, Bytes &out) const
{
    out.resize(in.size());
    ctrCrypt(j0, 0, in.data(), out.data(), in.size());
}

void
AesGcm::tagOf(const uint8_t j0[16], ByteView aad, ByteView ciphertext,
              uint8_t tag[16]) const
{
    Ghash g(h_[0], h_[1]);
    g.absorbPadded(aad);
    g.absorbPadded(ciphertext);
    g.lengths(aad.size(), ciphertext.size());
    uint8_t s[16];
    g.digest(s);

    uint8_t ekj0[16];
    aes_.encryptBlock(j0, ekj0);
    for (int i = 0; i < 16; ++i)
        tag[i] = uint8_t(s[i] ^ ekj0[i]);
}

void
AesGcm::sealTo(ByteView iv, ByteView aad, const uint8_t *in, uint8_t *out,
               size_t len, uint8_t *tag) const
{
    if (iv.empty())
        throw CryptoError("GCM IV must not be empty");

    uint8_t j0[16];
    deriveCounter0(iv, j0);
    ctrCrypt(j0, 0, in, out, len);
    tagOf(j0, aad, ByteView(out, len), tag);
}

GcmSealed
AesGcm::seal(ByteView iv, ByteView aad, ByteView plaintext) const
{
    GcmSealed out;
    out.ciphertext.resize(plaintext.size());
    out.tag.resize(kGcmTagSize);
    sealTo(iv, aad, plaintext.data(), out.ciphertext.data(),
           plaintext.size(), out.tag.data());
    return out;
}

void
AesGcm::sealInPlace(ByteView iv, ByteView aad, std::span<uint8_t> text,
                    uint8_t *tag) const
{
    sealTo(iv, aad, text.data(), text.data(), text.size(), tag);
}

bool
AesGcm::verify(ByteView iv, ByteView aad, ByteView ciphertext,
               ByteView tag) const
{
    if (iv.empty())
        throw CryptoError("GCM IV must not be empty");
    if (tag.size() != kGcmTagSize)
        return false;

    uint8_t j0[16];
    deriveCounter0(iv, j0);
    uint8_t expect[16];
    tagOf(j0, aad, ciphertext, expect);
    return ctEqual(ByteView(expect, 16), tag);
}

void
AesGcm::cryptAt(ByteView iv, uint64_t offset, const uint8_t *in,
                uint8_t *out, size_t len) const
{
    if (iv.empty())
        throw CryptoError("GCM IV must not be empty");
    uint8_t j0[16];
    deriveCounter0(iv, j0);
    ctrCrypt(j0, offset, in, out, len);
}

bool
AesGcm::openInto(ByteView iv, ByteView aad, ByteView ciphertext,
                 ByteView tag, uint8_t *out) const
{
    if (!verify(iv, aad, ciphertext, tag))
        return false;
    cryptAt(iv, 0, ciphertext.data(), out, ciphertext.size());
    return true;
}

std::optional<Bytes>
AesGcm::open(ByteView iv, ByteView aad, ByteView ciphertext,
             ByteView tag) const
{
    Bytes plain(ciphertext.size());
    if (!openInto(iv, aad, ciphertext, tag, plain.data()))
        return std::nullopt;
    return plain;
}

} // namespace salus::crypto
