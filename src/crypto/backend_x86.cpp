#include "crypto/backend_x86.hpp"

#ifdef SALUS_CRYPTO_HAVE_X86_BACKEND

#include <immintrin.h>

#include "common/bytes.hpp"

namespace salus::crypto::x86 {

namespace {

// ---- AES-NI / VAES ----------------------------------------------------

/** Loads the serialized round keys into xmm registers. AES-NI's
 *  aesenc round matches FIPS-197 exactly when the round key bytes are
 *  loaded as-is, which is precisely how Aes serializes its schedule
 *  (big-endian words = the spec's byte order). */
__attribute__((target("aes,sse2"))) inline void
loadRoundKeys(const uint8_t *rk, int rounds, __m128i k[15])
{
    for (int r = 0; r <= rounds; ++r)
        k[r] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(rk + 16 * r));
}

/** 8-wide pipelined AES-NI ECB: the aesenc unit is fully pipelined,
 *  so eight independent blocks in flight hide its latency. The
 *  block loops are unrolled explicitly (here and in every kernel
 *  below) so the blocks stay in registers at -O2 as well. */
__attribute__((target("aes,sse2"))) void
ecbAesni(const uint8_t *rk, int rounds, const uint8_t *in,
         uint8_t *out, size_t n)
{
    __m128i k[15];
    loadRoundKeys(rk, rounds, k);
    while (n >= 8) {
        __m128i b[8];
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            b[i] = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in + 16 * i));
            b[i] = _mm_xor_si128(b[i], k[0]);
        }
        for (int r = 1; r < rounds; ++r)
#pragma GCC unroll 8
            for (int i = 0; i < 8; ++i)
                b[i] = _mm_aesenc_si128(b[i], k[r]);
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            b[i] = _mm_aesenclast_si128(b[i], k[rounds]);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 16 * i),
                             b[i]);
        }
        in += 128;
        out += 128;
        n -= 8;
    }
    while (n > 0) {
        __m128i b = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(in));
        b = _mm_xor_si128(b, k[0]);
        for (int r = 1; r < rounds; ++r)
            b = _mm_aesenc_si128(b, k[r]);
        b = _mm_aesenclast_si128(b, k[rounds]);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out), b);
        in += 16;
        out += 16;
        --n;
    }
}

/** 16-wide VAES: two blocks per ymm register, eight registers in
 *  flight. Only the bulk; the tail falls back to the 128-bit path. */
__attribute__((target("vaes,avx2,aes"))) size_t
ecbVaes(const uint8_t *rk, int rounds, const uint8_t *in, uint8_t *out,
        size_t n)
{
    __m256i k[15];
    for (int r = 0; r <= rounds; ++r)
        k[r] = _mm256_broadcastsi128_si256(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(rk + 16 * r)));
    size_t done = 0;
    while (n - done >= 16) {
        __m256i b[8];
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            b[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                in + done * 16 + 32 * i));
            b[i] = _mm256_xor_si256(b[i], k[0]);
        }
        for (int r = 1; r < rounds; ++r)
#pragma GCC unroll 8
            for (int i = 0; i < 8; ++i)
                b[i] = _mm256_aesenc_epi128(b[i], k[r]);
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            b[i] = _mm256_aesenclast_epi128(b[i], k[rounds]);
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(
                                    out + done * 16 + 32 * i),
                                b[i]);
        }
        done += 16;
    }
    _mm256_zeroupper();
    return done;
}

/** Counter-mode kernels keep the counter byte-reversed: the 16-byte
 *  big-endian block becomes a little-endian integer whose low qword
 *  is the counter's low 64 bits, so add_epi64 steps it and one pshufb
 *  per block turns it back into the block aesenc consumes. */
__attribute__((target("ssse3"))) inline __m128i
bswap128(__m128i v)
{
    return _mm_shuffle_epi8(
        v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                        15));
}

/** 8-wide AES-NI CTR starting `first` blocks past ctr: counters are
 *  built in registers and the keystream is XORed over the input as
 *  it leaves the last round. */
__attribute__((target("aes,ssse3"))) void
ctrAesni(const uint8_t *rk, int rounds, const uint8_t *ctr,
         uint64_t first, const uint8_t *in, uint8_t *out, size_t n)
{
    __m128i k[15];
    loadRoundKeys(rk, rounds, k);
    __m128i c = _mm_add_epi64(
        bswap128(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(ctr))),
        _mm_set_epi64x(0, int64_t(first)));
    while (n >= 8) {
        __m128i b[8];
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i)
            b[i] = _mm_xor_si128(
                bswap128(_mm_add_epi64(c, _mm_set_epi64x(0, i))), k[0]);
        c = _mm_add_epi64(c, _mm_set_epi64x(0, 8));
        for (int r = 1; r < rounds; ++r)
#pragma GCC unroll 8
            for (int i = 0; i < 8; ++i)
                b[i] = _mm_aesenc_si128(b[i], k[r]);
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            __m128i d = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in + 16 * i));
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(out + 16 * i),
                _mm_xor_si128(d, _mm_aesenclast_si128(b[i], k[rounds])));
        }
        in += 128;
        out += 128;
        n -= 8;
    }
    for (; n > 0; --n, in += 16, out += 16) {
        __m128i b = _mm_xor_si128(bswap128(c), k[0]);
        c = _mm_add_epi64(c, _mm_set_epi64x(0, 1));
        for (int r = 1; r < rounds; ++r)
            b = _mm_aesenc_si128(b, k[r]);
        __m128i d =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(in));
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(out),
            _mm_xor_si128(d, _mm_aesenclast_si128(b, k[rounds])));
    }
}

/** 16-wide VAES CTR starting `first` blocks past ctr: each ymm
 *  carries counters c+2i and c+2i+1. Runs whole 16-block batches;
 *  returns how many blocks it did. */
__attribute__((target("vaes,avx2,aes"))) size_t
ctrVaes(const uint8_t *rk, int rounds, const uint8_t *ctr,
        uint64_t first, const uint8_t *in, uint8_t *out, size_t n)
{
    __m256i k[15];
    for (int r = 0; r <= rounds; ++r)
        k[r] = _mm256_broadcastsi128_si256(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(rk + 16 * r)));
    const __m256i bswap = _mm256_broadcastsi128_si256(_mm_set_epi8(
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
    __m256i base = _mm256_add_epi64(
        _mm256_shuffle_epi8(
            _mm256_broadcastsi128_si256(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(ctr))),
            bswap),
        _mm256_set_epi64x(0, int64_t(first + 1), 0, int64_t(first)));
    size_t done = 0;
    for (; n - done >= 16; done += 16) {
        __m256i b[8];
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i)
            b[i] = _mm256_xor_si256(
                _mm256_shuffle_epi8(
                    _mm256_add_epi64(
                        base, _mm256_set_epi64x(0, 2 * i, 0, 2 * i)),
                    bswap),
                k[0]);
        base = _mm256_add_epi64(base, _mm256_set_epi64x(0, 16, 0, 16));
        for (int r = 1; r < rounds; ++r)
#pragma GCC unroll 8
            for (int i = 0; i < 8; ++i)
                b[i] = _mm256_aesenc_epi128(b[i], k[r]);
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            const uint8_t *src = in + done * 16 + 32 * i;
            uint8_t *dst = out + done * 16 + 32 * i;
            __m256i d = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(src));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(dst),
                _mm256_xor_si256(
                    d, _mm256_aesenclast_epi128(b[i], k[rounds])));
        }
    }
    _mm256_zeroupper();
    return done;
}

/** One 128-bit lane in all four lanes of a zmm register. GCC 12's
 *  unmasked 512-bit broadcast and lane-extract intrinsics pass an
 *  _mm*_undefined_* operand that -Wall reports as uninitialized; the
 *  zero-masking forms with every lane selected are the same
 *  instructions and keep the build warning-free. */
__attribute__((target("avx512f"))) inline __m512i
broadcastLane(__m128i v)
{
    return _mm512_maskz_broadcast_i32x4(__mmask16(0xffff), v);
}

/** 32-wide VAES CTR on zmm: each register carries counters c+4i ..
 *  c+4i+3, eight registers in flight. Runs whole 32-block batches
 *  from ctr itself; returns how many blocks it did. */
__attribute__((target("vaes,avx512f,avx512bw,aes"))) size_t
ctrVaes512(const uint8_t *rk, int rounds, const uint8_t *ctr,
           const uint8_t *in, uint8_t *out, size_t n)
{
    __m512i k[15];
    for (int r = 0; r <= rounds; ++r)
        k[r] = broadcastLane(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(rk + 16 * r)));
    const __m512i bswap = broadcastLane(_mm_set_epi8(
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
    __m512i base = _mm512_add_epi64(
        _mm512_shuffle_epi8(
            broadcastLane(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(ctr))),
            bswap),
        _mm512_set_epi64(0, 3, 0, 2, 0, 1, 0, 0));
    size_t done = 0;
    for (; n - done >= 32; done += 32) {
        __m512i b[8];
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i)
            b[i] = _mm512_xor_si512(
                _mm512_shuffle_epi8(
                    _mm512_add_epi64(base,
                                     _mm512_set_epi64(0, 4 * i, 0, 4 * i,
                                                      0, 4 * i, 0, 4 * i)),
                    bswap),
                k[0]);
        base = _mm512_add_epi64(base,
                                _mm512_set_epi64(0, 32, 0, 32, 0, 32, 0, 32));
        for (int r = 1; r < rounds; ++r)
#pragma GCC unroll 8
            for (int i = 0; i < 8; ++i)
                b[i] = _mm512_aesenc_epi128(b[i], k[r]);
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            const uint8_t *src = in + done * 16 + 64 * i;
            uint8_t *dst = out + done * 16 + 64 * i;
            _mm512_storeu_si512(
                dst, _mm512_xor_si512(
                         _mm512_loadu_si512(src),
                         _mm512_aesenclast_epi128(b[i], k[rounds])));
        }
    }
    _mm256_zeroupper();
    return done;
}

// ---- PCLMULQDQ GHASH --------------------------------------------------

/**
 * GHASH field elements live in the scalar code's representation: the
 * two big-endian-loaded 64-bit halves, as one 128-bit integer (high
 * lane = first half). That integer is the bit-reversal of the
 * polynomial: bit j holds the coefficient of x^(127-j). The
 * carry-less product of two such integers is the bit-reversed
 * 255-bit product, one bit short of the 256-bit reversed form; the
 * reduction shifts it left by one and folds x^128..x^254 through
 * x^128 = x^7 + x^2 + x + 1 (the GCM polynomial).
 *
 * The product is linear in each operand, so several products can be
 * XOR-summed before one reduction. ghashBlocks uses that for the
 * standard aggregated form (Gueron-Kounavis): k blocks are multiplied
 * by H^k, ..., H^2, H and reduced once, with k = 32 on zmm (four
 * blocks per register, eight registers) and k = 4 on xmm.
 */

/** Unreduced 256-bit product as its three schoolbook partial sums. */
struct Wide
{
    __m128i lo = _mm_setzero_si128();
    __m128i mid = _mm_setzero_si128();
    __m128i hi = _mm_setzero_si128();
};

/** w += a * b, carry-less and unreduced. */
__attribute__((target("pclmul,sse4.1"))) inline void
clmulAcc(Wide &w, __m128i a, __m128i b)
{
    w.lo = _mm_xor_si128(w.lo, _mm_clmulepi64_si128(a, b, 0x00));
    w.hi = _mm_xor_si128(w.hi, _mm_clmulepi64_si128(a, b, 0x11));
    w.mid = _mm_xor_si128(w.mid, _mm_clmulepi64_si128(a, b, 0x10));
    w.mid = _mm_xor_si128(w.mid, _mm_clmulepi64_si128(a, b, 0x01));
}

/** Reduces a summed product to one field element. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
reduce(const Wide &w)
{
    const uint64_t p0 = uint64_t(_mm_cvtsi128_si64(w.lo));
    const uint64_t p1 = uint64_t(_mm_extract_epi64(w.lo, 1)) ^
                        uint64_t(_mm_cvtsi128_si64(w.mid));
    const uint64_t p2 = uint64_t(_mm_cvtsi128_si64(w.hi)) ^
                        uint64_t(_mm_extract_epi64(w.mid, 1));
    const uint64_t p3 = uint64_t(_mm_extract_epi64(w.hi, 1));

    // Undo the bit-reversal's off-by-one: Q = P << 1 is the reversed
    // 256-bit product C (q3:q2 = rev(C_lo), q1:q0 = rev(C_hi)).
    const uint64_t q0 = p0 << 1;
    const uint64_t q1 = (p1 << 1) | (p0 >> 63);
    const uint64_t q2 = (p2 << 1) | (p1 >> 63);
    const uint64_t q3 = (p3 << 1) | (p2 >> 63);

    // Fold C_hi * (x^7 + x^2 + x + 1): multiplying by x^s is a right
    // shift by s here. The shifts by 1, 2 and 7 push up to seven terms
    // E(x) x^128 out of the bottom of q0; folding E once more puts
    // rev(E) in the top word, and q0 << (64 - s) is exactly that. So
    // add E to q1 first, then fold the 128-bit sum in one pass (E has
    // degree < 7, so its own shifts stay inside the word).
    const uint64_t d = q1 ^ (q0 << 63) ^ (q0 << 62) ^ (q0 << 57);
    const uint64_t h1 = d ^ (d >> 1) ^ (d >> 2) ^ (d >> 7);
    const uint64_t h0 = q0 ^ ((q0 >> 1) | (d << 63)) ^
                        ((q0 >> 2) | (d << 62)) ^ ((q0 >> 7) | (d << 57));
    return _mm_set_epi64x(int64_t(q3 ^ h1), int64_t(q2 ^ h0));
}

/** One full field multiply a * b. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
ghashMult(__m128i a, __m128i b)
{
    Wide w;
    clmulAcc(w, a, b);
    return reduce(w);
}

/** Loads one block in the scalar representation (big-endian). */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
loadBlock(const uint8_t *p)
{
    const __m128i kReverse =
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    return _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)), kReverse);
}

/** The hash-key powers one call needs, pw[32 - k] = H^k for k = 1 ..
 *  count (count a power of two, at most 32), so each group of four
 *  blocks finds its multipliers H^(k+3) .. H^k in consecutive
 *  entries. Doubling rounds: H^(m+1) .. H^(2m) = H^m * (H .. H^m),
 *  whose products are independent of each other and overlap. */
__attribute__((target("pclmul,sse4.1"))) void
hashKeyPowers(__m128i pw[32], __m128i h, int count)
{
    pw[31] = h;
    for (int m = 1; m < count; m *= 2)
        for (int k = 1; k <= m; ++k)
            pw[32 - m - k] = ghashMult(pw[32 - m], pw[32 - k]);
}

/** XOR of a zmm register's four 128-bit lanes (zero-masking
 *  extracts, as in broadcastLane). */
__attribute__((target("avx512f"))) inline __m128i
foldLanes(__m512i v)
{
    const __mmask8 all = 0xf;
    return _mm_xor_si128(
        _mm_xor_si128(_mm512_maskz_extracti32x4_epi32(all, v, 0),
                      _mm512_maskz_extracti32x4_epi32(all, v, 1)),
        _mm_xor_si128(_mm512_maskz_extracti32x4_epi32(all, v, 2),
                      _mm512_maskz_extracti32x4_epi32(all, v, 3)));
}

/** 32 blocks per reduction on zmm: register j holds blocks 4j .. 4j+3,
 *  one per lane, and is multiplied lane by lane against H^(32-4j) ..
 *  H^(29-4j). The lanes of the three partial sums fold into one Wide,
 *  which the shared reduce() finishes. Absorbs `batches` 512-byte
 *  batches; pw must hold all 32 powers. */
__attribute__((target("vpclmulqdq,avx512f,avx512bw,pclmul,sse4.1")))
__m128i
ghashBlocks32(__m128i y, const __m128i pw[32], const uint8_t *data,
              size_t batches)
{
    __m512i p[8];
    for (int j = 0; j < 8; ++j)
        p[j] = _mm512_loadu_si512(pw + 4 * j);
    const __m512i reverse = broadcastLane(
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
    for (; batches > 0; --batches, data += 512) {
        __m512i lo = _mm512_setzero_si512();
        __m512i mid = _mm512_setzero_si512();
        __m512i hi = _mm512_setzero_si512();
#pragma GCC unroll 8
        for (int j = 0; j < 8; ++j) {
            __m512i x = _mm512_shuffle_epi8(
                _mm512_loadu_si512(data + 64 * j), reverse);
            if (j == 0) // Y joins the first block: (Y + X1) H^32
                x = _mm512_xor_si512(
                    x, _mm512_inserti32x4(_mm512_setzero_si512(), y, 0));
            lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128(x, p[j], 0x00));
            hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128(x, p[j], 0x11));
            mid = _mm512_ternarylogic_epi64(
                mid, _mm512_clmulepi64_epi128(x, p[j], 0x10),
                _mm512_clmulepi64_epi128(x, p[j], 0x01), 0x96);
        }
        Wide w;
        w.lo = foldLanes(lo);
        w.mid = foldLanes(mid);
        w.hi = foldLanes(hi);
        y = reduce(w);
    }
    _mm256_zeroupper();
    return y;
}

__attribute__((target("pclmul,sse4.1"))) void
ghashBlocks(uint64_t &yh, uint64_t &yl, const uint8_t *data, size_t n,
            uint64_t h0, uint64_t h1, bool useVaes512)
{
    const __m128i h = _mm_set_epi64x(int64_t(h0), int64_t(h1));
    __m128i y = _mm_set_epi64x(int64_t(yh), int64_t(yl));
    if (n >= 4) {
        // H^5 .. H^32 take 28 more multiplies: one 32-block batch
        // does not repay them, two do (measured break-even near 64).
        const bool wide = useVaes512 && n >= 64;
        const int powers = wide ? 32 : 4;
        __m128i pw[32];
        hashKeyPowers(pw, h, powers);
        if (wide) {
            y = ghashBlocks32(y, pw, data, n / 32);
            data += 512 * (n / 32);
            n %= 32;
        }
        // Y' = (Y + X1) H^4 + X2 H^3 + X3 H^2 + X4 H, one reduction.
        for (; n >= 4; n -= 4, data += 64) {
            Wide w;
            clmulAcc(w, _mm_xor_si128(y, loadBlock(data)), pw[28]);
            clmulAcc(w, loadBlock(data + 16), pw[29]);
            clmulAcc(w, loadBlock(data + 32), pw[30]);
            clmulAcc(w, loadBlock(data + 48), pw[31]);
            y = reduce(w);
        }
        secureZero(reinterpret_cast<uint8_t *>(pw + 32 - powers),
                   sizeof(__m128i) * size_t(powers));
    }
    for (; n > 0; --n, data += 16)
        y = ghashMult(_mm_xor_si128(y, loadBlock(data)), h);
    yh = uint64_t(_mm_extract_epi64(y, 1));
    yl = uint64_t(_mm_cvtsi128_si64(y));
}

// ---- SHA-NI -----------------------------------------------------------

alignas(16) const uint32_t kSha256K[64] = {
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

__attribute__((target("sha,ssse3,sse4.1"))) void
sha256Compress(uint32_t state[8], const uint8_t *data, size_t n)
{
    const __m128i kSwap = _mm_set_epi64x(
        int64_t(0x0c0d0e0f08090a0bULL), int64_t(0x0405060700010203ULL));

    // Repack {a..h} into the sha256rnds2 operand order (ABEF/CDGH).
    __m128i tmp =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(&state[0]));
    __m128i s1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(&state[4]));
    tmp = _mm_shuffle_epi32(tmp, 0xB1);       // CDAB
    s1 = _mm_shuffle_epi32(s1, 0x1B);         // EFGH
    __m128i s0 = _mm_alignr_epi8(tmp, s1, 8); // ABEF
    s1 = _mm_blend_epi16(s1, tmp, 0xF0);      // CDGH

    while (n > 0) {
        const __m128i save0 = s0;
        const __m128i save1 = s1;
        __m128i msg[4];
        for (int g = 0; g < 16; ++g) {
            __m128i m;
            if (g < 4) {
                m = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(data + 16 * g));
                m = _mm_shuffle_epi8(m, kSwap);
                msg[g] = m;
            } else {
                // W[4g..4g+3] from the four previous vectors.
                const __m128i x0 = msg[g % 4];
                const __m128i x1 = msg[(g + 1) % 4];
                const __m128i x2 = msg[(g + 2) % 4];
                const __m128i x3 = msg[(g + 3) % 4];
                m = _mm_sha256msg1_epu32(x0, x1);
                m = _mm_add_epi32(m, _mm_alignr_epi8(x3, x2, 4));
                m = _mm_sha256msg2_epu32(m, x3);
                msg[g % 4] = m;
            }
            const __m128i wk = _mm_add_epi32(
                m, _mm_load_si128(reinterpret_cast<const __m128i *>(
                       kSha256K + 4 * g)));
            s1 = _mm_sha256rnds2_epu32(s1, s0, wk);
            s0 = _mm_sha256rnds2_epu32(s0, s1,
                                       _mm_shuffle_epi32(wk, 0x0E));
        }
        s0 = _mm_add_epi32(s0, save0);
        s1 = _mm_add_epi32(s1, save1);
        data += 64;
        --n;
    }

    tmp = _mm_shuffle_epi32(s0, 0x1B); // FEBA
    s1 = _mm_shuffle_epi32(s1, 0xB1);  // DCHG
    s0 = _mm_blend_epi16(tmp, s1, 0xF0);
    s1 = _mm_alignr_epi8(s1, tmp, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[0]), s0);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[4]), s1);
}

} // namespace

void
aesniEcbEncrypt(const uint8_t *roundKeyBytes, int rounds,
                const uint8_t *in, uint8_t *out, size_t n,
                bool useVaes)
{
    size_t done = 0;
    if (useVaes && n >= 16)
        done = ecbVaes(roundKeyBytes, rounds, in, out, n);
    if (done < n)
        ecbAesni(roundKeyBytes, rounds, in + 16 * done,
                 out + 16 * done, n - done);
}

void
aesniCtrXor(const uint8_t *roundKeyBytes, int rounds, const uint8_t ctr[16],
            const uint8_t *in, uint8_t *out, size_t nBlocks, bool useVaes,
            bool useVaes512)
{
    size_t done = 0;
    if (useVaes512 && nBlocks >= 32)
        done = ctrVaes512(roundKeyBytes, rounds, ctr, in, out, nBlocks);
    if (useVaes && nBlocks - done >= 16)
        done += ctrVaes(roundKeyBytes, rounds, ctr, done, in + 16 * done,
                        out + 16 * done, nBlocks - done);
    if (done < nBlocks)
        ctrAesni(roundKeyBytes, rounds, ctr, done, in + 16 * done,
                 out + 16 * done, nBlocks - done);
}

void
pclmulGhashBlocks(uint64_t &yh, uint64_t &yl, const uint8_t *data,
                  size_t n, uint64_t h0, uint64_t h1, bool useVaes512)
{
    ghashBlocks(yh, yl, data, n, h0, h1, useVaes512);
}

void
shaniSha256Compress(uint32_t state[8], const uint8_t *data, size_t n)
{
    sha256Compress(state, data, n);
}

} // namespace salus::crypto::x86

#endif // SALUS_CRYPTO_HAVE_X86_BACKEND
