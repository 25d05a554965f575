/**
 * @file
 * Raw x86-64 hardware crypto kernels (internal to src/crypto).
 *
 * Callers must gate every call on the matching backend predicate in
 * crypto/backend.hpp — these functions execute AES-NI / VAES /
 * PCLMULQDQ / AVX-512 / SHA-NI instructions unconditionally and fault
 * on CPUs without them. They are compiled with per-function target
 * attributes, so the rest of the translation unit (and every other
 * file) stays baseline-ISA clean.
 *
 * All kernels are bit-identical to the scalar reference paths; the
 * differential fuzz entries and the forced-scalar CI run enforce it.
 */

#ifndef SALUS_CRYPTO_BACKEND_X86_HPP
#define SALUS_CRYPTO_BACKEND_X86_HPP

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#define SALUS_CRYPTO_HAVE_X86_BACKEND 1

namespace salus::crypto::x86 {

/**
 * AES-NI ECB encryption of n independent 16-byte blocks (in and out
 * may alias). roundKeyBytes holds the FIPS-197 round keys serialized
 * as bytes, 16 * (rounds + 1) of them; rounds is 10/12/14. Blocks are
 * pipelined 8-wide (the aesenc units on every AES-NI core overlap
 * independent blocks), with a VAES+AVX2 16-wide path when useVaes.
 */
void aesniEcbEncrypt(const uint8_t *roundKeyBytes, int rounds,
                     const uint8_t *in, uint8_t *out, size_t n,
                     bool useVaes);

/**
 * AES-CTR: XORs the keystream of nBlocks consecutive counter blocks
 * ctr, ctr+1, ... (the 16 bytes read as one big-endian integer) over
 * in, writing out (in and out may alias). The counters are built in
 * registers: ctr is byte-reversed once, stepped with 64-bit adds and
 * byte-reversed back per block, so the caller must guarantee that the
 * low 64 counter bits do not wrap within the call; ctr itself is not
 * advanced. Whole 32-block batches on 512-bit VAES when useVaes512,
 * then at most one 16-block VAES+AVX2 batch when useVaes, then 8-wide
 * AES-NI for the rest. Same round-key layout as aesniEcbEncrypt.
 */
void aesniCtrXor(const uint8_t *roundKeyBytes, int rounds,
                 const uint8_t ctr[16], const uint8_t *in, uint8_t *out,
                 size_t nBlocks, bool useVaes, bool useVaes512);

/**
 * GHASH: absorbs n 16-byte blocks into the accumulator (yh, yl) under
 * hash key (h0, h1), all in the scalar code's representation (the
 * big-endian-loaded halves of the field elements). Aggregated
 * reduction: with useVaes512 and n >= 64, each 32 blocks are
 * multiplied by H^32..H on 512-bit VPCLMULQDQ and reduced once; then
 * each four blocks are multiplied by H^4..H on PCLMULQDQ and reduced
 * once; the last 0-3 blocks take one multiply and reduction each. The
 * powers of H are computed per call (H^2..H^4 from n >= 4 on, up to
 * H^32 only for the 32-block path) and wiped before returning.
 */
void pclmulGhashBlocks(uint64_t &yh, uint64_t &yl, const uint8_t *data,
                       size_t n, uint64_t h0, uint64_t h1,
                       bool useVaes512);

/**
 * SHA-256: compresses n consecutive 64-byte blocks into state
 * (the eight working variables a..h, natural order). SHA-NI.
 */
void shaniSha256Compress(uint32_t state[8], const uint8_t *data,
                         size_t n);

} // namespace salus::crypto::x86

#endif // x86-64

#endif // SALUS_CRYPTO_BACKEND_X86_HPP
