/**
 * @file
 * Runtime-dispatched hardware crypto backends.
 *
 * Every primitive in src/crypto keeps its portable scalar
 * implementation as the always-compiled, KAT-checked reference; on
 * x86-64 hosts with the matching ISA extensions the hot paths
 * dispatch to hardware kernels instead:
 *
 *   AES (ECB block / CTR keystream / GCM CTR)  -> AES-NI, VAES+AVX2,
 *                                                 CTR also VAES on zmm
 *   GHASH (GCM authentication)                 -> PCLMULQDQ, VPCLMULQDQ
 *   SHA-256 compression                        -> SHA-NI (+SSSE3/SSE4.1)
 *   CRC-32 (bitstream integrity word)          -> PCLMULQDQ
 *
 * Selection happens once per process from CPUID, and can be
 * overridden down to the scalar path with the SALUS_FORCE_SCALAR
 * environment variable (any value but "0") or the setForceScalar()
 * API (tests and the differential fuzzers flip it per call). The
 * scalar and hardware backends are bit-identical by contract; CI
 * enforces it with differential fuzz entries and a forced-scalar run
 * of the full test suite.
 */

#ifndef SALUS_CRYPTO_BACKEND_HPP
#define SALUS_CRYPTO_BACKEND_HPP

#include <string>

namespace salus::crypto {

/** ISA extensions detected at startup (independent of overrides). */
struct BackendInfo
{
    bool aesni = false;  ///< AES-NI (implies SSE2 on x86-64)
    bool vaes = false;   ///< VAES + AVX2, OS-enabled (XCR0 checks out)
    /// 512-bit tier of the CTR and GHASH kernels: vaes and pclmul plus
    /// AVX512F, AVX512BW and VPCLMULQDQ, with opmask and ZMM state
    /// OS-enabled.
    bool vaes512 = false;
    bool pclmul = false; ///< PCLMULQDQ
    bool shani = false;  ///< SHA extensions + SSSE3 + SSE4.1
};

/** Cached CPUID probe; all-false off x86-64. */
const BackendInfo &backendInfo();

/** True when the scalar fallback is forced (env or API override). */
bool forceScalar();

/**
 * API override: true pins every primitive to the scalar path, false
 * restores CPUID dispatch (the SALUS_FORCE_SCALAR environment value
 * only seeds the initial state). Takes effect on the next call into
 * any primitive — cached key schedules stay valid across flips.
 */
void setForceScalar(bool on);

/** Dispatch decisions actually taken by the primitives. */
bool aesBackendActive();
bool ghashBackendActive();
bool sha256BackendActive();
/** bitstream::crc32 folds with PCLMULQDQ (kernel in bitstream/). */
bool crc32BackendActive();

/**
 * One-line human-readable summary for test/bench preambles, e.g.
 * "hardware (aesni+vaes+vaes512+pclmul+shani)" or "scalar (forced by
 * SALUS_FORCE_SCALAR)".
 */
std::string backendSummary();

} // namespace salus::crypto

#endif // SALUS_CRYPTO_BACKEND_HPP
