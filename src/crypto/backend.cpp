#include "crypto/backend.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define SALUS_CRYPTO_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace salus::crypto {

namespace {

#ifdef SALUS_CRYPTO_X86

/** XCR0 via xgetbv — the OS must have enabled YMM state for any
 *  256-bit (VAES) path to be usable, and ZMM state for 512-bit. */
uint64_t
readXcr0()
{
    uint32_t eax, edx;
    __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
    return (uint64_t(edx) << 32) | eax;
}

BackendInfo
probe()
{
    BackendInfo info;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return info;
    bool sse41 = (ecx & bit_SSE4_1) != 0;
    bool ssse3 = (ecx & bit_SSSE3) != 0;
    // The CTR kernel byte-swaps its counters with PSHUFB (SSSE3),
    // which every AES-NI part has.
    info.aesni = (ecx & bit_AES) != 0 && ssse3;
    info.pclmul = (ecx & bit_PCLMUL) != 0;
    bool osxsave = (ecx & bit_OSXSAVE) != 0;
    bool avxCpu = (ecx & bit_AVX) != 0;

    unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
    if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7)) {
        info.shani = (ebx7 & bit_SHA) != 0 && ssse3 && sse41;
        bool avx2 = (ebx7 & bit_AVX2) != 0;
        bool vaes = (ecx7 & bit_VAES) != 0;
        // YMM registers only survive context switches when the OS
        // opted in (XCR0 bits 1|2); otherwise 256-bit paths are off.
        const uint64_t xcr0 = osxsave ? readXcr0() : 0;
        bool ymmOs = (xcr0 & 0x6) == 0x6;
        info.vaes = vaes && avx2 && avxCpu && ymmOs && info.aesni;
        // The zmm kernels also need the opmask and both ZMM state
        // components (XCR0 bits 5-7) on top of the YMM ones.
        bool zmmOs = (xcr0 & 0xe6) == 0xe6;
        bool avx512 = (ebx7 & bit_AVX512F) != 0 &&
                      (ebx7 & bit_AVX512BW) != 0 &&
                      (ecx7 & bit_VPCLMULQDQ) != 0;
        info.vaes512 = info.vaes && info.pclmul && avx512 && zmmOs;
    }
    return info;
}

#else

BackendInfo
probe()
{
    return BackendInfo{};
}

#endif // SALUS_CRYPTO_X86

bool
envForceScalar()
{
    const char *v = std::getenv("SALUS_FORCE_SCALAR");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/** Env is read once; the API override then owns the switch. */
bool &
forceScalarFlag()
{
    static bool flag = envForceScalar();
    return flag;
}

} // namespace

const BackendInfo &
backendInfo()
{
    static const BackendInfo info = probe();
    return info;
}

bool
forceScalar()
{
    return forceScalarFlag();
}

void
setForceScalar(bool on)
{
    forceScalarFlag() = on;
}

bool
aesBackendActive()
{
    return backendInfo().aesni && !forceScalar();
}

bool
ghashBackendActive()
{
    return backendInfo().pclmul && !forceScalar();
}

bool
sha256BackendActive()
{
    return backendInfo().shani && !forceScalar();
}

bool
crc32BackendActive()
{
    return backendInfo().pclmul && !forceScalar();
}

std::string
backendSummary()
{
    const BackendInfo &info = backendInfo();
    if (forceScalar())
        return "scalar (forced by SALUS_FORCE_SCALAR)";
    std::string ext;
    auto add = [&](bool have, const char *name) {
        if (!have)
            return;
        if (!ext.empty())
            ext += "+";
        ext += name;
    };
    add(info.aesni, "aesni");
    add(info.vaes, "vaes");
    add(info.vaes512, "vaes512");
    add(info.pclmul, "pclmul");
    add(info.shani, "shani");
    if (ext.empty())
        return "scalar (no ISA extensions detected)";
    return "hardware (" + ext + ")";
}

} // namespace salus::crypto
