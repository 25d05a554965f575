#include "crypto/random.hpp"

#include <algorithm>
#include <cstring>
#include <random>

#include "crypto/aes.hpp"
#include "crypto/sha512.hpp"

namespace salus::crypto {

Bytes
RandomSource::bytes(size_t n)
{
    Bytes out(n);
    if (n)
        fill(out.data(), n);
    return out;
}

uint64_t
RandomSource::nextU64()
{
    uint8_t tmp[8];
    fill(tmp, 8);
    return loadLe64(tmp);
}

uint64_t
RandomSource::below(uint64_t bound)
{
    if (bound == 0)
        return 0;
    return nextU64() % bound;
}

namespace {

/** v += n, v read as one 128-bit big-endian integer. */
void
addBe128(uint8_t v[16], uint64_t n)
{
    const uint64_t low = loadBe64(v + 8);
    storeBe64(v + 8, low + n);
    if (low + n < low)
        storeBe64(v, loadBe64(v) + 1);
}

/** Zero plaintext: counter mode over it is the bare keystream. */
constexpr size_t kZeroBlocks = 256;
const uint8_t kZeros[kZeroBlocks * 16] = {};

} // namespace

CtrDrbg::CtrDrbg(ByteView seed)
{
    std::memset(key_, 0, sizeof(key_));
    std::memset(v_, 0, sizeof(v_));
    reseed(seed);
}

CtrDrbg::CtrDrbg(uint64_t seed)
{
    std::memset(key_, 0, sizeof(key_));
    std::memset(v_, 0, sizeof(v_));
    uint8_t s[8];
    storeLe64(s, seed);
    reseed(ByteView(s, 8));
}

CtrDrbg::~CtrDrbg()
{
    secureZero(key_, sizeof(key_));
    secureZero(v_, sizeof(v_));
}

void
CtrDrbg::update(const Aes &aes, ByteView providedData)
{
    // Generate 48 bytes of keystream from counters V+1..V+3, XOR in
    // the provided data, and use the result as the new (key, V) pair
    // -- the SP 800-90A update. Counter mode over the provided data
    // (zero-padded to 48 bytes) does both steps at once.
    uint8_t temp[48] = {};
    if (!providedData.empty())
        std::memcpy(temp, providedData.data(),
                    std::min(providedData.size(), sizeof(temp)));
    addBe128(v_, 1);
    aes.ctrXor(v_, temp, temp, 3);
    std::memcpy(key_, temp, 32);
    std::memcpy(v_, temp + 32, 16);
    secureZero(temp, sizeof(temp));
}

void
CtrDrbg::reseed(ByteView seed)
{
    // Condition arbitrary-length seed material through SHA-512 and use
    // the first 48 bytes as the derived seed.
    Bytes digest = Sha512::digest(seed);
    update(Aes(ByteView(key_, 32)), ByteView(digest.data(), 48));
    secureZero(digest);
}

void
CtrDrbg::fill(uint8_t *out, size_t len)
{
    // Block i of the output is E_K(V + 1 + i): whole blocks take the
    // pipelined counter-mode kernel over zeros, a partial last block
    // one more counter, and V ends on the last counter used.
    Aes aes(ByteView(key_, 32));
    const size_t whole = len / 16;
    uint8_t ctr[16];
    std::memcpy(ctr, v_, 16);
    addBe128(ctr, 1);
    for (size_t done = 0; done < whole; done += kZeroBlocks) {
        size_t n = std::min(kZeroBlocks, whole - done);
        aes.ctrXor(ctr, kZeros, out + 16 * done, n);
    }
    if (size_t tail = len % 16) {
        uint8_t block[16];
        aes.encryptBlock(ctr, block);
        std::memcpy(out + 16 * whole, block, tail);
        secureZero(block, sizeof(block));
    }
    secureZero(ctr, sizeof(ctr));
    addBe128(v_, (len + 15) / 16);
    update(aes, ByteView());
}

void
SystemRandom::fill(uint8_t *out, size_t len)
{
    static thread_local std::random_device rd;
    size_t off = 0;
    while (off < len) {
        uint32_t v = rd();
        size_t n = std::min(sizeof(v), len - off);
        std::memcpy(out + off, &v, n);
        off += n;
    }
}

} // namespace salus::crypto
