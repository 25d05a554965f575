/**
 * @file
 * Random sources. All key generation in enclaves, devices and tests
 * draws from a RandomSource so experiments are reproducible: protocol
 * code never touches the OS RNG directly.
 */

#ifndef SALUS_CRYPTO_RANDOM_HPP
#define SALUS_CRYPTO_RANDOM_HPP

#include <cstdint>
#include <memory>

#include "common/bytes.hpp"

namespace salus::crypto {

class Aes;

/** Abstract byte generator. */
class RandomSource
{
  public:
    virtual ~RandomSource() = default;

    /** Fills the buffer with random bytes. */
    virtual void fill(uint8_t *out, size_t len) = 0;

    /** Returns n random bytes. */
    Bytes bytes(size_t n);

    /** Uniform uint64 (not bias-corrected; simulation use only). */
    uint64_t nextU64();

    /** Uniform value in [0, bound) for simulation decisions. */
    uint64_t below(uint64_t bound);
};

/**
 * Deterministic AES-256-CTR DRBG (SP 800-90A shaped). The same seed
 * always yields the same stream, which makes full platform runs
 * reproducible bit-for-bit.
 */
class CtrDrbg : public RandomSource
{
  public:
    /** Instantiates from arbitrary-length seed material. */
    explicit CtrDrbg(ByteView seed);

    /** Convenience: seed from a 64-bit value (tests, simulations). */
    explicit CtrDrbg(uint64_t seed);

    ~CtrDrbg() override;

    void fill(uint8_t *out, size_t len) override;

    /** Mixes fresh entropy into the state. */
    void reseed(ByteView seed);

  private:
    /** The SP 800-90A update under `aes`, the cipher keyed by key_. */
    void update(const Aes &aes, ByteView providedData);

    uint8_t key_[32];
    uint8_t v_[16];
};

/** OS-entropy-backed source (std::random_device). */
class SystemRandom : public RandomSource
{
  public:
    void fill(uint8_t *out, size_t len) override;
};

} // namespace salus::crypto

#endif // SALUS_CRYPTO_RANDOM_HPP
