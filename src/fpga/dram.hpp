/**
 * @file
 * On-card DRAM model. Accelerators read inputs and write outputs
 * here; the host reaches it through the shell's DMA path. Memory
 * contents are attacker-visible per the threat model (§3.1 attack 2),
 * which is why the accelerators encrypt their traffic (§6.4).
 */

#ifndef SALUS_FPGA_DRAM_HPP
#define SALUS_FPGA_DRAM_HPP

#include <cstdint>

#include "common/bytes.hpp"

namespace salus::fpga {

/** Byte-addressable device memory, zero until written. Pages that
 *  nothing writes stay unmapped, so a large DRAM model costs only what
 *  a run touches. */
class DeviceDram
{
  public:
    explicit DeviceDram(size_t size) : mem_(size) {}

    size_t size() const { return mem_.size(); }

    /** @throws DeviceError when the range falls outside memory. */
    void write(uint64_t addr, ByteView data);

    /** @throws DeviceError when the range falls outside memory. */
    Bytes read(uint64_t addr, size_t len) const;

    /** Raw view for attack code that scans memory (malicious shell). */
    ByteView raw() const { return mem_.view(); }
    std::span<uint8_t> raw() { return mem_.span(); }

  private:
    ZeroedBytes mem_;
};

} // namespace salus::fpga

#endif // SALUS_FPGA_DRAM_HPP
