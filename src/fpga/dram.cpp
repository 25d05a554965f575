#include "fpga/dram.hpp"

#include <cstring>

#include "common/errors.hpp"

namespace salus::fpga {

void
DeviceDram::write(uint64_t addr, ByteView data)
{
    if (addr > mem_.size() || data.size() > mem_.size() - addr)
        throw DeviceError("DRAM write out of range");
    if (!data.empty())
        std::memcpy(mem_.data() + addr, data.data(), data.size());
}

Bytes
DeviceDram::read(uint64_t addr, size_t len) const
{
    if (addr > mem_.size() || len > mem_.size() - addr)
        throw DeviceError("DRAM read out of range");
    return Bytes(mem_.data() + addr, mem_.data() + addr + len);
}

} // namespace salus::fpga
