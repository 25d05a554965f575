/**
 * @file
 * Bitstream manipulator — the RapidWright/byteman analog (paper §2.3).
 * Patches a BRAM cell's initialization contents directly in a raw
 * bitstream file, given the cell's logic location, and updates the
 * trailing CRC to match. No recompilation, no access to source, no
 * netlist.
 *
 * This is the core enabling primitive for Salus's dynamic RoT
 * injection: the SM enclave calls patchCell() with a freshly generated
 * Key_attest / Key_session / Ctr_session (paper §4.2).
 */

#ifndef SALUS_BITSTREAM_MANIPULATOR_HPP
#define SALUS_BITSTREAM_MANIPULATOR_HPP

#include "bitstream/logic_location.hpp"

namespace salus::bitstream {

/** Stateless bitstream patcher. */
class Manipulator
{
  public:
    /**
     * Overwrites the init contents of `cellPath` with `newInit` in the
     * raw bitstream file and folds the change into the trailing CRC
     * word in O(cell + log file) time, without reading the rest of the
     * file. A file whose CRC was valid keeps a valid CRC; one whose
     * CRC was already wrong stays wrong by the same error.
     * @throws BitstreamError if the cell is unknown, the new contents
     *         have the wrong length, or offsets fall outside the file.
     */
    static void patchCell(std::span<uint8_t> file,
                          const LogicLocationFile &ll,
                          const std::string &cellPath, ByteView newInit);

    /**
     * Reads the current init contents of a cell from the raw file —
     * the "readback" a bitstream tool performs when inspecting a
     * design (and what an attacker with the plaintext file could do).
     */
    static Bytes readCell(ByteView file, const LogicLocationFile &ll,
                          const std::string &cellPath);
};

} // namespace salus::bitstream

#endif // SALUS_BITSTREAM_MANIPULATOR_HPP
