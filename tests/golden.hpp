/**
 * @file
 * Golden values, read from two files in tests/golden/, one
 * `<value>  <name>` line each:
 *  - artifacts.sha256 pins the SHA-256 of each deterministic run
 *    artifact the suites check (gallery traces and metrics, bitstream
 *    files, the throughput sweeps' tables);
 *  - virtual_values.txt pins each virtual-clock figure the suites
 *    report exactly: integer nanoseconds, or counts and ratios
 *    rendered as text.
 * A mismatch prints the line to paste when the change is intended, so
 * a recalibration shows up as a diff of those files.
 */

#ifndef SALUS_TESTS_GOLDEN_HPP
#define SALUS_TESTS_GOLDEN_HPP

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"

namespace salus::test {

/** The value recorded for `name` in tests/golden/<file>, or "" when
 *  it has no line. */
inline std::string
goldenValue(const std::string &file, const std::string &name)
{
    std::ifstream in(std::string(SALUS_GOLDEN_DIR) + "/" + file);
    std::string line;
    while (std::getline(in, line)) {
        size_t sep = line.find("  ");
        if (line.empty() || line[0] == '#' || sep == std::string::npos)
            continue;
        if (line.substr(sep + 2) == name)
            return line.substr(0, sep);
    }
    return "";
}

/** Expects `got` to be the value recorded for `name` in `file`. */
inline void
expectGolden(const std::string &file, const std::string &name,
             const std::string &got)
{
    EXPECT_EQ(goldenValue(file, name), got)
        << name << " differs from " << SALUS_GOLDEN_DIR << "/" << file
        << "; if the change is intended, put this line there:\n"
        << got << "  " << name;
}

/** Expects sha256(artifact) to equal the digest recorded for `name`. */
inline void
expectGoldenDigest(const std::string &name, const std::string &artifact)
{
    expectGolden("artifacts.sha256", name,
                 hexEncode(crypto::Sha256::digest(ByteView(
                     reinterpret_cast<const uint8_t *>(artifact.data()),
                     artifact.size()))));
}

/** Expects `value` (nanoseconds or a count) to be the one recorded. */
inline void
expectGoldenValue(const std::string &name, uint64_t value)
{
    expectGolden("virtual_values.txt", name, std::to_string(value));
}

/** Expects `num / den`, to four decimals, to be the one recorded. */
inline void
expectGoldenRatio(const std::string &name, double num, double den)
{
    char text[32];
    std::snprintf(text, sizeof(text), "%.4f", num / den);
    expectGolden("virtual_values.txt", name, text);
}

} // namespace salus::test

#endif // SALUS_TESTS_GOLDEN_HPP
