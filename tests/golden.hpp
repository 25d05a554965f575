/**
 * @file
 * Golden-artifact digests. tests/golden/artifacts.sha256 pins the
 * SHA-256 of each deterministic run artifact the suites check (the
 * trace JSON and metrics text of every gallery campaign), one
 * `<hex>  <name>` line each. A mismatch prints
 * the new digest and the line to paste when the change is intended.
 */

#ifndef SALUS_TESTS_GOLDEN_HPP
#define SALUS_TESTS_GOLDEN_HPP

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"

namespace salus::test {

/** The digest recorded for `name`, or "" when it has no line. */
inline std::string
goldenDigest(const std::string &name)
{
    std::ifstream in(SALUS_GOLDEN_DIGESTS);
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

/** Expects sha256(artifact) to equal the digest recorded for `name`. */
inline void
expectGoldenDigest(const std::string &name, const std::string &artifact)
{
    std::string got = hexEncode(crypto::Sha256::digest(
        ByteView(reinterpret_cast<const uint8_t *>(artifact.data()),
                 artifact.size())));
    EXPECT_EQ(goldenDigest(name), got)
        << name << " differs from " << SALUS_GOLDEN_DIGESTS
        << "; if the change is intended, put this line there:\n"
        << got << "  " << name;
}

} // namespace salus::test

#endif // SALUS_TESTS_GOLDEN_HPP
