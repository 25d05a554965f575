#include "salus/secrets.hpp"

#include "crypto/sha256.hpp"

namespace salus::core {

const char *const kKeyAttestCell = "key_attest";
const char *const kKeySessionCell = "key_session";
const char *const kCtrSessionCell = "ctr_session";

ClSecrets
ClSecrets::generate(crypto::RandomSource &rng)
{
    ClSecrets s;
    s.keyAttest = rng.bytes(kKeyAttestSize);
    s.keySession = rng.bytes(kKeySessionSize);
    s.ctrBase = rng.nextU64();
    return s;
}

Bytes
ClSecrets::ctrBytes() const
{
    Bytes out(kCtrSessionSize);
    storeLe64(out.data(), ctrBase);
    return out;
}

Bytes
ClSecrets::fingerprint() const
{
    Bytes msg;
    msg.reserve(keyAttest.size() + keySession.size() + 8);
    msg.insert(msg.end(), keyAttest.begin(), keyAttest.end());
    msg.insert(msg.end(), keySession.begin(), keySession.end());
    Bytes ctr(8);
    storeLe64(ctr.data(), ctrBase);
    msg.insert(msg.end(), ctr.begin(), ctr.end());
    Bytes fp = crypto::Sha256::digest(msg);
    secureZero(msg); // key bytes transited through the buffer
    return fp;
}

void
ClSecrets::wipe()
{
    secureZero(keyAttest);
    secureZero(keySession);
    ctrBase = 0;
}

} // namespace salus::core
