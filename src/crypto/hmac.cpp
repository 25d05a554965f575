#include "crypto/hmac.hpp"

#include <type_traits>

#include "common/errors.hpp"

namespace salus::crypto {

namespace {

/** Wipes a hash context: a keyed midstate is key-equivalent, and a
 *  finished one still holds its last padded block. */
template <typename Hash>
void
wipe(Hash &h)
{
    static_assert(std::is_trivially_copyable_v<Hash>);
    secureZero(reinterpret_cast<uint8_t *>(&h), sizeof(h));
}

} // namespace

template <typename Hash>
Hmac<Hash>::Hmac(ByteView key)
{
    uint8_t pad[Hash::kBlockSize] = {};
    if (key.size() > Hash::kBlockSize) {
        Hash h;
        h.update(key);
        h.finish(pad);
        wipe(h);
    } else if (!key.empty()) {
        std::memcpy(pad, key.data(), key.size());
    }
    for (uint8_t &b : pad)
        b ^= 0x36;
    inner_.update(ByteView(pad, sizeof(pad)));
    for (uint8_t &b : pad)
        b ^= 0x36 ^ 0x5c;
    outer_.update(ByteView(pad, sizeof(pad)));
    secureZero(pad, sizeof(pad));
}

template <typename Hash>
Hmac<Hash>::~Hmac()
{
    wipe(inner_);
    wipe(outer_);
}

template <typename Hash>
void
Hmac<Hash>::mac(std::initializer_list<ByteView> parts, uint8_t *out) const
{
    uint8_t innerDigest[kTagSize] = {};
    Hash h = inner_;
    for (ByteView part : parts)
        h.update(part);
    h.finish(innerDigest);
    h = outer_;
    h.update(ByteView(innerDigest, kTagSize));
    h.finish(out);
    wipe(h);
    secureZero(innerDigest, kTagSize);
}

template <typename Hash>
Bytes
Hmac<Hash>::mac(ByteView msg) const
{
    Bytes out(kTagSize);
    mac({msg}, out.data());
    return out;
}

template class Hmac<Sha256>;
template class Hmac<Sha512>;

Bytes
hmacSha256(ByteView key, ByteView msg)
{
    return HmacSha256(key).mac(msg);
}

Bytes
hmacSha512(ByteView key, ByteView msg)
{
    return Hmac<Sha512>(key).mac(msg);
}

Bytes
hkdfExtract(ByteView salt, ByteView ikm)
{
    return hmacSha256(salt, ikm);
}

Bytes
hkdfExpand(ByteView prk, ByteView info, size_t length)
{
    if (length > 255 * kSha256DigestSize)
        throw CryptoError("hkdfExpand: output too long");

    Bytes out;
    out.reserve(length);
    HmacSha256 mac(prk);
    uint8_t t[kSha256DigestSize] = {};
    size_t tLen = 0;
    for (uint8_t counter = 1; out.size() < length; ++counter) {
        // T(i) = HMAC(PRK, T(i-1) || info || i); mac() absorbs every
        // part before it writes the tag, so t may be input and output.
        mac.mac({ByteView(t, tLen), info, ByteView(&counter, 1)}, t);
        tLen = sizeof(t);
        size_t take = std::min(tLen, length - out.size());
        out.insert(out.end(), t, t + take);
    }
    secureZero(t, sizeof(t));
    return out;
}

Bytes
hkdf(ByteView salt, ByteView ikm, ByteView info, size_t length)
{
    Bytes prk = hkdfExtract(salt, ikm);
    Bytes out = hkdfExpand(prk, info, length);
    secureZero(prk);
    return out;
}

} // namespace salus::crypto
