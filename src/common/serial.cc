#include "common/serial.hh"

#include <array>

namespace upc780
{

namespace
{

/**
 * Slicing-by-8 tables: t[0] is the classic byte-at-a-time table for
 * the reflected 0xEDB88320 polynomial, and t[k][i] is the CRC state
 * after byte i is followed by k zero bytes, so eight table lookups
 * advance the CRC over eight input bytes at once.
 */
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i)
        for (size_t k = 1; k < 8; ++k)
            t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    return t;
}

// The sliced loop reads four input bytes as one native word, which is
// their little-endian value only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "crc32 assumes a little-endian host");

/** Four bytes at any alignment as one little-endian word. */
uint32_t
load32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

} // namespace

uint32_t
crc32(const uint8_t *data, size_t size, uint32_t seed)
{
    static const CrcTables t = makeCrcTables();
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; size >= 8; data += 8, size -= 8) {
        const uint32_t lo = load32(data) ^ c;
        const uint32_t hi = load32(data + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace upc780
