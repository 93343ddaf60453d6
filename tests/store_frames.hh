/**
 * @file
 * Hand-encoded verdict-cache records for wire-format tests. The
 * encoding is spelled out here, byte by byte, independently of
 * bmc/verdict_cache.cc, so a change to the stored format (or to a
 * VerdictSource byte value) shows up as a failing test instead of
 * silently dropping records written by older builds:
 *
 *   frame   = u32 payload length, u64 FNV-1a-64 of the payload, payload
 *   payload = u64 key, u64 baseKey, u8 verdict, u8 source, u8 flags,
 *             u8 pad, u32 bound, u32 retries, f64 seconds,
 *             u64 conflicts, u64 propagations, u32 name length, name
 *
 * Fields are in host byte order, as the store writes them.
 */

#ifndef R2U_TESTS_STORE_FRAMES_HH
#define R2U_TESTS_STORE_FRAMES_HH

#include <compare>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace r2u::test
{

template <typename T>
void
putRaw(std::vector<uint8_t> &buf, T v)
{
    uint8_t raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    buf.insert(buf.end(), raw, raw + sizeof(T));
}

/** Append one record frame to a verdicts.r2uc file. */
inline void
appendRawRecord(const std::string &path, uint64_t key,
                uint8_t verdict_byte, uint8_t source_byte,
                const std::string &name, uint32_t bound)
{
    std::vector<uint8_t> payload;
    putRaw<uint64_t>(payload, key);
    putRaw<uint64_t>(payload, 0);    // baseKey
    putRaw<uint8_t>(payload, verdict_byte);
    putRaw<uint8_t>(payload, source_byte);
    putRaw<uint8_t>(payload, 0x01);  // flags: validated
    putRaw<uint8_t>(payload, 0);     // pad
    putRaw<uint32_t>(payload, bound);
    putRaw<uint32_t>(payload, 0);    // retries
    putRaw<double>(payload, 0.5);    // seconds
    putRaw<uint64_t>(payload, 7);    // conflicts
    putRaw<uint64_t>(payload, 77);   // propagations
    putRaw<uint32_t>(payload, static_cast<uint32_t>(name.size()));
    payload.insert(payload.end(), name.begin(), name.end());

    uint64_t h = 14695981039346656037ull;
    for (uint8_t b : payload) {
        h ^= b;
        h *= 1099511628211ull;
    }
    std::vector<uint8_t> frame;
    putRaw<uint32_t>(frame, static_cast<uint32_t>(payload.size()));
    putRaw<uint64_t>(frame, h);
    frame.insert(frame.end(), payload.begin(), payload.end());

    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char *>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
}

/** The identity fields of one stored record (see the layout above). */
struct RawRecord
{
    uint64_t key = 0;
    uint64_t baseKey = 0;
    uint8_t verdict = 0;
    bool unbounded = false; ///< flags bit 0x02

    auto operator<=>(const RawRecord &) const = default;
};

/** Every well-framed record in a verdicts.r2uc file, in file order;
 *  the 8-byte header is skipped and checksums are not verified. */
inline std::vector<RawRecord>
readRawRecords(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    auto get = [&](size_t off, auto &v) {
        std::memcpy(&v, file.data() + off, sizeof(v));
    };
    std::vector<RawRecord> out;
    for (size_t off = 8; off + 12 <= file.size();) {
        uint32_t len = 0;
        get(off, len);
        size_t payload = off + 12;
        if (len < 19 || payload + len > file.size())
            break;
        RawRecord r;
        get(payload, r.key);
        get(payload + 8, r.baseKey);
        r.verdict = file[payload + 16];
        r.unbounded = (file[payload + 18] & 0x02) != 0;
        out.push_back(r);
        off = payload + len;
    }
    return out;
}

} // namespace r2u::test

#endif // R2U_TESTS_STORE_FRAMES_HH
