/**
 * @file
 * Canonical structural hashing of netlist content.
 *
 * The content-addressed verdict cache keys each query by a semantic
 * fingerprint of "what the solver will see" rather than a count of how
 * many cells it will see:
 *
 *  - by default, the hash of exactly the cone of influence its
 *    property can read (coneHash over nl::computeCoi), so an RTL edit
 *    invalidates only the queries whose slice actually changed;
 *  - under --full-unroll, where every query sees every cell, the
 *    whole-netlist hash (structuralHash) — a rewired design with
 *    identical cell/input/register counts must miss, never replay
 *    another design's verdicts.
 *
 * The hash covers cell kinds, names, port widths, connectivity
 * (input CellIds), constant/DFF power-on values, slice offsets, and
 * memory geometry + initial contents + write-port wiring. It is
 * FNV-1a 64-bit over an explicit little-endian byte encoding, so the
 * value is stable across platforms and process runs (no
 * pointer/std::hash dependence). Cell identifiers participate in the
 * encoding: an edit that renumbers cells conservatively invalidates
 * every cone that mentions them, which can only cost re-solves, never
 * soundness.
 */

#ifndef R2U_NETLIST_HASH_HH
#define R2U_NETLIST_HASH_HH

#include <cstdint>
#include <string>

#include "common/bits.hh"
#include "netlist/coi.hh"
#include "netlist/netlist.hh"

namespace r2u::nl
{

/**
 * Incremental FNV-1a 64-bit hasher over an explicit byte encoding
 * (same constants as the verdict cache's record checksum). Every
 * integer is fed little-endian with its full width, so
 * `u32(1), u32(2)` and `u64(0x200000001)` hash differently from most
 * accidental concatenations; strings are length-prefixed for the same
 * reason.
 */
class Fnv64
{
  public:
    void byte(uint8_t b)
    {
        h_ ^= b;
        h_ *= 1099511628211ull;
    }

    void u32(uint32_t v)
    {
        for (unsigned i = 0; i < 4; i++)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    void u64(uint64_t v)
    {
        for (unsigned i = 0; i < 8; i++)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    void str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }

    /** Width-prefixed value bits, 64 bits at a time from bit 0. */
    void bits(const Bits &b);

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 14695981039346656037ull;
};

/**
 * Whole-netlist content hash: every cell (kind, name, width,
 * connectivity, value, slice offset, memory binding) and every memory
 * (geometry, initial contents, write-port order). Equal-count designs
 * with different logic hash differently.
 */
uint64_t structuralHash(const Netlist &nl);

/**
 * Content hash of one cone of influence: the in-cone cells and
 * memories only, each prefixed with its id. Cells outside the cone
 * cannot influence any wire a demand-driven unrolling of the seeds
 * materializes (see nl::computeCoi), so an edit confined to them
 * leaves the hash — and any verdict keyed by it — intact.
 */
uint64_t coneHash(const Netlist &nl, const Coi &coi);

/** Convenience: computeCoi(nl, seeds) then hash the cone. */
uint64_t coneHash(const Netlist &nl, const CoiSeeds &seeds);

} // namespace r2u::nl

#endif // R2U_NETLIST_HASH_HH
