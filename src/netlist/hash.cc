#include "netlist/hash.hh"

#include <algorithm>

namespace r2u::nl
{

void
Fnv64::bits(const Bits &b)
{
    u32(b.width());
    for (unsigned lo = 0; lo < b.width(); lo += 64) {
        unsigned w = b.width() - lo < 64 ? b.width() - lo : 64;
        u64(b.slice(lo, w).toUint64());
    }
}

namespace
{

void
hashCell(Fnv64 &h, const Cell &cell)
{
    h.u32(static_cast<uint32_t>(cell.kind));
    h.str(cell.name);
    h.u32(cell.width);
    h.u32(cell.lo);
    h.u32(static_cast<uint32_t>(cell.mem));
    h.u32(static_cast<uint32_t>(cell.inputs.size()));
    for (CellId in : cell.inputs)
        h.u32(static_cast<uint32_t>(in));
    h.bits(cell.value);
}

void
hashMemory(Fnv64 &h, const Memory &mem)
{
    h.str(mem.name);
    h.u32(mem.depth);
    h.u32(mem.width);
    h.u32(mem.abits);
    h.u32(static_cast<uint32_t>(mem.init.size()));
    for (const Bits &word : mem.init)
        h.bits(word);
    // Write ports in priority order; their cell content (addr/data/en
    // connectivity) is hashed by the caller's cell loop.
    h.u32(static_cast<uint32_t>(mem.writePorts.size()));
    for (CellId port : mem.writePorts)
        h.u32(static_cast<uint32_t>(port));
}

} // namespace

uint64_t
structuralHash(const Netlist &nl)
{
    Fnv64 h;
    h.u32(static_cast<uint32_t>(nl.numCells()));
    for (size_t c = 0; c < nl.numCells(); c++)
        hashCell(h, nl.cell(static_cast<CellId>(c)));
    h.u32(static_cast<uint32_t>(nl.numMemories()));
    for (size_t m = 0; m < nl.numMemories(); m++)
        hashMemory(h, nl.memory(static_cast<MemId>(m)));
    return h.value();
}

uint64_t
coneHash(const Netlist &nl, const Coi &coi)
{
    Fnv64 h;
    for (size_t c = 0; c < nl.numCells(); c++) {
        CellId id = static_cast<CellId>(c);
        if (!coi.hasCell(id))
            continue;
        h.u32(static_cast<uint32_t>(id));
        hashCell(h, nl.cell(id));
    }
    for (size_t m = 0; m < nl.numMemories(); m++) {
        MemId id = static_cast<MemId>(m);
        if (!coi.hasMem(id))
            continue;
        h.u32(static_cast<uint32_t>(id));
        hashMemory(h, nl.memory(id));
        // MemWrite cells have no output wire and are never members of
        // Coi::cells, but an in-cone array is driven by all of its
        // write ports — hash their content here so rewiring a write
        // port invalidates every cone that reads the array.
        for (CellId port : nl.memory(id).writePorts)
            hashCell(h, nl.cell(port));
    }
    return h.value();
}

uint64_t
coneHash(const Netlist &nl, const CoiSeeds &seeds)
{
    return coneHash(nl, computeCoi(nl, seeds));
}

Cone
ConeHasher::cone(CoiSeeds seeds)
{
    auto normalize = [](auto &ids) {
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    };
    normalize(seeds.cells);
    normalize(seeds.mems);
    auto key = std::make_pair(std::move(seeds.cells), std::move(seeds.mems));
    auto it = by_seeds_.find(key);
    if (it != by_seeds_.end())
        return it->second;
    Coi coi = computeCoi(nl_, {key.first, key.second});
    Cone c{coi.numCells(), hash(coi)};
    by_seeds_.emplace(std::move(key), c);
    return c;
}

uint64_t
ConeHasher::hash(const Coi &coi)
{
    auto key = std::make_pair(coi.cells, coi.mems);
    auto it = memo_.find(key);
    if (it != memo_.end())
        return it->second;
    uint64_t h = coneHash(nl_, coi);
    memo_.emplace(std::move(key), h);
    return h;
}

} // namespace r2u::nl
