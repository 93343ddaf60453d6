/**
 * @file
 * Tests for the canonical structural netlist hash (ISSUE 8): the
 * whole-netlist hash must be deterministic and must discriminate
 * same-shaped designs (equal cell/register/memory counts, different
 * logic), and the per-cone hash must track exactly the cone of
 * influence — an edit outside a cone leaves its hash (and any cached
 * verdict keyed by it) intact, an edit inside changes it.
 *
 * The store regression is the bug this hash fixes: two designs an
 * element-count fingerprint could not tell apart must miss each
 * other's stored verdicts. The memoizing nl::ConeHasher must return
 * exactly coneHash's values, one memo entry per distinct cone.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bmc/verdict_cache.hh"
#include "common/bits.hh"
#include "netlist/coi.hh"
#include "netlist/hash.hh"
#include "netlist/netlist.hh"
#include "vscale/vscale.hh"

using namespace r2u;
namespace fs = std::filesystem;

namespace
{

/**
 * A small design with two independent cones:
 *   cone A:  ra = Dff(a0 <opA> a1)
 *   cone B:  rb = Dff(b0 <opB> b1)   (operands optionally swapped)
 * plus a memory whose write data is selectable, read back into cone A
 * when @p mem_in_a. Every variant has identical cell, input, register,
 * and memory counts — only wiring/kinds/values differ.
 */
struct TwoCone
{
    nl::Netlist n;
    nl::CellId ra, rb;
    nl::MemId mem;

    TwoCone(nl::CellKind opA, nl::CellKind opB, bool swapB,
            bool mem_data_from_a1, uint64_t rb_init)
    {
        nl::CellId a0 = n.addInput("a0", 8);
        nl::CellId a1 = n.addInput("a1", 8);
        nl::CellId b0 = n.addInput("b0", 8);
        nl::CellId b1 = n.addInput("b1", 8);
        nl::CellId one = n.addConst(Bits(1, 1), "one");

        nl::CellId ga = n.addBinary(opA, a0, a1, "ga");
        nl::CellId gb = swapB ? n.addBinary(opB, b1, b0, "gb")
                              : n.addBinary(opB, b0, b1, "gb");

        mem = n.addMemory("m", 4, 8);
        nl::CellId waddr = n.addSlice(a0, 0, 2, "waddr");
        nl::CellId wdata = mem_data_from_a1
                               ? n.addBinary(nl::CellKind::Xor, a1, a1,
                                             "wdata")
                               : n.addBinary(nl::CellKind::Xor, a0, a0,
                                             "wdata");
        n.addMemWrite(mem, waddr, wdata, one);
        nl::CellId rd = n.addMemRead(mem, waddr, "rd");

        nl::CellId da = n.addBinary(nl::CellKind::Or, ga, rd, "da");
        ra = n.addDff("ra", da, one, Bits(8, 0));
        rb = n.addDff("rb", gb, one, Bits(8, rb_init));
        n.validate();
    }
};

uint64_t
coneOf(const TwoCone &d, nl::CellId seed)
{
    nl::CoiSeeds seeds;
    seeds.cells.push_back(seed);
    return nl::coneHash(d.n, seeds);
}

} // namespace

TEST(NetlistHash, DeterministicAcrossIndependentBuilds)
{
    TwoCone x(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    TwoCone y(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    EXPECT_EQ(nl::structuralHash(x.n), nl::structuralHash(y.n));
    EXPECT_EQ(coneOf(x, x.ra), coneOf(y, y.ra));
    EXPECT_EQ(coneOf(x, x.rb), coneOf(y, y.rb));
}

// The heart of the ISSUE 8 bugfix: equal-count designs with different
// logic must hash differently. The old configHash() mixed only element
// counts and could not tell any of these apart.
TEST(NetlistHash, SameShapeDifferentLogicDiscriminates)
{
    TwoCone base(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    // Different cell kind at identical counts.
    TwoCone kind(nl::CellKind::Or, nl::CellKind::Add, false, false, 7);
    // Same kinds, operands of the (commutative-looking but
    // order-sensitive in the encoding) B gate swapped.
    TwoCone swap(nl::CellKind::And, nl::CellKind::Add, true, false, 7);
    // Same gates, different register power-on value.
    TwoCone init(nl::CellKind::And, nl::CellKind::Add, false, false, 9);
    // Same gates, memory write port wired to a different data source.
    TwoCone wire(nl::CellKind::And, nl::CellKind::Add, false, true, 7);

    auto same_counts = [&](const TwoCone &d) {
        nl::NetlistStats a = base.n.stats();
        nl::NetlistStats b = d.n.stats();
        EXPECT_EQ(a.cells, b.cells);
        EXPECT_EQ(a.registers, b.registers);
        EXPECT_EQ(a.inputs, b.inputs);
        EXPECT_EQ(a.memories, b.memories);
        EXPECT_EQ(a.flopBits, b.flopBits);
        EXPECT_EQ(a.memBits, b.memBits);
    };
    same_counts(kind);
    same_counts(swap);
    same_counts(init);
    same_counts(wire);

    uint64_t h = nl::structuralHash(base.n);
    EXPECT_NE(h, nl::structuralHash(kind.n));
    EXPECT_NE(h, nl::structuralHash(swap.n));
    EXPECT_NE(h, nl::structuralHash(init.n));
    EXPECT_NE(h, nl::structuralHash(wire.n));
}

// Editing cone B must not disturb cone A's hash (that is what makes
// per-cone cache invalidation partial), and must disturb cone B's.
TEST(NetlistHash, ConeHashIsolatesIndependentCones)
{
    TwoCone base(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    TwoCone editB(nl::CellKind::And, nl::CellKind::Xor, false, false, 7);

    EXPECT_EQ(coneOf(base, base.ra), coneOf(editB, editB.ra));
    EXPECT_NE(coneOf(base, base.rb), coneOf(editB, editB.rb));

    // And the reverse: a cone-A-only edit leaves cone B alone.
    TwoCone editA(nl::CellKind::Or, nl::CellKind::Add, false, false, 7);
    EXPECT_EQ(coneOf(base, base.rb), coneOf(editA, editA.rb));
    EXPECT_NE(coneOf(base, base.ra), coneOf(editA, editA.ra));
}

// MemWrite cells have no output wire and are not members of
// Coi::cells, but their wiring changes what a reader of the array can
// observe — the cone hash must see through that.
TEST(NetlistHash, ConeHashSeesMemoryWritePortRewiring)
{
    TwoCone base(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    TwoCone wire(nl::CellKind::And, nl::CellKind::Add, false, true, 7);

    // ra reads the memory, so rewiring the write port changes its cone
    // hash; rb does not, so its hash is untouched.
    EXPECT_NE(coneOf(base, base.ra), coneOf(wire, wire.ra));
    EXPECT_EQ(coneOf(base, base.rb), coneOf(wire, wire.rb));

    // Seeding the memory directly sees the rewiring too.
    nl::CoiSeeds seeds;
    seeds.mems.push_back(base.mem);
    EXPECT_NE(nl::coneHash(base.n, seeds), nl::coneHash(wire.n, seeds));
}

// End-to-end store regression: a verdict stored for one design must
// miss for a same-shaped design with different logic, because the
// store key is a structural content hash, not element counts. Both
// key flavours synthesis uses are checked: the per-query cone hash
// and the whole-netlist hash (--full-unroll). The misses read as
// invalidations: same names and bound, new content.
TEST(NetlistHash, SameShapeDesignMissesForeignVerdict)
{
    TwoCone base(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    TwoCone other(nl::CellKind::Or, nl::CellKind::Add, false, false, 7);
    auto key = [](uint64_t content, const std::string &name) {
        nl::Fnv64 h;
        h.u64(content);
        h.str(name);
        return h.value();
    };
    auto coneKey = [&](const TwoCone &d) {
        return key(coneOf(d, d.ra), "sva_cone");
    };
    auto fullKey = [&](const TwoCone &d) {
        return key(nl::structuralHash(d.n), "sva_full");
    };

    std::string dir =
        (fs::path(::testing::TempDir()) / "same_shape_store").string();
    fs::remove_all(dir);
    {
        bmc::VerdictCache store;
        store.open(dir);
        for (auto [k, name] : {std::pair{coneKey(base), "sva_cone"},
                               std::pair{fullKey(base), "sva_full"}}) {
            bmc::VerdictCache::Record rec;
            rec.key = k;
            rec.name = name;
            rec.verdict = bmc::Verdict::Proven;
            rec.bound = 3;
            ASSERT_TRUE(store.append(rec));
        }
    }

    bmc::VerdictCache store;
    store.open(dir);
    ASSERT_EQ(store.numLoaded(), 2u);
    // The same design hits...
    EXPECT_NE(store.lookup(coneKey(base)), nullptr);
    EXPECT_NE(store.lookup(fullKey(base)), nullptr);
    // ...the rewired one misses, and knows it is an invalidation.
    EXPECT_EQ(store.lookup(coneKey(other)), nullptr);
    EXPECT_EQ(store.lookup(fullKey(other)), nullptr);
    EXPECT_TRUE(store.hasStaleEntry("sva_cone", 3, coneKey(other)));
    EXPECT_TRUE(store.hasStaleEntry("sva_full", 3, fullKey(other)));
}

// ConeHasher memoizes coneHash per distinct cone. Every value it
// returns must be exactly coneHash's: synthesis keys the verdict store
// by it, so stores written before the memo existed keep hitting.
TEST(NetlistHash, ConeHasherMatchesConeHashOnVscale)
{
    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16;
    auto design = vscale::elaborateVscale(cfg);
    const nl::Netlist &n = *design.netlist;
    const std::vector<nl::CellId> &dffs = n.dffs();
    ASSERT_FALSE(dffs.empty());
    ASSERT_GT(n.numMemories(), 0u);

    nl::ConeHasher hasher(n);
    std::set<std::pair<std::vector<bool>, std::vector<bool>>> distinct;
    std::mt19937 rng(15);
    for (int i = 0; i < 50; i++) {
        nl::CoiSeeds seeds;
        int cells = 1 + static_cast<int>(rng() % 3);
        for (int c = 0; c < cells; c++)
            seeds.cells.push_back(dffs[rng() % dffs.size()]);
        if (rng() % 4 == 0)
            seeds.mems.push_back(
                static_cast<nl::MemId>(rng() % n.numMemories()));
        nl::Coi coi = nl::computeCoi(n, seeds);
        distinct.emplace(coi.cells, coi.mems);
        EXPECT_EQ(hasher.hash(coi), nl::coneHash(n, coi)) << "set " << i;
        // A repeat is answered from the memo, with the same value.
        EXPECT_EQ(hasher.hash(coi), nl::coneHash(n, seeds)) << "set " << i;
    }
    EXPECT_EQ(hasher.size(), distinct.size());
    EXPECT_LT(hasher.size(), 50u); // some seed sets share a cone

    // Cones that differ in one memory bit only are distinct entries
    // with distinct hashes.
    nl::Coi a = nl::computeCoi(n, {{dffs.front()}, {}});
    nl::Coi b = a;
    b.mems[0] = !b.mems[0];
    distinct.emplace(a.cells, a.mems);
    distinct.emplace(b.cells, b.mems);
    uint64_t ha = hasher.hash(a);
    uint64_t hb = hasher.hash(b);
    EXPECT_NE(ha, hb);
    EXPECT_EQ(ha, nl::coneHash(n, a));
    EXPECT_EQ(hb, nl::coneHash(n, b));
    EXPECT_EQ(hasher.size(), distinct.size());
}

// ConeHasher::cone closes each distinct seed set once. A permuted or
// repeated seed list is the same set, so it must answer from the memo
// with exactly what computeCoi and coneHash give for the original.
TEST(NetlistHash, ConeOfPermutedSeedsMatchesComputeCoi)
{
    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16;
    auto design = vscale::elaborateVscale(cfg);
    const nl::Netlist &n = *design.netlist;
    const std::vector<nl::CellId> &dffs = n.dffs();
    ASSERT_GE(dffs.size(), 3u);
    ASSERT_GT(n.numMemories(), 0u);

    nl::CoiSeeds seeds{{dffs[2], dffs[0], dffs[1]}, {0}};
    nl::Coi coi = nl::computeCoi(n, seeds);
    nl::ConeHasher hasher(n);
    nl::Cone first = hasher.cone(seeds);
    EXPECT_EQ(first.cells, coi.numCells());
    EXPECT_EQ(first.hash, nl::coneHash(n, coi));

    nl::CoiSeeds shuffled{{dffs[1], dffs[2], dffs[0], dffs[2]}, {0, 0}};
    nl::Cone again = hasher.cone(shuffled);
    EXPECT_EQ(again.cells, first.cells);
    EXPECT_EQ(again.hash, first.hash);
    EXPECT_EQ(hasher.size(), 1u);

    // A different set is a different entry with its own exact values.
    nl::CoiSeeds other{{dffs[0]}, {}};
    nl::Cone c = hasher.cone(other);
    EXPECT_EQ(c.cells, nl::computeCoi(n, other).numCells());
    EXPECT_EQ(c.hash, nl::coneHash(n, other));
}
