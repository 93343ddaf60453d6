/**
 * @file
 * Tests for the content-addressed verdict cache, the one durable
 * verdict store: durable round-trips across reopens, duplicate-append
 * dedup, lenient recovery (torn tails and corrupt records are dropped,
 * a foreign or damaged header starts fresh instead of aborting),
 * fsync-failure rollback, the single-writer lock, unbounded-proof
 * reuse across bounds, stale-entry diagnostics, and — through a real
 * bmc::Engine over a synthetic multi-cone netlist — the acceptance
 * property that editing one cone re-solves only that cone's queries
 * while every other verdict replays from cache, and that an edited
 * query whose name survived is re-solved, never replayed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_map>

#include "bmc/engine.hh"
#include "bmc/verdict_cache.hh"
#include "common/bits.hh"
#include "netlist/hash.hh"
#include "netlist/netlist.hh"
#include "store_frames.hh"

using namespace r2u;
namespace fs = std::filesystem;

namespace
{

std::string
tempCacheDir(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / name;
    fs::remove_all(p);
    return p.string();
}

bmc::VerdictCache::Record
makeRecord(uint64_t key, const std::string &name,
           bmc::Verdict verdict, unsigned bound)
{
    bmc::VerdictCache::Record rec;
    rec.key = key;
    rec.name = name;
    rec.verdict = verdict;
    rec.source = bmc::VerdictSource::Solve;
    rec.validated = true;
    rec.bound = bound;
    rec.retries = 1;
    rec.seconds = 0.25;
    rec.conflicts = 17;
    rec.propagations = 1717;
    return rec;
}

void
flipByte(const std::string &path, uint64_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

} // namespace

TEST(VerdictCache, RoundTripPersistsAcrossReopens)
{
    std::string dir = tempCacheDir("vc_roundtrip");
    {
        bmc::VerdictCache c;
        c.open(dir); // creates the directory
        ASSERT_TRUE(c.isOpen());
        EXPECT_EQ(c.numLoaded(), 0u);
        EXPECT_TRUE(c.append(
            makeRecord(0x111, "a", bmc::Verdict::Proven, 3)));
        EXPECT_TRUE(c.append(
            makeRecord(0x222, "b", bmc::Verdict::Refuted, 3)));
        EXPECT_EQ(c.numAppended(), 2u);
        // numLoaded() counts what open() read from disk, not appends.
        EXPECT_EQ(c.numLoaded(), 0u);
    }
    bmc::VerdictCache c;
    c.open(dir);
    EXPECT_EQ(c.numLoaded(), 2u);
    ASSERT_NE(c.lookup(0x111), nullptr);
    ASSERT_NE(c.lookup(0x222), nullptr);
    EXPECT_EQ(c.lookup(0x333), nullptr);

    const bmc::VerdictCache::Record &a = *c.lookup(0x111);
    EXPECT_EQ(a.name, "a");
    EXPECT_EQ(a.verdict, bmc::Verdict::Proven);
    EXPECT_EQ(a.source, bmc::VerdictSource::Solve);
    EXPECT_TRUE(a.validated);
    EXPECT_EQ(a.bound, 3u);
    EXPECT_EQ(a.retries, 1u);
    EXPECT_DOUBLE_EQ(a.seconds, 0.25);
    EXPECT_EQ(a.conflicts, 17u);
    EXPECT_EQ(a.propagations, 1717u);
    EXPECT_EQ(c.lookup(0x222)->verdict, bmc::Verdict::Refuted);

    // A reopened store accepts further appends without counting them
    // as loaded, and the next open sees the union.
    EXPECT_TRUE(c.append(
        makeRecord(0x333, "c", bmc::Verdict::Proven, 3)));
    EXPECT_EQ(c.numLoaded(), 2u);
    EXPECT_EQ(c.numAppended(), 1u);
    bmc::VerdictCache next;
    next.open(dir); // read-only: c still holds the write lock
    EXPECT_EQ(next.numLoaded(), 3u);
}

// VerdictSource is stored as one byte. Records written by older builds
// carry 9 (the retired SAT-portfolio source) and 10 (Race); both must
// load, and none may cost the records after it.
TEST(VerdictCache, RetiredAndRaceSourceBytesLoad)
{
    std::string dir = tempCacheDir("vc_source_bytes");
    std::string file;
    {
        bmc::VerdictCache cache;
        cache.open(dir);
        ASSERT_TRUE(cache.isOpen());
        file = cache.filePath();
    }
    const uint8_t proven = static_cast<uint8_t>(bmc::Verdict::Proven);
    const uint8_t refuted = static_cast<uint8_t>(bmc::Verdict::Refuted);
    test::appendRawRecord(file, 0x1001, proven, 10, "race_a", 5);
    test::appendRawRecord(file, 0x1002, refuted, 9, "portfolio_b", 5);
    test::appendRawRecord(file, 0x1003, proven, 9, "portfolio_c", 5);
    test::appendRawRecord(file, 0x1004, proven, 10, "race_d", 5);

    bmc::VerdictCache cache;
    cache.open(dir);
    EXPECT_EQ(cache.numLoaded(), 4u);
    for (uint64_t k : {0x1001ull, 0x1002ull, 0x1003ull, 0x1004ull})
        ASSERT_NE(cache.lookup(k), nullptr) << std::hex << k;
    EXPECT_EQ(cache.lookup(0x1001)->source, bmc::VerdictSource::Race);
    EXPECT_EQ(cache.lookup(0x1002)->source, bmc::VerdictSource::Solve);
    EXPECT_EQ(cache.lookup(0x1002)->verdict, bmc::Verdict::Refuted);
    EXPECT_EQ(cache.lookup(0x1003)->source, bmc::VerdictSource::Solve);
    EXPECT_EQ(cache.lookup(0x1004)->source, bmc::VerdictSource::Race);
}

// Appending a key the cache already holds is a durable no-op: the
// file must not grow (shared caches would otherwise bloat on every
// warm run) and the entry count must not change.
TEST(VerdictCache, DuplicateAppendIsDeduplicated)
{
    std::string dir = tempCacheDir("vc_dedup");
    std::string file;
    uint64_t size_after_one = 0;
    {
        bmc::VerdictCache c;
        c.open(dir);
        ASSERT_TRUE(c.append(
            makeRecord(0x111, "a", bmc::Verdict::Proven, 3)));
        file = c.filePath();
        size_after_one = fs::file_size(file);

        EXPECT_TRUE(c.append(
            makeRecord(0x111, "a", bmc::Verdict::Proven, 3)));
        EXPECT_EQ(fs::file_size(file), size_after_one);
        EXPECT_EQ(c.numAppended(), 1u);
    } // close: the single-writer flock must be released for c2

    bmc::VerdictCache c2;
    c2.open(dir);
    EXPECT_EQ(c2.numLoaded(), 1u);
    // Dedup also applies to entries loaded from disk, not only to
    // this process's own appends.
    EXPECT_TRUE(c2.append(
        makeRecord(0x111, "a", bmc::Verdict::Proven, 3)));
    EXPECT_EQ(c2.numAppended(), 0u);
    EXPECT_EQ(fs::file_size(c2.filePath()), size_after_one);
}

// A run killed mid-append leaves a torn record at the tail; it must
// be dropped and the file repaired so later appends land cleanly.
TEST(VerdictCache, TornTailIsDroppedNotTrusted)
{
    std::string dir = tempCacheDir("vc_torn");
    std::string file;
    uint64_t size_after_two = 0;
    {
        bmc::VerdictCache c;
        c.open(dir);
        file = c.filePath();
        c.append(makeRecord(0x111, "a", bmc::Verdict::Proven, 3));
        c.append(makeRecord(0x222, "b", bmc::Verdict::Refuted, 3));
        size_after_two = fs::file_size(file);
        c.append(makeRecord(0x333, "c", bmc::Verdict::Proven, 3));
    }
    fs::resize_file(file, fs::file_size(file) - 5);

    bmc::VerdictCache c;
    c.open(dir);
    EXPECT_EQ(c.numLoaded(), 2u);
    EXPECT_NE(c.lookup(0x111), nullptr);
    EXPECT_NE(c.lookup(0x222), nullptr);
    EXPECT_EQ(c.lookup(0x333), nullptr);
    EXPECT_EQ(fs::file_size(file), size_after_two);
    EXPECT_TRUE(c.append(
        makeRecord(0x444, "d", bmc::Verdict::Proven, 3)));

    bmc::VerdictCache c2;
    c2.open(dir);
    EXPECT_EQ(c2.numLoaded(), 3u);
}

// A corrupt byte inside a record fails its checksum: that record and
// everything after it are dropped, never replayed as verdicts.
TEST(VerdictCache, CorruptRecordIsSkippedNotTrusted)
{
    std::string dir = tempCacheDir("vc_corrupt");
    std::string file;
    uint64_t size_after_one = 0;
    {
        bmc::VerdictCache c;
        c.open(dir);
        file = c.filePath();
        c.append(makeRecord(0x111, "a", bmc::Verdict::Proven, 3));
        size_after_one = fs::file_size(file);
        c.append(makeRecord(0x222, "b", bmc::Verdict::Refuted, 3));
        c.append(makeRecord(0x333, "c", bmc::Verdict::Proven, 3));
    }
    flipByte(file, size_after_one + 14);

    bmc::VerdictCache c;
    c.open(dir);
    EXPECT_EQ(c.numLoaded(), 1u);
    EXPECT_NE(c.lookup(0x111), nullptr);
    EXPECT_EQ(c.lookup(0x222), nullptr);
    EXPECT_EQ(c.lookup(0x333), nullptr);
    EXPECT_EQ(fs::file_size(file), size_after_one);
}

// A store with an unrecognized header is just not a store we can
// use: warn, start fresh, keep going. It can only cost re-solves, so
// it must never abort the run.
TEST(VerdictCache, DamagedHeaderStartsFreshNotFatal)
{
    std::string dir = tempCacheDir("vc_header");
    std::string file;
    {
        bmc::VerdictCache c;
        c.open(dir);
        file = c.filePath();
        c.append(makeRecord(0x111, "a", bmc::Verdict::Proven, 3));
    }
    flipByte(file, 0); // damage the magic

    bmc::VerdictCache c;
    EXPECT_NO_THROW(c.open(dir));
    ASSERT_TRUE(c.isOpen());
    EXPECT_EQ(c.numLoaded(), 0u);
    EXPECT_EQ(c.lookup(0x111), nullptr);
    // The fresh cache is fully usable.
    EXPECT_TRUE(c.append(
        makeRecord(0x222, "b", bmc::Verdict::Refuted, 3)));

    bmc::VerdictCache c2;
    c2.open(dir);
    EXPECT_EQ(c2.numLoaded(), 1u);
    EXPECT_NE(c2.lookup(0x222), nullptr);
}

// hasStaleEntry distinguishes "never solved" from "solved for content
// that has since changed" — the invalidation counter in the engine
// hangs off this.
TEST(VerdictCache, StaleEntryDetection)
{
    std::string dir = tempCacheDir("vc_stale");
    bmc::VerdictCache c;
    c.open(dir);
    c.append(makeRecord(0x111, "a", bmc::Verdict::Proven, 3));

    // Same name+bound, different content hash: stale.
    EXPECT_TRUE(c.hasStaleEntry("a", 3, 0x999));
    // Exact key present: not stale.
    EXPECT_FALSE(c.hasStaleEntry("a", 3, 0x111));
    // Different name or bound: a plain miss, not an invalidation.
    EXPECT_FALSE(c.hasStaleEntry("b", 3, 0x999));
    EXPECT_FALSE(c.hasStaleEntry("a", 4, 0x999));
}

namespace
{

/**
 * Four independent cones: r_i = Dff(in_i <op_i> k_i). Every variant
 * keeps identical cell/register/input counts; only one cone's gate
 * kind changes. kEdited names the cone the "RTL edit" rewires.
 */
constexpr int kCones = 4;
constexpr int kEdited = 2;

struct ConeDesign
{
    nl::Netlist n;
    nl::CellId regs[kCones];
    uint64_t inits[kCones];

    explicit ConeDesign(nl::CellKind edited_kind)
    {
        nl::CellId one = n.addConst(Bits(1, 1), "one");
        for (int i = 0; i < kCones; i++) {
            nl::CellKind kind = i == kEdited ? edited_kind
                                             : nl::CellKind::And;
            nl::CellId in =
                n.addInput("in" + std::to_string(i), 8);
            nl::CellId k =
                n.addConst(Bits(8, 0x11u * i + 3), "k" + std::to_string(i));
            nl::CellId g =
                n.addBinary(kind, in, k, "g" + std::to_string(i));
            inits[i] = 5 + i;
            regs[i] = n.addDff("r" + std::to_string(i), g, one,
                               Bits(8, inits[i]));
        }
        n.validate();
    }

    uint64_t coneHashOf(int i) const
    {
        nl::CoiSeeds seeds;
        seeds.cells.push_back(regs[i]);
        return nl::coneHash(n, seeds);
    }
};

/** "r_i holds its power-on value at frame 0": Proven at any bound. */
bmc::Query
initHoldsQuery(const ConeDesign &d, int i, const std::string &name,
               uint64_t content_hash)
{
    bmc::Query q;
    q.name = name;
    q.contentHash = content_hash;
    nl::CellId reg = d.regs[i];
    uint64_t init = d.inits[i];
    q.prop = [reg, init](bmc::PropCtx &ctx) {
        auto &cnf = ctx.cnf();
        return ~cnf.mkEqW(ctx.unroller().wire(0, reg),
                          cnf.constWord(Bits(8, init)));
    };
    return q;
}

/** "r_i can reach the value k_i at frame 1": Refuted at bound >= 2
 *  (reachable through both And and Or). */
bmc::Query
reachKQuery(const ConeDesign &d, int i, const std::string &name,
            uint64_t content_hash)
{
    bmc::Query q;
    q.name = name;
    q.contentHash = content_hash;
    nl::CellId reg = d.regs[i];
    uint64_t target = 0x11u * i + 3;
    q.prop = [reg, target](bmc::PropCtx &ctx) {
        auto &cnf = ctx.cnf();
        return cnf.mkEqW(ctx.unroller().wire(1, reg),
                         cnf.constWord(Bits(8, target)));
    };
    return q;
}

/**
 * Two queries per cone, content-hashed over exactly that cone's
 * slice: initHoldsQuery (Proven) and reachKQuery (Refuted — so the
 * edit changes the cone, not the verdict). Returns the number of
 * queries enqueued.
 */
size_t
enqueueConeQueries(bmc::Engine &engine, const ConeDesign &d)
{
    for (int i = 0; i < kCones; i++) {
        uint64_t cone = d.coneHashOf(i);
        auto hashed = [cone](const std::string &name) {
            nl::Fnv64 h;
            h.u64(cone);
            h.str(name);
            return h.value() == 0 ? 1 : h.value();
        };
        std::string proven = "init_holds_" + std::to_string(i);
        engine.enqueue(initHoldsQuery(d, i, proven, hashed(proven)));
        std::string refuted = "reach_k_" + std::to_string(i);
        engine.enqueue(reachKQuery(d, i, refuted, hashed(refuted)));
    }
    return 2 * kCones;
}

void
expectConeVerdicts(const std::vector<bmc::CheckResult> &res)
{
    ASSERT_EQ(res.size(), static_cast<size_t>(2 * kCones));
    for (size_t i = 0; i < res.size(); i++)
        EXPECT_EQ(res[i].verdict, i % 2 == 0 ? bmc::Verdict::Proven
                                             : bmc::Verdict::Refuted)
            << "query " << i;
}

} // namespace

// The acceptance scenario of ISSUE 8 at engine level: cold run fills
// the cache, warm run answers everything from it, and a one-cone edit
// at constant cell counts re-solves exactly that cone's queries.
TEST(VerdictCache, EngineReplayAndPartialInvalidation)
{
    std::string dir = tempCacheDir("vc_engine");
    std::unordered_map<std::string, nl::CellId> empty_map;
    const unsigned kFrames = 2;
    const size_t kQueries = 2 * kCones;

    ConeDesign base(nl::CellKind::And);

    // Cold run: every query misses, solves, and is appended.
    {
        bmc::VerdictCache cache;
        cache.open(dir);
        bmc::EngineOptions opts;
        opts.jobs = 1;
        opts.cache = &cache;
        bmc::Engine engine(base.n, empty_map, {}, kFrames, opts);
        enqueueConeQueries(engine, base);
        auto res = engine.drain();
        expectConeVerdicts(res);
        for (size_t i = 0; i < res.size(); i++) {
            EXPECT_FALSE(res[i].fromCache) << "query " << i;
            EXPECT_TRUE(res[i].cached) << "query " << i;
        }
        EXPECT_EQ(engine.stats().cacheMisses, kQueries);
        EXPECT_EQ(engine.stats().cacheHits, 0u);
        EXPECT_EQ(engine.stats().cacheInvalidations, 0u);
        EXPECT_EQ(engine.stats().cacheAppends, kQueries);
    }

    // Warm run (fresh engine + reopened cache): all hits, no appends,
    // identical verdicts.
    {
        bmc::VerdictCache cache;
        cache.open(dir);
        EXPECT_EQ(cache.numLoaded(), kQueries);
        bmc::EngineOptions opts;
        opts.jobs = 2;
        opts.cache = &cache;
        bmc::Engine engine(base.n, empty_map, {}, kFrames, opts);
        enqueueConeQueries(engine, base);
        auto res = engine.drain();
        expectConeVerdicts(res);
        for (size_t i = 0; i < res.size(); i++) {
            EXPECT_TRUE(res[i].fromCache) << "query " << i;
            // The replay keeps the original verdict provenance.
            EXPECT_EQ(res[i].source, bmc::VerdictSource::Solve)
                << "query " << i;
        }
        EXPECT_EQ(engine.stats().cacheHits, kQueries);
        EXPECT_EQ(engine.stats().cacheMisses, 0u);
        EXPECT_EQ(engine.stats().cacheAppends, 0u);
        // Nothing solved: no unroll context was ever built.
        EXPECT_EQ(engine.stats().unrollContexts, 0u);
    }

    // Edit one cone (same element counts). Only its two queries miss
    // (counted as invalidations — the cache knows their old content),
    // re-solve, and are appended under their new keys.
    {
        ConeDesign edited(nl::CellKind::Or);
        for (int i = 0; i < kCones; i++) {
            if (i == kEdited)
                EXPECT_NE(base.coneHashOf(i), edited.coneHashOf(i));
            else
                EXPECT_EQ(base.coneHashOf(i), edited.coneHashOf(i));
        }

        bmc::VerdictCache cache;
        cache.open(dir);
        bmc::EngineOptions opts;
        opts.jobs = 1;
        opts.cache = &cache;
        bmc::Engine engine(edited.n, empty_map, {}, kFrames, opts);
        enqueueConeQueries(engine, edited);
        auto res = engine.drain();
        expectConeVerdicts(res);
        for (size_t i = 0; i < res.size(); i++) {
            bool edited_cone =
                static_cast<int>(i / 2) == kEdited;
            EXPECT_EQ(res[i].fromCache, !edited_cone) << "query " << i;
        }
        EXPECT_EQ(engine.stats().cacheHits, kQueries - 2);
        EXPECT_EQ(engine.stats().cacheMisses, 2u);
        EXPECT_EQ(engine.stats().cacheInvalidations, 2u);
        EXPECT_EQ(engine.stats().cacheAppends, 2u);
        // The one worker re-solves the edited cone's two queries in a
        // single incremental context.
        EXPECT_EQ(engine.stats().unrollContexts, 1u);
    }
}

// The stale-resume regression: a query edited after its verdict was
// stored keeps its name and bound but gets a new content hash. A
// resumed run must solve it afresh — here the edit flips the verdict
// from Proven to Refuted — and count the miss as an invalidation,
// never replay the stored Proven.
TEST(VerdictCache, EditedQueryWithSameNameIsSolvedNotReplayed)
{
    std::string dir = tempCacheDir("vc_stale_resume");
    std::unordered_map<std::string, nl::CellId> empty_map;
    ConeDesign d(nl::CellKind::And);
    const unsigned kFrames = 2;
    {
        bmc::VerdictCache cache;
        cache.open(dir);
        bmc::EngineOptions opts;
        opts.jobs = 1;
        opts.cache = &cache;
        bmc::Engine engine(d.n, empty_map, {}, kFrames, opts);
        engine.enqueue(initHoldsQuery(d, 0, "sva_a", 0xa1));
        auto res = engine.drain();
        ASSERT_EQ(res.size(), 1u);
        ASSERT_EQ(res[0].verdict, bmc::Verdict::Proven);
        ASSERT_TRUE(res[0].cached);
    }

    bmc::VerdictCache cache;
    cache.open(dir);
    ASSERT_EQ(cache.numLoaded(), 1u);
    bmc::EngineOptions opts;
    opts.jobs = 1;
    opts.cache = &cache;
    bmc::Engine engine(d.n, empty_map, {}, kFrames, opts);
    engine.enqueue(reachKQuery(d, 0, "sva_a", 0xa2));
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res[0].verdict, bmc::Verdict::Refuted);
    EXPECT_FALSE(res[0].fromCache);
    EXPECT_TRUE(res[0].cached);
    EXPECT_EQ(engine.stats().cacheHits, 0u);
    EXPECT_EQ(engine.stats().cacheMisses, 1u);
    EXPECT_EQ(engine.stats().cacheInvalidations, 1u);
    EXPECT_EQ(engine.stats().unrollContexts, 1u);
}

// Bound semantics: an unbounded Proven record answers the same cone +
// property (its bound-independent baseHash) at any bound, while a
// bounded record answers only its exact content key.
TEST(VerdictCache, UnboundedProofAnswersAnyBound)
{
    std::string dir = tempCacheDir("vc_unbounded");
    std::unordered_map<std::string, nl::CellId> empty_map;
    ConeDesign d(nl::CellKind::And);
    {
        bmc::VerdictCache cache;
        cache.open(dir);
        bmc::VerdictCache::Record proof =
            makeRecord(0xb2, "proof", bmc::Verdict::Proven, 2);
        proof.unbounded = true;
        proof.baseKey = 0xbb;
        ASSERT_TRUE(cache.append(proof));
        bmc::VerdictCache::Record bounded =
            makeRecord(0xc2, "bounded", bmc::Verdict::Proven, 2);
        bounded.baseKey = 0xcc; // not unbounded: must not be indexed
        ASSERT_TRUE(cache.append(bounded));
        bmc::VerdictCache::Record cex =
            makeRecord(0xd2, "cex", bmc::Verdict::Refuted, 2);
        cex.unbounded = true; // only Proven verdicts generalize
        cex.baseKey = 0xdd;
        ASSERT_TRUE(cache.append(cex));
    }

    bmc::VerdictCache cache;
    cache.open(dir);
    ASSERT_EQ(cache.numLoaded(), 3u);
    ASSERT_NE(cache.lookupUnbounded(0xbb), nullptr);
    EXPECT_EQ(cache.lookupUnbounded(0xbb)->key, 0xb2u);
    EXPECT_EQ(cache.lookupUnbounded(0xcc), nullptr);
    EXPECT_EQ(cache.lookupUnbounded(0xdd), nullptr);
    EXPECT_EQ(cache.lookupUnbounded(0), nullptr);

    // Ask both proven questions at bound 4: new content keys (the
    // bound is part of them), same base keys.
    bmc::EngineOptions opts;
    opts.jobs = 1;
    opts.cache = &cache;
    bmc::Engine engine(d.n, empty_map, {}, 4, opts);
    bmc::Query proof = initHoldsQuery(d, 0, "proof", 0xb4);
    proof.baseHash = 0xbb;
    engine.enqueue(std::move(proof));
    bmc::Query bounded = initHoldsQuery(d, 1, "bounded", 0xc4);
    bounded.baseHash = 0xcc;
    engine.enqueue(std::move(bounded));
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 2u);
    EXPECT_EQ(res[0].verdict, bmc::Verdict::Proven);
    EXPECT_TRUE(res[0].fromCache);
    EXPECT_TRUE(res[0].unbounded);
    EXPECT_EQ(res[0].bound, 4u);
    EXPECT_EQ(res[1].verdict, bmc::Verdict::Proven);
    EXPECT_FALSE(res[1].fromCache);
    EXPECT_EQ(engine.stats().cacheHits, 1u);
    EXPECT_EQ(engine.stats().cacheMisses, 1u);
}

// Unknown verdicts must never be cached: an aborted/budgeted query
// has no answer worth replaying, and caching it would freeze the
// give-up forever.
TEST(VerdictCache, UnknownVerdictsAreNotCached)
{
    std::string dir = tempCacheDir("vc_unknown");
    std::unordered_map<std::string, nl::CellId> empty_map;
    ConeDesign d(nl::CellKind::And);

    bmc::VerdictCache cache;
    cache.open(dir);
    bmc::EngineOptions opts;
    opts.jobs = 1;
    opts.conflictBudget = 0; // every solve gives up immediately
    opts.cache = &cache;
    bmc::Engine engine(d.n, empty_map, {}, 2, opts);

    bmc::Query q;
    q.name = "budgeted";
    q.contentHash = 0xfeedbeef;
    nl::CellId reg = d.regs[0];
    q.prop = [reg](bmc::PropCtx &ctx) {
        auto &cnf = ctx.cnf();
        return cnf.mkEqW(ctx.unroller().wire(1, reg),
                         cnf.constWord(Bits(8, 0)));
    };
    engine.enqueue(std::move(q));
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res[0].verdict, bmc::Verdict::Unknown);
    EXPECT_FALSE(res[0].cached);
    EXPECT_EQ(engine.stats().cacheAppends, 0u);
    EXPECT_EQ(engine.stats().cacheMisses, 1u);

    bmc::VerdictCache c2;
    c2.open(dir);
    EXPECT_EQ(c2.numLoaded(), 0u);
}

// A query without a content hash (contentHash == 0) opts out of the
// cache entirely — it is neither looked up nor stored, and the
// hit/miss accounting ignores it.
TEST(VerdictCache, UnhashedQueriesBypassTheCache)
{
    std::string dir = tempCacheDir("vc_unhashed");
    std::unordered_map<std::string, nl::CellId> empty_map;
    ConeDesign d(nl::CellKind::And);

    for (int round = 0; round < 2; round++) {
        bmc::VerdictCache cache;
        cache.open(dir);
        bmc::EngineOptions opts;
        opts.jobs = 1;
        opts.cache = &cache;
        bmc::Engine engine(d.n, empty_map, {}, 2, opts);

        bmc::Query q;
        q.name = "unhashed";
        q.contentHash = 0;
        nl::CellId reg = d.regs[0];
        uint64_t init = d.inits[0];
        q.prop = [reg, init](bmc::PropCtx &ctx) {
            auto &cnf = ctx.cnf();
            return ~cnf.mkEqW(ctx.unroller().wire(0, reg),
                              cnf.constWord(Bits(8, init)));
        };
        engine.enqueue(std::move(q));
        auto res = engine.drain();
        ASSERT_EQ(res.size(), 1u);
        EXPECT_EQ(res[0].verdict, bmc::Verdict::Proven);
        EXPECT_FALSE(res[0].fromCache);
        EXPECT_FALSE(res[0].cached);
        EXPECT_EQ(engine.stats().cacheHits, 0u);
        EXPECT_EQ(engine.stats().cacheMisses, 0u);
        EXPECT_EQ(engine.stats().cacheAppends, 0u);
        EXPECT_EQ(cache.numLoaded(), 0u);
    }
}

// Single-writer flock (ISSUE 10 satellite): the second live opener of
// a shared --cache DIR degrades to read-only — lookups still served,
// appends silently refused — instead of interleaving frames with the
// writer. flock(2) is per open file description, so two opens in one
// process exercise the real conflict.
TEST(VerdictCache, SecondOpenerFallsBackToReadOnly)
{
    std::string dir = tempCacheDir("vc_flock");
    bmc::VerdictCache writer;
    writer.open(dir);
    ASSERT_TRUE(writer.isOpen());
    EXPECT_FALSE(writer.readOnly());
    ASSERT_TRUE(
        writer.append(makeRecord(0x111, "a", bmc::Verdict::Proven, 3)));

    bmc::VerdictCache reader;
    reader.open(dir);
    EXPECT_TRUE(reader.isOpen());
    EXPECT_TRUE(reader.readOnly());
    // Cached verdicts are served...
    ASSERT_NE(reader.lookup(0x111), nullptr);
    EXPECT_EQ(reader.lookup(0x111)->name, "a");
    // ...but new ones are not stored, and the store stays untouched;
    // the reader still remembers them in memory.
    uint64_t size = fs::file_size(writer.filePath());
    EXPECT_FALSE(
        reader.append(makeRecord(0x222, "b", bmc::Verdict::Refuted, 3)));
    EXPECT_EQ(reader.numAppended(), 0u);
    EXPECT_EQ(fs::file_size(writer.filePath()), size);
    EXPECT_NE(reader.lookup(0x222), nullptr);
    EXPECT_EQ(writer.lookup(0x222), nullptr);

    // The writer is unaffected by the reader's existence.
    EXPECT_TRUE(
        writer.append(makeRecord(0x333, "c", bmc::Verdict::Proven, 3)));
}

TEST(VerdictCache, WriteLockReleasedOnClose)
{
    std::string dir = tempCacheDir("vc_flock2");
    {
        bmc::VerdictCache writer;
        writer.open(dir);
        ASSERT_TRUE(writer.append(
            makeRecord(0x111, "a", bmc::Verdict::Proven, 3)));
    }
    bmc::VerdictCache next;
    next.open(dir);
    EXPECT_FALSE(next.readOnly());
    EXPECT_EQ(next.numLoaded(), 1u);
    EXPECT_TRUE(
        next.append(makeRecord(0x222, "b", bmc::Verdict::Refuted, 3)));
}

// A torn append (chaos "torn", or a full disk) must roll the store
// back to the last durable frame and stop writing for the run — the
// file stays loadable and every durable verdict survives. Verdicts
// that could not be written still answer lookups from memory until
// the process ends, so a long-lived daemon does not re-solve them.
TEST(VerdictCache, TornAppendRollsBackAndDisables)
{
    std::string dir = tempCacheDir("vc_torn_append");
    std::string file;
    {
        bmc::VerdictCache c;
        c.open(dir);
        file = c.filePath();
        ASSERT_TRUE(c.append(
            makeRecord(0x111, "a", bmc::Verdict::Proven, 3)));
        uint64_t good = fs::file_size(file);

        c.setWriteFault([](size_t n) {
            return static_cast<ssize_t>(n / 2);
        });
        EXPECT_FALSE(c.append(
            makeRecord(0x222, "b", bmc::Verdict::Refuted, 3)));
        EXPECT_TRUE(c.disabled());
        EXPECT_EQ(fs::file_size(file), good);

        c.setWriteFault(nullptr);
        EXPECT_FALSE(c.append(
            makeRecord(0x333, "c", bmc::Verdict::Proven, 3)));
        EXPECT_EQ(c.numAppended(), 1u);
        EXPECT_EQ(fs::file_size(file), good);
        // Lookups keep working from memory after the store degrades.
        EXPECT_NE(c.lookup(0x111), nullptr);
        ASSERT_NE(c.lookup(0x222), nullptr);
        EXPECT_EQ(c.lookup(0x222)->verdict, bmc::Verdict::Refuted);
        EXPECT_NE(c.lookup(0x333), nullptr);
    }
    bmc::VerdictCache c;
    c.open(dir);
    EXPECT_EQ(c.numLoaded(), 1u);
    EXPECT_NE(c.lookup(0x111), nullptr);
    EXPECT_EQ(c.lookup(0x222), nullptr);
    EXPECT_EQ(c.lookup(0x333), nullptr);
}
