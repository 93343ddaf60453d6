/**
 * @file
 * Tests for the parallel + incremental BMC query engine. Every jobs
 * value runs the same incremental-under-assumptions path (one
 * long-lived solver context per worker per bound); the reference
 * oracle is ValidateMode::Full, which replays every counterexample and
 * re-solves every proof in a fresh, non-incremental context. On random
 * netlists, a jobs = 1 engine under that oracle must report zero
 * mismatches and agree query-for-query with a jobs = 3 engine; on the
 * multi-V-scale, a parallel synthesis run must reproduce the
 * one-worker run's SVA records and µspec model exactly.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <algorithm>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <tuple>

#include "bmc/engine.hh"
#include "common/json.hh"
#include "netlist/hash.hh"
#include "random_netlist.hh"
#include "rtl2uspec/synthesis.hh"
#include "sim/simulator.hh"
#include "vscale/metadata.hh"
#include "vscale/vscale.hh"

using namespace r2u;
using r2u::test::RandomDesign;
using r2u::test::makeRandom;

TEST(BmcEngine, ResolveJobs)
{
    EXPECT_GE(bmc::resolveJobs(0), 1u);
    EXPECT_EQ(bmc::resolveJobs(1), 1u);
    EXPECT_EQ(bmc::resolveJobs(7), 7u);
}

namespace
{

/**
 * Build a batch of properties for a simulated random design: one
 * "probes cannot deviate from the interpreter" query per frame prefix
 * (all Proven) and one corrupted-expectation query per probe (all
 * Refuted). Returns the expected verdicts in enqueue order.
 */
std::vector<bmc::Verdict>
enqueueQueries(bmc::Engine &engine, const RandomDesign &d,
               const std::vector<std::vector<Bits>> &stim,
               const std::vector<std::vector<Bits>> &expect,
               unsigned frames)
{
    std::vector<bmc::Verdict> want;
    auto pin_inputs = [&d, &stim](bmc::PropCtx &ctx, unsigned upto) {
        auto &cnf = ctx.cnf();
        for (unsigned f = 0; f < upto; f++)
            for (size_t i = 0; i < d.inputs.size(); i++)
                ctx.assume(cnf.mkEqW(
                    ctx.unroller().wire(f, d.inputs[i]),
                    cnf.constWord(stim[f][i])));
    };

    for (unsigned upto = 1; upto <= frames; upto++) {
        bmc::Query q;
        q.name = "agree_upto_" + std::to_string(upto);
        q.prop = [&d, &expect, pin_inputs, upto](bmc::PropCtx &ctx) {
            auto &cnf = ctx.cnf();
            pin_inputs(ctx, upto);
            sat::Lit bad = cnf.falseLit();
            for (unsigned f = 0; f < upto; f++)
                for (size_t i = 0; i < d.probes.size(); i++)
                    bad = cnf.mkOr(
                        bad, ~cnf.mkEqW(
                                 ctx.unroller().wire(f, d.probes[i]),
                                 cnf.constWord(expect[f][i])));
            return bad;
        };
        engine.enqueue(std::move(q));
        want.push_back(bmc::Verdict::Proven);
    }

    for (size_t p = 0; p < d.probes.size(); p++) {
        bmc::Query q;
        q.name = "corrupt_probe_" + std::to_string(p);
        q.prop = [&d, &expect, pin_inputs, frames, p](bmc::PropCtx &ctx) {
            auto &cnf = ctx.cnf();
            pin_inputs(ctx, frames);
            Bits wrong = ~expect[frames - 1][p];
            return ~cnf.mkEqW(
                ctx.unroller().wire(frames - 1, d.probes[p]),
                cnf.constWord(wrong));
        };
        engine.enqueue(std::move(q));
        want.push_back(bmc::Verdict::Refuted);
    }
    return want;
}

/** Drive random inputs through the simulator: stim[f] holds the
 *  frame-f inputs, expect[f] the probe values they produce. */
void
simulateRandom(const RandomDesign &d, std::mt19937 &rng, unsigned frames,
               std::vector<std::vector<Bits>> &stim,
               std::vector<std::vector<Bits>> &expect)
{
    sim::Simulator sim(d.netlist);
    stim.assign(frames, {});
    expect.assign(frames, {});
    for (unsigned f = 0; f < frames; f++) {
        for (nl::CellId in : d.inputs) {
            Bits v(d.netlist.cell(in).width,
                   static_cast<uint64_t>(rng()));
            sim.setInput(in, v);
            stim[f].push_back(v);
        }
        for (nl::CellId p : d.probes)
            expect[f].push_back(sim.value(p));
        sim.step();
    }
}

} // namespace

class EngineRandomTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineRandomTest, IncrementalMatchesFresh)
{
    std::mt19937 rng(4242 + GetParam());
    RandomDesign d = makeRandom(rng);
    const unsigned kFrames = 6;
    std::vector<std::vector<Bits>> stim, expect;
    simulateRandom(d, rng, kFrames, stim, expect);

    std::unordered_map<std::string, nl::CellId> empty_map;

    bmc::EngineOptions seq_opts;
    seq_opts.jobs = 1;
    seq_opts.validate = bmc::ValidateMode::Full;
    bmc::Engine sequential(d.netlist, empty_map, {}, kFrames, seq_opts);

    bmc::EngineOptions par_opts;
    par_opts.jobs = 3;
    bmc::Engine parallel(d.netlist, empty_map, {}, kFrames, par_opts);
    EXPECT_EQ(parallel.jobs(), 3u);

    auto want = enqueueQueries(sequential, d, stim, expect, kFrames);
    auto want2 = enqueueQueries(parallel, d, stim, expect, kFrames);
    ASSERT_EQ(want, want2);

    auto seq_results = sequential.drain();
    auto par_results = parallel.drain();
    ASSERT_EQ(seq_results.size(), want.size());
    ASSERT_EQ(par_results.size(), want.size());
    for (size_t i = 0; i < want.size(); i++) {
        EXPECT_EQ(seq_results[i].verdict, want[i]) << "query " << i;
        EXPECT_EQ(par_results[i].verdict, want[i]) << "query " << i;
        // The fresh-context oracle confirmed every incremental verdict.
        EXPECT_TRUE(seq_results[i].validated) << "query " << i;
        EXPECT_EQ(seq_results[i].validationMismatches, 0u)
            << "query " << i;
        if (want[i] == bmc::Verdict::Refuted) {
            EXPECT_FALSE(seq_results[i].trace.toString().empty());
            EXPECT_FALSE(par_results[i].trace.toString().empty());
        }
    }
    EXPECT_EQ(sequential.stats().validationMismatches, 0u);
    EXPECT_EQ(sequential.stats().validationFailures, 0u);
    // The parallel engine shares unroll contexts: at most one per
    // worker here (single bound), never one per query.
    EXPECT_GE(parallel.stats().unrollContexts, 1u);
    EXPECT_LE(parallel.stats().unrollContexts, 3u);
    EXPECT_EQ(parallel.stats().queries, want.size());

    // A second batch on the warm engine must behave identically.
    auto want3 = enqueueQueries(parallel, d, stim, expect, kFrames);
    auto warm_results = parallel.drain();
    ASSERT_EQ(warm_results.size(), want3.size());
    for (size_t i = 0; i < want3.size(); i++)
        EXPECT_EQ(warm_results[i].verdict, want3[i]) << "query " << i;
    EXPECT_LE(parallel.stats().unrollContexts, 3u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomTest,
                         ::testing::Range(0, 6));

TEST(BmcEngine, SingleJobServesBatchFromOneContext)
{
    // jobs = 1 is the pool with one worker: the whole single-bound
    // batch shares one incremental context instead of building a
    // fresh solver and unroller per query.
    std::mt19937 rng(4242);
    RandomDesign d = makeRandom(rng);
    const unsigned kFrames = 4;
    std::vector<std::vector<Bits>> stim, expect;
    simulateRandom(d, rng, kFrames, stim, expect);

    std::unordered_map<std::string, nl::CellId> empty_map;
    bmc::EngineOptions opts;
    opts.jobs = 1;
    bmc::Engine engine(d.netlist, empty_map, {}, kFrames, opts);
    auto want = enqueueQueries(engine, d, stim, expect, kFrames);
    ASSERT_GT(want.size(), 1u);
    auto results = engine.drain();
    ASSERT_EQ(results.size(), want.size());
    for (size_t i = 0; i < want.size(); i++)
        EXPECT_EQ(results[i].verdict, want[i]) << "query " << i;
    EXPECT_EQ(engine.jobs(), 1u);
    EXPECT_EQ(engine.stats().unrollContexts, 1u);
    EXPECT_EQ(engine.stats().queries, want.size());
}

namespace
{

vscale::Config
formalConfig()
{
    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16; // keeps per-SVA CNFs small
    return cfg;
}

rtl2uspec::SynthesisResult
synthesizeAt(unsigned jobs, bool full_unroll = false)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = vscale::vscaleMetadata(formalConfig());
    rtl2uspec::SynthesisOptions opts;
    opts.jobs = jobs;
    opts.fullUnroll = full_unroll;
    return rtl2uspec::synthesize(design, md, opts);
}

void
expectSameSynthesis(const rtl2uspec::SynthesisResult &a,
                    const rtl2uspec::SynthesisResult &b)
{
    // Same SVA records: names, categories, verdicts, hypothesis
    // counts, and locality — in the same order.
    ASSERT_EQ(a.svas.size(), b.svas.size());
    for (size_t i = 0; i < a.svas.size(); i++) {
        EXPECT_EQ(a.svas[i].name, b.svas[i].name) << "SVA " << i;
        EXPECT_EQ(a.svas[i].category, b.svas[i].category)
            << a.svas[i].name;
        EXPECT_EQ(a.svas[i].verdict, b.svas[i].verdict)
            << a.svas[i].name;
        EXPECT_EQ(a.svas[i].hypotheses, b.svas[i].hypotheses)
            << a.svas[i].name;
        EXPECT_EQ(a.svas[i].global, b.svas[i].global) << a.svas[i].name;
        EXPECT_EQ(a.svas[i].text, b.svas[i].text) << a.svas[i].name;
    }

    // Same hypothesis/HBI tallies per category.
    ASSERT_EQ(a.stats.size(), b.stats.size());
    for (const auto &[cat, sa] : a.stats) {
        ASSERT_TRUE(b.stats.count(cat)) << cat;
        const auto &sb = b.stats.at(cat);
        EXPECT_EQ(sa.svas, sb.svas) << cat;
        EXPECT_EQ(sa.hypLocal, sb.hypLocal) << cat;
        EXPECT_EQ(sa.hypGlobal, sb.hypGlobal) << cat;
        EXPECT_EQ(sa.hbiLocal, sb.hbiLocal) << cat;
        EXPECT_EQ(sa.hbiGlobal, sb.hbiGlobal) << cat;
    }

    // Same per-instruction membership and identical emitted model.
    EXPECT_EQ(a.instrNodes, b.instrNodes);
    EXPECT_EQ(a.model.print(), b.model.print());
    EXPECT_EQ(a.bugs.size(), b.bugs.size());
}

} // namespace

TEST(BmcEngine, VscaleParallelSynthesisMatchesSequential)
{
    rtl2uspec::SynthesisResult seq = synthesizeAt(1);
    rtl2uspec::SynthesisResult par = synthesizeAt(4);

    EXPECT_EQ(seq.jobs, 1u);
    EXPECT_EQ(par.jobs, 4u);
    // One context per worker (every SVA runs at the metadata bound),
    // shared across that worker's queries.
    EXPECT_EQ(seq.unrollContexts, 1u);
    EXPECT_GE(par.unrollContexts, 1u);
    EXPECT_LE(par.unrollContexts, 4u);

    expectSameSynthesis(seq, par);
}

namespace
{

/** Per core: "the fetch register moves" (Refuted) and "the fetch PC
 *  lands misaligned" (Proven), at a small bound. */
std::vector<bmc::Verdict>
enqueueVscaleQueries(bmc::Engine &engine,
                     const rtl2uspec::DesignMetadata &md, unsigned bound)
{
    std::vector<bmc::Verdict> want;
    for (const auto &core : md.cores) {
        bmc::Query moves;
        moves.name = core.prefix + "ifr_moves";
        std::string ifr = core.ifr;
        moves.prop = [ifr, bound](bmc::PropCtx &ctx) {
            sat::Lit bad = ctx.cnf().falseLit();
            for (unsigned f = 1; f < bound; f++)
                bad = ctx.cnf().mkOr(bad, ctx.changedAt(f, ifr));
            return bad;
        };
        moves.bound = bound;
        engine.enqueue(std::move(moves));
        want.push_back(bmc::Verdict::Refuted);

        bmc::Query aligned;
        aligned.name = core.prefix + "pc_aligned";
        std::string pc = core.imPc;
        aligned.prop = [pc, bound](bmc::PropCtx &ctx) {
            return ctx.eqConst(bound - 1, pc, 2);
        };
        aligned.bound = bound;
        engine.enqueue(std::move(aligned));
        want.push_back(bmc::Verdict::Proven);
    }
    return want;
}

} // namespace

TEST(BmcEngine, VscaleJobsOneFullValidationMatchesParallel)
{
    // Reference: one worker under ValidateMode::Full, so every
    // counterexample replays through the simulator and every proof is
    // re-solved in a fresh, non-incremental context.
    constexpr unsigned kBound = 5;
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = vscale::vscaleMetadata(formalConfig());

    bmc::EngineOptions ref_opts;
    ref_opts.jobs = 1;
    ref_opts.validate = bmc::ValidateMode::Full;
    bmc::Engine reference(*design.netlist, design.signalMap, {}, kBound,
                          ref_opts);
    bmc::EngineOptions par_opts;
    par_opts.jobs = 2;
    par_opts.validate = bmc::ValidateMode::Full;
    bmc::Engine parallel(*design.netlist, design.signalMap, {}, kBound,
                         par_opts);

    auto want = enqueueVscaleQueries(reference, md, kBound);
    ASSERT_EQ(want, enqueueVscaleQueries(parallel, md, kBound));
    auto ref_res = reference.drain();
    auto par_res = parallel.drain();
    ASSERT_EQ(ref_res.size(), want.size());
    ASSERT_EQ(par_res.size(), want.size());
    for (size_t i = 0; i < want.size(); i++) {
        EXPECT_EQ(ref_res[i].verdict, want[i]) << "query " << i;
        EXPECT_EQ(par_res[i].verdict, want[i]) << "query " << i;
        EXPECT_TRUE(ref_res[i].validated) << "query " << i;
        EXPECT_TRUE(par_res[i].validated) << "query " << i;
    }
    for (const bmc::Engine *e : {&reference, &parallel}) {
        EXPECT_EQ(e->stats().validationMismatches, 0u);
        EXPECT_EQ(e->stats().validationFailures, 0u);
        EXPECT_GT(e->stats().replays, 0u);
        EXPECT_GT(e->stats().proofRechecks, 0u);
    }
    EXPECT_EQ(reference.stats().unrollContexts, 1u);
}

namespace
{

/**
 * A query whose CNF is a pigeonhole instance over rigid bits —
 * independent of the design, UNSAT (Proven), and deterministically
 * hard, so budgets/deadlines/interrupts fire without timing luck.
 */
bmc::Query
pigeonholeQuery(const std::string &name, int pigeons, int holes)
{
    bmc::Query q;
    q.name = name;
    q.prop = [pigeons, holes](bmc::PropCtx &ctx) {
        auto &cnf = ctx.cnf();
        std::vector<std::vector<sat::Lit>> p(pigeons);
        for (int i = 0; i < pigeons; i++)
            for (int j = 0; j < holes; j++)
                p[i].push_back(ctx.rigid("p_" + std::to_string(i) +
                                             "_" + std::to_string(j),
                                         1)[0]);
        for (int i = 0; i < pigeons; i++) {
            sat::Lit any = cnf.falseLit();
            for (int j = 0; j < holes; j++)
                any = cnf.mkOr(any, p[i][j]);
            ctx.assume(any);
        }
        for (int j = 0; j < holes; j++)
            for (int i1 = 0; i1 < pigeons; i1++)
                for (int i2 = i1 + 1; i2 < pigeons; i2++)
                    ctx.assume(cnf.mkOr(~p[i1][j], ~p[i2][j]));
        return cnf.trueLit();
    };
    return q;
}

} // namespace

TEST(BmcEngine, TightBudgetYieldsUnknownNotWrongVerdict)
{
    std::mt19937 rng(91);
    RandomDesign d = makeRandom(rng);
    std::unordered_map<std::string, nl::CellId> empty_map;

    bmc::EngineOptions tight;
    tight.jobs = 1;
    tight.conflictBudget = 5;
    bmc::Engine engine(d.netlist, empty_map, {}, 2, tight);
    engine.enqueue(pigeonholeQuery("php", 7, 6));
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res[0].verdict, bmc::Verdict::Unknown);
    EXPECT_EQ(res[0].source, bmc::VerdictSource::ConflictBudget);
    EXPECT_EQ(res[0].retries, 0u);
    EXPECT_EQ(engine.stats().unknowns, 1u);
    EXPECT_EQ(engine.stats().retries, 0u);
}

TEST(BmcEngine, RetryEscalationResolvesUnknowns)
{
    std::mt19937 rng(92);
    RandomDesign d = makeRandom(rng);
    std::unordered_map<std::string, nl::CellId> empty_map;

    // Same tight first pass as above, but escalation multiplies the
    // budget per retry until the instance resolves — the final verdict
    // must be the true one (Proven: pigeonhole is UNSAT).
    bmc::EngineOptions esc;
    esc.jobs = 1;
    esc.conflictBudget = 5;
    esc.retryEscalation = 10.0;
    esc.maxRetries = 8;
    bmc::Engine fresh(d.netlist, empty_map, {}, 2, esc);
    fresh.enqueue(pigeonholeQuery("php", 7, 6));
    auto res = fresh.drain();
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res[0].verdict, bmc::Verdict::Proven);
    EXPECT_EQ(res[0].source, bmc::VerdictSource::Retry);
    EXPECT_GT(res[0].retries, 0u);
    EXPECT_EQ(fresh.stats().unknowns, 0u);
    EXPECT_GT(fresh.stats().retries, 0u);

    // The incremental (jobs >= 2) path retries on the shared solver
    // context; learnt clauses carry over between attempts.
    esc.jobs = 2;
    bmc::Engine incr(d.netlist, empty_map, {}, 2, esc);
    incr.enqueue(pigeonholeQuery("php_a", 7, 6));
    incr.enqueue(pigeonholeQuery("php_b", 7, 6));
    auto res2 = incr.drain();
    ASSERT_EQ(res2.size(), 2u);
    for (const auto &r : res2) {
        EXPECT_EQ(r.verdict, bmc::Verdict::Proven);
        EXPECT_EQ(r.source, bmc::VerdictSource::Retry);
        EXPECT_GT(r.retries, 0u);
    }
    EXPECT_EQ(incr.stats().unknowns, 0u);
}

TEST(BmcEngine, InterruptMidFlightYieldsUnknown)
{
    std::mt19937 rng(93);
    RandomDesign d = makeRandom(rng);
    std::unordered_map<std::string, nl::CellId> empty_map;

    bmc::EngineOptions opts;
    opts.jobs = 2;
    // Backstop so a broken interrupt cannot hang CI; the interrupt
    // fires orders of magnitude earlier.
    opts.querySeconds = 20.0;
    bmc::Engine engine(d.netlist, empty_map, {}, 2, opts);
    for (int i = 0; i < 4; i++)
        engine.enqueue(
            pigeonholeQuery("php_" + std::to_string(i), 11, 10));

    std::thread stopper([&engine] {
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        engine.interrupt();
    });
    auto results = engine.drain();
    stopper.join();
    ASSERT_EQ(results.size(), 4u);
    for (const auto &r : results) {
        // Never a wrong definite verdict: an interrupted solve must
        // come back Unknown, tagged with why.
        EXPECT_EQ(r.verdict, bmc::Verdict::Unknown);
        EXPECT_TRUE(r.source == bmc::VerdictSource::Interrupted ||
                    r.source == bmc::VerdictSource::Cancelled)
            << bmc::verdictSourceName(r.source);
    }
    EXPECT_EQ(engine.stats().unknowns, 4u);

    // The engine survives the interrupt: clear it and run more work.
    engine.clearInterrupt();
    EXPECT_FALSE(engine.interrupted());
    bmc::Query easy;
    easy.name = "easy";
    easy.prop = [](bmc::PropCtx &ctx) { return ctx.cnf().falseLit(); };
    engine.enqueue(std::move(easy));
    auto after = engine.drain();
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].verdict, bmc::Verdict::Proven);
    EXPECT_EQ(after[0].source, bmc::VerdictSource::Solve);
}

TEST(BmcEngine, TotalTimeoutCancelsQueuedQueries)
{
    std::mt19937 rng(94);
    RandomDesign d = makeRandom(rng);
    std::unordered_map<std::string, nl::CellId> empty_map;

    bmc::EngineOptions opts;
    opts.jobs = 1;
    opts.totalSeconds = 0.1;
    bmc::Engine engine(d.netlist, empty_map, {}, 2, opts);
    for (int i = 0; i < 3; i++)
        engine.enqueue(
            pigeonholeQuery("php_" + std::to_string(i), 11, 10));
    auto results = engine.drain();
    ASSERT_EQ(results.size(), 3u);
    for (const auto &r : results) {
        EXPECT_EQ(r.verdict, bmc::Verdict::Unknown);
        EXPECT_TRUE(r.source == bmc::VerdictSource::TotalDeadline ||
                    r.source == bmc::VerdictSource::Cancelled)
            << bmc::verdictSourceName(r.source);
    }
    // Once the total deadline has passed mid-batch, the tail of the
    // queue is never solved at all.
    EXPECT_EQ(results.back().source, bmc::VerdictSource::Cancelled);
    EXPECT_EQ(engine.stats().unknowns, 3u);
}

TEST(BmcEngine, VscaleSlicedMatchesFullUnroll)
{
    rtl2uspec::SynthesisResult sliced = synthesizeAt(4, false);
    rtl2uspec::SynthesisResult eager = synthesizeAt(4, true);

    EXPECT_FALSE(sliced.fullUnroll);
    EXPECT_TRUE(eager.fullUnroll);
    expectSameSynthesis(sliced, eager);

    // On the multi-V-scale every Fig. 4 template reads the PCRs, whose
    // cone reaches most of the design through branch resolution and
    // the shared-bus arbiter — so slicing trims but cannot collapse
    // these queries. It must never lose: sliced CNFs stay no larger
    // than the eager ones, and every query carries COI stats.
    EXPECT_GT(sliced.meanCnfVars, 0.0);
    EXPECT_LE(sliced.meanCnfVars, eager.meanCnfVars);
    for (const auto &rec : sliced.svas)
        EXPECT_GT(rec.coiCells, 0u) << rec.name;
}

// A killed run resumes through --cache: every verdict that reached
// the store before the kill replays, the torn tail is dropped and its
// query re-solved, and the model comes out bit-for-bit the same.
TEST(BmcEngine, VscaleCacheResumeIdentity)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::path(::testing::TempDir()) / "vscale_resume").string();
    fs::remove_all(dir);

    auto design = vscale::elaborateVscale(formalConfig());
    auto md = vscale::vscaleMetadata(formalConfig());

    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 2;
    opts.validate = bmc::ValidateMode::Replay;
    opts.cacheDir = dir;
    auto first = rtl2uspec::synthesize(design, md, opts);
    ASSERT_EQ(first.unknownSvas, 0u);
    EXPECT_GT(first.cacheAppends, 0u);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.validationMismatches, 0u);
    EXPECT_EQ(first.validationFailures, 0u);

    // Acceptance: every Refuted verdict in the run replay-validated,
    // with zero mismatches.
    size_t refuted = 0;
    for (const auto &sva : first.svas) {
        if (sva.verdict != bmc::Verdict::Refuted)
            continue;
        refuted++;
        EXPECT_TRUE(sva.validated) << sva.name;
    }
    EXPECT_GT(refuted, 0u);
    EXPECT_GE(first.replays, refuted);

    // Simulated kill mid-append: chop a few bytes off the store's
    // tail. The torn record is dropped, its query re-solved (and
    // re-appended) at a different --jobs, and every other verdict
    // replays.
    std::string file = (fs::path(dir) / "verdicts.r2uc").string();
    fs::resize_file(file, fs::file_size(file) - 3);
    opts.jobs = 3;
    auto resumed = rtl2uspec::synthesize(design, md, opts);
    EXPECT_EQ(resumed.cacheHits, first.cacheAppends - 1);
    EXPECT_EQ(resumed.cacheAppends, 1u);
    expectSameSynthesis(first, resumed);
}

TEST(BmcEngine, VscaleCacheWarmRunIdentity)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::path(::testing::TempDir()) / "vscale_cache").string();
    fs::remove_all(dir);

    auto design = vscale::elaborateVscale(formalConfig());
    auto md = vscale::vscaleMetadata(formalConfig());

    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 2;
    opts.validate = bmc::ValidateMode::Replay;
    opts.cacheDir = dir;
    auto cold = rtl2uspec::synthesize(design, md, opts);
    ASSERT_TRUE(cold.cacheEnabled);
    ASSERT_EQ(cold.unknownSvas, 0u);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_GT(cold.cacheAppends, 0u);
    // Every query is hashed, every verdict definite: misses == appends.
    EXPECT_EQ(cold.cacheMisses, cold.cacheAppends);
    EXPECT_EQ(cold.cacheInvalidations, 0u);

    // Warm run at a different --jobs: every query replays from the
    // cache (no solving, no appends, no counterexample replays) and
    // the synthesized model is bit-identical.
    opts.jobs = 3;
    auto warm = rtl2uspec::synthesize(design, md, opts);
    EXPECT_EQ(warm.cacheHits, cold.cacheAppends);
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(warm.cacheAppends, 0u);
    EXPECT_EQ(warm.replays, 0u);
    for (const auto &sva : warm.svas)
        EXPECT_TRUE(sva.fromCache) << sva.name;
    expectSameSynthesis(cold, warm);

    // --validate replay still works end-to-end on a warm run: the
    // cached verdicts carry their validated stamp from the cold run.
    for (const auto &sva : warm.svas)
        if (sva.verdict == bmc::Verdict::Refuted)
            EXPECT_TRUE(sva.validated) << sva.name;

    // And again on a single worker.
    opts.jobs = 1;
    auto warm2 = rtl2uspec::synthesize(design, md, opts);
    EXPECT_EQ(warm2.cacheHits, cold.cacheAppends);
    expectSameSynthesis(cold, warm2);
}

// The satellite regression at system level: an edited property
// environment (metadata that feeds the SVA templates' assumptions)
// keeps every query's name and bound but changes its content hash —
// the whole cache must read as invalidated, not silently replayed.
TEST(BmcEngine, VscaleCacheMetadataEditInvalidates)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::path(::testing::TempDir()) / "vscale_cache_md").string();
    fs::remove_all(dir);

    auto design = vscale::elaborateVscale(formalConfig());
    auto md = vscale::vscaleMetadata(formalConfig());

    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir;
    auto first = rtl2uspec::synthesize(design, md, opts);
    EXPECT_GT(first.cacheAppends, 0u);

    // issueByFrame is read by the property closures (issue-window
    // assumptions), not rendered into the SVA text — exactly the kind
    // of edit name+bound keying used to miss.
    auto md2 = md;
    md2.issueByFrame += 1;
    auto second = rtl2uspec::synthesize(design, md2, opts);
    EXPECT_EQ(second.cacheHits, 0u);
    EXPECT_GT(second.cacheMisses, 0u);
    // Every miss is an invalidation: same query names at the same
    // bound sit in the cache under the old content hashes.
    EXPECT_EQ(second.cacheInvalidations, second.cacheMisses);
}

// The per-query verdict-store keys are part of the store's format: a
// store written by an earlier build must keep hitting, so how the keys
// are derived may change but their values may not. Pinned here: every
// (name, contentHash, baseHash) a cold run solves, and every SVA's
// static cone size.
TEST(BmcEngine, VscaleQueryKeysArePinned)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = vscale::vscaleMetadata(formalConfig());

    std::mutex mu;
    std::vector<std::tuple<std::string, uint64_t, uint64_t>> keys;
    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 2;
    opts.faultHook = [&](const bmc::Query &q, bmc::CheckResult &,
                         bmc::SolveStage stage) {
        if (stage != bmc::SolveStage::Primary)
            return;
        std::lock_guard<std::mutex> lock(mu);
        keys.emplace_back(q.name, q.contentHash, q.baseHash);
    };
    auto res = rtl2uspec::synthesize(design, md, opts);
    ASSERT_EQ(res.unknownSvas, 0u);
    ASSERT_EQ(keys.size(), res.svas.size());

    std::sort(keys.begin(), keys.end());
    nl::Fnv64 h;
    for (const auto &[name, content, base] : keys) {
        h.str(name);
        h.u64(content);
        h.u64(base);
    }
    EXPECT_EQ(h.value(), 0x8e7d1affe408bf34ull);

    // Cone sizes, as {cells: number of SVAs with that cone size}.
    std::map<size_t, size_t> coi;
    for (const auto &sva : res.svas)
        coi[sva.coiCells]++;
    const std::map<size_t, size_t> want{{1392, 33}, {1402, 2}, {1403, 2}};
    EXPECT_EQ(coi, want);

    // Record order: the sorted key hash above cannot see it, but the
    // report, --svas and proof sampling all follow it.
    nl::Fnv64 order;
    for (const auto &sva : res.svas) {
        order.str(sva.name);
        order.str(sva.category);
        order.str(bmc::verdictName(sva.verdict));
    }
    EXPECT_EQ(order.value(), 0xa035da8566f8ca17ull);
}

TEST(BmcEngine, ValidationModesDoNotChangeTheModel)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = vscale::vscaleMetadata(formalConfig());

    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 2;
    opts.validate = bmc::ValidateMode::Off;
    auto off = rtl2uspec::synthesize(design, md, opts);
    EXPECT_EQ(off.validateMode, "off");
    EXPECT_EQ(off.replays, 0u);
    EXPECT_EQ(off.proofRechecks, 0u);

    // Full validation replays every counterexample and re-solves every
    // proof fresh: everything must agree (no mismatches, no failures)
    // and the emitted model must be exactly the unvalidated one.
    opts.validate = bmc::ValidateMode::Full;
    auto full = rtl2uspec::synthesize(design, md, opts);
    EXPECT_EQ(full.validateMode, "full");
    EXPECT_GT(full.replays, 0u);
    EXPECT_GT(full.proofRechecks, 0u);
    EXPECT_EQ(full.validationMismatches, 0u);
    EXPECT_EQ(full.validationFailures, 0u);
    // Every counterexample must have replayed; a proof re-check may in
    // principle come back inconclusive (budget), which keeps the
    // primary verdict without the validated stamp.
    for (const auto &sva : full.svas)
        if (sva.verdict == bmc::Verdict::Refuted)
            EXPECT_TRUE(sva.validated) << sva.name;

    expectSameSynthesis(off, full);
}

TEST(BmcEngine, TightBudgetSynthesisDegradesConservatively)
{
    // With a conflict budget of 0 every SVA gives up immediately: the
    // run must still complete, count its Unknowns, tag the degraded
    // axioms, and never let an Unknown masquerade as Proven/Refuted.
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = vscale::vscaleMetadata(formalConfig());
    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 2;
    opts.conflictBudget = 0;
    auto res = rtl2uspec::synthesize(design, md, opts);

    EXPECT_GT(res.unknownSvas, 0u);
    EXPECT_FALSE(res.degraded.empty());
    for (const auto &sva : res.svas) {
        if (sva.verdict == bmc::Verdict::Unknown) {
            // An Unknown always records which limit produced it.
            EXPECT_NE(sva.source, bmc::VerdictSource::Solve)
                << sva.name;
            EXPECT_NE(sva.source, bmc::VerdictSource::Retry)
                << sva.name;
        }
    }

    // Conservative direction: undetermined attribution checks must
    // not be reported as design bugs.
    EXPECT_TRUE(res.bugs.empty());

    // The emitted model carries the degradation tags as `%` notes and
    // still round-trips through the parser (notes are comments).
    std::string printed = res.model.print();
    EXPECT_NE(printed.find("% degraded"), std::string::npos);
    EXPECT_NO_THROW({
        uspec::Model reparsed = uspec::Model::parse(printed);
        (void)reparsed;
    });

    // The structured run report accounts for the degradation.
    json::Value report;
    std::string err;
    ASSERT_TRUE(json::Value::parse(res.jsonReport().dump(), report, &err))
        << err;
    ASSERT_NE(report.find("unknown_svas"), nullptr);
    EXPECT_EQ(report.getInt("unknown_svas"),
              static_cast<int64_t>(res.unknownSvas));
    const json::Value *degraded = report.find("degraded");
    ASSERT_NE(degraded, nullptr);
    ASSERT_TRUE(degraded->isArr());
    EXPECT_EQ(degraded->arr.size(), res.degraded.size());
    const json::Value *svas = report.find("svas");
    ASSERT_NE(svas, nullptr);
    ASSERT_EQ(svas->arr.size(), res.svas.size());
    size_t notes = 0, budget_sources = 0;
    for (const json::Value &sva : svas->arr) {
        if (sva.getBool("degraded")) {
            ASSERT_NE(sva.find("degrade_note"), nullptr)
                << sva.getStr("name");
            EXPECT_FALSE(sva.getStr("degrade_note").empty());
            notes++;
        }
        budget_sources += sva.getStr("source") == "conflict-budget";
    }
    EXPECT_GT(notes, 0u);
    EXPECT_GT(budget_sources, 0u);
}
