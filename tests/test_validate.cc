/**
 * @file
 * Tests for the trust-but-verify verdict validation layer: genuine
 * counterexamples replay cleanly (simulator agreement + a fresh pinned
 * monitor solve), corrupted traces are rejected, watched memory-port
 * reads make replay meaningful on $mem designs, and the engine's
 * fault-injection seam proves the full mismatch policy — quarantine,
 * fresh re-solve, recovery when the fresh evidence stands, degradation
 * to Unknown(ValidationFailed) when it does not.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "bmc/engine.hh"
#include "bmc/validate.hh"
#include "bmc/verdict_cache.hh"
#include "sim/simulator.hh"

using namespace r2u;
namespace fs = std::filesystem;

namespace
{

/**
 * An 8-bit register "r" (init 5) loading input "in" every cycle, plus
 * a 4x8 memory "m" written at in[1:0] with in and read at r[1:0] —
 * small enough that every trace value is hand-checkable, stateful
 * enough (register + $mem) that replay has something to verify.
 */
struct ToyDesign
{
    nl::Netlist n;
    nl::CellId in = nl::kNoCell;
    nl::CellId reg = nl::kNoCell;
    nl::CellId rport = nl::kNoCell;
    nl::MemId mem = -1;
    std::unordered_map<std::string, nl::CellId> signals;
};

ToyDesign
makeToy()
{
    ToyDesign d;
    nl::Netlist &n = d.n;
    d.in = n.addInput("in", 8);
    nl::CellId one = n.addConst(Bits(1, 1));
    d.reg = n.addDff("r", d.in, one, Bits(8, 5));
    d.mem = n.addMemory("m", 4, 8);
    n.addMemWrite(d.mem, n.addSlice(d.in, 0, 2), d.in, one);
    d.rport = n.addMemRead(d.mem, n.addSlice(d.reg, 0, 2));
    n.validate();
    d.signals = {{"in", d.in}, {"r", d.reg}};
    return d;
}

constexpr unsigned kBound = 3;

/** Violated iff r == 0x2a at frame 2 — reachable via in@1 = 0x2a. */
sat::Lit
refutedProp(bmc::PropCtx &ctx)
{
    ctx.watch("r");
    ctx.watchMem("m");
    auto &cnf = ctx.cnf();
    return cnf.mkEqW(ctx.at(2, "r"), cnf.constWord(Bits(8, 0x2a)));
}

/** Violated iff r != 5 at frame 0 — impossible (concrete init). */
sat::Lit
provenProp(bmc::PropCtx &ctx)
{
    ctx.watch("r");
    auto &cnf = ctx.cnf();
    return ~cnf.mkEqW(ctx.at(0, "r"), cnf.constWord(Bits(8, 5)));
}

bmc::CheckResult
solveRefuted(const ToyDesign &d)
{
    bmc::CheckResult res = bmc::checkProperty(d.n, d.signals, {},
                                              kBound, refutedProp);
    EXPECT_EQ(res.verdict, bmc::Verdict::Refuted);
    return res;
}

} // namespace

TEST(Validate, GenuineCounterexampleReplays)
{
    ToyDesign d = makeToy();
    bmc::CheckResult res = solveRefuted(d);

    // The trace carries everything replay needs: the watched register
    // at every frame, the $mem read port at every frame, and the input
    // valuation the model chose (in@1 is forced to 0x2a by the design).
    ASSERT_EQ(res.trace.steps.size(), kBound);
    for (unsigned f = 0; f < kBound; f++) {
        EXPECT_EQ(res.trace.steps[f].signals.count("r"), 1u)
            << "frame " << f;
        EXPECT_EQ(res.trace.steps[f].memReads.count("m#0"), 1u)
            << "frame " << f;
    }
    EXPECT_EQ(res.trace.steps[0].signals.at("r"), Bits(8, 5));
    EXPECT_EQ(res.trace.steps[2].signals.at("r"), Bits(8, 0x2a));
    ASSERT_GE(res.trace.inputs.size(), 2u);
    ASSERT_EQ(res.trace.inputs[1].count("in"), 1u);
    EXPECT_EQ(res.trace.inputs[1].at("in"), Bits(8, 0x2a));

    bmc::ReplayResult rep = bmc::replayTrace(
        d.n, d.signals, {}, kBound, refutedProp, res.trace);
    EXPECT_TRUE(rep.simOk) << rep.note;
    EXPECT_TRUE(rep.monitorOk) << rep.note;
    EXPECT_TRUE(rep.ok);
    EXPECT_TRUE(rep.note.empty()) << rep.note;
}

TEST(Validate, CorruptedSignalFailsReplay)
{
    ToyDesign d = makeToy();
    bmc::CheckResult res = solveRefuted(d);

    bmc::Trace bad = res.trace;
    bad.steps[2].signals["r"] = Bits(8, 0x13);
    bmc::ReplayResult rep =
        bmc::replayTrace(d.n, d.signals, {}, kBound, refutedProp, bad);
    EXPECT_FALSE(rep.simOk);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.note.find("frame 2"), std::string::npos) << rep.note;
}

TEST(Validate, CorruptedMemReadFailsReplay)
{
    // The $mem regression: a memory-port read that disagrees with the
    // simulator must fail replay just like a register would.
    ToyDesign d = makeToy();
    bmc::CheckResult res = solveRefuted(d);

    bmc::Trace bad = res.trace;
    ASSERT_EQ(bad.steps[1].memReads.count("m#0"), 1u);
    Bits old = bad.steps[1].memReads.at("m#0");
    bad.steps[1].memReads["m#0"] = Bits(8, old.toUint64() ^ 0xff);
    bmc::ReplayResult rep =
        bmc::replayTrace(d.n, d.signals, {}, kBound, refutedProp, bad);
    EXPECT_FALSE(rep.simOk);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.note.find("m#0"), std::string::npos) << rep.note;
}

TEST(Validate, CorruptedInputFailsReplay)
{
    ToyDesign d = makeToy();
    bmc::CheckResult res = solveRefuted(d);

    // in@1 drives both r@2 and the frame-2 memory state: corrupting it
    // breaks the simulator comparison *and* the monitor re-check (the
    // pinned cone no longer reaches r@2 == 0x2a).
    bmc::Trace bad = res.trace;
    bad.inputs[1]["in"] = Bits(8, 0x2a ^ 0xff);
    bmc::ReplayResult rep =
        bmc::replayTrace(d.n, d.signals, {}, kBound, refutedProp, bad);
    EXPECT_FALSE(rep.simOk);
    EXPECT_FALSE(rep.monitorOk);
    EXPECT_FALSE(rep.ok);
}

TEST(Validate, MonitorRecheckRejectsNonViolatingTrace)
{
    // A trace that is a perfectly consistent execution (the simulator
    // agrees with every recorded value) but does not actually violate
    // the property: only the fresh pinned monitor solve can catch it.
    ToyDesign d = makeToy();
    bmc::Trace t;
    t.steps.resize(kBound);
    t.inputs.resize(kBound);
    sim::Simulator sim(d.n);
    sim.reset();
    for (unsigned f = 0; f < kBound; f++) {
        sim.setInput("in", Bits(8, 0));
        t.inputs[f]["in"] = Bits(8, 0);
        t.steps[f].signals["r"] = sim.value(d.reg);
        t.steps[f].memReads["m#0"] = sim.value(d.rport);
        sim.step();
    }

    bmc::ReplayResult rep =
        bmc::replayTrace(d.n, d.signals, {}, kBound, refutedProp, t);
    EXPECT_TRUE(rep.simOk) << rep.note;
    EXPECT_FALSE(rep.monitorOk);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.note.find("UNSAT"), std::string::npos) << rep.note;
}

TEST(Validate, WrongLengthTraceFailsReplay)
{
    ToyDesign d = makeToy();
    bmc::Trace empty;
    bmc::ReplayResult rep = bmc::replayTrace(d.n, d.signals, {}, kBound,
                                             refutedProp, empty);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.note.find("bound"), std::string::npos) << rep.note;
}

TEST(Validate, ReplayWritesVcd)
{
    ToyDesign d = makeToy();
    bmc::CheckResult res = solveRefuted(d);
    std::string vcd =
        (fs::path(::testing::TempDir()) / "replay_toy.vcd").string();
    fs::remove(vcd);
    bmc::ReplayResult rep = bmc::replayTrace(
        d.n, d.signals, {}, kBound, refutedProp, res.trace, vcd);
    EXPECT_TRUE(rep.ok) << rep.note;
    ASSERT_TRUE(fs::exists(vcd));
    EXPECT_GT(fs::file_size(vcd), 0u);
}

namespace
{

bmc::Engine
makeEngine(const ToyDesign &d, const bmc::EngineOptions &eopts)
{
    return bmc::Engine(d.n, d.signals, {}, kBound, eopts);
}

bmc::Query
toyQuery(const std::string &name, const bmc::PropertyFn &prop)
{
    bmc::Query q;
    q.name = name;
    q.bound = kBound;
    q.prop = prop;
    return q;
}

} // namespace

TEST(ValidateEngine, ReplayValidatesAndDumpsVcd)
{
    ToyDesign d = makeToy();
    std::string vcd_dir =
        (fs::path(::testing::TempDir()) / "toy_vcds").string();
    fs::remove_all(vcd_dir);

    bmc::EngineOptions eopts;
    eopts.jobs = 1;
    eopts.validate = bmc::ValidateMode::Replay;
    eopts.cexVcdDir = vcd_dir;
    bmc::Engine engine = makeEngine(d, eopts);
    engine.enqueue(toyQuery("toy cex", refutedProp));
    engine.enqueue(toyQuery("toy proof", provenProp));
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 2u);

    EXPECT_EQ(res[0].verdict, bmc::Verdict::Refuted);
    EXPECT_TRUE(res[0].validated) << res[0].validationNote;
    EXPECT_EQ(res[0].replays, 1u);
    EXPECT_EQ(res[0].validationMismatches, 0u);

    // Replay mode never re-solves proofs.
    EXPECT_EQ(res[1].verdict, bmc::Verdict::Proven);
    EXPECT_FALSE(res[1].validated);
    EXPECT_EQ(res[1].proofRechecks, 0u);

    EXPECT_EQ(engine.stats().replays, 1u);
    EXPECT_EQ(engine.stats().validationMismatches, 0u);
    EXPECT_EQ(engine.stats().validationFailures, 0u);

    // Deterministic per-query VCD filename (name sanitized, bound
    // suffix) under the requested directory.
    fs::path vcd = fs::path(vcd_dir) / "cex_toy_cex_b3.vcd";
    ASSERT_TRUE(fs::exists(vcd)) << vcd;
    EXPECT_GT(fs::file_size(vcd), 0u);
}

TEST(ValidateEngine, FullModeRechecksEveryProof)
{
    ToyDesign d = makeToy();
    bmc::EngineOptions eopts;
    eopts.jobs = 1;
    eopts.validate = bmc::ValidateMode::Full;
    bmc::Engine engine = makeEngine(d, eopts);
    engine.enqueue(toyQuery("p0", provenProp));
    engine.enqueue(toyQuery("p1", provenProp));
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 2u);
    for (const auto &r : res) {
        EXPECT_EQ(r.verdict, bmc::Verdict::Proven);
        EXPECT_TRUE(r.validated);
        EXPECT_EQ(r.proofRechecks, 1u);
    }
    EXPECT_EQ(engine.stats().proofRechecks, 2u);
    EXPECT_EQ(engine.stats().validationMismatches, 0u);
}

TEST(ValidateEngine, TransientTraceCorruptionRecovers)
{
    // Fault injection at the Primary stage only: the first trace is
    // corrupted, the quarantine re-solve is honest. The policy must
    // catch the mismatch, re-solve fresh, replay the fresh trace, and
    // adopt it — verdict stays Refuted, with the recovery on record.
    ToyDesign d = makeToy();
    bmc::EngineOptions eopts;
    eopts.jobs = 1;
    eopts.validate = bmc::ValidateMode::Replay;
    eopts.faultHook = [](const bmc::Query &, bmc::CheckResult &r,
                         bmc::SolveStage stage) {
        if (stage == bmc::SolveStage::Primary &&
            r.verdict == bmc::Verdict::Refuted &&
            r.trace.steps.size() == kBound)
            r.trace.steps[2].signals["r"] = Bits(8, 0x13);
    };
    bmc::Engine engine = makeEngine(d, eopts);
    engine.enqueue(toyQuery("transient", refutedProp));
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 1u);

    EXPECT_EQ(res[0].verdict, bmc::Verdict::Refuted);
    EXPECT_TRUE(res[0].validated);
    EXPECT_EQ(res[0].validationMismatches, 1u);
    EXPECT_EQ(res[0].replays, 2u);
    EXPECT_NE(res[0].validationNote.find("quarantine recovery"),
              std::string::npos)
        << res[0].validationNote;
    // The adopted trace is the fresh, honest one.
    ASSERT_EQ(res[0].trace.steps.size(), kBound);
    EXPECT_EQ(res[0].trace.steps[2].signals.at("r"), Bits(8, 0x2a));

    EXPECT_EQ(engine.stats().validationMismatches, 1u);
    EXPECT_EQ(engine.stats().validationFailures, 0u);
}

TEST(ValidateEngine, PersistentTraceCorruptionDegradesToUnknown)
{
    // The same corruption applied at *every* stage: the quarantine
    // re-solve cannot produce consistent evidence either, so the
    // verdict must degrade to Unknown(ValidationFailed) — never ship a
    // definite verdict that does not stand on its own.
    ToyDesign d = makeToy();
    bmc::EngineOptions eopts;
    eopts.jobs = 1;
    eopts.validate = bmc::ValidateMode::Replay;
    eopts.faultHook = [](const bmc::Query &, bmc::CheckResult &r,
                         bmc::SolveStage) {
        if (r.verdict == bmc::Verdict::Refuted &&
            r.trace.steps.size() == kBound)
            r.trace.steps[2].signals["r"] = Bits(8, 0x13);
    };
    bmc::Engine engine = makeEngine(d, eopts);
    engine.enqueue(toyQuery("persistent", refutedProp));
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 1u);

    EXPECT_EQ(res[0].verdict, bmc::Verdict::Unknown);
    EXPECT_EQ(res[0].source, bmc::VerdictSource::ValidationFailed);
    EXPECT_FALSE(res[0].validated);
    EXPECT_TRUE(res[0].trace.steps.empty());
    // The diagnostic bundle: what failed, the primary verdict, CNF
    // stats, and the quarantined trace.
    EXPECT_NE(res[0].validationNote.find("validation failure"),
              std::string::npos);
    EXPECT_NE(res[0].validationNote.find("cnf:"), std::string::npos);
    EXPECT_NE(res[0].validationNote.find("quarantined trace"),
              std::string::npos);

    EXPECT_GE(res[0].validationMismatches, 1u);
    EXPECT_EQ(engine.stats().validationFailures, 1u);
    EXPECT_EQ(engine.stats().unknowns, 1u);
}

TEST(ValidateEngine, ForgedProvenCaughtByProofRecheck)
{
    // A Proven verdict forged over an actually-refutable property: the
    // Full-mode re-check finds the counterexample, replays it, and the
    // refutation wins over the forged proof.
    ToyDesign d = makeToy();
    bmc::EngineOptions eopts;
    eopts.jobs = 1;
    eopts.validate = bmc::ValidateMode::Full;
    eopts.faultHook = [](const bmc::Query &, bmc::CheckResult &r,
                         bmc::SolveStage stage) {
        if (stage == bmc::SolveStage::Primary) {
            r.verdict = bmc::Verdict::Proven;
            r.trace = bmc::Trace{};
        }
    };
    bmc::Engine engine = makeEngine(d, eopts);
    engine.enqueue(toyQuery("forged_proof", refutedProp));
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 1u);

    EXPECT_EQ(res[0].verdict, bmc::Verdict::Refuted);
    EXPECT_TRUE(res[0].validated);
    EXPECT_EQ(res[0].proofRechecks, 1u);
    EXPECT_EQ(res[0].validationMismatches, 1u);
    EXPECT_NE(res[0].validationNote.find("proof re-check refuted"),
              std::string::npos)
        << res[0].validationNote;
    ASSERT_EQ(res[0].trace.steps.size(), kBound);
    EXPECT_EQ(res[0].trace.steps[2].signals.at("r"), Bits(8, 0x2a));
}

TEST(ValidateEngine, ForgedRefutationDegradesToUnknown)
{
    // A Refuted verdict forged over a genuinely proven property: the
    // empty trace fails replay, the quarantine re-solve answers Proven
    // (disagreeing with the forged primary), and the only sound exit
    // is Unknown(ValidationFailed).
    ToyDesign d = makeToy();
    bmc::EngineOptions eopts;
    eopts.jobs = 1;
    eopts.validate = bmc::ValidateMode::Replay;
    eopts.faultHook = [](const bmc::Query &, bmc::CheckResult &r,
                         bmc::SolveStage stage) {
        if (stage == bmc::SolveStage::Primary)
            r.verdict = bmc::Verdict::Refuted;
    };
    bmc::Engine engine = makeEngine(d, eopts);
    engine.enqueue(toyQuery("forged_cex", provenProp));
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 1u);

    EXPECT_EQ(res[0].verdict, bmc::Verdict::Unknown);
    EXPECT_EQ(res[0].source, bmc::VerdictSource::ValidationFailed);
    EXPECT_NE(res[0].validationNote.find(
                  "quarantine re-solve answered proven"),
              std::string::npos)
        << res[0].validationNote;
    EXPECT_EQ(engine.stats().validationFailures, 1u);
}

TEST(ValidateEngine, CacheRoundTripSkipsSolvedQueries)
{
    ToyDesign d = makeToy();
    std::string dir =
        (fs::path(::testing::TempDir()) / "engine_store").string();
    fs::remove_all(dir);

    // Every query carries a content hash: unhashed queries bypass the
    // store entirely.
    auto hashed = [](bmc::Query q, uint64_t content) {
        q.contentHash = content;
        return q;
    };
    // A deliberately under-budgeted query that must come back Unknown:
    // Unknowns are never stored (they may resolve under a bigger
    // budget) and must be re-solved when the run resumes.
    auto hardQuery = [&] {
        bmc::Query q;
        q.name = "php";
        q.bound = kBound;
        q.conflictBudget = 1;
        q.contentHash = 0x3003;
        q.prop = [](bmc::PropCtx &ctx) {
            auto &cnf = ctx.cnf();
            std::vector<std::vector<sat::Lit>> p(7);
            for (int i = 0; i < 7; i++)
                for (int j = 0; j < 6; j++)
                    p[i].push_back(
                        ctx.rigid("p_" + std::to_string(i) + "_" +
                                      std::to_string(j),
                                  1)[0]);
            for (int i = 0; i < 7; i++) {
                sat::Lit any = cnf.falseLit();
                for (int j = 0; j < 6; j++)
                    any = cnf.mkOr(any, p[i][j]);
                ctx.assume(any);
            }
            for (int j = 0; j < 6; j++)
                for (int i1 = 0; i1 < 7; i1++)
                    for (int i2 = i1 + 1; i2 < 7; i2++)
                        ctx.assume(cnf.mkOr(~p[i1][j], ~p[i2][j]));
            return cnf.trueLit();
        };
        return q;
    };
    auto enqueueAll = [&](bmc::Engine &engine) {
        engine.enqueue(hashed(toyQuery("toy cex", refutedProp), 0x1001));
        engine.enqueue(
            hashed(toyQuery("toy proof", provenProp), 0x2002));
        engine.enqueue(hardQuery());
    };

    {
        bmc::VerdictCache cache;
        cache.open(dir);
        bmc::EngineOptions eopts;
        eopts.jobs = 1;
        eopts.validate = bmc::ValidateMode::Replay;
        eopts.cache = &cache;
        bmc::Engine engine = makeEngine(d, eopts);
        enqueueAll(engine);
        auto res = engine.drain();
        ASSERT_EQ(res.size(), 3u);
        EXPECT_TRUE(res[0].cached);
        EXPECT_TRUE(res[1].cached);
        EXPECT_EQ(res[2].verdict, bmc::Verdict::Unknown);
        EXPECT_FALSE(res[2].cached);
        EXPECT_EQ(cache.numAppended(), 2u);
        EXPECT_EQ(engine.stats().cacheAppends, 2u);
    }

    // Resume at a different parallelism: the two definite verdicts
    // come from the store (no solving, no replaying), the Unknown is
    // re-solved from scratch.
    bmc::VerdictCache cache;
    cache.open(dir);
    ASSERT_EQ(cache.numLoaded(), 2u);
    bmc::EngineOptions eopts;
    eopts.jobs = 2;
    eopts.validate = bmc::ValidateMode::Replay;
    eopts.cache = &cache;
    bmc::Engine engine = makeEngine(d, eopts);
    enqueueAll(engine);
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 3u);

    EXPECT_EQ(res[0].verdict, bmc::Verdict::Refuted);
    EXPECT_TRUE(res[0].fromCache);
    EXPECT_TRUE(res[0].validated);
    EXPECT_TRUE(res[0].trace.steps.empty());
    EXPECT_NE(res[0].validationNote.find("replayed from verdict cache"),
              std::string::npos);
    EXPECT_EQ(res[1].verdict, bmc::Verdict::Proven);
    EXPECT_TRUE(res[1].fromCache);
    EXPECT_EQ(res[2].verdict, bmc::Verdict::Unknown);
    EXPECT_FALSE(res[2].fromCache);

    EXPECT_EQ(engine.stats().cacheHits, 2u);
    EXPECT_EQ(engine.stats().cacheMisses, 1u);
    EXPECT_EQ(engine.stats().replays, 0u);
}
