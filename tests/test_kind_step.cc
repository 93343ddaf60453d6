/**
 * @file
 * Tests for the engine's one proof path: a BMC solve at the query's
 * bound, then, for a Proven query with a frame-local form, one
 * k-induction step at k = bound. A closed step makes the proof
 * unbounded; an open, cancelled or skipped step leaves the bounded
 * Proven as it was. Also covers the exception safety of that path and
 * the determinism of proof generality on the multi-V-scale.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <tuple>

#include "bmc/engine.hh"
#include "netlist/hash.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "store_frames.hh"
#include "verilog/elaborate.hh"
#include "verilog/parser.hh"

using namespace r2u;
using namespace r2u::bmc;
using sat::Lit;

namespace
{

vlog::ElabResult
elab(const std::string &src)
{
    vlog::Design d = vlog::parseString(src, "test.v");
    vlog::ElabOptions opts;
    opts.top = "top";
    return vlog::elaborate(d, opts);
}

const char *kCounter = R"(
    module top (input clk, input en, output wire [3:0] out);
        reg [3:0] q;
        always @(posedge clk) begin
            if (en)
                q <= q + 4'd1;
        end
        assign out = q;
    endmodule
)";

/** a counts up and b counts down from 0: "a + b != 0" is unreachable
 *  and 1-inductive, but closing the step takes search through the
 *  adders, so the solver polls its stop flag before it can close. */
const char *kSum = R"(
    module top (input clk, output wire [7:0] out);
        reg [7:0] a;
        reg [7:0] b;
        always @(posedge clk) begin
            a <= a + 8'd1;
            b <= b - 8'd1;
        end
        assign out = a + b;
    endmodule
)";

Lit
sumNonzero(PropCtx &ctx, unsigned f)
{
    return ~ctx.eqConst(f, "out", 0);
}

/** A query whose bounded property is the OR of @p frame_bad over
 *  every frame of the bound, as Query::frameProp requires. */
Query
frameQuery(const std::string &name, FramePropertyFn frame_bad)
{
    Query q;
    q.name = name;
    q.prop = [frame_bad](PropCtx &ctx) {
        Lit bad = ctx.cnf().falseLit();
        for (unsigned f = 0; f < ctx.bound(); f++)
            bad = ctx.cnf().mkOr(bad, frame_bad(ctx, f));
        return bad;
    };
    q.frameProp = std::move(frame_bad);
    return q;
}

CheckResult
runOne(const vlog::ElabResult &r, unsigned bound, Query q)
{
    EngineOptions eopts;
    eopts.jobs = 1;
    Engine engine(*r.netlist, r.signalMap, {}, bound, eopts);
    engine.enqueue(std::move(q));
    auto results = engine.drain();
    EXPECT_EQ(results.size(), 1u);
    return results.at(0);
}

} // namespace

TEST(KindStep, InductivePropertyIsProvenUnbounded)
{
    auto r = elab(kSum);
    EngineOptions eopts;
    eopts.jobs = 1;
    Engine engine(*r.netlist, r.signalMap, {}, /*bound=*/4, eopts);
    engine.enqueue(frameQuery("sum_zero", sumNonzero));
    auto results = engine.drain();
    ASSERT_EQ(results.size(), 1u);
    const CheckResult &res = results[0];
    EXPECT_EQ(res.verdict, Verdict::Proven);
    EXPECT_EQ(res.source, VerdictSource::Solve);
    EXPECT_TRUE(res.inductionStep);
    EXPECT_TRUE(res.unbounded);
    EXPECT_EQ(res.engine, EngineKind::KInduction);

    EXPECT_EQ(engine.stats().engineRaces, 1u);
    EXPECT_EQ(engine.stats().kindWins, 1u);
    EXPECT_EQ(engine.stats().bmcWins, 0u);
    EXPECT_EQ(engine.stats().pdrWins, 0u);
    EXPECT_EQ(engine.stats().unboundedProofs, 1u);
}

TEST(KindStep, BoundedProofThatIsNotInductiveStaysBounded)
{
    // q == 5 needs five increments: unreachable within 4 frames, but
    // from an arbitrary state q = 1, 2, 3, 4, 5 breaks the step.
    auto r = elab(kCounter);
    CheckResult res = runOne(
        r, 4, frameQuery("counter_bounded", [](PropCtx &ctx, unsigned f) {
            return ctx.eqConst(f, "q", 5);
        }));
    EXPECT_EQ(res.verdict, Verdict::Proven);
    EXPECT_TRUE(res.inductionStep);
    EXPECT_FALSE(res.unbounded);
    EXPECT_EQ(res.engine, EngineKind::Bmc);
}

TEST(KindStep, RefutedQueryNeverRunsTheStep)
{
    auto r = elab(kCounter);
    bool step_built = false;
    FramePropertyFn bad3 = [](PropCtx &ctx, unsigned f) {
        if (f == 0)
            ctx.watch("q");
        return ctx.eqConst(f, "q", 3);
    };
    Query q = frameQuery("counter_refuted", bad3);
    // Only the step calls frameProp; the BMC solve uses prop.
    q.frameProp = [&step_built, bad3](PropCtx &ctx, unsigned f) {
        step_built = true;
        return bad3(ctx, f);
    };
    CheckResult res = runOne(r, 6, std::move(q));
    EXPECT_EQ(res.verdict, Verdict::Refuted);
    EXPECT_FALSE(res.trace.steps.empty());
    EXPECT_FALSE(res.inductionStep);
    EXPECT_FALSE(res.unbounded);
    EXPECT_FALSE(step_built);
}

TEST(KindStep, CancelledStepLeavesTheBoundedProof)
{
    auto r = elab(kSum);
    EngineOptions eopts;
    eopts.jobs = 1;
    eopts.validate = ValidateMode::Off;
    Engine engine(*r.netlist, r.signalMap, {}, /*bound=*/4, eopts);
    Query q = frameQuery("sum_cancelled", sumNonzero);
    // The engine is stopped while the step builds its CNF, after the
    // bounded proof is in: the step's solve sees the stop flag.
    q.frameProp = [&engine](PropCtx &ctx, unsigned f) {
        engine.interrupt();
        return sumNonzero(ctx, f);
    };
    engine.enqueue(std::move(q));
    auto results = engine.drain();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].verdict, Verdict::Proven);
    EXPECT_EQ(results[0].source, VerdictSource::Solve);
    EXPECT_TRUE(results[0].inductionStep);
    EXPECT_FALSE(results[0].unbounded);
    EXPECT_EQ(engine.stats().unboundedProofs, 0u);
    EXPECT_EQ(engine.stats().unknowns, 0u);
}

/**
 * A property builder that throws must not poison its worker's
 * long-lived context: the error reaches the caller and the same
 * engine keeps answering queries at the same bound.
 */
TEST(KindStep, ThrowingPropertyLeavesTheContextReusable)
{
    auto r = elab(kCounter);
    EngineOptions eopts;
    eopts.jobs = 1;
    Engine engine(*r.netlist, r.signalMap, {}, /*bound=*/4, eopts);
    engine.enqueue(frameQuery("bad_signal", [](PropCtx &ctx, unsigned f) {
        return ctx.eqConst(f, "no_such_signal", 1);
    }));
    EXPECT_THROW(engine.drain(), FatalError);

    engine.enqueue(frameQuery("after_throw", [](PropCtx &ctx, unsigned f) {
        return ctx.eqConst(f, "q", 5);
    }));
    auto results = engine.drain();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].verdict, Verdict::Proven);
}

namespace
{

/** The identity of one run: per-SVA (name, verdict, unbounded), the
 *  stored (key, verdict, unbounded, baseKey) records, and the model. */
struct RunIdentity
{
    std::vector<std::tuple<std::string, Verdict, bool>> svas;
    std::set<test::RawRecord> records;
    uint64_t unboundedProofs = 0;
    std::string modelFnv;
};

RunIdentity
coldVscaleRun(const std::string &store)
{
    std::filesystem::remove_all(store);
    std::string dir = R2U_DESIGN_DIR;
    vlog::ElabOptions eo;
    eo.top = "multi_vscale";
    eo.params = {{"XLEN", 8},        {"PC_BITS", 6},  {"NREGS", 8},
                 {"REG_BITS", 3},    {"DMEM_WORDS", 8},
                 {"DMEM_ABITS", 3},  {"IMEM_WORDS", 16},
                 {"IMEM_ABITS", 4},  {"BUGGY", 0}};
    auto design = vlog::elaborateFiles(
        {dir + "/vscale_core.v", dir + "/vscale_arbiter.v",
         dir + "/vscale_mem.v", dir + "/multi_vscale.v"},
        eo);
    auto md = rtl2uspec::loadMetadata(dir + "/vscale.meta");
    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 4;
    opts.cacheDir = store;
    rtl2uspec::SynthesisResult res =
        rtl2uspec::synthesize(design, md, opts);

    RunIdentity id;
    for (const auto &sva : res.svas)
        id.svas.emplace_back(sva.name, sva.verdict, sva.unbounded);
    for (const auto &rec :
         test::readRawRecords(store + "/verdicts.r2uc"))
        id.records.insert(rec);
    id.unboundedProofs = res.unboundedProofs;
    nl::Fnv64 h;
    h.str(res.model.print());
    id.modelFnv = strfmt("%016llx",
                         static_cast<unsigned long long>(h.value()));
    return id;
}

} // namespace

/**
 * Proof generality is a function of the query and its budgets, not of
 * timing: three cold 4-worker runs into fresh stores agree on every
 * SVA's verdict and generality and store the same records, with the
 * three frame-local queries proven unbounded and the model the
 * benchmark pins.
 */
TEST(KindStep, VscaleUnboundedProofsAreDeterministic)
{
    std::string base = ::testing::TempDir() + "/kind_step_vscale";
    RunIdentity first = coldVscaleRun(base + "_0");
    EXPECT_EQ(first.unboundedProofs, 3u);
    EXPECT_EQ(first.modelFnv, "c344ca53ca56157f");
    size_t unbounded_records = 0;
    for (const auto &rec : first.records)
        if (rec.unbounded) {
            unbounded_records++;
            EXPECT_NE(rec.baseKey, 0u);
        } else {
            EXPECT_EQ(rec.baseKey, 0u);
        }
    EXPECT_EQ(unbounded_records, 3u);
    EXPECT_EQ(first.records.size(), first.svas.size());
    for (int run = 1; run < 3; run++) {
        RunIdentity again = coldVscaleRun(base + "_" + std::to_string(run));
        EXPECT_EQ(again.svas, first.svas) << "run " << run;
        EXPECT_EQ(again.records, first.records) << "run " << run;
        EXPECT_EQ(again.unboundedProofs, 3u) << "run " << run;
        EXPECT_EQ(again.modelFnv, first.modelFnv) << "run " << run;
    }
    for (int run = 0; run < 3; run++)
        std::filesystem::remove_all(base + "_" + std::to_string(run));
}
