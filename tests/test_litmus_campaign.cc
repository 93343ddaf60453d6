/**
 * @file
 * Campaign-engine tests: sequential-vs-parallel and pruned-vs-
 * exhaustive verdict identity over the full standard suite (against a
 * from-scratch seed-style enumerator), determinism of repeated
 * parallel runs, outcome-level pruning accounting, fail-fast, the
 * per-execution-vs-precomputed instance-table equivalence, and the
 * three regression fixes: an SC-allowed interesting outcome is not a
 * failure, per-test DOT collection/filenames, and an empty execution
 * solving cleanly (no out-of-bounds binding; runs under the ASan CI
 * job).
 */

#include <gtest/gtest.h>

#include <set>

#include "check/campaign.hh"
#include "check/check.hh"
#include "common/json.hh"
#include "litmus/litmus.hh"
#include "mcm/sc_ref.hh"
#include "uhb/uhb.hh"
#include "uspec/uspec.hh"

using namespace r2u;
using LTest = litmus::Test;

namespace
{

/** Hand-written SC model of the multi-V-scale (as in
 *  designs/vscale_sc.uarch). */
const char *kScModel = R"(
StageName 0 "IF_".
StageName 1 "WB_grp".
StageName 2 "mem_if".
StageName 3 "mem".
StageName 4 "regfile".
MemoryAccessStage "mem_if".
MemoryStage "mem".
Axiom "R_path":
forall microop "i0",
IsAnyRead i0 =>
AddEdges [((i0, IF_), (i0, WB_grp));
          ((i0, IF_), (i0, mem_if));
          ((i0, mem_if), (i0, regfile));
          ((i0, WB_grp), (i0, regfile))].
Axiom "W_path":
forall microop "i0",
IsAnyWrite i0 =>
AddEdges [((i0, IF_), (i0, WB_grp));
          ((i0, IF_), (i0, mem_if));
          ((i0, mem_if), (i0, mem))].
Axiom "PO_fetch":
forall microops "i0", "i1",
SameCore i0 i1 => ProgramOrder i0 i1 =>
AddEdge ((i0, IF_), (i1, IF_)).
Axiom "PO_wb":
forall microops "i0", "i1",
SameCore i0 i1 => ProgramOrder i0 i1 =>
AddEdge ((i0, WB_grp), (i1, WB_grp)).
Axiom "PO_mem_if":
forall microops "i0", "i1",
SameCore i0 i1 => ProgramOrder i0 i1 =>
AddEdge ((i0, mem_if), (i1, mem_if)).
Axiom "Dataflow_mem":
forall microops "i0", "i1",
IsAnyWrite i0 => IsAnyRead i1 => SamePA i0 i1 => SameData i0 i1 =>
NoWritesInBetween i0 i1 =>
AddEdge ((i0, mem), (i1, regfile)).
)";

const uspec::Model &
scModel()
{
    static uspec::Model m = uspec::Model::parse(kScModel);
    return m;
}

/** The SC model without PO_mem_if: too weak to forbid SB. */
const uspec::Model &
weakModel()
{
    static uspec::Model m = [] {
        std::string text = kScModel;
        size_t pos = text.find("Axiom \"PO_mem_if\"");
        size_t end = text.find("Axiom \"Dataflow_mem\"");
        return uspec::Model::parse(text.substr(0, pos) +
                                   text.substr(end));
    }();
    return m;
}

/** Seed-style reference: enumerate + solve everything, no campaign. */
std::vector<std::string>
referenceOutcomes(const uspec::Model &model, const LTest &test)
{
    std::set<mcm::Outcome> observable;
    check::forEachExecution(test, [&](const uhb::Execution &exec) {
        if (uhb::solve(model, exec).observable)
            observable.insert(check::outcomeOf(test, exec));
    });
    std::vector<std::string> out;
    for (const mcm::Outcome &o : observable)
        out.push_back(o.toString());
    return out;
}

void
expectSameVerdicts(const check::TestResult &a, const check::TestResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.outcomes, b.outcomes) << a.name;
    EXPECT_EQ(a.pass, b.pass) << a.name;
    EXPECT_EQ(a.tight, b.tight) << a.name;
    EXPECT_EQ(a.interestingObservable, b.interestingObservable)
        << a.name;
    EXPECT_EQ(a.interestingScAllowed, b.interestingScAllowed) << a.name;
    EXPECT_EQ(a.violations, b.violations) << a.name;
}

} // namespace

TEST(Campaign, VerdictIdentityAcrossJobsAndPruningFullSuite)
{
    auto suite = litmus::standardSuite();
    check::CampaignOptions seq_ex, par_ex, seq_pr, par_pr;
    seq_ex.jobs = 1, seq_ex.prune = false;
    par_ex.jobs = 4, par_ex.prune = false;
    seq_pr.jobs = 1, seq_pr.prune = true;
    par_pr.jobs = 4, par_pr.prune = true;
    auto a = check::runCampaign(scModel(), suite, seq_ex);
    auto b = check::runCampaign(scModel(), suite, par_ex);
    auto c = check::runCampaign(scModel(), suite, seq_pr);
    auto d = check::runCampaign(scModel(), suite, par_pr);
    ASSERT_EQ(a.tests.size(), suite.size());
    for (size_t i = 0; i < suite.size(); i++) {
        // The sequential exhaustive campaign matches a from-scratch
        // seed-style enumerate-and-solve sweep...
        EXPECT_EQ(a.tests[i].outcomes,
                  referenceOutcomes(scModel(), suite[i]))
            << suite[i].name;
        // ...and every other configuration matches it.
        expectSameVerdicts(a.tests[i], b.tests[i]);
        expectSameVerdicts(a.tests[i], c.tests[i]);
        expectSameVerdicts(a.tests[i], d.tests[i]);
        // Exhaustive runs solve the whole space, in parallel too.
        EXPECT_EQ(a.tests[i].executionsExplored,
                  a.tests[i].executionsTotal);
        EXPECT_EQ(b.tests[i].executionsExplored,
                  b.tests[i].executionsTotal);
    }
    EXPECT_EQ(a.failures, 0);
    EXPECT_EQ(d.failures, 0);
}

TEST(Campaign, RepeatedParallelRunsAreDeterministic)
{
    auto suite = litmus::standardSuite();
    check::CampaignOptions opts;
    opts.jobs = 4, opts.prune = true;
    auto a = check::runCampaign(scModel(), suite, opts);
    auto b = check::runCampaign(scModel(), suite, opts);
    ASSERT_EQ(a.tests.size(), b.tests.size());
    for (size_t i = 0; i < a.tests.size(); i++) {
        expectSameVerdicts(a.tests[i], b.tests[i]);
        // With pruning (no fail-fast), even the exploration counts
        // and branch totals are schedule-independent: pruning is
        // per-outcome-bucket, not cross-worker.
        EXPECT_EQ(a.tests[i].executionsExplored,
                  b.tests[i].executionsExplored) << a.tests[i].name;
        EXPECT_EQ(a.tests[i].executionsPruned,
                  b.tests[i].executionsPruned) << a.tests[i].name;
        EXPECT_EQ(a.tests[i].branches, b.tests[i].branches)
            << a.tests[i].name;
    }
    EXPECT_EQ(a.executionsExplored, b.executionsExplored);
    EXPECT_EQ(a.executionsPruned, b.executionsPruned);
}

TEST(Campaign, PruningSkipsProvenObservableOutcomes)
{
    // Two same-value writes to one location: both coherence orders
    // produce the same outcome, so the pruned campaign solves one
    // candidate and skips the rest of the bucket.
    LTest t = LTest::parse(R"(name dupw
thread 0
w x 1
thread 1
w x 1
interesting x=2)");
    check::Options exhaustive, pruned;
    exhaustive.jobs = 1, exhaustive.prune = false;
    pruned.jobs = 1, pruned.prune = true;
    auto ex = check::checkTest(scModel(), t, exhaustive);
    auto pr = check::checkTest(scModel(), t, pruned);
    EXPECT_EQ(ex.executionsExplored, 2);
    EXPECT_EQ(ex.executionsPruned, 0);
    EXPECT_EQ(pr.executionsExplored, 1);
    EXPECT_EQ(pr.executionsPruned, 1);
    EXPECT_EQ(pr.executionsExplored + pr.executionsPruned,
              pr.executionsTotal);
    EXPECT_EQ(ex.outcomes, pr.outcomes);
    EXPECT_EQ(ex.pass, pr.pass);
    EXPECT_EQ(ex.tight, pr.tight);
}

TEST(Campaign, FailFastStillReportsViolation)
{
    LTest sb = litmus::standardSuite()[1];
    check::CampaignOptions opts;
    opts.jobs = 4, opts.failFast = true;
    auto res = check::runCampaign(weakModel(), {sb}, opts);
    ASSERT_EQ(res.tests.size(), 1u);
    EXPECT_FALSE(res.tests[0].pass);
    EXPECT_FALSE(res.tests[0].ok());
    EXPECT_FALSE(res.tests[0].violations.empty());
    EXPECT_EQ(res.failures, 1);
}

TEST(Campaign, JsonReportParsesAndCounts)
{
    auto suite = litmus::standardSuite();
    suite.resize(4);
    check::CampaignOptions opts;
    opts.jobs = 2;
    auto res = check::runCampaign(scModel(), suite, opts);
    // Structural check: the dumped report is one strict JSON document.
    json::Value report;
    std::string err;
    ASSERT_TRUE(json::Value::parse(res.jsonReport().dump(), report, &err))
        << err;
    ASSERT_NE(report.find("jobs"), nullptr);
    EXPECT_EQ(report.getInt("jobs", -1), 2);
    ASSERT_NE(report.find("tests"), nullptr);
    EXPECT_EQ(report.getInt("tests", -1), 4);
    ASSERT_NE(report.find("failures"), nullptr);
    EXPECT_EQ(report.getInt("failures", -1), 0);
    const json::Value *results = report.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_TRUE(results->isArr());
    ASSERT_EQ(results->arr.size(), 4u);
    bool has_mp = false;
    for (const json::Value &r : results->arr)
        has_mp |= r.getStr("name") == "mp";
    EXPECT_TRUE(has_mp);
}

// Regression: the report's string escaper used to pass control bytes
// through raw, so a test name holding one produced a report that no
// strict JSON parser accepts. Every string now round-trips.
TEST(Campaign, JsonReportEscapesControlBytesInNames)
{
    LTest t = litmus::standardSuite()[0];
    ASSERT_EQ(t.name, "mp");
    t.name = "mp\x01x";
    auto res = check::runCampaign(scModel(), {t}, {});
    json::Value report;
    std::string err;
    ASSERT_TRUE(json::Value::parse(res.jsonReport().dump(), report, &err))
        << err;
    const json::Value *results = report.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->arr.size(), 1u);
    EXPECT_EQ(results->arr[0].getStr("name"), "mp\x01x");
}

// Regression (uspec_check verdict): a litmus test whose interesting
// outcome is SC-*allowed* must not fail just because that outcome is
// observable — observing it is correct behavior.
TEST(Campaign, ScAllowedInterestingOutcomeIsNotAFailure)
{
    LTest t = LTest::parse(R"(name sc_ok
thread 0
w x 1
thread 1
r x 2
interesting 1:x2=1)");
    auto res = check::checkTest(scModel(), t);
    EXPECT_TRUE(res.pass) << res.summary();
    EXPECT_TRUE(res.interestingObservable);
    EXPECT_TRUE(res.interestingScAllowed);
    EXPECT_TRUE(res.ok())
        << "an observable SC-allowed interesting outcome is not a "
           "failure";

    auto camp = check::runCampaign(scModel(), {t}, {});
    EXPECT_EQ(camp.failures, 0);
}

// Regression (uhb::solve): an execution with zero microops used to
// evaluate one all-zero binding anyway, indexing ops[0] out of
// bounds. Must solve cleanly (trivially observable) under ASan.
TEST(Campaign, EmptyExecutionSolvesCleanly)
{
    uhb::Execution empty;
    auto direct = uhb::solve(scModel(), empty);
    EXPECT_TRUE(direct.observable);
    EXPECT_EQ(direct.edges, 0u);

    uhb::InstanceTable table(scModel(), empty.ops);
    EXPECT_TRUE(table.instances().empty());
    auto via_table = uhb::solve(scModel(), empty, table);
    EXPECT_TRUE(via_table.observable);
}

// Regression (uspec_check --suite --dot): every witness used to be
// written to the same file; now paths are derived per test.
TEST(Campaign, DotPathPerTest)
{
    EXPECT_EQ(check::dotPathFor("out.dot", "mp"), "out_mp.dot");
    EXPECT_EQ(check::dotPathFor("dir/wit.dot", "sb"), "dir/wit_sb.dot");
    EXPECT_EQ(check::dotPathFor("wit", "lb"), "wit_lb");
    EXPECT_EQ(check::dotPathFor("a.b/wit", "mp"), "a.b/wit_mp");
}

TEST(Campaign, DotCollectionRestrictedToTargetTests)
{
    auto suite = litmus::standardSuite();
    std::vector<LTest> tests{suite[0], suite[1]}; // mp, sb
    check::CampaignOptions opts;
    opts.jobs = 2, opts.collectDot = true;
    opts.dotTests = {"sb"};
    auto res = check::runCampaign(scModel(), tests, opts);
    ASSERT_EQ(res.tests.size(), 2u);
    EXPECT_TRUE(res.tests[0].interestingDot.empty());
    ASSERT_FALSE(res.tests[1].interestingDot.empty());
    EXPECT_NE(res.tests[1].interestingDot.find("digraph"),
              std::string::npos);

    // Unrestricted: both collect, and each names its own test.
    opts.dotTests.clear();
    res = check::runCampaign(scModel(), tests, opts);
    ASSERT_FALSE(res.tests[0].interestingDot.empty());
    EXPECT_NE(res.tests[0].interestingDot.find("uhb_mp"),
              std::string::npos);
    EXPECT_NE(res.tests[1].interestingDot.find("uhb_sb"),
              std::string::npos);
}

TEST(Campaign, InstanceTableMatchesPerExecutionSolve)
{
    auto suite = litmus::standardSuite();
    for (size_t i = 0; i < 6; i++) {
        const LTest &t = suite[i];
        check::ExecutionSpace space(t);
        uhb::InstanceTable table(scModel(), space.ops());
        uhb::Execution exec = space.makeScratch();
        for (uint64_t k = 0; k < space.size(); k++) {
            space.materialize(k, exec);
            auto fresh = uhb::solve(scModel(), exec);
            auto shared = uhb::solve(scModel(), exec, table);
            EXPECT_EQ(fresh.observable, shared.observable)
                << t.name << " candidate " << k;
            EXPECT_EQ(fresh.branchesExplored, shared.branchesExplored)
                << t.name << " candidate " << k;
            EXPECT_EQ(fresh.edges, shared.edges)
                << t.name << " candidate " << k;
        }
    }
}

TEST(Campaign, ExecutionSpaceMatchesEnumerationCount)
{
    // One read, two same-address writes: rf in {init, w1, w2} x
    // 2 coherence permutations = 6 candidates, every one distinct.
    LTest t = LTest::parse(R"(name x
thread 0
w x 1
thread 1
w x 2
thread 2
r x 2
interesting 2:x2=0)");
    check::ExecutionSpace space(t);
    EXPECT_EQ(space.size(), 6u);
    std::set<std::string> seen;
    uhb::Execution exec = space.makeScratch();
    for (uint64_t k = 0; k < space.size(); k++) {
        space.materialize(k, exec);
        std::string key;
        for (int s : exec.rf)
            key += std::to_string(s) + ",";
        for (const auto &[addr, ws] : exec.ws) {
            key += "|";
            for (int w : ws)
                key += std::to_string(w) + ",";
        }
        seen.insert(key);
    }
    EXPECT_EQ(seen.size(), 6u) << "decoded candidates must be distinct";
}
