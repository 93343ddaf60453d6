/**
 * @file
 * Tests of the benchmark itself: the seeded cycle generator, the
 * litmus gate, the campaign counts the per-layer metrics rely on, and
 * the trace file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "batch.hh"
#include "check/campaign.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "cycles.hh"
#include "mcm/sc_ref.hh"
#include "serve/json.hh"
#include "trace.hh"
#include "workload.hh"

using namespace r2u;
namespace json = r2u::serve::json;

namespace
{

std::string
printed(const std::vector<litmus::Test> &tests)
{
    std::string s;
    for (const litmus::Test &t : tests)
        s += t.print();
    return s;
}

uspec::Model
handWrittenScModel()
{
    return uspec::Model::parse(readFile(pb::designPath("vscale_sc.uarch")));
}

} // namespace

TEST(Cycles, SameSeedGivesByteIdenticalBatch)
{
    EXPECT_EQ(printed(pb::generateCycles(42, 60, 2, 6)),
              printed(pb::generateCycles(42, 60, 2, 6)));
    EXPECT_NE(printed(pb::generateCycles(42, 60, 2, 6)),
              printed(pb::generateCycles(43, 60, 2, 6)));

    pb::Batch a = pb::makeBatch(7), b = pb::makeBatch(7);
    EXPECT_EQ(printed(a.tests), printed(b.tests));
    EXPECT_EQ(a.tests.size(), a.suiteTests + a.cycleTests + a.stressTests);
}

TEST(Cycles, EveryDrawIsAValidSCForbiddenCycle)
{
    pb::Rng rng(1);
    for (unsigned threads = 2; threads <= 6; threads++) {
        for (int i = 0; i < 40; i++) {
            std::string cycle = pb::randomCycle(rng, threads);
            litmus::Test t;
            ASSERT_NO_THROW(t = litmus::generateFromCycle("t", cycle))
                << cycle;
            EXPECT_EQ(t.threads.size(), threads) << cycle;
            EXPECT_FALSE(mcm::scAllows(t, t.interesting)) << cycle;
        }
    }
}

TEST(Cycles, ThreadCountsAreSpreadEvenly)
{
    std::map<size_t, int> per_count;
    for (const litmus::Test &t : pb::generateCycles(3, 100, 2, 6))
        per_count[t.threads.size()]++;
    EXPECT_EQ(per_count, (std::map<size_t, int>{
                             {2, 20}, {3, 20}, {4, 20}, {5, 20}, {6, 20}}));
}

TEST(Gate, AcceptsTheScModelAndRejectsOneWithADroppedEdge)
{
    std::vector<litmus::Test> tests = litmus::standardSuite();
    for (litmus::Test &t : pb::generateCycles(5, 10, 2, 4))
        tests.push_back(std::move(t));
    pb::OutcomeSets reference = pb::scReference(tests);
    check::CampaignOptions opts;
    opts.jobs = 2;

    uspec::Model model = handWrittenScModel();
    pb::GateReport good =
        pb::gateCampaign(check::runCampaign(model, tests, opts), reference);
    EXPECT_TRUE(good.ok()) << good.firstMismatch;
    EXPECT_EQ(good.checked, tests.size());

    // Drop the one edge that keeps memory-interface accesses in
    // program order: store buffering and friends become observable.
    auto ax = std::find_if(model.axioms.begin(), model.axioms.end(),
                           [](const uspec::Axiom &a) {
                               return a.name == "PO_mem_if";
                           });
    ASSERT_NE(ax, model.axioms.end());
    ASSERT_EQ(ax->edgeAlternatives.size(), 1u);
    ASSERT_EQ(ax->edgeAlternatives[0].size(), 1u);
    model.axioms.erase(ax);
    pb::GateReport bad =
        pb::gateCampaign(check::runCampaign(model, tests, opts), reference);
    EXPECT_FALSE(bad.ok());
    EXPECT_GT(bad.mismatched, 0u);
    EXPECT_FALSE(bad.firstMismatch.empty());
}

TEST(Gate, RejectsAnIncompleteCampaign)
{
    std::vector<litmus::Test> tests = litmus::standardSuite();
    pb::OutcomeSets reference = pb::scReference(tests);
    check::CampaignResult res =
        check::runCampaign(handWrittenScModel(), tests, {});
    res.tests.pop_back();
    EXPECT_FALSE(pb::gateCampaign(res, reference).ok());
}

TEST(Campaign, ExploredPlusPrunedIsTotal)
{
    std::vector<litmus::Test> tests = litmus::standardSuite();
    for (litmus::Test &t : pb::generateCycles(9, 10, 2, 5))
        tests.push_back(std::move(t));
    tests.push_back(pb::cohStress(4, 2));
    tests.push_back(pb::mixedStress(3));
    check::CampaignOptions opts;
    opts.jobs = 4;
    check::CampaignResult res =
        check::runCampaign(handWrittenScModel(), tests, opts);
    EXPECT_EQ(res.executionsExplored + res.executionsPruned,
              res.executionsTotal);
    EXPECT_GT(res.executionsPruned, 0);
    long long total = 0;
    for (const check::TestResult &t : res.tests) {
        EXPECT_EQ(t.executionsExplored + t.executionsPruned,
                  t.executionsTotal)
            << t.name;
        total += t.executionsTotal;
    }
    EXPECT_EQ(total, res.executionsTotal);
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    pb::Tracer &tr = pb::Tracer::global();
    tr.setEnabled(false);
    tr.clear();
    {
        pb::Span s("test.off");
    }
    EXPECT_TRUE(tr.spans().empty());
}

TEST(Trace, FileParsesWithOneSpanPerTimedCall)
{
    setLogVerbosity(0);
    pb::Tracer &tr = pb::Tracer::global();
    tr.clear();
    // The set-up's warm-up synthesis runs untraced.
    pb::RunConfig cfg;
    cfg.workDir = "perfbench_test_work";
    std::unique_ptr<pb::Workload> w = pb::makeSynthCold(cfg);
    w->setUp();
    tr.setEnabled(true);
    {
        pb::Span outer("test.outer");
        pb::Span inner("test.inner");
    }
    // One synth_cold iteration: one elaboration, one synthesis.
    w->measure(0.0);
    tr.setEnabled(false);
    EXPECT_EQ(w->attempted, 2u); // the set-up's synthesis and the iteration
    EXPECT_EQ(w->failed, 0u) << w->firstFailure;

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(tr.chromeJson(), doc, &err)) << err;
    const json::Value *events = doc.find("traceEvents");
    ASSERT_TRUE(events && events->isArr());
    std::map<std::string, int> by_name;
    std::map<int64_t, std::string> name_of;
    for (const json::Value &ev : events->arr) {
        EXPECT_EQ(ev.getStr("ph"), "X");
        EXPECT_GE(ev.getInt("dur", -1), 0);
        by_name[ev.getStr("name")]++;
        name_of[ev.find("args")->getInt("id")] = ev.getStr("name");
    }
    EXPECT_EQ(by_name, (std::map<std::string, int>{
                           {"test.outer", 1},
                           {"test.inner", 1},
                           {"verilog.elaborateFiles", 1},
                           {"rtl2uspec.synthesize", 1}}));
    for (const json::Value &ev : events->arr) {
        int64_t parent = ev.find("args")->getInt("parent");
        if (ev.getStr("name") == "test.inner")
            EXPECT_EQ(name_of[parent], "test.outer");
        else
            EXPECT_EQ(parent, -1) << ev.getStr("name");
    }
    tr.clear();
}
