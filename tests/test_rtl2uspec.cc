/**
 * @file
 * End-to-end tests of the rtl2uspec synthesis procedure on the
 * multi-V-scale: DFG extraction and stage labels, per-instruction node
 * membership (Fig. 3c), the synthesized µspec model's structure, its
 * round-trip through the DSL, MCM verification of the synthesized
 * model on litmus tests, and §6.1 bug discovery on the BUGGY variant.
 *
 * The synthesis run is shared across tests (it evaluates all SVAs once,
 * like the paper's one-time model synthesis).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "check/check.hh"
#include "common/json.hh"
#include "common/strutil.hh"
#include "dfg/dfg.hh"
#include "netlist/hash.hh"
#include "rtl2uspec/synthesis.hh"
#include "vscale/metadata.hh"
#include "vscale/vscale.hh"

using namespace r2u;
using namespace r2u::rtl2uspec;

namespace
{

vscale::Config
formalConfig()
{
    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16; // keeps per-SVA CNFs small
    return cfg;
}

const SynthesisResult &
sharedSynthesis()
{
    static SynthesisResult result = [] {
        auto design = vscale::elaborateVscale(formalConfig());
        auto md = vscale::vscaleMetadata(formalConfig());
        return synthesize(design, md);
    }();
    return result;
}

} // namespace

TEST(Dfg, VscaleStageLabels)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto d = dfg::FullDesignDfg::build(*design.netlist);
    dfg::NodeId im_pc = d.nodeByName("core_0.PC_IF");
    dfg::NodeId ifr = d.nodeByName("core_0.inst_DX");
    ASSERT_NE(im_pc, dfg::kNoNode);
    ASSERT_NE(ifr, dfg::kNoNode);

    auto labels = dfg::labelStages(d, im_pc, ifr);
    EXPECT_EQ(labels.stage[ifr], 0);
    EXPECT_EQ(labels.stage[d.nodeByName("core_0.PC_DX")], 0);
    EXPECT_EQ(labels.stage[d.nodeByName("core_0.PC_WB")], 1);
    EXPECT_EQ(labels.stage[d.nodeByName("core_0.wdata_WB")], 1);
    EXPECT_EQ(labels.stage[d.nodeByName("core_0.regfile")], 2);
    EXPECT_EQ(labels.stage[d.nodeByName("dmem.mem")], 2);
    // Front-end filtering: IM_PC itself is stage -1... it is the BFS
    // root, stage -(distance of IFR) -> filtered.
    EXPECT_FALSE(labels.included(im_pc));
    // Instruction memories are unreachable from IM_PC (never written).
    EXPECT_FALSE(labels.included(d.nodeByName("imem_0.mem")));
}

TEST(Dfg, VscaleParentEdges)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto d = dfg::FullDesignDfg::build(*design.netlist);
    auto has_parent = [&](const char *node, const char *parent) {
        dfg::NodeId n = d.nodeByName(node);
        dfg::NodeId p = d.nodeByName(parent);
        EXPECT_NE(n, dfg::kNoNode) << node;
        EXPECT_NE(p, dfg::kNoNode) << parent;
        for (dfg::NodeId q : d.parents(n))
            if (q == p)
                return true;
        return false;
    };
    EXPECT_TRUE(has_parent("core_0.inst_DX", "core_0.PC_IF"));
    EXPECT_TRUE(has_parent("core_0.inst_DX", "imem_0.mem"));
    EXPECT_TRUE(has_parent("core_0.wdata_WB", "core_0.inst_DX"));
    EXPECT_TRUE(has_parent("core_0.regfile", "core_0.alu_out_WB"));
    EXPECT_TRUE(has_parent("core_0.regfile", "dmem.mem"));
    EXPECT_TRUE(has_parent("dmem.mem", "dmem.req_wdata_q"));
    EXPECT_TRUE(has_parent("dmem.req_wdata_q", "core_0.inst_DX"));
    // Core 1's fetch path is disjoint from core 0's.
    EXPECT_FALSE(has_parent("core_0.inst_DX", "imem_1.mem"));
    EXPECT_FALSE(has_parent("core_0.inst_DX", "core_1.regfile"));
}

TEST(Rtl2uspec, AllSvasResolvedAndNoBugsOnFixedDesign)
{
    const SynthesisResult &r = sharedSynthesis();
    EXPECT_TRUE(r.bugs.empty()) << r.bugs[0];
    int unknown = 0;
    for (const auto &sva : r.svas) {
        EXPECT_NE(sva.verdict, bmc::Verdict::Unknown) << sva.name;
        unknown += sva.verdict == bmc::Verdict::Unknown;
    }
    EXPECT_EQ(unknown, 0) << "100% proof coverage expected (§1)";
    EXPECT_GT(r.svas.size(), 25u);
    EXPECT_GT(r.proofSeconds, 0.0);
}

TEST(Rtl2uspec, MembershipMatchesFig3c)
{
    const SynthesisResult &r = sharedSynthesis();
    auto has = [&](const char *instr, const char *elem) {
        const auto &nodes = r.instrNodes.at(instr);
        for (const auto &n : nodes)
            if (n == elem)
                return true;
        return false;
    };
    // Both lw and sw update the IFR, the WB staging registers
    // (including wdata, per Fig. 3c), and the request interface.
    for (const char *op : {"lw", "sw"}) {
        EXPECT_TRUE(has(op, "core_0.inst_DX")) << op;
        EXPECT_TRUE(has(op, "core_0.wdata_WB")) << op;
        EXPECT_TRUE(has(op, "core_0.lw_in_WB")) << op;
        EXPECT_TRUE(has(op, "core_0.sw_in_WB")) << op;
        EXPECT_TRUE(has(op, "core_0.alu_out_WB")) << op;
        EXPECT_TRUE(has(op, "dmem.req_wdata_q")) << op;
    }
    // Only lw updates the regfile; only sw updates the memory.
    EXPECT_TRUE(has("lw", "core_0.regfile"));
    EXPECT_FALSE(has("sw", "core_0.regfile"));
    EXPECT_TRUE(has("sw", "dmem.mem"));
    EXPECT_FALSE(has("lw", "dmem.mem"));
}

TEST(Rtl2uspec, ModelStructure)
{
    const SynthesisResult &r = sharedSynthesis();
    const uspec::Model &m = r.model;
    EXPECT_GE(m.stageNames.size(), 5u);
    EXPECT_EQ(m.stageNames[0], "IF_");
    EXPECT_EQ(m.memAccessStage, "mem_if");
    EXPECT_EQ(m.memStage, "dmem_mem");

    auto find_axiom = [&](const std::string &name) -> const uspec::Axiom * {
        for (const auto &ax : m.axioms)
            if (ax.name == name)
                return &ax;
        return nullptr;
    };
    ASSERT_NE(find_axiom("sw_path"), nullptr);
    ASSERT_NE(find_axiom("lw_path"), nullptr);
    ASSERT_NE(find_axiom("PO_fetch"), nullptr);
    ASSERT_NE(find_axiom("PO_mem_if"), nullptr);
    ASSERT_NE(find_axiom("Dataflow_mem"), nullptr);
    ASSERT_NE(find_axiom("Access_serialized"), nullptr);
    EXPECT_TRUE(find_axiom("Access_serialized")->isEitherOrdering());

    // lw path must route IF_ -> ... -> regfile through the interface.
    const uspec::Axiom *lw = find_axiom("lw_path");
    int regfile_row = m.locOf("regfile");
    ASSERT_GE(regfile_row, 0);
    bool lands_in_regfile = false;
    for (const auto &e : lw->edgeAlternatives[0])
        lands_in_regfile |= e.dst.loc == regfile_row;
    EXPECT_TRUE(lands_in_regfile);
}

TEST(Rtl2uspec, ModelRoundTripsThroughDsl)
{
    const SynthesisResult &r = sharedSynthesis();
    std::string printed = r.model.print();
    uspec::Model parsed = uspec::Model::parse(printed);
    EXPECT_EQ(parsed.print(), printed);
    EXPECT_EQ(parsed.axioms.size(), r.model.axioms.size());
}

TEST(Rtl2uspec, ReportMentionsAllCategories)
{
    const SynthesisResult &r = sharedSynthesis();
    std::string report = r.report();
    for (const char *cat : {"intra", "spatial", "temporal", "dataflow"})
        EXPECT_NE(report.find(cat), std::string::npos) << cat;
    EXPECT_FALSE(r.fullDfgDot.empty());
    EXPECT_FALSE(r.instrDfgDots.at("lw").empty());
}

TEST(Rtl2uspec, SynthesizedModelVerifiesCoreLitmusTests)
{
    const SynthesisResult &r = sharedSynthesis();
    auto suite = litmus::standardSuite();
    // The full 56-test suite: milliseconds per test on the model.
    for (size_t i = 0; i < suite.size(); i++) {
        auto res = check::checkTest(r.model, suite[i]);
        EXPECT_TRUE(res.pass) << res.summary();
        EXPECT_FALSE(res.interestingObservable) << res.summary();
        EXPECT_TRUE(res.tight)
            << "over-restrictive model: " << res.summary();
    }
}

TEST(Rtl2uspec, BuggyDesignTriggersBugDiscovery)
{
    vscale::Config cfg = formalConfig();
    cfg.buggy = true;
    auto design = vscale::elaborateVscale(cfg);
    auto md = vscale::vscaleMetadata(cfg);
    md.bound = 6; // the bug shows up within a few cycles
    SynthesisResult r = synthesize(design, md);
    ASSERT_FALSE(r.bugs.empty());
    EXPECT_NE(r.bugs[0].find("§6.1"), std::string::npos);
    // The counterexample trace shows the offending encoding.
    EXPECT_NE(r.bugs[0].find("inst_DX"), std::string::npos);
}

namespace
{

std::string
modelFnv(const uspec::Model &model)
{
    nl::Fnv64 h;
    h.str(model.print());
    return strfmt("%016llx", static_cast<unsigned long long>(h.value()));
}

} // namespace

// The regfile ordering has one representative SVA per reader type; the
// axiom needs every one of them proven. A second read type (`lx`, an
// alias of lw's encoding) adds a second po_order_regfile; forcing the
// first to Unknown must omit PO_regfile and record the degradation,
// whatever the second one proves.
TEST(Rtl2Uspec, RegfileOrderingNeedsEveryRepresentative)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = vscale::vscaleMetadata(formalConfig());
    md.instrs.push_back({"lx", 0x707f, 0x2003, true, false});

    std::atomic<int> regfile_queries{0};
    SynthesisOptions opts;
    opts.jobs = 1;
    opts.faultHook = [&](const bmc::Query &q, bmc::CheckResult &r,
                         bmc::SolveStage stage) {
        if (stage == bmc::SolveStage::Primary &&
            q.name == "po_order_regfile" && regfile_queries++ == 0)
            r.verdict = bmc::Verdict::Unknown;
    };
    SynthesisResult r = synthesize(design, md, opts);
    EXPECT_EQ(regfile_queries.load(), 2);

    int regfile_svas = 0;
    for (const SvaRecord &sva : r.svas)
        regfile_svas += sva.name == "po_order_regfile";
    EXPECT_EQ(regfile_svas, 2);
    for (const uspec::Axiom &ax : r.model.axioms)
        EXPECT_NE(ax.name, "PO_regfile");
    const std::string note =
        "po_order_regfile: ordering undetermined; axiom omitted "
        "(weaker model: fewer hb edges)";
    EXPECT_NE(std::find(r.degraded.begin(), r.degraded.end(), note),
              r.degraded.end());
    EXPECT_NE(r.model.print().find("% degraded: " + note),
              std::string::npos);
}

// The ablation switches reach rounds no other test runs: relaxPairs
// off is the §6.2 per-pair fallback round, mergeNodes off emits one
// row per element. Pinned: SVA count and model FNV.
TEST(Rtl2Uspec, AblationRoundsArePinned)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = vscale::vscaleMetadata(formalConfig());
    SynthesisOptions opts;
    opts.jobs = 2;

    DesignMetadata no_relax = md;
    no_relax.relaxPairs = false;
    SynthesisResult relax = synthesize(design, no_relax, opts);
    EXPECT_EQ(relax.svas.size(), 43u);
    EXPECT_EQ(relax.unknownSvas, 0u);
    EXPECT_EQ(modelFnv(relax.model), "c344ca53ca56157f");

    DesignMetadata no_merge = md;
    no_merge.mergeNodes = false;
    SynthesisResult merge = synthesize(design, no_merge, opts);
    EXPECT_EQ(merge.svas.size(), 37u);
    EXPECT_EQ(merge.unknownSvas, 0u);
    EXPECT_EQ(modelFnv(merge.model), "9ad22e51942b2f58");
}

namespace
{

/** Member names of a parsed JSON object, in document order. */
std::vector<std::string>
keysOf(const json::Value &v)
{
    std::vector<std::string> keys;
    for (const auto &[k, member] : v.obj)
        keys.push_back(k);
    return keys;
}

/** A hand-filled result with one degraded SVA whose note and name
 *  carry characters JSON must escape. */
SynthesisResult
degradedResult()
{
    SynthesisResult r;
    SvaRecord rec;
    rec.name = "sva\t\"quoted\"";
    rec.category = "intra";
    rec.verdict = bmc::Verdict::Unknown;
    rec.degraded = true;
    rec.degradeNote = "budget\x01hit\tat \"frame 3\"";
    r.svas.push_back(rec);
    r.unknownSvas = 1;
    r.degraded.push_back(rec.degradeNote);
    return r;
}

json::Value
parsedReport(const SynthesisResult &r)
{
    json::Value report;
    std::string err;
    EXPECT_TRUE(json::Value::parse(r.jsonReport().dump(), report, &err))
        << err;
    return report;
}

} // namespace

TEST(RunReport, EscapesControlBytesAndQuotes)
{
    SynthesisResult r = degradedResult();
    json::Value report = parsedReport(r);
    const json::Value *svas = report.find("svas");
    ASSERT_NE(svas, nullptr);
    ASSERT_EQ(svas->arr.size(), 1u);
    EXPECT_EQ(svas->arr[0].getStr("name"), r.svas[0].name);
    EXPECT_EQ(svas->arr[0].getStr("degrade_note"), r.svas[0].degradeNote);
    const json::Value *notes = report.find("degraded");
    ASSERT_NE(notes, nullptr);
    ASSERT_EQ(notes->arr.size(), 1u);
    EXPECT_EQ(notes->arr[0].asStr(), r.svas[0].degradeNote);
}

// Golden schema: the run report's top-level key order and every
// block's keys. Scripts index these names, so changing one has to be
// a deliberate edit here (and in EXPERIMENTS.md), not a side effect.
TEST(RunReport, SchemaIsPinned)
{
    json::Value report = parsedReport(degradedResult());
    using Keys = std::vector<std::string>;
    EXPECT_EQ(keysOf(report),
              (Keys{"jobs", "full_unroll", "sva_count", "unroll_contexts",
                    "contexts_seeded", "unknown_svas", "bug_count",
                    "timings", "validation", "cache", "engine",
                    "simplify", "degraded", "svas"}));
    const std::pair<const char *, Keys> blocks[] = {
        {"timings", {"static_s", "proof_s", "post_s", "total_s"}},
        {"validation",
         {"mode", "replays", "proof_rechecks", "recheck_inconclusive",
          "mismatches", "validation_failures", "replay_s", "recheck_s",
          "validate_s"}},
        {"cache", {"enabled", "hits", "misses", "invalidations", "appends"}},
        {"engine",
         {"mode", "races", "bmc_wins", "kind_wins", "pdr_wins",
          "unbounded_proofs", "pdr_frames", "pdr_obligations"}},
        {"simplify", {"inprocess_runs", "inprocess_clauses_removed"}},
    };
    for (const auto &[name, keys] : blocks) {
        const json::Value *block = report.find(name);
        ASSERT_NE(block, nullptr) << name;
        EXPECT_EQ(keysOf(*block), keys) << name;
    }
    const json::Value *svas = report.find("svas");
    ASSERT_NE(svas, nullptr);
    ASSERT_EQ(svas->arr.size(), 1u);
    EXPECT_EQ(keysOf(svas->arr[0]),
              (Keys{"name", "category", "verdict", "source", "retries",
                    "seconds", "conflicts", "propagations", "cnf_vars",
                    "cnf_clauses", "validated", "from_cache", "engine",
                    "engine_raced", "unbounded", "degraded",
                    "degrade_note"}));
}

#ifdef R2U_SOURCE_DIR
#include <filesystem>

TEST(Rtl2Uspec, NoVerdictConsumerTreatsUnknownAsDefinite)
{
    // Grep-proof audit of the Unknown-degradation policy: every
    // mention of a Verdict constant in any .cc file under
    // src/rtl2uspec/ must be a `case` label of an enum-exhaustive
    // switch. Boolean comparisons like `verdict != Verdict::Refuted`
    // are how Unknown used to silently flip to Proven (and `!= Proven`
    // to Refuted); a switch forces the author to say what Unknown
    // means at every consumer.
    namespace fs = std::filesystem;
    size_t files = 0, mentions = 0;
    for (const auto &entry : fs::directory_iterator(
             std::string(R2U_SOURCE_DIR) + "/src/rtl2uspec")) {
        if (entry.path().extension() != ".cc")
            continue;
        const std::string file = entry.path().filename().string();
        std::string src = readFile(entry.path().string());
        ASSERT_FALSE(src.empty()) << file;
        files++;

        size_t line_no = 0, pos = 0;
        while (pos <= src.size()) {
            size_t eol = src.find('\n', pos);
            if (eol == std::string::npos)
                eol = src.size();
            std::string line = src.substr(pos, eol - pos);
            line_no++;
            for (const char *name :
                 {"Verdict::Proven", "Verdict::Refuted",
                  "Verdict::Unknown"}) {
                if (line.find(name) == std::string::npos)
                    continue;
                mentions++;
                EXPECT_NE(line.find("case "), std::string::npos)
                    << file << ":" << line_no
                    << " consumes a Verdict outside a switch: " << line;
            }
            pos = eol + 1;
        }
    }
    EXPECT_GT(files, 1u);
    // The audit only means something if the sources still name
    // verdicts.
    EXPECT_GT(mentions, 0u);
}
#endif // R2U_SOURCE_DIR
