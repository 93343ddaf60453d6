/**
 * @file
 * google-benchmark microbenchmarks for the substrate layers: CDCL SAT
 * solving, Tseitin word-op construction + solving, netlist simulation
 * throughput on the multi-V-scale, SC reference enumeration, and µhb
 * solving on a fixed model. These quantify the building blocks whose
 * costs Fig. 5 / Fig. 6 aggregate.
 */

#include <memory>

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "bmc/checker.hh"
#include "check/check.hh"
#include "common/json.hh"
#include "common/timer.hh"
#include "litmus/litmus.hh"
#include "mcm/sc_ref.hh"
#include "sat/cnf.hh"
#include "sim/simulator.hh"
#include "uhb/uhb.hh"
#include "vscale/metadata.hh"
#include "vscale/vscale.hh"

using namespace r2u;

namespace
{

// ------------------------------------------------------------------
// Sliced vscale query corpus: per-SVA-style BMC queries captured as
// solver snapshots (cloneFrom of a COI-sliced PropCtx's solver with the
// query's monitor clauses guarded by its activation literal, taken
// before any search). Solving a clone under {act} reproduces the query
// verdict exactly.
// ------------------------------------------------------------------

struct QueryCnf
{
    std::unique_ptr<sat::Solver> snapshot;
    sat::Lit act; ///< solve under this assumption
    int numVars = 0;
    bool sat = false; ///< reference verdict (default config)
};

constexpr unsigned kCorpusBound = 6;

const std::vector<QueryCnf> &
queryCorpus()
{
    static const std::vector<QueryCnf> corpus = [] {
        auto cfg = bench::formalConfig();
        auto design = vscale::elaborateVscale(cfg);
        auto md = vscale::vscaleMetadata(cfg);
        std::vector<QueryCnf> out;
        for (const auto &core : md.cores) {
            // "the fetch register moves" (reachable -> Sat) and "the
            // fetch PC lands misaligned" (unreachable -> Unsat): the
            // two verdict shapes the synthesizer's membership and
            // attribution queries produce.
            for (int kind = 0; kind < 2; kind++) {
                bmc::PropCtx ctx(*design.netlist, design.signalMap, {},
                                 kCorpusBound);
                ctx.beginQuery();
                sat::Lit bad;
                if (kind == 0) {
                    bad = ctx.cnf().falseLit();
                    for (unsigned f = 1; f < kCorpusBound; f++)
                        bad = ctx.cnf().mkOr(
                            bad, ctx.changedAt(f, core.ifr));
                } else {
                    bad = ctx.eqConst(kCorpusBound - 1, core.imPc, 2);
                }
                ctx.assume(bad);
                QueryCnf q;
                q.snapshot = std::make_unique<sat::Solver>();
                q.snapshot->cloneFrom(ctx.solver());
                q.act = ctx.activation();
                q.numVars = ctx.solver().numVars();
                q.sat = kind == 0;
                out.push_back(std::move(q));
            }
        }
        return out;
    }();
    return corpus;
}

void
loadQuery(sat::Solver &s, const QueryCnf &q,
          const sat::SolverConfig &cfg)
{
    s.cloneFrom(*q.snapshot);
    s.setConfig(cfg);
}

void
BM_SatPigeonhole(benchmark::State &state)
{
    int pigeons = static_cast<int>(state.range(0));
    int holes = pigeons - 1;
    for (auto _ : state) {
        sat::Solver s;
        std::vector<std::vector<sat::Var>> p(
            pigeons, std::vector<sat::Var>(holes));
        for (int i = 0; i < pigeons; i++)
            for (int j = 0; j < holes; j++)
                p[i][j] = s.newVar();
        for (int i = 0; i < pigeons; i++) {
            std::vector<sat::Lit> c;
            for (int j = 0; j < holes; j++)
                c.push_back(sat::mkLit(p[i][j]));
            s.addClause(c);
        }
        for (int j = 0; j < holes; j++)
            for (int i1 = 0; i1 < pigeons; i1++)
                for (int i2 = i1 + 1; i2 < pigeons; i2++)
                    s.addClause(sat::mkLit(p[i1][j], true),
                                sat::mkLit(p[i2][j], true));
        benchmark::DoNotOptimize(s.solve());
    }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(6)->Arg(7)->Unit(benchmark::kMillisecond);

void
BM_CnfAdderChain(benchmark::State &state)
{
    unsigned width = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        sat::Solver s;
        sat::CnfBuilder cnf(s);
        sat::Word acc = cnf.freshWord(width);
        for (int i = 0; i < 16; i++)
            acc = cnf.mkAddW(acc, cnf.freshWord(width));
        cnf.assertLit(cnf.mkEqW(acc, cnf.constWord(width, 12345)));
        benchmark::DoNotOptimize(s.solve());
    }
}
BENCHMARK(BM_CnfAdderChain)->Arg(8)->Arg(16)->Arg(32);

void
BM_VscaleSimCycles(benchmark::State &state)
{
    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16;
    vscale::Harness h(cfg);
    litmus::Test mp = litmus::standardSuite()[0];
    h.loadProgram(0, mp.threadAssembly(0));
    h.loadProgram(1, mp.threadAssembly(1));
    h.resetAndRun(1);
    for (auto _ : state)
        h.run(100);
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_VscaleSimCycles);

void
BM_ScEnumerate(benchmark::State &state)
{
    auto suite = litmus::standardSuite();
    const litmus::Test &t =
        suite[static_cast<size_t>(state.range(0))];
    for (auto _ : state)
        benchmark::DoNotOptimize(mcm::enumerateSC(t));
}
BENCHMARK(BM_ScEnumerate)->Arg(0)->Arg(5); // mp, iriw

void
BM_UhbCheckTest(benchmark::State &state)
{
    // Hand-written SC model (mirrors the synthesized shape).
    static const char *model_text = R"(
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
          ((i0, mem_if), (i0, regfile))].
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
    static uspec::Model model = uspec::Model::parse(model_text);
    auto suite = litmus::standardSuite();
    const litmus::Test &t =
        suite[static_cast<size_t>(state.range(0))];
    for (auto _ : state)
        benchmark::DoNotOptimize(check::checkTest(model, t));
}
BENCHMARK(BM_UhbCheckTest)->Arg(0)->Arg(1)->Arg(5);

// Sliced vscale query corpus, inprocessing on (arg 1) vs off (arg 0).
void
BM_SatQueryInprocess(benchmark::State &state)
{
    sat::SolverConfig cfg;
    if (state.range(0) == 0)
        cfg.inprocessPeriod = 0;
    const auto &corpus = queryCorpus();
    for (auto _ : state) {
        for (const auto &q : corpus) {
            sat::Solver s;
            loadQuery(s, q, cfg);
            benchmark::DoNotOptimize(s.solve({q.act}));
        }
    }
}
BENCHMARK(BM_SatQueryInprocess)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

/**
 * One timed sweep per solver configuration over the corpus, with
 * verdict cross-checks, written to BENCH_sat.json for scripted
 * comparisons across runs (the google-benchmark rows above are for
 * humans; this is for machines).
 */
void
writeSatJson()
{
    const auto &corpus = queryCorpus();
    struct Row
    {
        const char *name;
        double seconds = 0.0;
        bool verdictsAgree = true;
        uint64_t extra = 0;
    };
    Row rows[2] = {{"inprocess_on"}, {"inprocess_off"}};

    for (int cfg_i = 0; cfg_i < 2; cfg_i++) {
        Row &row = rows[cfg_i];
        Timer t;
        for (const auto &q : corpus) {
            sat::SolverConfig cfg;
            if (cfg_i == 1)
                cfg.inprocessPeriod = 0;
            sat::Solver s;
            loadQuery(s, q, cfg);
            sat::Result res = s.solve({q.act});
            row.extra += s.stats().simplifyRuns;
            bool sat_res = res == sat::Result::Sat;
            if (res == sat::Result::Unknown || sat_res != q.sat)
                row.verdictsAgree = false;
        }
        row.seconds = t.seconds();
    }

    using json::Value;
    auto num = [](double n) { return Value::number(n); };
    double vars = 0;
    for (const auto &q : corpus)
        vars += q.numVars;
    Value configs = Value::object();
    for (const Row &row : rows) {
        Value c = Value::object();
        c.set("seconds", num(row.seconds))
            .set("verdicts_agree", Value::boolean_(row.verdictsAgree))
            .set("inprocess_runs", num(row.extra));
        configs.set(row.name, std::move(c));
    }
    Value doc = Value::object();
    doc.set("corpus_queries", num(corpus.size()))
        .set("corpus_bound", num(kCorpusBound))
        .set("corpus_vars_mean",
             num(corpus.empty() ? 0.0 : vars / corpus.size()))
        .set("configs", std::move(configs));
    writeFile(bench::outPath("BENCH_sat.json"), doc.dump() + "\n");
    std::printf("SAT corpus summary written to %s\n",
                bench::outPath("BENCH_sat.json").c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    writeSatJson();
    return 0;
}
