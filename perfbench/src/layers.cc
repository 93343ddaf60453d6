/**
 * @file
 * The traced run's layer profile. Each step calls one module's public
 * functions from here, under a span, and turns what it measures into
 * the per-layer metrics that README.md maps onto the end-to-end ones.
 * The program itself carries no tracing: per-query solver figures come
 * from SvaRecord-level results and from SynthesisOptions::faultHook,
 * which fires once per primary solve.
 */

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <numeric>

#include "batch.hh"
#include "bmc/checker.hh"
#include "check/campaign.hh"
#include "check/check.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/timer.hh"
#include "dfg/dfg.hh"
#include "netlist/hash.hh"
#include "rtl2uspec/metadata_io.hh"
#include "serve/client.hh"
#include "service.hh"
#include "trace.hh"
#include "uhb/uhb.hh"
#include "workload.hh"

using namespace r2u;

namespace pb
{

namespace
{

/** Repetitions of each cheap static step (the median is reported). */
constexpr int kStaticReps = 5;
/** Candidate executions solved per test for uhb.solve_us_p50. */
constexpr uint64_t kSolvesPerTest = 16;
/** Seconds of client traffic in the service step. */
constexpr double kServeSeconds = 2.0;

/** Median wall time (ms) of @p reps calls of @p fn under @p span. */
template <typename Fn>
double
medianMs(const char *span, int reps, Fn &&fn)
{
    std::vector<double> ms;
    for (int i = 0; i < reps; i++) {
        Timer t;
        {
            Span s(span);
            fn();
        }
        ms.push_back(t.milliseconds());
    }
    return median(ms);
}

struct QueryFacts
{
    double seconds = 0;
    double conflicts = 0, propagations = 0;
    double cnfVars = 0, cnfClausesAdded = 0;
};

double
sum(const std::vector<double> &xs)
{
    return std::accumulate(xs.begin(), xs.end(), 0.0);
}

template <typename F>
std::vector<double>
column(const std::vector<QueryFacts> &qs, F field)
{
    std::vector<double> out;
    for (const QueryFacts &q : qs)
        out.push_back(q.*field);
    return out;
}

void
staticLayers(const rtl2uspec::DesignMetadata &md, std::vector<Metric> &m)
{
    const Design &d = vscaleDesign();
    vlog::ElabResult design;
    m.push_back({"verilog.elaborate_ms",
                 medianMs("verilog.elaborateFiles", kStaticReps,
                          [&] {
                              design = vlog::elaborateFiles(d.files,
                                                            d.elab);
                          }),
                 "ms"});

    const nl::Netlist &netlist = *design.netlist;
    nl::NetlistStats st = netlist.stats();
    m.push_back({"netlist.cells", static_cast<double>(st.cells), "count"});
    m.push_back(
        {"netlist.flop_bits", static_cast<double>(st.flopBits), "count"});
    uint64_t hash = 0;
    m.push_back({"netlist.hash_ms",
                 medianMs("netlist.structuralHash", kStaticReps,
                          [&] { hash ^= nl::structuralHash(netlist); }),
                 "ms"});

    const rtl2uspec::CoreMeta &core = md.cores.at(0);
    m.push_back(
        {"dfg.build_ms",
         medianMs("dfg.build", kStaticReps,
                  [&] {
                      dfg::FullDesignDfg g =
                          dfg::FullDesignDfg::build(netlist);
                      dfg::labelStages(
                          g, g.nodeOfReg(netlist.findByName(core.imPc)),
                          g.nodeOfReg(netlist.findByName(core.ifr)));
                  }),
         "ms"});
}

/** Cold then warm in-process synthesis over one verdict store. */
uspec::Model
synthesisLayers(const std::string &store, Workload &gate,
                std::vector<Metric> &m)
{
    std::mutex mu;
    std::vector<QueryFacts> qs; // guarded by mu
    rtl2uspec::SynthesisOptions so;
    so.faultHook = [&](const bmc::Query &, bmc::CheckResult &r,
                       bmc::SolveStage stage) {
        if (stage != bmc::SolveStage::Primary)
            return;
        QueryFacts q;
        q.seconds = r.seconds;
        q.conflicts = static_cast<double>(r.conflicts);
        q.propagations = static_cast<double>(r.propagations);
        q.cnfVars = static_cast<double>(r.cnfVars);
        q.cnfClausesAdded = static_cast<double>(r.cnfClausesAdded);
        std::lock_guard<std::mutex> lock(mu);
        qs.push_back(q);
    };
    rtl2uspec::SynthesisResult cold = synthesizeVscale(store, so);
    gate.attempted++;
    if (std::string err = synthGateError(cold); !err.empty())
        gate.fail("profile cold synthesis: " + err);

    auto count = [](uint64_t n) { return static_cast<double>(n); };
    std::vector<double> secs = column(qs, &QueryFacts::seconds);
    double proof_s = cold.proofSeconds;
    m.push_back({"rtl2uspec.static_ms", cold.staticSeconds * 1e3, "ms"});
    m.push_back({"rtl2uspec.proof_s", proof_s, "s"});
    m.push_back({"rtl2uspec.post_ms", cold.postSeconds * 1e3, "ms"});
    m.push_back({"bmc.queries", count(qs.size()), "count"});
    m.push_back({"bmc.query_s_p50", median(secs), "s"});
    m.push_back({"bmc.query_s_sum", sum(secs), "s"});
    m.push_back({"bmc.query_s_max",
                 secs.empty() ? 0.0
                              : *std::max_element(secs.begin(), secs.end()),
                 "s"});
    m.push_back({"bmc.worker_util",
                 proof_s > 0 ? sum(secs) / (cold.jobs * proof_s) : 0.0,
                 "ratio"});
    m.push_back({"bmc.cnf_vars_mean",
                 qs.empty() ? 0.0
                            : sum(column(qs, &QueryFacts::cnfVars)) /
                                  static_cast<double>(qs.size()),
                 "count"});
    m.push_back({"bmc.cnf_clauses_added_sum",
                 sum(column(qs, &QueryFacts::cnfClausesAdded)), "count"});
    m.push_back({"bmc.contexts", count(cold.unrollContexts), "count"});
    m.push_back(
        {"bmc.contexts_seeded", count(cold.contextsSeeded), "count"});
    m.push_back({"bmc.validate_s", cold.validateSeconds, "s"});
    m.push_back({"bmc.replays", count(cold.replays), "count"});
    m.push_back({"bmc.proof_rechecks", count(cold.proofRechecks), "count"});
    m.push_back({"bmc.engine_races", count(cold.engineRaces), "count"});
    m.push_back({"bmc.pdr_wins", count(cold.pdrWins), "count"});
    m.push_back(
        {"bmc.unbounded_proofs", count(cold.unboundedProofs), "count"});
    m.push_back({"bmc.race_win_ratio",
                 cold.engineRaces
                     ? count(cold.pdrWins + cold.kindWins) /
                           count(cold.engineRaces)
                     : 0.0,
                 "ratio"});
    m.push_back({"bmc.store_appends", count(cold.cacheAppends), "count"});
    std::vector<double> conflicts = column(qs, &QueryFacts::conflicts);
    m.push_back({"sat.conflicts_sum", sum(conflicts), "count"});
    m.push_back({"sat.conflicts_p50", median(conflicts), "count"});
    m.push_back({"sat.propagations_sum",
                 sum(column(qs, &QueryFacts::propagations)), "count"});
    m.push_back({"sat.inprocess_runs", count(cold.inprocessRuns), "count"});

    // Warm: the same design against the store the cold run filled.
    // Every query is answered by a lookup; proofSeconds is their cost.
    rtl2uspec::SynthesisResult warm = synthesizeVscale(store);
    gate.attempted++;
    if (std::string err = synthGateError(warm); !err.empty())
        gate.fail("profile warm synthesis: " + err);
    m.push_back({"bmc.store_hits", count(warm.cacheHits), "count"});
    m.push_back({"bmc.store_misses", count(warm.cacheMisses), "count"});
    m.push_back({"bmc.warm_lookup_ms", warm.proofSeconds * 1e3, "ms"});
    return std::move(cold.model);
}

/**
 * Bit-blasting vs search on a probe corpus built the way
 * bench_micro_sat's is, at the metadata bound: per core, one reachable
 * query (the fetch register moves: Sat) and one unreachable one (the
 * fetch PC lands misaligned: Unsat), each in a fresh COI-sliced
 * context. Encoding is PropCtx construction plus the property; search
 * is the Solver::solve under the query's activation literal.
 */
void
encodeSearchSplit(const rtl2uspec::DesignMetadata &md, Workload &gate,
                  std::vector<Metric> &m)
{
    const Design &d = vscaleDesign();
    vlog::ElabResult design = vlog::elaborateFiles(d.files, d.elab);
    double encode_ms = 0, search_ms = 0;
    uint64_t vars = 0, clauses = 0, conflicts = 0;
    for (const rtl2uspec::CoreMeta &core : md.cores) {
        for (int kind = 0; kind < 2; kind++) {
            Timer te;
            std::unique_ptr<bmc::PropCtx> ctx;
            {
                Span span("bmc.encode");
                ctx = std::make_unique<bmc::PropCtx>(
                    *design.netlist, design.signalMap,
                    bmc::Unroller::Options{}, md.bound);
                ctx->beginQuery();
                sat::Lit bad;
                if (kind == 0) {
                    bad = ctx->cnf().falseLit();
                    for (unsigned f = 1; f < md.bound; f++)
                        bad = ctx->cnf().mkOr(bad,
                                              ctx->changedAt(f, core.ifr));
                } else {
                    bad = ctx->eqConst(md.bound - 1, core.imPc, 2);
                }
                ctx->assume(bad);
            }
            encode_ms += te.milliseconds();
            Timer ts;
            sat::Result res;
            {
                Span span("sat.solve");
                res = ctx->solver().solve({ctx->activation()});
            }
            search_ms += ts.milliseconds();
            vars += static_cast<uint64_t>(ctx->solver().numVars());
            clauses += ctx->solver().numClauses();
            conflicts += ctx->solver().stats().conflicts;
            gate.attempted++;
            if (res != (kind == 0 ? sat::Result::Sat : sat::Result::Unsat))
                gate.fail("profile probe query on " + core.prefix +
                          " gave the wrong verdict");
        }
    }
    std::fprintf(stderr,
                 "perfbench: probe corpus: %zu queries, %llu variables, "
                 "%llu clauses, %llu conflicts in total\n",
                 md.cores.size() * 2, static_cast<unsigned long long>(vars),
                 static_cast<unsigned long long>(clauses),
                 static_cast<unsigned long long>(conflicts));
    m.push_back({"bmc.encode_ms", encode_ms, "ms"});
    m.push_back({"sat.search_ms", search_ms, "ms"});
}

void
litmusLayers(const uspec::Model &model, uint64_t seed, Workload &gate,
             std::vector<Metric> &m)
{
    Batch batch = makeBatch(seed);
    OutcomeSets reference;
    {
        Timer t;
        {
            Span span("mcm.enumerateSC");
            reference = scReference(batch.tests);
        }
        m.push_back({"mcm.sc_enum_ms", t.milliseconds(), "ms"});
    }

    double table_ms = 0;
    std::vector<double> solve_us;
    for (const litmus::Test &test : batch.tests) {
        check::ExecutionSpace space(test);
        Timer tt;
        std::unique_ptr<uhb::InstanceTable> table;
        {
            Span span("uhb.InstanceTable");
            table = std::make_unique<uhb::InstanceTable>(model,
                                                         space.ops());
        }
        table_ms += tt.milliseconds();
        uhb::Execution exec = space.makeScratch();
        for (uint64_t k = 0; k < std::min(space.size(), kSolvesPerTest);
             k++) {
            space.materialize(k, exec);
            Timer ts;
            {
                Span span("uhb.solve");
                uhb::solve(model, exec, *table);
            }
            solve_us.push_back(ts.seconds() * 1e6);
        }
    }
    m.push_back({"uhb.table_ms", table_ms, "ms"});
    m.push_back({"uhb.solve_us_p50", median(solve_us), "us"});

    check::CampaignOptions opts;
    opts.jobs = 4;
    check::CampaignResult res;
    {
        Span span("check.runCampaign");
        res = check::runCampaign(model, batch.tests, opts);
    }
    GateReport g = gateCampaign(res, reference);
    gate.attempted++;
    if (!g.ok())
        gate.fail("profile campaign: " + g.firstMismatch);
    auto count = [](long long n) { return static_cast<double>(n); };
    m.push_back(
        {"check.executions_total", count(res.executionsTotal), "count"});
    m.push_back({"check.executions_explored",
                 count(res.executionsExplored), "count"});
    m.push_back(
        {"check.executions_pruned", count(res.executionsPruned), "count"});
    m.push_back({"check.prune_ratio",
                 res.executionsTotal ? count(res.executionsPruned) /
                                           count(res.executionsTotal)
                                     : 0.0,
                 "ratio"});
    m.push_back({"check.branches", count(res.branches), "count"});
}

/** A daemon whose verdict cache the cold synthesis already filled. */
void
serviceLayers(const std::string &dir, const std::string &model_path,
              uint64_t seed, Workload &gate, std::vector<Metric> &m)
{
    Daemon daemon(dir);
    Traffic t =
        driveTraffic(daemon.socket(), model_path, seed, kServeSeconds);
    gate.attempted += t.attempted;
    for (size_t i = 0; i < t.failed; i++)
        gate.fail(i < t.failures.size() ? "profile service: " +
                                              t.failures[i]
                                        : "profile service: failed");

    serve::Client client;
    serve::json::Value status = serve::json::Value::object();
    status.set("type", serve::json::Value::string("status"));
    serve::json::Value resp;
    std::string err;
    gate.attempted++;
    if (!client.connect(daemon.socket(), &err) ||
        !client.request(status, resp, &err) || !resp.getBool("ok"))
        gate.fail("profile service: status: " + err);

    m.push_back({"serve.exec_ms_p50", percentile(t.execMs, 0.5), "ms"});
    m.push_back({"serve.wait_ms_p50", percentile(t.waitMs, 0.5), "ms"});
    m.push_back({"serve.campaign_req_p50_ms",
                 percentile(t.campaignMs, 0.5), "ms"});
    m.push_back({"serve.ping_p50_ms", percentile(t.pingMs, 0.5), "ms"});
    m.push_back({"serve.overloaded",
                 static_cast<double>(resp.getInt("overloaded")), "count"});
}

} // namespace

std::vector<Metric>
layerProfile(const RunConfig &cfg, Workload &gate)
{
    std::string dir = cfg.workDir + "/profile";
    freshDir(dir);
    rtl2uspec::DesignMetadata md =
        rtl2uspec::loadMetadata(vscaleDesign().metaPath);

    std::vector<Metric> m;
    staticLayers(md, m);
    // The store sits where the daemon below looks for its cache, so
    // the service step starts warm without another cold synthesis.
    uspec::Model model = synthesisLayers(dir + "/state/cache", gate, m);
    std::string model_path = dir + "/model.uarch";
    writeFile(model_path, model.print());
    encodeSearchSplit(md, gate, m);
    litmusLayers(model, cfg.seed, gate, m);
    serviceLayers(dir, model_path, cfg.seed, gate, m);
    return m;
}

} // namespace pb
