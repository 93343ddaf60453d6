/**
 * @file
 * Regenerates Fig. 5 of the paper: the synthesis-cost breakdown for
 * rtl2uspec on the multi-V-scale — SVA counts, runtimes, runtime/SVA,
 * and HBI hypotheses vs. proven HBIs split into local and global
 * state, per HBI category. Also reports the §5.1-style design-size
 * numbers and the §6.2 headline (one-time synthesis cost), and writes
 * the synthesized model to out/vscale.uarch plus the DFG DOT files.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hh"
#include "common/json.hh"
#include "common/timer.hh"

using namespace r2u;

namespace
{

/**
 * Whether two runs' models can be compared at all: a budgeted run may
 * leave SVAs undetermined, and two such runs (or one against an
 * unbudgeted run) can differ soundly, so a different model is a bug
 * only when both runs determined every SVA.
 */
bool
comparable(const rtl2uspec::SynthesisResult &a,
           const rtl2uspec::SynthesisResult &b)
{
    return a.unknownSvas == 0 && b.unknownSvas == 0;
}

/** The model-comparison cell of a printed row. */
std::string
modelMatch(const rtl2uspec::SynthesisResult &a,
           const rtl2uspec::SynthesisResult &b)
{
    if (!comparable(a, b))
        return strfmt("not comparable (budgeted: %zu vs %zu "
                      "undetermined)",
                      static_cast<size_t>(a.unknownSvas),
                      static_cast<size_t>(b.unknownSvas));
    return a.model.print() == b.model.print() ? "identical"
                                              : "DIFFERENT (BUG)";
}

/** The same comparison for the JSON summary; null if not comparable. */
json::Value
modelMatchJson(const rtl2uspec::SynthesisResult &a,
               const rtl2uspec::SynthesisResult &b)
{
    if (!comparable(a, b))
        return json::Value::null();
    return json::Value::boolean_(a.model.print() == b.model.print());
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0; // 0: hardware concurrency
    bool full_unroll = false;
    rtl2uspec::SynthesisOptions budget_opts;
    std::string report_path;
    auto usage = [] {
        std::fprintf(
            stderr,
            "usage: bench_fig5_synthesis [--jobs N] "
            "[--full-unroll]\n"
            "  [--conflict-budget N] [--query-timeout S] "
            "[--total-timeout S]\n"
            "  [--retry-escalation K] [--report FILE] "
            "[--cache DIR]\n");
    };
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                fatal("missing argument after '%s'", arg.c_str());
            return argv[i];
        };
        // Numeric values go through the shared whole-token parsers
        // (r2u::parseInt & friends): `--jobs foo` is a usage error
        // (exit 2), not atoi's silent 0 or an uncaught exception.
        try {
            if (arg == "--jobs") {
                int v = parseInt("--jobs", next());
                if (v < 1)
                    fatal("--jobs expects a positive count");
                jobs = static_cast<unsigned>(v);
            } else if (arg == "--full-unroll") {
                full_unroll = true;
            } else if (arg == "--conflict-budget") {
                budget_opts.conflictBudget =
                    parseInt64("--conflict-budget", next());
            } else if (arg == "--query-timeout") {
                budget_opts.queryTimeoutSeconds =
                    parseDouble("--query-timeout", next());
            } else if (arg == "--total-timeout") {
                budget_opts.totalTimeoutSeconds =
                    parseDouble("--total-timeout", next());
            } else if (arg == "--retry-escalation") {
                budget_opts.retryEscalation =
                    parseDouble("--retry-escalation", next());
            } else if (arg == "--report") {
                report_path = next();
            } else if (arg == "--cache") {
                budget_opts.cacheDir = next();
            } else {
                usage();
                return 2;
            }
        } catch (const FatalError &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            usage();
            return 2;
        }
    }

    bench::banner("Fig. 5 — rtl2uspec synthesis of a multi-V-scale "
                  "uspec model");

    auto cfg = bench::formalConfig();
    Timer elab_timer;
    auto design = vscale::elaborateVscale(cfg);
    double elab_s = elab_timer.seconds();

    auto st = design.netlist->stats();
    std::printf("\nDesign (cf. paper §5.1):\n");
    std::printf("  four-core multi-V-scale, XLEN=%u, %u-entry dmem, "
                "%u-entry imems\n",
                cfg.xlen, cfg.dmemWords, cfg.imemWords);
    std::printf("  %zu cells (%zu combinational), %zu registers "
                "(%zu flop bits), %zu memories (%zu bits)\n",
                st.cells, st.combCells, st.registers, st.flopBits,
                st.memories, st.memBits);
    std::printf("  Verilog parse + elaborate: %.2f s\n", elab_s);

    auto md = vscale::vscaleMetadata(cfg);
    rtl2uspec::SynthesisOptions synth_opts = budget_opts;
    synth_opts.jobs = jobs;
    synth_opts.fullUnroll = full_unroll;
    auto result = rtl2uspec::synthesize(design, md, synth_opts);

    std::printf("\n%s\n", result.report().c_str());

    std::printf("Per-SVA detail (verdicts as the property verifier "
                "reports them):\n");
    std::printf("  %-34s %-9s %-12s %10s %6s %9s %9s\n", "SVA",
                "category", "verdict", "time (s)", "hyp", "CNF vars",
                "clauses");
    std::vector<double> solve_times;
    for (const auto &sva : result.svas) {
        std::printf("  %-34s %-9s %-12s %10.3f %6u %9zu %9zu\n",
                    sva.name.c_str(), sva.category.c_str(),
                    bmc::verdictName(sva.verdict), sva.seconds,
                    sva.hypotheses, sva.cnfVars, sva.cnfClauses);
        solve_times.push_back(sva.seconds);
    }
    if (result.unknownSvas > 0) {
        std::printf("  %zu SVA(s) undetermined; model degraded "
                    "conservatively (%zu note(s))\n",
                    static_cast<size_t>(result.unknownSvas),
                    result.degraded.size());
    }
    double solve_p50 = bench::percentile(solve_times, 0.50);
    double solve_p95 = bench::percentile(solve_times, 0.95);
    std::printf("  solve time p50 %.3f s, p95 %.3f s; mean CNF "
                "%.0f vars / %.0f clauses (%s)\n",
                solve_p50, solve_p95, result.meanCnfVars,
                result.meanCnfClauses,
                result.fullUnroll ? "full unroll" : "COI-sliced");

    // Trust-but-verify overhead: replay validation rides along inside
    // proofSeconds, so the interesting number is its fraction of the
    // SVA-evaluation wall time (acceptance: < 10%).
    double replay_overhead = result.proofSeconds > 0
                                 ? result.replaySeconds /
                                       result.proofSeconds
                                 : 0.0;
    std::printf("\nVerdict validation (%s):\n",
                result.validateMode.c_str());
    std::printf("  %zu replay(s) %.3f s, %zu proof re-check(s) "
                "%.3f s (%zu inconclusive), %zu mismatch(es), "
                "%zu degraded\n",
                static_cast<size_t>(result.replays),
                result.replaySeconds,
                static_cast<size_t>(result.proofRechecks),
                result.recheckSeconds,
                static_cast<size_t>(result.recheckInconclusive),
                static_cast<size_t>(result.validationMismatches),
                static_cast<size_t>(result.validationFailures));
    std::printf("  replay overhead: %.2f%% of SVA-evaluation wall "
                "time (acceptance < 10%%)\n",
                100.0 * replay_overhead);

    if (result.cacheEnabled)
        std::printf("\nVerdict cache: %zu hit(s), %zu miss(es) "
                    "(%zu invalidated), %zu verdict(s) appended, "
                    "SVA evaluation %.3f s\n",
                    static_cast<size_t>(result.cacheHits),
                    static_cast<size_t>(result.cacheMisses),
                    static_cast<size_t>(result.cacheInvalidations),
                    static_cast<size_t>(result.cacheAppends),
                    result.proofSeconds);

    // Eager-vs-sliced comparison: rerun SVA evaluation in the
    // opposite unroll mode with the same jobs and budgets, re-solving
    // rather than replaying the main run's cache.
    rtl2uspec::SynthesisOptions other_opts = synth_opts;
    other_opts.fullUnroll = !full_unroll;
    other_opts.cacheDir.clear();
    auto other = bench::synthesizeVscaleWith(other_opts);
    const auto &eager = full_unroll ? result : other;
    const auto &sliced = full_unroll ? other : result;
    std::printf("\nCOI slicing vs full unroll (same %u-worker run):\n",
                result.jobs);
    std::printf("  full unroll: proof %.2f s, %.0f CNF vars/query "
                "mean\n",
                eager.proofSeconds, eager.meanCnfVars);
    std::printf("  COI-sliced:  proof %.2f s, %.0f CNF vars/query "
                "mean\n",
                sliced.proofSeconds, sliced.meanCnfVars);
    std::printf("  speedup %.2fx, CNF var reduction %.2fx, models "
                "%s\n",
                eager.proofSeconds / sliced.proofSeconds,
                eager.meanCnfVars / sliced.meanCnfVars,
                modelMatch(eager, sliced).c_str());
    std::printf("  per category (CNF vars/query mean, full unroll -> "
                "sliced):\n");
    for (const auto &[cat, ecs] : eager.stats) {
        auto it = sliced.stats.find(cat);
        if (it == sliced.stats.end() || !ecs.svas || !it->second.svas)
            continue;
        double ev = static_cast<double>(ecs.cnfVarsSum) / ecs.svas;
        double sv = static_cast<double>(it->second.cnfVarsSum) /
                    it->second.svas;
        std::printf("    %-9s %8.0f -> %8.0f (%.2fx)\n", cat.c_str(),
                    ev, sv, ev / sv);
    }

    std::printf("\nSAT engine (same %u-worker run): proof %.2f s "
                "(%zu/%zu contexts warm-seeded, %zu inprocess "
                "pass(es))\n",
                result.jobs, result.proofSeconds,
                static_cast<size_t>(result.contextsSeeded),
                static_cast<size_t>(result.unrollContexts),
                static_cast<size_t>(result.inprocessRuns));

    // Worker scaling: the paper-scale question is how the full SVA
    // sweep behaves when the host actually has the threads (8- and
    // 16-worker rows, quick mode trims to 8). The rows re-solve rather
    // than replay the main run's cache.
    rtl2uspec::SynthesisOptions scale_opts = synth_opts;
    scale_opts.cacheDir.clear();
    std::vector<unsigned> scale_jobs{8};
    if (!bench::quickMode())
        scale_jobs.push_back(16);
    struct ScaleRow
    {
        unsigned jobs;
        rtl2uspec::SynthesisResult res;
    };
    std::vector<ScaleRow> scale_rows;
    std::printf("\nWorker scaling (%zu of %zu queries ran the induction "
                "step, %zu unbounded proof(s) at %u workers):\n",
                static_cast<size_t>(result.engineRaces),
                result.svas.size(),
                static_cast<size_t>(result.unboundedProofs),
                result.jobs);
    for (unsigned sj : scale_jobs) {
        scale_opts.jobs = sj;
        auto sres = bench::synthesizeVscaleWith(scale_opts);
        std::printf("  %2u workers: proof %.2f s, total %.2f s, "
                    "%zu unbounded proof(s), model %s\n",
                    sj, sres.proofSeconds, sres.totalSeconds,
                    static_cast<size_t>(sres.unboundedProofs),
                    modelMatch(sres, result).c_str());
        scale_rows.push_back(ScaleRow{sj, std::move(sres)});
    }

    std::printf("\nPer-instruction DFG membership (cf. Fig. 3c):\n");
    for (const auto &[instr, nodes] : result.instrNodes) {
        std::printf("  %s: ", instr.c_str());
        for (const auto &n : nodes)
            std::printf("%s ", n.c_str());
        std::printf("\n");
    }

    writeFile(bench::outPath("vscale.uarch"), result.model.print());
    writeFile(bench::outPath("full_design_dfg.dot"), result.fullDfgDot);
    for (const auto &[instr, dot] : result.instrDfgDots)
        writeFile(bench::outPath("dfg_" + instr + ".dot"), dot);

    // Machine-readable summary for scripted comparisons across runs:
    // the main run's structured report plus the bench-only rows.
    {
        using json::Value;
        auto num = [](double n) { return Value::number(n); };

        Value coi_cells = Value::object();
        for (const auto &sva : result.svas)
            coi_cells.set(sva.name, num(sva.coiCells));

        Value coi = Value::object();
        coi.set("eager_proof_seconds", num(eager.proofSeconds))
            .set("sliced_proof_seconds", num(sliced.proofSeconds))
            .set("eager_cnf_vars_mean", num(eager.meanCnfVars))
            .set("sliced_cnf_vars_mean", num(sliced.meanCnfVars))
            .set("eager_cnf_clauses_mean", num(eager.meanCnfClauses))
            .set("sliced_cnf_clauses_mean", num(sliced.meanCnfClauses))
            .set("proof_speedup",
                 num(eager.proofSeconds / sliced.proofSeconds))
            .set("cnf_var_reduction",
                 num(eager.meanCnfVars / sliced.meanCnfVars))
            .set("models_identical", modelMatchJson(eager, sliced));

        Value sat_config = Value::object();
        sat_config.set("default_proof_seconds", num(result.proofSeconds))
            .set("inprocess_runs", num(result.inprocessRuns))
            .set("inprocess_clauses_removed",
                 num(result.inprocessClausesRemoved));

        Value scaling = Value::array();
        for (const auto &row : scale_rows) {
            Value r = Value::object();
            r.set("jobs", num(row.jobs))
                .set("proof_seconds", num(row.res.proofSeconds))
                .set("total_seconds", num(row.res.totalSeconds))
                .set("races", num(row.res.engineRaces))
                .set("unbounded_proofs", num(row.res.unboundedProofs))
                .set("model_identical",
                     modelMatchJson(row.res, result));
            scaling.push(std::move(r));
        }

        Value categories = Value::object();
        for (const auto &[cat, cs] : result.stats) {
            Value c = Value::object();
            c.set("svas", num(cs.svas))
                .set("seconds", num(cs.seconds))
                .set("hyp_local", num(cs.hypLocal))
                .set("hyp_global", num(cs.hypGlobal))
                .set("hbi_local", num(cs.hbiLocal))
                .set("hbi_global", num(cs.hbiGlobal));
            categories.set(cat, std::move(c));
        }

        Value doc = Value::object();
        doc.set("report", result.jsonReport())
            .set("solve_seconds_p50", num(solve_p50))
            .set("solve_seconds_p95", num(solve_p95))
            .set("replay_overhead_fraction", num(replay_overhead))
            .set("coi_cells", std::move(coi_cells))
            .set("coi_comparison", std::move(coi))
            .set("sat_config", std::move(sat_config))
            .set("scaling", std::move(scaling))
            .set("categories", std::move(categories));
        writeFile(bench::outPath("BENCH_fig5.json"), doc.dump() + "\n");
        std::printf("  JSON summary written to %s\n",
                    bench::outPath("BENCH_fig5.json").c_str());
    }

    if (!report_path.empty()) {
        writeFile(report_path, result.jsonReport().dump() + "\n");
        std::printf("  structured run report written to %s\n",
                    report_path.c_str());
    }

    std::printf("\nHeadline (paper: 6.84 min total, 3.34 s/SVA "
                "average on JasperGold):\n");
    if (result.unknownSvas == 0)
        std::printf("  synthesized a complete, proven-correct-by-"
                    "construction uspec model in %.2f s\n",
                    result.totalSeconds);
    else
        std::printf("  synthesized a conservatively DEGRADED uspec "
                    "model in %.2f s (%zu SVA(s) undetermined)\n",
                    result.totalSeconds,
                    static_cast<size_t>(result.unknownSvas));
    std::printf("  (static analysis %.2f s, SVA evaluation %.2f s, "
                "post-processing %.3f s)\n",
                result.staticSeconds, result.proofSeconds,
                result.postSeconds);
    std::printf("  model written to %s\n",
                bench::outPath("vscale.uarch").c_str());
    return 0;
}
