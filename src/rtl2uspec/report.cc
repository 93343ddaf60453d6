/**
 * @file
 * SynthesisResult's two renderings: the Fig. 5-style table and the
 * structured JSON run report (schema in EXPERIMENTS.md, pinned by
 * RunReport.SchemaIsPinned).
 */

#include "common/strutil.hh"
#include "rtl2uspec/synthesis.hh"

namespace r2u::rtl2uspec
{

std::string
SynthesisResult::report() const
{
    std::string out;
    out += strfmt("%-22s %8s %12s %14s %10s %10s %10s %10s\n",
                  "category", "# SVAs", "runtime (s)",
                  "runtime/SVA (s)", "hyp local", "hyp glob",
                  "HBI local", "HBI glob");
    const char *cats[] = {"intra", "spatial", "temporal", "dataflow"};
    int total_svas = 0;
    double total_time = 0;
    int thl = 0, thg = 0, tbl = 0, tbg = 0;
    for (const char *cat : cats) {
        auto it = stats.find(cat);
        if (it == stats.end())
            continue;
        const CategoryStats &cs = it->second;
        out += strfmt("%-22s %8d %12.3f %14.3f %10d %10d %10d %10d\n",
                      cat, cs.svas, cs.seconds,
                      cs.svas ? cs.seconds / cs.svas : 0.0, cs.hypLocal,
                      cs.hypGlobal, cs.hbiLocal, cs.hbiGlobal);
        total_svas += cs.svas;
        total_time += cs.seconds;
        thl += cs.hypLocal;
        thg += cs.hypGlobal;
        tbl += cs.hbiLocal;
        tbg += cs.hbiGlobal;
    }
    out += strfmt("%-22s %8d %12.3f %14.3f %10d %10d %10d %10d\n",
                  "total", total_svas, total_time,
                  total_svas ? total_time / total_svas : 0.0, thl, thg,
                  tbl, tbg);
    out += strfmt("static analysis: %.3f s, SVA evaluation: %.3f s, "
                  "post-processing: %.3f s, total: %.3f s\n",
                  staticSeconds, proofSeconds, postSeconds,
                  totalSeconds);
    out += strfmt("CNF per query (%s): %.0f vars / %.0f clauses mean\n",
                  fullUnroll ? "full unroll" : "COI-sliced",
                  meanCnfVars, meanCnfClauses);
    if (validateMode != "off") {
        out += strfmt(
            "validation (%s): %zu replay(s), %zu proof re-check(s) "
            "(%zu inconclusive), %zu mismatch(es), %zu degraded to "
            "Unknown, %.3f s (replay %.3f s, re-check %.3f s)\n",
            validateMode.c_str(), static_cast<size_t>(replays),
            static_cast<size_t>(proofRechecks),
            static_cast<size_t>(recheckInconclusive),
            static_cast<size_t>(validationMismatches),
            static_cast<size_t>(validationFailures), validateSeconds,
            replaySeconds, recheckSeconds);
    }
    if (engineRaces > 0)
        out += strfmt("induction step: %zu query(ies), %zu closed; "
                      "%zu unbounded proof(s)\n",
                      static_cast<size_t>(engineRaces),
                      static_cast<size_t>(kindWins),
                      static_cast<size_t>(unboundedProofs));
    if (inprocessRuns > 0)
        out += strfmt("simplify: %zu inprocessing pass(es) removed %zu "
                      "clause(s)\n",
                      static_cast<size_t>(inprocessRuns),
                      static_cast<size_t>(inprocessClausesRemoved));
    if (cacheEnabled)
        out += strfmt("cache: %zu hit(s), %zu miss(es), "
                      "%zu invalidation(s), %zu verdict(s) appended\n",
                      static_cast<size_t>(cacheHits),
                      static_cast<size_t>(cacheMisses),
                      static_cast<size_t>(cacheInvalidations),
                      static_cast<size_t>(cacheAppends));
    if (unknownSvas > 0) {
        out += strfmt("undetermined SVAs: %zu (model degraded "
                      "conservatively; see notes below)\n",
                      static_cast<size_t>(unknownSvas));
        for (const auto &note : degraded)
            out += "  degraded: " + note + "\n";
    }
    for (const auto &bug : bugs)
        out += bug + "\n";
    return out;
}

json::Value
SynthesisResult::jsonReport() const
{
    using json::Value;
    auto num = [](double n) { return Value::number(n); };
    auto flag = Value::boolean_;
    auto str = Value::string;

    Value timings = Value::object();
    timings.set("static_s", num(staticSeconds))
        .set("proof_s", num(proofSeconds))
        .set("post_s", num(postSeconds))
        .set("total_s", num(totalSeconds));

    Value validation = Value::object();
    validation.set("mode", str(validateMode))
        .set("replays", num(replays))
        .set("proof_rechecks", num(proofRechecks))
        .set("recheck_inconclusive", num(recheckInconclusive))
        .set("mismatches", num(validationMismatches))
        .set("validation_failures", num(validationFailures))
        .set("replay_s", num(replaySeconds))
        .set("recheck_s", num(recheckSeconds))
        .set("validate_s", num(validateSeconds));

    Value cache = Value::object();
    cache.set("enabled", flag(cacheEnabled))
        .set("hits", num(cacheHits))
        .set("misses", num(cacheMisses))
        .set("invalidations", num(cacheInvalidations))
        .set("appends", num(cacheAppends));

    // Key names predate the single proof path: "races" counts queries
    // that ran the induction step, "kind_wins" the steps that closed,
    // and the pdr_* fields stay 0.
    Value engine = Value::object();
    engine.set("mode", str("bmc+kind"))
        .set("races", num(engineRaces))
        .set("bmc_wins", num(bmcWins))
        .set("kind_wins", num(kindWins))
        .set("pdr_wins", num(pdrWins))
        .set("unbounded_proofs", num(unboundedProofs))
        .set("pdr_frames", num(pdrFrames))
        .set("pdr_obligations", num(pdrObligations));

    Value simplify = Value::object();
    simplify.set("inprocess_runs", num(inprocessRuns))
        .set("inprocess_clauses_removed", num(inprocessClausesRemoved));

    Value notes = Value::array();
    for (const std::string &note : degraded)
        notes.push(str(note));

    Value records = Value::array();
    for (const SvaRecord &r : svas) {
        Value rec = Value::object();
        rec.set("name", str(r.name))
            .set("category", str(r.category))
            .set("verdict", str(bmc::verdictName(r.verdict)))
            .set("source", str(bmc::verdictSourceName(r.source)))
            .set("retries", num(r.retries))
            .set("seconds", num(r.seconds))
            .set("conflicts", num(r.conflicts))
            .set("propagations", num(r.propagations))
            .set("cnf_vars", num(r.cnfVars))
            .set("cnf_clauses", num(r.cnfClauses))
            .set("validated", flag(r.validated))
            .set("from_cache", flag(r.fromCache))
            .set("engine", str(r.engine))
            .set("engine_raced", flag(r.inductionStep))
            .set("unbounded", flag(r.unbounded))
            .set("degraded", flag(r.degraded));
        if (r.degraded)
            rec.set("degrade_note", str(r.degradeNote));
        records.push(std::move(rec));
    }

    Value out = Value::object();
    out.set("jobs", num(jobs))
        .set("full_unroll", flag(fullUnroll))
        .set("sva_count", num(svas.size()))
        .set("unroll_contexts", num(unrollContexts))
        .set("contexts_seeded", num(contextsSeeded))
        .set("unknown_svas", num(unknownSvas))
        .set("bug_count", num(bugs.size()))
        .set("timings", std::move(timings))
        .set("validation", std::move(validation))
        .set("cache", std::move(cache))
        .set("engine", std::move(engine))
        .set("simplify", std::move(simplify))
        .set("degraded", std::move(notes))
        .set("svas", std::move(records));
    return out;
}

} // namespace r2u::rtl2uspec
