/**
 * @file
 * Litmus campaign engine benchmark: the seed's sequential brute-force
 * checker (per-execution axiom-binding enumeration, no pruning) vs
 * the campaign engine at jobs=1/jobs=4, pruned and exhaustive, over
 * the standard 56-test suite on the hand-written multi-V-scale SC
 * model (designs/vscale_sc.uarch — litmus checking only, no
 * synthesis). Asserts the observable-outcome sets and verdict flags
 * are identical in every configuration and writes BENCH_litmus.json.
 */

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "check/campaign.hh"
#include "check/check.hh"
#include "common/json.hh"
#include "common/strutil.hh"
#include "common/timer.hh"
#include "litmus/litmus.hh"
#include "mcm/sc_ref.hh"
#include "uhb/uhb.hh"
#include "uspec/uspec.hh"

using namespace r2u;

namespace
{

/** Per-test facts every configuration must agree on. */
struct Verdict
{
    std::vector<std::string> outcomes;
    bool pass = false, tight = false;
    bool interestingObservable = false, interestingScAllowed = false;

    bool
    operator==(const Verdict &o) const
    {
        return outcomes == o.outcomes && pass == o.pass &&
               tight == o.tight &&
               interestingObservable == o.interestingObservable &&
               interestingScAllowed == o.interestingScAllowed;
    }
};

/**
 * The seed checker, reproduced: enumerate every candidate execution
 * and call the table-free uhb::solve (which re-enumerates the axiom
 * bindings per execution, as the pre-campaign code did).
 */
Verdict
seedCheck(const uspec::Model &model, const litmus::Test &test)
{
    std::set<mcm::Outcome> sc = mcm::enumerateSC(test);
    Verdict v;
    for (const mcm::Outcome &o : sc)
        v.interestingScAllowed |= o.satisfies(test.interesting);
    std::set<mcm::Outcome> observable;
    check::forEachExecution(test, [&](const uhb::Execution &exec) {
        uhb::SolveResult sr = uhb::solve(model, exec);
        if (!sr.observable)
            return;
        mcm::Outcome out = check::outcomeOf(test, exec);
        observable.insert(out);
        v.interestingObservable |= out.satisfies(test.interesting);
    });
    v.pass = true;
    for (const mcm::Outcome &o : observable) {
        v.outcomes.push_back(o.toString());
        v.pass &= sc.count(o) > 0;
    }
    v.tight = v.pass && observable.size() == sc.size();
    return v;
}

Verdict
verdictOf(const check::TestResult &res)
{
    Verdict v;
    v.outcomes = res.outcomes;
    v.pass = res.pass;
    v.tight = res.tight;
    v.interestingObservable = res.interestingObservable;
    v.interestingScAllowed = res.interestingScAllowed;
    return v;
}

struct Row
{
    std::string name;
    unsigned jobs;
    bool prune;
    double ms = 0;
    long long explored = 0, pruned = 0, branches = 0;
};

/**
 * Coherence stress test: `writers` single-write threads racing on x
 * (distinct values -> writers! coherence orders) plus one thread
 * issuing `reads` loads of x. Execution space = writers! *
 * (writers+1)^reads candidates, but far fewer distinct outcomes —
 * the shape that exercises both the worker pool and outcome pruning.
 */
litmus::Test
cohStress(int writers, int reads)
{
    litmus::Test t;
    t.name = strfmt("stress_coh_w%d_r%d", writers, reads);
    for (int i = 0; i < writers; i++) {
        litmus::Thread th;
        th.ops.push_back({true, "x", i + 1, 0});
        t.threads.push_back(th);
    }
    litmus::Thread reader;
    for (int r = 0; r < reads; r++)
        reader.ops.push_back({false, "x", 0, r});
    t.threads.push_back(reader);
    // New-to-old reordering within the reader: SC-forbidden once
    // coherence pins write 1 before the last write.
    t.interesting.regs = {{writers, 0, writers}, {writers, 1, 1}};
    return t;
}

/** Two racing coherence chains (x and y) plus a two-load observer. */
litmus::Test
mixedStress(int writers)
{
    litmus::Test t;
    t.name = strfmt("stress_mixed_w%d", writers);
    for (int i = 0; i < writers; i++) {
        litmus::Thread th;
        th.ops.push_back({true, "x", i + 1, 0});
        th.ops.push_back({true, "y", i + 1, 0});
        t.threads.push_back(th);
    }
    litmus::Thread reader;
    reader.ops.push_back({false, "x", 0, 0});
    reader.ops.push_back({false, "y", 0, 1});
    t.threads.push_back(reader);
    t.interesting.regs = {{writers, 0, writers}, {writers, 1, 0}};
    return t;
}

/**
 * The benchmark workload: the 56-test standard suite plus scaled
 * stress tests. The standard suite alone finishes in single-digit
 * milliseconds (380 candidates total), so the headline speedups are
 * driven by the stress tests' tens of thousands of candidates.
 */
std::vector<litmus::Test>
benchSuite()
{
    auto suite = litmus::standardSuite();
    if (bench::quickMode()) {
        suite.resize(12);
        suite.push_back(cohStress(4, 2)); //  600 candidates
        suite.push_back(mixedStress(3));  //  576
    } else {
        suite.push_back(cohStress(5, 2)); //   4320 candidates
        suite.push_back(cohStress(6, 2)); //  35280
        suite.push_back(mixedStress(4));  //  14400
    }
    return suite;
}

} // namespace

int
main()
{
    bench::banner("Litmus campaign engine — seed sequential checker "
                  "vs parallel + pruned campaigns");

    uspec::Model model = uspec::Model::parse(
        readFile(std::string(R2U_DESIGN_DIR) + "/vscale_sc.uarch"));
    auto suite = benchSuite();
    size_t n = suite.size();
    unsigned cpus = std::thread::hardware_concurrency();
    std::printf("suite: %zu tests; host CPUs: %u%s\n", n, cpus,
                cpus < 4 ? " (jobs=4 rows cannot beat jobs=1 here; "
                           "their speedup is pruning + the hoisted "
                           "instance table)"
                         : "");

    // Seed baseline.
    std::vector<Verdict> reference(n);
    Row seed{"seed-sequential", 1, false};
    {
        Timer timer;
        for (size_t i = 0; i < n; i++)
            reference[i] = seedCheck(model, suite[i]);
        seed.ms = timer.milliseconds();
    }
    std::printf("\n%-22s %5s %6s %10s %9s %9s\n", "configuration",
                "jobs", "prune", "wall (ms)", "explored", "pruned");
    std::printf("%-22s %5u %6s %10.1f %9s %9s\n", seed.name.c_str(),
                seed.jobs, "off", seed.ms, "-", "-");

    struct Config
    {
        unsigned jobs;
        bool prune;
    };
    const Config configs[] = {
        {1, false}, {1, true}, {4, false}, {4, true}};
    std::vector<Row> rows;
    bool identical = true;
    for (const Config &cfg : configs) {
        check::CampaignOptions opts;
        opts.jobs = cfg.jobs;
        opts.prune = cfg.prune;
        auto res = check::runCampaign(model, suite, opts);
        Row row{strfmt("campaign-j%u-%s", cfg.jobs,
                       cfg.prune ? "pruned" : "exhaustive"),
                cfg.jobs, cfg.prune, res.ms, res.executionsExplored,
                res.executionsPruned, res.branches};
        for (size_t i = 0; i < n; i++) {
            if (!(verdictOf(res.tests[i]) == reference[i])) {
                identical = false;
                std::printf("  MISMATCH vs seed on %s: %s\n",
                            suite[i].name.c_str(),
                            res.tests[i].summary().c_str());
            }
        }
        std::printf("%-22s %5u %6s %10.1f %9lld %9lld\n",
                    row.name.c_str(), row.jobs,
                    row.prune ? "on" : "off", row.ms, row.explored,
                    row.pruned);
        rows.push_back(row);
    }

    double speedup_j4 = seed.ms / rows[3].ms;          // j4 pruned
    double speedup_j4_ex = seed.ms / rows[2].ms;       // j4 exhaustive
    double speedup_prune_j1 = rows[0].ms / rows[1].ms; // at jobs=1
    std::printf("\nspeedup vs seed: jobs=4 pruned %.2fx, jobs=4 "
                "exhaustive %.2fx; pruning alone (jobs=1) %.2fx\n",
                speedup_j4, speedup_j4_ex, speedup_prune_j1);
    std::printf("outcome sets / verdict flags identical in all "
                "configurations: %s\n", identical ? "yes" : "NO");

    using json::Value;
    auto num = [](double n) { return Value::number(n); };
    Value rows_json = Value::array();
    for (const Row &r : rows) {
        Value row = Value::object();
        row.set("name", Value::string(r.name))
            .set("jobs", num(r.jobs))
            .set("prune", Value::boolean_(r.prune))
            .set("wall_ms", num(r.ms))
            .set("explored", num(r.explored))
            .set("pruned", num(r.pruned))
            .set("branches", num(r.branches));
        rows_json.push(std::move(row));
    }
    Value doc = Value::object();
    doc.set("suite_tests", num(n))
        .set("host_cpus", num(cpus))
        .set("seed_sequential_ms", num(seed.ms))
        .set("rows", std::move(rows_json))
        .set("speedup_jobs4_pruned_vs_seed", num(speedup_j4))
        .set("speedup_jobs4_exhaustive_vs_seed", num(speedup_j4_ex))
        .set("speedup_pruned_vs_exhaustive_jobs1", num(speedup_prune_j1))
        .set("identical_outcomes", Value::boolean_(identical));
    writeFile(bench::outPath("BENCH_litmus.json"), doc.dump() + "\n");
    std::printf("JSON summary written to %s\n",
                bench::outPath("BENCH_litmus.json").c_str());

    return identical ? 0 : 1;
}
