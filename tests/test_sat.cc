/**
 * @file
 * Tests for the CDCL SAT solver, including a randomized property test
 * that cross-checks solver verdicts against brute-force enumeration on
 * small formulas, and structured instances (pigeonhole, chains) that
 * exercise conflict analysis, restarts, and assumption handling. Also:
 *
 *  - cloneFrom() must replicate the whole search state;
 *  - a reduceDB() regression: a crafted conflict schedule (learnt cap
 *    pinned to almost nothing, so reduction fires while learnt
 *    clauses are reasons on the trail) must never evict locked
 *    clauses — evicting a reason corrupts conflict analysis, which
 *    shows up as a wrong verdict, a bogus model, or a crash;
 *  - inprocessing (periodic simplifyDB + arena garbage collection)
 *    must not change verdicts, incrementally or not, on random CNFs
 *    and on a sliced multi-V-scale query corpus.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <thread>

#include "bmc/checker.hh"
#include "bmc/validate.hh"
#include "sat/solver.hh"
#include "vscale/metadata.hh"
#include "vscale/vscale.hh"

using namespace r2u::sat;

TEST(Sat, TrivialSat)
{
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    s.addClause(mkLit(a), mkLit(b));
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.modelValue(a) || s.modelValue(b));
}

TEST(Sat, TrivialUnsat)
{
    Solver s;
    Var a = s.newVar();
    s.addClause(mkLit(a));
    EXPECT_FALSE(s.addClause(mkLit(a, true)));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, EmptyFormulaIsSat)
{
    Solver s;
    s.newVar();
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, TautologyClausesIgnored)
{
    Solver s;
    Var a = s.newVar();
    EXPECT_TRUE(s.addClause(mkLit(a), mkLit(a, true)));
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, UnitPropagationChain)
{
    Solver s;
    const int n = 50;
    std::vector<Var> v;
    for (int i = 0; i < n; i++)
        v.push_back(s.newVar());
    // v0 and (vi -> vi+1) forces all true.
    s.addClause(mkLit(v[0]));
    for (int i = 0; i + 1 < n; i++)
        s.addClause(mkLit(v[i], true), mkLit(v[i + 1]));
    EXPECT_EQ(s.solve(), Result::Sat);
    for (int i = 0; i < n; i++)
        EXPECT_TRUE(s.modelValue(v[i]));
}

TEST(Sat, XorChainUnsat)
{
    // x1 ^ x2, x2 ^ x3, ..., xn-1 ^ xn, and x1 == xn with odd chain.
    Solver s;
    const int n = 9;
    std::vector<Var> v;
    for (int i = 0; i < n; i++)
        v.push_back(s.newVar());
    for (int i = 0; i + 1 < n; i++) {
        // vi != vi+1
        s.addClause(mkLit(v[i]), mkLit(v[i + 1]));
        s.addClause(mkLit(v[i], true), mkLit(v[i + 1], true));
    }
    // n-1 inequalities over a chain: v0 != v8 has even distance, so
    // v0 == v8 holds; force v0 != v8 to get UNSAT.
    s.addClause(mkLit(v[0]), mkLit(v[n - 1]));
    s.addClause(mkLit(v[0], true), mkLit(v[n - 1], true));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, PigeonholeUnsat)
{
    // 4 pigeons, 3 holes: classic hard-ish UNSAT instance.
    const int pigeons = 4, holes = 3;
    Solver s;
    std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
    for (int i = 0; i < pigeons; i++)
        for (int j = 0; j < holes; j++)
            p[i][j] = s.newVar();
    for (int i = 0; i < pigeons; i++) {
        std::vector<Lit> c;
        for (int j = 0; j < holes; j++)
            c.push_back(mkLit(p[i][j]));
        s.addClause(c);
    }
    for (int j = 0; j < holes; j++)
        for (int i1 = 0; i1 < pigeons; i1++)
            for (int i2 = i1 + 1; i2 < pigeons; i2++)
                s.addClause(mkLit(p[i1][j], true), mkLit(p[i2][j], true));
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Sat, AssumptionsSatAndUnsat)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar();
    s.addClause(mkLit(a, true), mkLit(b)); // a -> b
    EXPECT_EQ(s.solve({mkLit(a)}), Result::Sat);
    EXPECT_TRUE(s.modelValue(b));
    // Under assumptions a & ~b it must be UNSAT.
    EXPECT_EQ(s.solve({mkLit(a), mkLit(b, true)}), Result::Unsat);
    EXPECT_FALSE(s.conflictCore().empty());
    // Solver is still usable afterwards.
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, IncrementalAlternatingSatUnsat)
{
    // One long-lived solver, many solve() calls alternating SAT and
    // UNSAT outcomes under assumptions, with the clause DB growing
    // between calls — the usage pattern of the BMC query engine. Each
    // call must fully restore solver state for the next one.
    Solver s;
    Var x = s.newVar(), y = s.newVar();
    s.addClause(mkLit(x, true), mkLit(y)); // x -> y
    for (int round = 0; round < 40; round++) {
        // Fresh activation literal guarding a per-round constraint,
        // alternately consistent and inconsistent with x -> y.
        Var act = s.newVar();
        bool want_unsat = round & 1;
        if (want_unsat) {
            // act -> (x & ~y): contradicts x -> y.
            s.addClause(mkLit(act, true), mkLit(x));
            s.addClause(mkLit(act, true), mkLit(y, true));
            EXPECT_EQ(s.solve({mkLit(act)}), Result::Unsat)
                << "round " << round;
            EXPECT_FALSE(s.conflictCore().empty());
        } else {
            // act -> (x & y): satisfiable.
            s.addClause(mkLit(act, true), mkLit(x));
            s.addClause(mkLit(act, true), mkLit(y));
            ASSERT_EQ(s.solve({mkLit(act)}), Result::Sat)
                << "round " << round;
            EXPECT_TRUE(s.modelValue(x));
            EXPECT_TRUE(s.modelValue(y));
        }
        // Retire the round's constraint.
        s.addClause(mkLit(act, true));
        // The base formula stays satisfiable in between.
        ASSERT_EQ(s.solve(), Result::Sat) << "round " << round;
    }
}

TEST(Sat, ConflictBudgetAlternatesWithUnbudgeted)
{
    // A budget-exhausted Unknown must not poison later calls on the
    // same solver (the engine reuses one solver across queries with
    // differing budgets).
    // Per round: a fresh pigeonhole instance on fresh variables,
    // guarded by a fresh assumption literal. Without the guard the
    // clauses are trivially SAT, so UNSAT is only ever derived *from
    // the assumption* and the solver survives to the next round.
    const int pigeons = 7, holes = 6;
    Solver s;
    for (int round = 0; round < 3; round++) {
        Var g = s.newVar();
        std::vector<std::vector<Var>> p(
            pigeons, std::vector<Var>(holes));
        for (int i = 0; i < pigeons; i++)
            for (int j = 0; j < holes; j++)
                p[i][j] = s.newVar();
        for (int i = 0; i < pigeons; i++) {
            std::vector<Lit> c{mkLit(g, true)};
            for (int j = 0; j < holes; j++)
                c.push_back(mkLit(p[i][j]));
            s.addClause(c);
        }
        for (int j = 0; j < holes; j++)
            for (int i1 = 0; i1 < pigeons; i1++)
                for (int i2 = i1 + 1; i2 < pigeons; i2++)
                    s.addClause(mkLit(p[i1][j], true),
                                mkLit(p[i2][j], true));
        s.setConflictBudget(5);
        EXPECT_EQ(s.solve({mkLit(g)}), Result::Unknown)
            << "round " << round;
        s.setConflictBudget(-1);
        EXPECT_EQ(s.solve({mkLit(g)}), Result::Unsat)
            << "round " << round;
        EXPECT_EQ(s.solve(), Result::Sat) << "round " << round;
    }
}

TEST(Sat, ConflictBudgetReturnsUnknown)
{
    // A hard pigeonhole with a tiny budget must return Unknown.
    const int pigeons = 8, holes = 7;
    Solver s;
    std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
    for (int i = 0; i < pigeons; i++)
        for (int j = 0; j < holes; j++)
            p[i][j] = s.newVar();
    for (int i = 0; i < pigeons; i++) {
        std::vector<Lit> c;
        for (int j = 0; j < holes; j++)
            c.push_back(mkLit(p[i][j]));
        s.addClause(c);
    }
    for (int j = 0; j < holes; j++)
        for (int i1 = 0; i1 < pigeons; i1++)
            for (int i2 = i1 + 1; i2 < pigeons; i2++)
                s.addClause(mkLit(p[i1][j], true), mkLit(p[i2][j], true));
    s.setConflictBudget(10);
    EXPECT_EQ(s.solve(), Result::Unknown);
    s.setConflictBudget(-1);
    EXPECT_EQ(s.solve(), Result::Unsat);
}

namespace
{

/**
 * Add an (optionally guard-literal-protected) pigeonhole instance:
 * UNSAT, and deterministically hard — PHP(n+1, n) needs exponentially
 * many resolution steps, so small sizes already burn through budgets
 * and deadlines without any timing assumptions.
 */
std::vector<Lit>
addPigeonhole(Solver &s, int pigeons, int holes,
              Lit guard = kLitUndef)
{
    std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
    for (int i = 0; i < pigeons; i++)
        for (int j = 0; j < holes; j++)
            p[i][j] = s.newVar();
    for (int i = 0; i < pigeons; i++) {
        std::vector<Lit> c;
        if (guard != kLitUndef)
            c.push_back(~guard);
        for (int j = 0; j < holes; j++)
            c.push_back(mkLit(p[i][j]));
        s.addClause(c);
    }
    for (int j = 0; j < holes; j++)
        for (int i1 = 0; i1 < pigeons; i1++)
            for (int i2 = i1 + 1; i2 < pigeons; i2++) {
                if (guard != kLitUndef)
                    s.addClause({~guard, mkLit(p[i1][j], true),
                                 mkLit(p[i2][j], true)});
                else
                    s.addClause(mkLit(p[i1][j], true),
                                mkLit(p[i2][j], true));
            }
    std::vector<Lit> assumps;
    if (guard != kLitUndef)
        assumps.push_back(guard);
    return assumps;
}

} // namespace

TEST(Sat, StopReasonNoneOnCompletedSolves)
{
    Solver s;
    Var a = s.newVar();
    s.addClause(mkLit(a));
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_EQ(s.stopReason(), StopReason::None);
    s.addClause(mkLit(a, true));
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_EQ(s.stopReason(), StopReason::None);
}

TEST(Sat, ConflictBudgetSetsStopReason)
{
    Solver s;
    addPigeonhole(s, 8, 7);
    s.setConflictBudget(10);
    EXPECT_EQ(s.solve(), Result::Unknown);
    EXPECT_EQ(s.stopReason(), StopReason::ConflictBudget);
    // Lifting the budget resolves the instance and resets the reason.
    s.setConflictBudget(-1);
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_EQ(s.stopReason(), StopReason::None);
}

TEST(Sat, PropagationBudgetReturnsUnknown)
{
    Solver s;
    addPigeonhole(s, 8, 7);
    s.setPropagationBudget(200);
    EXPECT_EQ(s.solve(), Result::Unknown);
    EXPECT_EQ(s.stopReason(), StopReason::PropagationBudget);
    s.setPropagationBudget(-1);
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_EQ(s.stopReason(), StopReason::None);
}

TEST(Sat, DeadlineReturnsUnknown)
{
    // Hard enough that a 1 ms deadline always fires well before the
    // refutation completes; the deadline is polled every 256 stop
    // checks, so the solve returns promptly rather than exactly.
    Solver s;
    addPigeonhole(s, 10, 9);
    s.setDeadline(0.001);
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(s.solve(), Result::Unknown);
    EXPECT_EQ(s.stopReason(), StopReason::Deadline);
    double waited = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_LT(waited, 30.0); // generous; typical is milliseconds
}

TEST(Sat, InterruptFromAnotherThread)
{
    // Guarded hard instance: the interrupt stops the assumption solve,
    // and dropping the guard afterwards shows the solver survived.
    Solver s;
    Lit guard = mkLit(s.newVar());
    auto assumps = addPigeonhole(s, 11, 10, guard);

    std::thread stopper([&s] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        s.interrupt();
    });
    EXPECT_EQ(s.solve(assumps), Result::Unknown);
    EXPECT_EQ(s.stopReason(), StopReason::Interrupt);
    stopper.join();

    // Sticky until cleared: the next solve stops immediately too.
    EXPECT_EQ(s.solve(assumps), Result::Unknown);
    EXPECT_EQ(s.stopReason(), StopReason::Interrupt);

    s.clearInterrupt();
    EXPECT_EQ(s.solve(), Result::Sat); // guard free -> trivially SAT
    EXPECT_EQ(s.stopReason(), StopReason::None);
    EXPECT_FALSE(s.modelValue(guard));
}

TEST(Sat, ExternalInterruptFlag)
{
    Solver s;
    Lit guard = mkLit(s.newVar());
    auto assumps = addPigeonhole(s, 11, 10, guard);

    std::atomic<bool> stop{false};
    s.setExternalInterrupt(&stop);
    std::thread stopper([&stop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        stop.store(true);
    });
    EXPECT_EQ(s.solve(assumps), Result::Unknown);
    EXPECT_EQ(s.stopReason(), StopReason::Interrupt);
    stopper.join();

    // The shared flag is owned by the caller; clearing it (not the
    // solver) re-arms the solver.
    stop.store(false);
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_EQ(s.stopReason(), StopReason::None);
    s.setExternalInterrupt(nullptr);
}

TEST(Sat, StopReasonNames)
{
    EXPECT_STREQ(stopReasonName(StopReason::None), "none");
    EXPECT_STREQ(stopReasonName(StopReason::ConflictBudget),
                 "conflict-budget");
    EXPECT_STREQ(stopReasonName(StopReason::PropagationBudget),
                 "propagation-budget");
    EXPECT_STREQ(stopReasonName(StopReason::Deadline), "deadline");
    EXPECT_STREQ(stopReasonName(StopReason::Interrupt), "interrupt");
}

namespace
{

/** Brute-force SAT check over up to 16 variables. */
bool
bruteForceSat(int nvars, const std::vector<std::vector<Lit>> &clauses)
{
    for (uint32_t m = 0; m < (1u << nvars); m++) {
        bool ok = true;
        for (const auto &c : clauses) {
            bool sat = false;
            for (Lit l : c) {
                bool v = (m >> var(l)) & 1;
                if (v != sign(l)) {
                    sat = true;
                    break;
                }
            }
            if (!sat) {
                ok = false;
                break;
            }
        }
        if (ok)
            return true;
    }
    return false;
}

} // namespace

/** Randomized cross-check against brute force (3-SAT near threshold). */
class SatRandomTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SatRandomTest, AgreesWithBruteForce)
{
    std::mt19937 rng(777 + GetParam());
    for (int round = 0; round < 60; round++) {
        int nvars = 4 + static_cast<int>(rng() % 9); // 4..12
        int nclauses = static_cast<int>(nvars * 4.3);
        std::vector<std::vector<Lit>> clauses;
        Solver s;
        for (int i = 0; i < nvars; i++)
            s.newVar();
        for (int i = 0; i < nclauses; i++) {
            std::vector<Lit> c;
            for (int k = 0; k < 3; k++) {
                Var v = static_cast<Var>(rng() % nvars);
                c.push_back(mkLit(v, rng() & 1));
            }
            clauses.push_back(c);
            s.addClause(c);
        }
        bool expect = bruteForceSat(nvars, clauses);
        Result got = s.solve();
        ASSERT_EQ(got, expect ? Result::Sat : Result::Unsat)
            << "round " << round << " nvars " << nvars;
        if (got == Result::Sat) {
            // The model must actually satisfy every clause.
            for (const auto &c : clauses) {
                bool sat = false;
                for (Lit l : c)
                    sat |= s.modelValue(l);
                ASSERT_TRUE(sat);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomTest, ::testing::Range(0, 5));

namespace
{

using Cnf = std::vector<std::vector<Lit>>;

/** Random k-CNF near the 3-SAT phase transition so that fixed seeds
 *  yield a mix of SAT and UNSAT instances. */
Cnf
randomCnf(std::mt19937 &rng, int num_vars, int num_clauses)
{
    Cnf cnf;
    std::uniform_int_distribution<int> pick_var(0, num_vars - 1);
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_int_distribution<int> width_die(0, 9);
    for (int i = 0; i < num_clauses; i++) {
        int width = width_die(rng) == 0 ? 2 : 3;
        std::vector<Lit> clause;
        while (static_cast<int>(clause.size()) < width) {
            Lit l = mkLit(pick_var(rng), coin(rng) != 0);
            bool dup = false;
            for (Lit o : clause)
                dup = dup || var(o) == var(l);
            if (!dup)
                clause.push_back(l);
        }
        cnf.push_back(std::move(clause));
    }
    return cnf;
}

/** Pigeonhole: pigeons > holes is UNSAT with a deterministically
 *  conflict-rich proof (var = p * holes + h). */
Cnf
pigeonholeCnf(int pigeons, int holes)
{
    Cnf cnf;
    for (int p = 0; p < pigeons; p++) {
        std::vector<Lit> some;
        for (int h = 0; h < holes; h++)
            some.push_back(mkLit(p * holes + h));
        cnf.push_back(some);
    }
    for (int h = 0; h < holes; h++)
        for (int p1 = 0; p1 < pigeons; p1++)
            for (int p2 = p1 + 1; p2 < pigeons; p2++)
                cnf.push_back({~mkLit(p1 * holes + h),
                               ~mkLit(p2 * holes + h)});
    return cnf;
}

void
load(Solver &s, const Cnf &cnf, int num_vars)
{
    while (s.numVars() < num_vars)
        s.newVar();
    for (const auto &clause : cnf)
        s.addClause(clause);
}

bool
satisfies(const std::vector<LBool> &model, const Cnf &cnf)
{
    for (const auto &clause : cnf) {
        bool sat = false;
        for (Lit l : clause) {
            if (var(l) >= static_cast<Var>(model.size()))
                return false;
            sat = sat || ((model[var(l)] ^ sign(l)) == LBool::True);
        }
        if (!sat)
            return false;
    }
    return true;
}

Result
solvePlain(const Cnf &cnf, int num_vars)
{
    Solver s;
    load(s, cnf, num_vars);
    return s.solve();
}

} // namespace

// ---------------------------------------------------------------------
// cloneFrom: a clone continues the donor's search exactly
// ---------------------------------------------------------------------

TEST(Clone, CloneFromReplicatesDatabaseAndVerdicts)
{
    std::mt19937 rng(31337);
    const int kVars = 20;
    Cnf cnf = randomCnf(rng, kVars, 80);

    Solver a;
    load(a, cnf, kVars);
    (void)a.solve(); // accumulate learnts / phases / activities

    Solver b;
    b.cloneFrom(a);
    EXPECT_EQ(b.numVars(), a.numVars());
    EXPECT_EQ(b.numClauses(), a.numClauses());

    // Search is deterministic in the clause database (learnts
    // included), watches, phases and activities: a faithful clone
    // answers every later solve with the donor's verdict after exactly
    // the donor's number of conflicts.
    for (int s = 0; s < 4; s++) {
        std::vector<Lit> as{mkLit(s, false), mkLit(kVars - 1 - s, true)};
        uint64_t a_before = a.stats().conflicts;
        uint64_t b_before = b.stats().conflicts;
        EXPECT_EQ(a.solve(as), b.solve(as)) << "assumption set " << s;
        EXPECT_EQ(a.stats().conflicts - a_before,
                  b.stats().conflicts - b_before)
            << "assumption set " << s;
    }
}

// ---------------------------------------------------------------------
// reduceDB regression: locked (reason) clauses must survive reduction
// ---------------------------------------------------------------------

namespace
{

/**
 * Crafted conflict schedule: the learnt cap is pinned so low that
 * reduceDB() fires after virtually every conflict, while learnt
 * clauses are still reasons of trail literals. If reduction evicted a
 * locked clause, conflict analysis would walk a tombstoned reason —
 * wrong verdicts, bogus models, or a crash.
 */
SolverConfig
evictionStormConfig()
{
    SolverConfig cfg;
    cfg.maxLearntsOverride = 2.0;
    return cfg;
}

} // namespace

TEST(ReduceDb, LockedReasonsSurviveActivityRanked)
{
    Cnf cnf = pigeonholeCnf(7, 6);
    Solver s;
    s.setConfig(evictionStormConfig());
    load(s, cnf, 7 * 6);
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().removedClauses, 0u)
        << "reduction never fired; the regression is not exercised";
}

TEST(ReduceDb, SatisfiableUnderEvictionStorm)
{
    for (int seed = 0; seed < 6; seed++) {
        std::mt19937 rng(500 + seed);
        const int kVars = 30;
        Cnf cnf = randomCnf(rng, kVars, 110);
        Result plain = solvePlain(cnf, kVars);
        Solver s;
        s.setConfig(evictionStormConfig());
        load(s, cnf, kVars);
        Result r = s.solve();
        EXPECT_EQ(r, plain) << "seed " << seed;
        if (r == Result::Sat)
            EXPECT_TRUE(satisfies(s.model(), cnf)) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Inprocessing (simplifyDB + arena compaction) keeps verdicts
// ---------------------------------------------------------------------

TEST(Inprocess, AggressiveSimplifyKeepsVerdicts)
{
    for (int seed = 0; seed < 8; seed++) {
        std::mt19937 rng(9100 + seed);
        const int kVars = 24;
        Cnf cnf = randomCnf(rng, kVars, 100);
        Result plain = solvePlain(cnf, kVars);

        SolverConfig cfg;
        cfg.inprocessPeriod = 1; // simplify at every restart
        cfg.lubyUnit = 1;        // restart almost every conflict
        Solver s;
        s.setConfig(cfg);
        load(s, cnf, kVars);
        Result r = s.solve();
        EXPECT_EQ(r, plain) << "seed " << seed;
        if (r == Result::Sat)
            EXPECT_TRUE(satisfies(s.model(), cnf)) << "seed " << seed;
    }
}

TEST(Inprocess, RunsAndCompactsOnConflictRichInstance)
{
    SolverConfig cfg;
    cfg.inprocessPeriod = 1;
    cfg.lubyUnit = 1;
    Solver s;
    s.setConfig(cfg);
    Cnf cnf = pigeonholeCnf(7, 6);
    load(s, cnf, 7 * 6);
    EXPECT_EQ(s.solve(), Result::Unsat);
    // The restart storm must actually have driven simplifyDB (which
    // also garbage-collects the clause arena).
    EXPECT_GT(s.stats().simplifyRuns, 0u);
}

TEST(Inprocess, IncrementalSolvesStaySound)
{
    // Root facts learned by solve N must let simplifyDB drop clauses
    // before solve N+1 without changing any later verdict.
    SolverConfig cfg;
    cfg.inprocessPeriod = 1;
    cfg.lubyUnit = 1;
    Solver simp_solver, plain_solver;
    simp_solver.setConfig(cfg);

    std::mt19937 rng(424242);
    const int kVars = 20;
    Cnf batch1 = randomCnf(rng, kVars, 60);
    load(simp_solver, batch1, kVars);
    load(plain_solver, batch1, kVars);
    EXPECT_EQ(simp_solver.solve(), plain_solver.solve());

    Cnf batch2 = randomCnf(rng, kVars, 35);
    for (const auto &clause : batch2) {
        simp_solver.addClause(clause);
        plain_solver.addClause(clause);
    }
    Result r2 = plain_solver.solve();
    EXPECT_EQ(simp_solver.solve(), r2);
    if (r2 == Result::Sat) {
        Cnf all = batch1;
        all.insert(all.end(), batch2.begin(), batch2.end());
        EXPECT_TRUE(satisfies(simp_solver.model(), all));
    }

    // And under assumptions, both polarities.
    for (bool neg : {false, true}) {
        std::vector<Lit> as{mkLit(3, neg), mkLit(11, !neg)};
        EXPECT_EQ(simp_solver.solve(as), plain_solver.solve(as));
    }
}

/**
 * Sliced multi-V-scale queries (two cores; per core "the fetch
 * register moves", reachable, and "the fetch PC lands misaligned",
 * unreachable) solved with inprocessing at every restart and with it
 * off: verdicts must agree, and every counterexample from the
 * inprocessed solve must replay through the reference simulator.
 */
TEST(Inprocess, InprocessingOnOffVerdictIdentity)
{
    namespace bmc = r2u::bmc;
    namespace vscale = r2u::vscale;
    constexpr unsigned kBound = 5;
    vscale::Config vcfg = vscale::Config::formal();
    vcfg.imemWords = 16;
    auto design = vscale::elaborateVscale(vcfg);
    auto md = vscale::vscaleMetadata(vcfg);
    for (size_t c = 0; c < 2 && c < md.cores.size(); c++) {
        const auto &core = md.cores[c];
        for (int kind = 0; kind < 2; kind++) {
            std::string ifr = core.ifr, pc = core.imPc;
            bmc::PropertyFn prop = [kind, ifr, pc](bmc::PropCtx &ctx) {
                if (kind == 1)
                    return ctx.eqConst(kBound - 1, pc, 2);
                Lit bad = ctx.cnf().falseLit();
                for (unsigned f = 1; f < kBound; f++)
                    bad = ctx.cnf().mkOr(bad, ctx.changedAt(f, ifr));
                return bad;
            };
            bmc::PropCtx ctx(*design.netlist, design.signalMap, {},
                             kBound);
            ctx.beginQuery();
            ctx.assume(prop(ctx));

            Solver off;
            off.cloneFrom(ctx.solver());
            SolverConfig off_cfg;
            off_cfg.inprocessPeriod = 0;
            off.setConfig(off_cfg);
            SolverConfig on_cfg;
            on_cfg.inprocessPeriod = 1;
            on_cfg.lubyUnit = 8;
            ctx.solver().setConfig(on_cfg);

            Result r_on = ctx.solver().solve({ctx.activation()});
            Result r_off = off.solve({ctx.activation()});
            std::string what = core.prefix + (kind ? "pc" : "ifr");
            EXPECT_EQ(r_on, kind ? Result::Unsat : Result::Sat) << what;
            EXPECT_EQ(r_on, r_off) << what;
            if (r_on == Result::Sat) {
                bmc::ReplayResult rep = bmc::replayTrace(
                    *design.netlist, design.signalMap, {}, kBound, prop,
                    bmc::extractTrace(ctx));
                EXPECT_TRUE(rep.ok) << what << ": " << rep.note;
            }
        }
    }
}
