/**
 * @file
 * Parallel, pruned litmus-checking campaigns (the scalable COATCheck
 * role; cf. RealityCheck's observation that µhb solving is the
 * bottleneck of µspec-based MCM verification at suite scale).
 *
 * runCampaign() verifies a batch of litmus tests against one µspec
 * model. Per test it precomputes what every candidate execution
 * shares — the µhb axiom-binding instance table, the SC reference
 * outcome set, and the outcome of each candidate (computable without
 * solving) — then groups candidates into per-outcome buckets and
 * distributes the buckets across a work-stealing thread pool.
 * Pruning is outcome-level: once one execution in a bucket is proven
 * observable, the rest of the bucket is skipped (it cannot change the
 * observable set). Worker results are merged deterministically in
 * bucket order, so observable-outcome sets, verdict flags, and
 * exploration counts are identical at any job count, pruned or
 * exhaustive (only fail-fast trades deterministic counts — never
 * verdicts — for an early exit).
 */

#ifndef R2U_CHECK_CAMPAIGN_HH
#define R2U_CHECK_CAMPAIGN_HH

#include <atomic>
#include <string>
#include <vector>

#include "check/check.hh"
#include "common/json.hh"

namespace r2u::check
{

struct CampaignOptions
{
    /** Worker threads (0 = hardware concurrency, 1 = sequential). */
    unsigned jobs = 1;
    /** Outcome-level pruning (see Options::prune). */
    bool prune = true;
    /** Stop each test at its first observable non-SC outcome. */
    bool failFast = false;
    /** Collect cyclic µhb DOT witnesses for interesting outcomes. */
    bool collectDot = false;
    /**
     * When collectDot: restrict collection (and the pruning opt-out
     * it implies) to these test names; empty = every test.
     */
    std::vector<std::string> dotTests;
    /**
     * Cooperative cancellation flag (caller-owned, may be flipped
     * from any thread — a signal handler, the service watchdog).
     * Checked before every candidate solve: once set, remaining
     * candidates are skipped (counted as pruned) and the result comes
     * back with interrupted=true. Skipping can only shrink the
     * explored set, never flip a verdict already established, so an
     * interrupted campaign is a sound partial answer. nullptr = never
     * stop.
     */
    const std::atomic<bool> *stop = nullptr;
};

struct CampaignResult
{
    unsigned jobs = 1;
    bool prune = true;
    bool failFast = false;
    std::vector<TestResult> tests;
    int failures = 0; ///< tests with !ok()
    long long executionsTotal = 0;
    long long executionsExplored = 0;
    long long executionsPruned = 0;
    long long branches = 0;
    double ms = 0; ///< campaign wall-clock time
    /** CampaignOptions::stop fired mid-run: verdicts reflect only the
     *  explored prefix and must not be treated as exhaustive. */
    bool interrupted = false;

    /** One-line human summary of the campaign totals. */
    std::string summary() const;
    /**
     * Structured JSON run report (the litmus-side sibling of
     * SynthesisResult::jsonReport): campaign configuration and
     * totals, plus per-test verdicts, outcome sets, and
     * explored/pruned/branch counts.
     */
    json::Value jsonReport() const;
};

/** Verify @p tests against @p model with the campaign engine. */
CampaignResult runCampaign(const uspec::Model &model,
                           const std::vector<litmus::Test> &tests,
                           const CampaignOptions &options = {});

/**
 * Per-test DOT output path: insert "_<test>" before @p base's
 * extension ("out/mp.dot", "sb" -> "out/mp_sb.dot"), so a multi-test
 * campaign does not overwrite one file per witness.
 */
std::string dotPathFor(const std::string &base, const std::string &test);

} // namespace r2u::check

#endif // R2U_CHECK_CAMPAIGN_HH
