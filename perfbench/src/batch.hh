/**
 * @file
 * The litmus batch and its correctness gate.
 *
 * The batch has three parts: the 56-test standard suite, seeded diy
 * cycles over 2-6 threads (one candidate execution per outcome, so
 * nothing is pruned), and the coherence-stress shapes with 4-6 racing
 * writers (thousands of executions per outcome, most of them pruned).
 * Only the cycles depend on the seed; their thread counts are spread
 * evenly, so the amount of work is nearly the same for every seed.
 *
 * The gate compares each test's observable outcome set against
 * mcm::enumerateSC, an operational SC reference that shares no code
 * with the µhb checker. The multi-V-scale is SC, so a correct model
 * is tight: the two sets are equal.
 */

#ifndef PERFBENCH_BATCH_HH
#define PERFBENCH_BATCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/campaign.hh"
#include "litmus/litmus.hh"

namespace pb
{

/** @p writers single-store threads racing on x, one reader of x. */
r2u::litmus::Test cohStress(int writers, int reads);

/** Two racing coherence chains (x, y) plus a two-load observer. */
r2u::litmus::Test mixedStress(int writers);

struct Batch
{
    std::vector<r2u::litmus::Test> tests;
    size_t suiteTests = 0, cycleTests = 0, stressTests = 0;
};

/**
 * Generated cycles per batch: 20 of each thread count. They take
 * about 2.2 s of a campaign at 4 jobs, three quarters of it in the
 * six-thread cycles; at 300 the traced run's profile campaign alone
 * took about 7 s.
 */
constexpr unsigned kBatchCycles = 100;

/** The seeded batch described in the file comment. */
Batch makeBatch(uint64_t seed, unsigned cycles = kBatchCycles);

/** Sorted renderings of each test's SC-reachable outcomes. */
using OutcomeSets = std::vector<std::vector<std::string>>;

OutcomeSets scReference(const std::vector<r2u::litmus::Test> &tests);

struct GateReport
{
    size_t checked = 0;
    size_t mismatched = 0;
    std::string firstMismatch; ///< test name and why, for the log

    bool ok() const { return checked > 0 && mismatched == 0; }
};

/**
 * Gate one campaign: every test passes, its observable outcomes equal
 * the SC reference, and the campaign ran to completion.
 */
GateReport gateCampaign(const r2u::check::CampaignResult &result,
                        const OutcomeSets &reference);

} // namespace pb

#endif // PERFBENCH_BATCH_HH
