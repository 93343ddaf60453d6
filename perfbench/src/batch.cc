#include "batch.hh"

#include <algorithm>

#include "common/logging.hh"
#include "cycles.hh"
#include "mcm/sc_ref.hh"

using namespace r2u;

namespace pb
{

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

Batch
makeBatch(uint64_t seed, unsigned cycles)
{
    Batch b;
    b.tests = litmus::standardSuite();
    b.suiteTests = b.tests.size();
    for (litmus::Test &t : generateCycles(seed, cycles, 2, 6))
        b.tests.push_back(std::move(t));
    b.cycleTests = cycles;
    for (int w = 4; w <= 6; w++)
        b.tests.push_back(cohStress(w, 2));
    b.tests.push_back(mixedStress(4));
    b.stressTests = 4;
    return b;
}

OutcomeSets
scReference(const std::vector<litmus::Test> &tests)
{
    OutcomeSets sets;
    for (const litmus::Test &t : tests) {
        std::vector<std::string> s;
        for (const mcm::Outcome &o : mcm::enumerateSC(t))
            s.push_back(o.toString());
        std::sort(s.begin(), s.end());
        sets.push_back(std::move(s));
    }
    return sets;
}

GateReport
gateCampaign(const check::CampaignResult &result,
             const OutcomeSets &reference)
{
    GateReport g;
    auto reject = [&](const std::string &why) {
        if (g.mismatched++ == 0)
            g.firstMismatch = why;
    };
    if (result.interrupted)
        reject("campaign interrupted");
    if (result.tests.size() != reference.size()) {
        reject(strfmt("%zu results for %zu tests", result.tests.size(),
                      reference.size()));
        return g;
    }
    for (size_t i = 0; i < reference.size(); i++) {
        const check::TestResult &t = result.tests[i];
        g.checked++;
        std::vector<std::string> observed = t.outcomes;
        std::sort(observed.begin(), observed.end());
        if (!t.ok() || !t.tight || observed != reference[i])
            reject(strfmt("%s: %zu observable vs %zu SC outcomes (%s)",
                          t.name.c_str(), observed.size(),
                          reference[i].size(), t.summary().c_str()));
    }
    return g;
}

} // namespace pb
