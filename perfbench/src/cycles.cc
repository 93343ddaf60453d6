#include "cycles.hh"

#include "common/logging.hh"

namespace pb
{

namespace
{

struct CommEdge
{
    const char *name;
    char from, to; ///< event kinds: 'R' or 'W'
};

constexpr CommEdge kCommEdges[] = {
    {"Rfe", 'W', 'R'},
    {"Fre", 'R', 'W'},
    {"Wse", 'W', 'W'},
};

} // namespace

std::string
randomCycle(Rng &rng, unsigned threads)
{
    std::vector<const CommEdge *> comm;
    for (unsigned i = 0; i < threads; i++)
        comm.push_back(&kCommEdges[rng.below(std::size(kCommEdges))]);
    std::string cycle;
    for (unsigned i = 0; i < threads; i++) {
        const CommEdge *next = comm[(i + 1) % threads];
        if (!cycle.empty())
            cycle += ' ';
        cycle += comm[i]->name;
        cycle += " Pod";
        cycle += comm[i]->to;
        cycle += next->from;
    }
    return cycle;
}

std::vector<r2u::litmus::Test>
generateCycles(uint64_t seed, unsigned count, unsigned min_threads,
               unsigned max_threads)
{
    Rng rng(seed);
    unsigned span = max_threads - min_threads + 1;
    std::vector<r2u::litmus::Test> tests;
    for (unsigned i = 0; i < count; i++) {
        unsigned threads = min_threads + i % span;
        tests.push_back(r2u::litmus::generateFromCycle(
            r2u::strfmt("gen%04u_t%u", i, threads),
            randomCycle(rng, threads)));
    }
    return tests;
}

} // namespace pb
