/**
 * @file
 * Seeded inputs for the benchmark: a portable PRNG and a generator of
 * well-formed diy critical cycles.
 *
 * Random relation strings are almost always rejected by
 * litmus::generateFromCycle (adjacent relations must agree on the
 * read/write kind of the event they share), and the few survivors are
 * mostly short. This generator draws only valid cycles: it alternates
 * a communication edge (Rfe, Fre or Wse) with a program-order edge
 * PodXY whose X is the kind the previous communication edge ends on
 * and whose Y is the kind the next one starts from. Every draw is
 * accepted, one thread per communication edge.
 */

#ifndef PERFBENCH_CYCLES_HH
#define PERFBENCH_CYCLES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "litmus/litmus.hh"

namespace pb
{

/**
 * splitmix64: the same seed gives the same sequence on every platform
 * and standard library (std::uniform_int_distribution does not).
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); n > 0. */
    uint64_t below(uint64_t n) { return next() % n; }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t state_;
};

/** One valid cycle string over @p threads (>= 2) threads. */
std::string randomCycle(Rng &rng, unsigned threads);

/**
 * @p count generated tests, thread counts cycling evenly through
 * [@p min_threads, @p max_threads] so that every seed yields the same
 * mix of sizes. The same seed gives a byte-identical batch.
 */
std::vector<r2u::litmus::Test> generateCycles(uint64_t seed, unsigned count,
                                              unsigned min_threads,
                                              unsigned max_threads);

} // namespace pb

#endif // PERFBENCH_CYCLES_HH
