/**
 * @file
 * What the benchmark's workloads share: the metric record, the design
 * under test, the pinned model hash, sample statistics, and the
 * Workload interface that main.cc runs.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtl2uspec/synthesis.hh"
#include "uspec/uspec.hh"
#include "verilog/elaborate.hh"

namespace pb
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * FNV-64 of the printed µspec model that the unmodified pipeline
 * synthesizes from the formal multi-V-scale. Every synthesis the
 * benchmark runs, in-process or through the service, must match it.
 */
constexpr const char *kPinnedModelFnv = "c344ca53ca56157f";

/** Engine worker count of every cold synthesis (the host has 4 CPUs). */
constexpr unsigned kSynthJobs = 4;

/** FNV-64 of @p model's printed text, as the service reports it. */
std::string modelFnv(const r2u::uspec::Model &model);

/** Path of a file under the repository's designs/ directory. */
std::string designPath(const std::string &file);

/** The formal multi-V-scale: 4 cores, XLEN=8, NREGS=8, 16-word imem. */
struct Design
{
    std::vector<std::string> files;
    r2u::vlog::ElabOptions elab;
    std::string metaPath;
};

const Design &vscaleDesign();

/**
 * Elaborate the design from its Verilog files and synthesize it with
 * kSynthJobs workers over the verdict store at @p store_dir: a cold
 * run when the directory is new or empty, a warm one when an earlier
 * run filled it. @p opts supplies any hooks; its jobs and cacheDir are
 * overwritten.
 */
r2u::rtl2uspec::SynthesisResult
synthesizeVscale(const std::string &store_dir,
                 r2u::rtl2uspec::SynthesisOptions opts = {});

/** Why @p r fails the synthesis gate (Unknown SVAs, model hash); "" if it passes. */
std::string synthGateError(const r2u::rtl2uspec::SynthesisResult &r);

/** Linear-interpolated percentile, @p p in [0, 1]; 0 when empty. */
double percentile(std::vector<double> xs, double p);
inline double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

/**
 * The highest percentile of @p n samples that still has at least ten
 * samples beyond it, capped at p99 and floored at the median: p99 from
 * 1000 samples on, the median below 20.
 */
double tailPercentile(size_t n);

/**
 * Peak resident set size since the last resetPeakRss(), in MiB
 * (VmHWM; the process lifetime peak where that cannot be reset).
 */
double peakRssMb();

/**
 * Hand freed heap memory back to the system and restart the peak, so
 * that peakRssMb() covers only what follows.
 */
void resetPeakRss();

/** Remove @p dir if present and create it empty. */
void freshDir(const std::string &dir);

struct RunConfig
{
    uint64_t seed = 1;
    double seconds = 10.0;
    /** Scratch directory inside the checkout (stores, sockets). */
    std::string workDir;
};

/**
 * One closed-loop measurement. Every workload reports the same
 * end-to-end metrics from it (main.cc): op_p50_ms and op_tail_ms over
 * opMs, and ops_per_s = perSecond.
 */
struct Measurement
{
    /** Client-observed latency of each headline operation. */
    std::vector<double> opMs;
    /** Work completed per second, in the workload's own unit. */
    double perSecond = 0;
    /** Wall time of the whole loop. */
    double seconds = 0;
    /** The same figures under the workload's own names, for the log. */
    std::vector<Metric> named;
};

/**
 * One workload. main.cc calls tearDown() and setUp() several times
 * (the median set-up time is setup_s), then measure() one or more
 * times, each for about the given number of seconds.
 * Gates record failures through fail(); a failed operation still
 * counts as attempted.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setUp() = 0;
    /** Release what setUp() built (a no-op before the first). */
    virtual void tearDown() {}
    virtual Measurement measure(double seconds) = 0;

    uint64_t attempted = 0, failed = 0;
    std::string firstFailure;

    /** Record a failed operation (call from the driving thread only). */
    void fail(const std::string &why);
};

std::unique_ptr<Workload> makeSynthCold(const RunConfig &cfg);
std::unique_ptr<Workload> makeServiceRecheck(const RunConfig &cfg);

/**
 * The traced run's layer profile: one call (or a few) into each
 * module's public functions, timed from the benchmark, producing every
 * per-layer metric. Gate failures are recorded on @p gate.
 */
std::vector<Metric> layerProfile(const RunConfig &cfg, Workload &gate);

} // namespace pb

#endif // PERFBENCH_WORKLOAD_HH
