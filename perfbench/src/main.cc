/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload {synth_cold,service_recheck}
 *             --seed N --seconds S --trace {0,1}
 *             [--work-dir DIR] [--trace-file FILE] [--commit ID]
 *
 * Scratch files (verdict stores, the daemon's socket and state) go to
 * DIR/<pid>, which is removed at the end; the trace file defaults to
 * DIR/trace.json.
 *
 * Untraced (--trace 0): set up several times (median = setup_s),
 * then measure for S seconds and print every end-to-end metric:
 * setup_s, peak_rss_mb, and op_p50_ms / op_tail_ms / ops_per_s over
 * the workload's headline operation (README.md maps them onto each
 * workload's own figures, which go to stderr by name).
 * Traced (--trace 1): set up once, measure for S seconds in slices
 * that alternate untraced and traced (the op_p50_ms difference is
 * trace.overhead_pct), run the layer profile under tracing, write the
 * Chrome trace file and print every per-layer metric.
 * The last line of stdout is the result object.
 * Exit status: 0 when every gate passed, 1 when an operation failed
 * its gate, 2 on a usage or set-up error (no result printed).
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/timer.hh"
#include "serve/json.hh"
#include "trace.hh"
#include "workload.hh"

using namespace pb;
namespace json = r2u::serve::json;

namespace
{

/**
 * Set-ups per untraced run (setup_s is their median): at least
 * kMinSetups, and more while they have taken under kMinSetupSeconds,
 * so that a set-up of a few milliseconds still gives a steady median.
 */
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 200;
constexpr double kMinSetupSeconds = 1.0;

/** Length of each untraced or traced slice of a traced run. */
constexpr double kTraceSliceSeconds = 1.0;

struct Args
{
    std::string workload;
    RunConfig cfg;
    bool trace = false;
    std::string traceFile;
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{synth_cold,service_recheck} --seed N "
                 "--seconds S --trace {0,1} [--work-dir DIR] "
                 "[--trace-file FILE] [--commit ID]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    a.cfg.workDir = ".bench_build/perfbench-work";
    for (int i = 1; i < argc; i++) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.cfg.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end)
                usage("--seed takes a whole number");
        } else if (key == "--seconds") {
            a.cfg.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(a.cfg.seconds > 0) ||
                a.cfg.seconds > 600)
                usage("--seconds takes a number in (0, 600]");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            a.trace = val == "1";
        } else if (key == "--work-dir") {
            a.cfg.workDir = val;
        } else if (key == "--trace-file") {
            a.traceFile = val;
        } else if (key == "--commit") {
            a.commit = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (a.traceFile.empty())
        a.traceFile = a.cfg.workDir + "/trace.json";
    // Scratch goes to a directory of this process's own, which is the
    // only thing the run deletes.
    a.cfg.workDir = (std::filesystem::path(a.cfg.workDir) /
                     std::to_string(getpid()))
                        .string();
    return a;
}

void
logMetric(const Metric &m)
{
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
}

/** The end-to-end metrics every workload reports, from @p m. */
std::vector<Metric>
endToEnd(const Measurement &m)
{
    double tail = tailPercentile(m.opMs.size());
    std::fprintf(stderr,
                 "perfbench: %zu operations in %.2f s (tail = p%g); "
                 "the same figures by their workload names:\n",
                 m.opMs.size(), m.seconds, tail * 100);
    for (const Metric &n : m.named)
        logMetric(n);
    return {
        {"op_p50_ms", median(m.opMs), "ms"},
        {"op_tail_ms", percentile(m.opMs, tail), "ms"},
        {"ops_per_s", m.perSecond, "1/s"},
    };
}

int
run(const Args &a)
{
    std::unique_ptr<Workload> w;
    if (a.workload == "synth_cold")
        w = makeSynthCold(a.cfg);
    else if (a.workload == "service_recheck")
        w = makeServiceRecheck(a.cfg);
    else
        usage(("unknown workload '" + a.workload + "'").c_str());

    std::fprintf(stderr,
                 "perfbench: workload %s seed %llu seconds %g trace %d; "
                 "host nproc %u, commit %s, build %s\n",
                 a.workload.c_str(),
                 static_cast<unsigned long long>(a.cfg.seed),
                 a.cfg.seconds, a.trace ? 1 : 0,
                 std::thread::hardware_concurrency(), a.commit.c_str(),
                 PB_BUILD_TYPE);

    std::vector<Metric> metrics;
    if (!a.trace) {
        // Each set-up starts from a trimmed heap and its own peak, so
        // peak_rss_mb is the memory of one set-up (the median over the
        // repeats, which vary with how threads share malloc arenas) or
        // of the measurement that follows, whichever is larger.
        std::vector<double> setup_s, setup_peak;
        double spent = 0;
        while (setup_s.size() < kMinSetups ||
               (spent < kMinSetupSeconds && setup_s.size() < kMaxSetups)) {
            w->tearDown();
            resetPeakRss();
            r2u::Timer t;
            w->setUp();
            setup_s.push_back(t.seconds());
            setup_peak.push_back(peakRssMb());
            spent += setup_s.back();
        }
        std::fprintf(stderr, "perfbench: %zu set-ups\n", setup_s.size());
        resetPeakRss();
        metrics = endToEnd(w->measure(a.cfg.seconds));
        double load_peak = peakRssMb();
        std::fprintf(stderr,
                     "perfbench: peak RSS %.1f MiB in set-up (median), "
                     "%.1f MiB in the measurement\n",
                     median(setup_peak), load_peak);
        metrics.push_back({"setup_s", median(setup_s), "s"});
        metrics.push_back({"peak_rss_mb",
                           std::max(median(setup_peak), load_peak), "MiB"});
    } else {
        Tracer &tracer = Tracer::global();
        w->setUp();
        // Alternate untraced and traced slices of about a second, so
        // that drift in the host's speed falls on both sides alike.
        std::vector<double> untraced_ms, traced_ms;
        r2u::Timer clock;
        for (bool traced = false; clock.seconds() < a.cfg.seconds;
             traced = !traced) {
            tracer.setEnabled(traced);
            std::vector<double> ms = w->measure(kTraceSliceSeconds).opMs;
            auto &to = traced ? traced_ms : untraced_ms;
            to.insert(to.end(), ms.begin(), ms.end());
        }
        double untraced = median(untraced_ms);
        double traced = median(traced_ms);
        tracer.setEnabled(true);
        metrics = layerProfile(a.cfg, *w);
        tracer.setEnabled(false);
        metrics.push_back({"trace.overhead_pct",
                           untraced > 0
                               ? (traced / untraced - 1.0) * 100.0
                               : 0.0,
                           "%"});
        std::filesystem::path tf(a.traceFile);
        if (tf.has_parent_path())
            std::filesystem::create_directories(tf.parent_path());
        r2u::writeFile(a.traceFile, tracer.chromeJson());
        std::fprintf(stderr,
                     "perfbench: %zu spans written to %s; op_p50_ms %.4g "
                     "untraced (%zu ops), %.4g traced (%zu ops)\n",
                     tracer.spans().size(), a.traceFile.c_str(), untraced,
                     untraced_ms.size(), traced, traced_ms.size());
    }
    std::filesystem::remove_all(a.cfg.workDir);

    json::Value out_metrics = json::Value::object();
    std::fprintf(stderr, "perfbench: %s metrics:\n",
                 a.trace ? "per-layer" : "end-to-end");
    for (const Metric &m : metrics) {
        logMetric(m);
        json::Value v = json::Value::object();
        v.set("value", json::Value::number(m.value));
        v.set("unit", json::Value::string(m.unit));
        out_metrics.set(m.name, std::move(v));
    }
    bool correct = w->failed == 0 && w->attempted > 0;
    if (!correct)
        std::fprintf(stderr, "perfbench: %llu of %llu operations failed; "
                             "first: %s\n",
                     static_cast<unsigned long long>(w->failed),
                     static_cast<unsigned long long>(w->attempted),
                     w->firstFailure.c_str());
    json::Value result = json::Value::object();
    result.set("correct", json::Value::boolean_(correct));
    result.set("attempted", json::Value::number(w->attempted));
    result.set("failed", json::Value::number(w->failed));
    result.set("metrics", std::move(out_metrics));
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    r2u::setLogVerbosity(0);
    Args a = parseArgs(argc, argv);
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
}
