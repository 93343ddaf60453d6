/**
 * @file
 * COATCheck-style command line: verify litmus tests against a µspec
 * model (synthesized or hand-written) with the parallel, pruned
 * campaign engine.
 *
 *   uspec_check --model vscale.uarch --suite --jobs 4 --report out.json
 *   uspec_check --model vscale.uarch --test mp.test --dot mp.dot
 *   uspec_check --model vscale.uarch --cycle "Rfe PodRR Fre PodWW"
 */

#include <atomic>
#include <csignal>
#include <cstdio>

#include "check/campaign.hh"
#include "check/check.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "litmus/litmus.hh"
#include "uspec/uspec.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: uspec_check --model FILE.uarch (--suite | --test "
        "FILE.test | --cycle \"SPEC\") [options]\n"
        "  --jobs N        campaign workers (default: hardware\n"
        "                  concurrency; 1 = sequential; verdicts are\n"
        "                  identical at any job count)\n"
        "  --report FILE   write the structured JSON campaign report\n"
        "                  (per-test verdicts, outcome sets,\n"
        "                  explored/pruned counts)\n"
        "  --exhaustive    disable outcome-level pruning (solve every\n"
        "                  candidate execution; same verdicts)\n"
        "  --fail-fast     stop a test at its first observable non-SC\n"
        "                  outcome\n"
        "  --dot FILE      write cyclic-witness DOTs; with several\n"
        "                  tests each gets FILE's stem + _<test>\n"
        "  --dot-test NAME restrict --dot (and its pruning opt-out) to\n"
        "                  test NAME (repeatable)\n"
        "exit codes: 0 all tests ok, 1 failures/errors, 2 usage,\n"
        "            3 interrupted (SIGINT/SIGTERM: partial verdicts\n"
        "            were still reported soundly)\n");
}

// Whole-token integer parse (r2u::parseInt, shared with the benches);
// malformed/overflowing input is a fatal() usage error (exit 2),
// never an uncaught exception.
using r2u::parseInt;

// SIGINT/SIGTERM flip this flag; the campaign engine checks it before
// every candidate solve (CampaignOptions::stop) and comes back with a
// sound partial answer instead of the default instant kill.
std::atomic<bool> g_stop{false};

void
onStopSignal(int)
{
    g_stop.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace r2u;

    std::string model_path, test_path, cycle, dot_path, report_path;
    bool suite = false;
    check::CampaignOptions opts;
    opts.jobs = 0; // hardware concurrency

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                fatal("missing argument after '%s'", arg.c_str());
            return argv[i];
        };
        try {
            if (arg == "--model")
                model_path = next();
            else if (arg == "--test")
                test_path = next();
            else if (arg == "--cycle")
                cycle = next();
            else if (arg == "--dot")
                dot_path = next();
            else if (arg == "--dot-test")
                opts.dotTests.push_back(next());
            else if (arg == "--report")
                report_path = next();
            else if (arg == "--jobs") {
                int jobs = parseInt("--jobs", next());
                if (jobs < 0)
                    fatal("--jobs expects a count >= 0");
                opts.jobs = static_cast<unsigned>(jobs);
            } else if (arg == "--exhaustive")
                opts.prune = false;
            else if (arg == "--fail-fast")
                opts.failFast = true;
            else if (arg == "--suite")
                suite = true;
            else {
                usage();
                return 2;
            }
        } catch (const FatalError &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            usage();
            return 2;
        }
    }
    if (model_path.empty() || (!suite && test_path.empty() &&
                               cycle.empty())) {
        usage();
        return 2;
    }

    struct sigaction sa{};
    sa.sa_handler = onStopSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    opts.stop = &g_stop;

    try {
        uspec::Model model =
            uspec::Model::parse(readFile(model_path));
        std::vector<litmus::Test> tests;
        if (suite) {
            tests = litmus::standardSuite();
        } else if (!test_path.empty()) {
            tests.push_back(litmus::Test::parse(readFile(test_path)));
        } else {
            tests.push_back(
                litmus::generateFromCycle("cycle_test", cycle));
            std::printf("generated test:\n%s\n",
                        tests[0].print().c_str());
        }

        opts.collectDot = !dot_path.empty();
        check::CampaignResult campaign =
            check::runCampaign(model, tests, opts);

        for (const auto &res : campaign.tests) {
            std::printf("%s.test,%f\n", res.name.c_str(), res.ms);
            // A test fails when a non-SC outcome is observable, or
            // when the interesting outcome is observable despite
            // being SC-forbidden. An SC-allowed interesting outcome
            // showing up is correct behavior.
            if (!res.ok()) {
                std::printf("  FAIL: %s\n", res.summary().c_str());
                for (const auto &v : res.violations)
                    std::printf("  observable non-SC outcome: %s\n",
                                v.c_str());
            }
            if (!res.interestingDot.empty()) {
                std::string path =
                    tests.size() == 1
                        ? dot_path
                        : check::dotPathFor(dot_path, res.name);
                writeFile(path, res.interestingDot);
            }
        }
        if (!report_path.empty())
            writeFile(report_path, campaign.jsonReport().dump() + "\n");
        std::printf("--- %s ---\n", campaign.summary().c_str());
        if (campaign.interrupted) {
            std::fprintf(stderr,
                         "interrupted: verdicts reflect only the "
                         "explored prefix (report written, nothing "
                         "lost)\n");
            return 3;
        }
        std::printf("%s\n",
                    campaign.failures == 0
                        ? "======= ALL TESTS PASS ======="
                        : "======= FAILURES DETECTED =======");
        return campaign.failures == 0 ? 0 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
