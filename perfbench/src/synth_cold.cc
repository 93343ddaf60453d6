/**
 * @file
 * synth_cold: the paper's Fig. 5 cost. Each iteration is one
 * in-process synthesis of the formal multi-V-scale, from the Verilog
 * files to the emitted µspec model, with kSynthJobs workers, the
 * default proof engine and validation, and a fresh verdict store, so
 * every SVA is solved and every verdict is appended to the store.
 */

#include <malloc.h>

#include <filesystem>

#include "common/logging.hh"
#include "common/timer.hh"
#include "workload.hh"

namespace pb
{

namespace
{

class SynthCold : public Workload
{
  public:
    explicit SynthCold(const RunConfig &cfg) : cfg_(cfg) {}

    /**
     * One gated cold synthesis, untimed by the loop: the design must be
     * sane before anything is timed, and it is the warm-up (code pages,
     * allocator arenas, the worker threads' first stacks). A set-up of
     * a few milliseconds (metadata and one elaboration) varied by a
     * third from run to run on the shared host; one of seconds varies
     * as little as the synthesis it repeats.
     */
    void
    setUp() override
    {
        freshDir(cfg_.workDir);
        std::string store = cfg_.workDir + "/warmup";
        r2u::rtl2uspec::SynthesisResult r = synthesizeVscale(store);
        attempted++;
        if (std::string err = synthGateError(r); !err.empty())
            fail("synth_cold set-up: " + err);
        std::filesystem::remove_all(store);
        malloc_trim(0);
    }

    Measurement
    measure(double seconds) override
    {
        Measurement m;
        size_t svas = 0;
        r2u::Timer clock;
        do {
            std::string store =
                cfg_.workDir + r2u::strfmt("/store%zu", iter_++);
            r2u::Timer t;
            r2u::rtl2uspec::SynthesisResult r = synthesizeVscale(store);
            std::string err = synthGateError(r);
            m.opMs.push_back(t.milliseconds());
            attempted++;
            if (!err.empty())
                fail("synth_cold: " + err);
            svas += r.svas.size();
            std::filesystem::remove_all(store);
            // Each iteration stands for a fresh synthesis run: hand back
            // the heap it freed, so that the peak settles on one level
            // instead of wandering with what earlier iterations left.
            malloc_trim(0);
        } while (clock.seconds() < seconds);
        m.seconds = clock.seconds();
        // Verdicts per second of the median synthesis: a median, like
        // op_p50_ms, so that one synthesis slowed by the host does not
        // move it the way it moves a mean.
        double synth_s = median(m.opMs) / 1e3;
        m.perSecond = static_cast<double>(svas) /
                      static_cast<double>(m.opMs.size()) / synth_s;
        m.named = {{"synth_s", synth_s, "s"}};
        return m;
    }

  private:
    RunConfig cfg_;
    size_t iter_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSynthCold(const RunConfig &cfg)
{
    return std::make_unique<SynthCold>(cfg);
}

} // namespace pb
