#include "workload.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"
#include "netlist/hash.hh"
#include "rtl2uspec/metadata_io.hh"
#include "trace.hh"

namespace pb
{

std::string
modelFnv(const r2u::uspec::Model &model)
{
    r2u::nl::Fnv64 h;
    h.str(model.print());
    return r2u::strfmt("%016llx",
                       static_cast<unsigned long long>(h.value()));
}

std::string
designPath(const std::string &file)
{
    return std::string(R2U_DESIGN_DIR) + "/" + file;
}

const Design &
vscaleDesign()
{
    static const Design d = [] {
        Design d;
        for (const char *f : {"vscale_core.v", "vscale_arbiter.v",
                              "vscale_mem.v", "multi_vscale.v"})
            d.files.push_back(designPath(f));
        d.elab.top = "multi_vscale";
        d.elab.params = {{"XLEN", 8},       {"PC_BITS", 6},
                         {"NREGS", 8},      {"REG_BITS", 3},
                         {"DMEM_WORDS", 8}, {"DMEM_ABITS", 3},
                         {"IMEM_WORDS", 16}, {"IMEM_ABITS", 4},
                         {"BUGGY", 0}};
        d.metaPath = designPath("vscale.meta");
        return d;
    }();
    return d;
}

r2u::rtl2uspec::SynthesisResult
synthesizeVscale(const std::string &store_dir,
                 r2u::rtl2uspec::SynthesisOptions opts)
{
    static const r2u::rtl2uspec::DesignMetadata md =
        r2u::rtl2uspec::loadMetadata(vscaleDesign().metaPath);
    r2u::vlog::ElabResult design = [] {
        Span span("verilog.elaborateFiles");
        return r2u::vlog::elaborateFiles(vscaleDesign().files,
                                         vscaleDesign().elab);
    }();
    opts.jobs = kSynthJobs;
    opts.cacheDir = store_dir;
    Span span("rtl2uspec.synthesize");
    return r2u::rtl2uspec::synthesize(design, md, opts);
}

std::string
synthGateError(const r2u::rtl2uspec::SynthesisResult &r)
{
    if (r.unknownSvas > 0)
        return r2u::strfmt("%llu Unknown SVA(s)",
                           static_cast<unsigned long long>(r.unknownSvas));
    std::string fnv = modelFnv(r.model);
    if (fnv != kPinnedModelFnv)
        return "model fnv " + fnv + " != pinned " + kPinnedModelFnv;
    return "";
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double idx = p * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(idx);
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double
tailPercentile(size_t n)
{
    if (n < 20)
        return 0.5;
    return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5"; // resets VmHWM
}

void
freshDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

void
Workload::fail(const std::string &why)
{
    if (failed++ == 0)
        firstFailure = why;
}

} // namespace pb
