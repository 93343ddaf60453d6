/**
 * @file
 * Internal to r2u_core: the synthesis procedure as explicit hypothesis
 * rounds (paper §4). Static analysis classifies the design's state
 * elements once; each round then builds a batch of Hypothesis values
 * from that analysis, the metadata and the earlier rounds' results,
 * sends the batch through the Prover (the batch driver in
 * synthesis.cc), and consumes the verdicts. Emission turns the rounds'
 * results into the µspec model.
 */

#ifndef R2U_RTL2USPEC_ROUNDS_HH
#define R2U_RTL2USPEC_ROUNDS_HH

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bmc/checker.hh"
#include "dfg/dfg.hh"
#include "netlist/coi.hh"
#include "rtl2uspec/metadata.hh"
#include "rtl2uspec/synthesis.hh"

namespace r2u::rtl2uspec
{

enum class ElemKind { LocalReg, LocalArray, RemoteReg, RemoteArray };

struct Elem
{
    dfg::NodeId node = dfg::kNoNode;
    ElemKind kind = ElemKind::LocalReg;
    int stage = -1;
    std::string name;
};

/**
 * Static analysis (§4.1, §4.2.2): the full-design DFG, its stage
 * labels, and core 0's classified state elements. Built once per run
 * and never changed afterwards, so hypothesis bodies may read it from
 * worker threads.
 */
struct Analysis
{
    const DesignMetadata &md;
    const nl::Netlist &nl;
    dfg::FullDesignDfg dfg;
    dfg::StageLabels labels;
    dfg::NodeId ifr = dfg::kNoNode;
    std::vector<Elem> elems;

    Analysis(const nl::Netlist &netlist, const DesignMetadata &metadata);

    /** First element of @p kind, or nullptr. */
    const Elem *find(ElemKind kind) const;
    /** Strip the core prefix for row and SVA naming. */
    std::string shortName(const std::string &name) const;
    /** Stage whose PCR an array's writes are attributed to. */
    unsigned attribStage(const Elem &e) const;
    /** COI seeds of what a hypothesis about @p e reads. */
    nl::CoiSeeds seeds(const Elem &e) const;
};

/** Seed the register or memory named @p name, if the netlist has it. */
void addSeed(nl::CoiSeeds &s, const nl::Netlist &nl,
             const std::string &name);

/**
 * One SVA to evaluate. Exactly one of body and kernel is set; the
 * driver applies the environment (reset pinned low, default watches)
 * before either. A kernel is frame-local: the driver asserts it at
 * every frame of the bound (OR over frames) and also hands it to the
 * engine as the query's induction-step form. Bodies run on worker
 * threads and must only read state that is stable for the batch.
 */
struct Hypothesis
{
    std::string name;
    std::string category; ///< "intra", "spatial", "temporal", "dataflow"
    std::string text;     ///< SVA rendering; part of the query key
    unsigned hypotheses = 1;
    bool global = false;
    nl::CoiSeeds seeds{}; ///< read beyond the base seeds every SVA has
    bmc::PropertyFn body{};
    bmc::FramePropertyFn kernel{};
};

/**
 * The batch driver: enqueues every hypothesis, drains the engine, and
 * returns the filled records in enqueue order. Records stay valid
 * (and in this order in SynthesisResult::svas) for the whole run.
 */
using Prover = std::function<std::vector<SvaRecord *>(std::vector<Hypothesis>)>;

/** §4.2: which state elements each instruction type updates. */
struct Membership
{
    std::map<std::string, std::set<dfg::NodeId>> updated;
    /** Instruction types with an undetermined membership proof. */
    std::set<std::string> degradedOps;
};

/** §4.3: which orderings were proven (each one emits an axiom). */
struct Orderings
{
    std::vector<bool> stage; ///< per pipeline stage
    bool regfile = false;
    bool remoteChain = false;    ///< Req-Snd, Req-Rec and Req-Proc
    bool regfileThenMem = false; ///< T_regfile_mem
    bool memThenRegfile = false; ///< T_mem_regfile
    bool dataflow = false;
};

Membership membershipRound(const Analysis &a, const Prover &prove);
/** §4.2.4 progress: diagnostic only, no model impact. */
void progressRound(const Analysis &a, const Prover &prove);
/** §6.1 interface attribution: returns the design bugs found. */
std::vector<std::string> attributionRound(const Analysis &a,
                                          const Prover &prove);
/** §4.3 and the §6.2 per-pair fallback: two batches. */
Orderings orderingRound(const Analysis &a, const Membership &members,
                        const Prover &prove);

/** §4.2.3 / §4.4: per-instruction DFGs, node merging, and the µspec
 *  model (out.model, out.instrNodes, out.instrDfgDots). */
void mergeAndEmit(const Analysis &a, const Membership &members,
                  const Orderings &orderings, SynthesisResult &out);

} // namespace r2u::rtl2uspec

#endif // R2U_RTL2USPEC_ROUNDS_HH
