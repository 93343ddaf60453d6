/**
 * @file
 * §4.2.3 / §4.4: per-instruction DFGs, node merging, and emission of
 * the µspec model from the rounds' membership and ordering results.
 */

#include "common/strutil.hh"
#include "rtl2uspec/rounds.hh"

namespace r2u::rtl2uspec
{

using dfg::NodeId;

void
mergeAndEmit(const Analysis &a, const Membership &members,
             const Orderings &orderings, SynthesisResult &out)
{
    const DesignMetadata &md = a.md;
    std::vector<dfg::InstrDfg> instr_dfgs;
    for (const InstrType &op : md.instrs) {
        dfg::InstrDfg idfg = dfg::buildInstrDfg(
            a.dfg, op.name, a.ifr, members.updated.at(op.name));
        out.instrDfgDots[op.name] = dfg::instrDfgToDot(a.dfg, idfg);
        std::vector<std::string> names;
        for (NodeId n : idfg.nodes)
            names.push_back(a.dfg.node(n).name);
        out.instrNodes[op.name] = std::move(names);
        instr_dfgs.push_back(std::move(idfg));
    }

    uspec::Model &m = out.model;
    // Merged row (location) of each modeled DFG node.
    std::map<NodeId, int> row_of;
    auto rowOf = [&row_of](NodeId n) {
        auto it = row_of.find(n);
        return it == row_of.end() ? -1 : it->second;
    };
    int if_row = m.addStage("IF_");
    row_of[a.ifr] = if_row;

    // Merge local registers per stage (same stage => same PCR =>
    // identical inter-instruction HBI participation, §4.4).
    std::map<int, int> stage_row;
    std::map<int, std::vector<int>> per_element_rows;
    for (const Elem &e : a.elems) {
        if (e.kind != ElemKind::LocalReg)
            continue;
        bool member = false;
        for (const auto &[op, set] : members.updated)
            member |= set.count(e.node) > 0;
        if (!member)
            continue;
        if (!md.mergeNodes) {
            row_of[e.node] = m.addStage(a.shortName(e.name));
            per_element_rows[e.stage].push_back(row_of[e.node]);
            continue;
        }
        auto it = stage_row.find(e.stage);
        if (it == stage_row.end()) {
            int row = m.addStage(strfmt("mgnode_%zu", stage_row.size()));
            it = stage_row.emplace(e.stage, row).first;
        }
        row_of[e.node] = it->second;
    }
    // The remote request group merges into a single access row.
    // (The access point itself is kept merged even in the
    // no-merging ablation: the check engine needs one access row.)
    int acc_row = -1;
    for (const Elem &e : a.elems) {
        if (e.kind != ElemKind::RemoteReg)
            continue;
        if (acc_row < 0)
            acc_row = m.addStage("mem_if");
        row_of[e.node] = acc_row;
    }
    // Arrays stay distinct rows.
    const Elem *regfile = a.find(ElemKind::LocalArray);
    const Elem *mem = a.find(ElemKind::RemoteArray);
    int regfile_row = -1, mem_row = -1;
    if (regfile) {
        regfile_row = m.addStage(a.shortName(regfile->name));
        row_of[regfile->node] = regfile_row;
    }
    if (mem) {
        mem_row = m.addStage(a.shortName(mem->name));
        row_of[mem->node] = mem_row;
    }
    if (acc_row >= 0)
        m.memAccessStage = m.stageNames[acc_row];
    if (mem_row >= 0)
        m.memStage = m.stageNames[mem_row];

    // --- per-instruction path axioms ---
    for (size_t i = 0; i < instr_dfgs.size(); i++) {
        const dfg::InstrDfg &idfg = instr_dfgs[i];
        const InstrType &op = md.instrs[i];
        std::set<std::pair<int, int>> edges;
        for (const auto &[src, dst] : idfg.edges) {
            if (!idfg.nodes.count(src) || !idfg.nodes.count(dst))
                continue; // member->member only
            // Intra-instruction updates happen in stage order
            // (single-execution-path); an edge from a later-stage
            // element into an earlier one is another
            // instruction's influence (e.g. bypass/redirect
            // control), not part of this instruction's path.
            if (a.labels.stage[src] >= a.labels.stage[dst])
                continue;
            int ra = rowOf(src), rb = rowOf(dst);
            if (ra < 0 || rb < 0 || ra == rb)
                continue;
            edges.emplace(ra, rb);
        }
        uspec::Axiom ax;
        ax.name = op.name + "_path";
        ax.microops = {"i0"};
        uspec::Pred p;
        p.kind = op.isRead ? uspec::PredKind::IsAnyRead
                           : uspec::PredKind::IsAnyWrite;
        p.i0 = "i0";
        ax.antecedents.push_back(p);
        std::vector<uspec::EdgeSpec> list;
        for (const auto &[ra, rb] : edges) {
            uspec::EdgeSpec es;
            es.src = {"i0", ra};
            es.dst = {"i0", rb};
            es.label = "path";
            list.push_back(es);
        }
        ax.edgeAlternatives = {list};
        if (members.degradedOps.count(op.name)) {
            ax.note = "degraded: one or more membership proofs "
                      "undetermined; node set (and these path "
                      "edges) may be incomplete";
        }
        if (!list.empty())
            m.axioms.push_back(std::move(ax));
        else if (!ax.note.empty())
            m.notes.push_back(op.name + "_path omitted: " + ax.note);
    }

    // --- ordering axioms from proven SVAs ---
    // One edge src_row(i0) -> dst_row(i1) under the given antecedents.
    auto edge_axiom = [&m](const std::string &name,
                           std::vector<uspec::Pred> antecedents,
                           int src_row, int dst_row,
                           const std::string &label,
                           const std::string &color = "") {
        uspec::Axiom ax;
        ax.name = name;
        ax.microops = {"i0", "i1"};
        ax.antecedents = std::move(antecedents);
        uspec::EdgeSpec es;
        es.src = {"i0", src_row};
        es.dst = {"i1", dst_row};
        es.label = label;
        es.color = color;
        ax.edgeAlternatives = {{es}};
        m.axioms.push_back(std::move(ax));
    };
    using uspec::PredKind;
    const uspec::Pred same{PredKind::SameCore, "i0", "i1", {}};
    const uspec::Pred po{PredKind::ProgramOrder, "i0", "i1", {}};
    const uspec::Pred r0{PredKind::IsAnyRead, "i0", "", {}};
    const uspec::Pred r1{PredKind::IsAnyRead, "i1", "", {}};
    const uspec::Pred w0{PredKind::IsAnyWrite, "i0", "", {}};
    const uspec::Pred w1{PredKind::IsAnyWrite, "i1", "", {}};
    // Same-core program order at one row.
    auto po_axiom = [&](const std::string &name, int row,
                        std::vector<uspec::Pred> extra = {}) {
        std::vector<uspec::Pred> ante = {same, po};
        ante.insert(ante.end(), extra.begin(), extra.end());
        edge_axiom(name, std::move(ante), row, row, name);
    };

    const std::vector<bool> &stage_ordered = orderings.stage;
    if (!stage_ordered.empty() && stage_ordered[0])
        po_axiom("PO_fetch", if_row);
    for (size_t s = 0; s < stage_ordered.size(); s++) {
        if (!stage_ordered[s])
            continue;
        if (md.mergeNodes) {
            if (stage_row.count(static_cast<int>(s)))
                po_axiom(strfmt("PO_stage%zu", s),
                         stage_row[static_cast<int>(s)]);
        } else {
            int k = 0;
            for (int row : per_element_rows[static_cast<int>(s)])
                po_axiom(strfmt("PO_stage%zu_%d", s, k++), row);
        }
    }
    if (acc_row >= 0 && orderings.remoteChain) {
        po_axiom("PO_mem_if", acc_row);
        if (mem_row >= 0)
            po_axiom("PO_mem", mem_row, {w0, w1});
    }
    if (regfile_row >= 0 && orderings.regfile)
        po_axiom("PO_regfile", regfile_row, {r0, r1});

    // Unordered cross-core serialization at the shared resource
    // (§4.3.1: structural HBIs without a reference order).
    if (acc_row >= 0) {
        uspec::Axiom ax;
        ax.name = "Access_serialized";
        ax.microops = {"i0", "i1"};
        ax.antecedents = {{PredKind::NotSame, "i0", "i1", {}},
                          {PredKind::NotSameCore, "i0", "i1", {}}};
        uspec::EdgeSpec es;
        es.src = {"i0", acc_row};
        es.dst = {"i1", acc_row};
        es.label = "serial";
        uspec::EdgeSpec rev = es;
        std::swap(rev.src, rev.dst);
        ax.edgeAlternatives = {{es}, {rev}};
        m.axioms.push_back(std::move(ax));
    }

    // Cross-array temporal axioms (Fig. 3f "Axiom Temporal").
    if (regfile_row >= 0 && mem_row >= 0) {
        if (orderings.regfileThenMem)
            edge_axiom("T_regfile_mem", {r0, w1, same, po}, regfile_row,
                       mem_row, "temporal");
        if (orderings.memThenRegfile)
            edge_axiom("T_mem_regfile", {w0, r1, same, po}, mem_row,
                       regfile_row, "temporal");
        if (orderings.dataflow)
            edge_axiom("Dataflow_mem",
                       {w0, r1,
                        {PredKind::SamePA, "i0", "i1", {}},
                        {PredKind::SameData, "i0", "i1", {}},
                        {PredKind::NoWritesInBetween, "i0", "i1", {}}},
                       mem_row, regfile_row, "data", "deeppink");
    }

    // Every degradation an Unknown verdict forced is tagged in
    // the emitted model itself (parser-skipped `%` notes), so a
    // consumer of the .uarch file sees that — and why — the model
    // is weaker than a full proof run would make it.
    for (const std::string &note : out.degraded)
        m.notes.push_back("degraded: " + note);
}

} // namespace r2u::rtl2uspec
