#include "dfg/dfg.hh"

#include <algorithm>
#include <deque>

#include "common/dot.hh"
#include "common/logging.hh"

namespace r2u::dfg
{

using nl::CellId;
using nl::CellKind;

FullDesignDfg
FullDesignDfg::build(const nl::Netlist &netlist)
{
    FullDesignDfg dfg;
    dfg.nl_ = &netlist;

    // Create nodes for every register and memory.
    for (CellId reg : netlist.dffs()) {
        Node n;
        n.id = static_cast<NodeId>(dfg.nodes_.size());
        n.isMem = false;
        n.reg = reg;
        n.name = netlist.cell(reg).name;
        dfg.by_reg_[reg] = n.id;
        dfg.nodes_.push_back(std::move(n));
    }
    for (size_t m = 0; m < netlist.numMemories(); m++) {
        Node n;
        n.id = static_cast<NodeId>(dfg.nodes_.size());
        n.isMem = true;
        n.mem = static_cast<nl::MemId>(m);
        n.name = netlist.memory(static_cast<nl::MemId>(m)).name;
        dfg.by_mem_[n.mem] = n.id;
        dfg.nodes_.push_back(std::move(n));
    }

    dfg.parents_.resize(dfg.nodes_.size());
    dfg.children_.resize(dfg.nodes_.size());

    // For each node, collect the state elements in its next-state cone.
    for (const Node &n : dfg.nodes_) {
        std::vector<CellId> roots;
        if (!n.isMem) {
            roots = netlist.cell(n.reg).inputs;
        } else {
            for (CellId port : netlist.memory(n.mem).writePorts) {
                const nl::Cell &w = netlist.cell(port);
                roots.insert(roots.end(), w.inputs.begin(),
                             w.inputs.end());
            }
        }
        for (NodeId p : dfg.coneSources(roots)) {
            dfg.parents_[n.id].push_back(p);
            dfg.children_[p].push_back(n.id);
        }
    }
    return dfg;
}

std::vector<NodeId>
FullDesignDfg::coneSources(const std::vector<CellId> &roots) const
{
    std::vector<NodeId> out;
    std::vector<CellId> stack(roots);
    std::vector<bool> seen(nl_->numCells(), false);
    while (!stack.empty()) {
        CellId id = stack.back();
        stack.pop_back();
        if (seen[id])
            continue;
        seen[id] = true;
        const nl::Cell &c = nl_->cell(id);
        switch (c.kind) {
          case CellKind::Dff:
            out.push_back(by_reg_.at(id));
            break;
          case CellKind::MemRead:
            out.push_back(by_mem_.at(c.mem));
            stack.push_back(c.inputs[0]); // the address cone
            break;
          case CellKind::Const:
          case CellKind::Input:
            break;
          default:
            for (CellId in : c.inputs)
                stack.push_back(in);
            break;
        }
    }
    // Several reads of one array each report it.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

NodeId
FullDesignDfg::nodeOfReg(CellId reg) const
{
    auto it = by_reg_.find(reg);
    return it == by_reg_.end() ? kNoNode : it->second;
}

NodeId
FullDesignDfg::nodeOfMem(nl::MemId mem) const
{
    auto it = by_mem_.find(mem);
    return it == by_mem_.end() ? kNoNode : it->second;
}

NodeId
FullDesignDfg::nodeByName(const std::string &name) const
{
    for (const Node &n : nodes_)
        if (n.name == name)
            return n.id;
    return kNoNode;
}

const std::vector<NodeId> &
FullDesignDfg::parents(NodeId id) const
{
    return parents_[id];
}

const std::vector<NodeId> &
FullDesignDfg::children(NodeId id) const
{
    return children_[id];
}

std::vector<int>
FullDesignDfg::distancesFrom(NodeId from) const
{
    std::vector<int> dist(nodes_.size(), -1);
    std::deque<NodeId> queue;
    dist[from] = 0;
    queue.push_back(from);
    while (!queue.empty()) {
        NodeId n = queue.front();
        queue.pop_front();
        for (NodeId c : children_[n]) {
            if (c == n)
                continue; // ignore self-loops (hold paths)
            if (dist[c] < 0) {
                dist[c] = dist[n] + 1;
                queue.push_back(c);
            }
        }
    }
    return dist;
}

std::string
FullDesignDfg::toDot() const
{
    DotWriter dot("full_design_dfg");
    for (const Node &n : nodes_) {
        dot.addNode(n.name, n.name,
                    n.isMem ? "shape=box3d" : "shape=box");
    }
    for (const Node &n : nodes_)
        for (NodeId p : parents_[n.id])
            dot.addEdge(nodes_[p].name, n.name);
    return dot.render();
}

StageLabels
labelStages(const FullDesignDfg &dfg, NodeId im_pc, NodeId ifr)
{
    R2U_ASSERT(im_pc != kNoNode && ifr != kNoNode,
               "stage labeling needs IM_PC and IFR nodes");
    std::vector<int> dist = dfg.distancesFrom(im_pc);
    int ifr_dist = dist[ifr];
    if (ifr_dist < 0)
        fatal("IFR '%s' is not reachable from IM_PC '%s' in the DFG",
              dfg.node(ifr).name.c_str(), dfg.node(im_pc).name.c_str());

    StageLabels labels;
    labels.stage.assign(dfg.numNodes(), -1);
    for (size_t n = 0; n < dfg.numNodes(); n++) {
        if (dist[n] < 0 || dist[n] < ifr_dist)
            continue; // front-end filtering (§4.2.2)
        labels.stage[n] = dist[n] - ifr_dist;
        labels.maxStage = std::max(labels.maxStage, labels.stage[n]);
    }
    return labels;
}

InstrDfg
buildInstrDfg(const FullDesignDfg &dfg, const std::string &instr,
              NodeId ifr, const std::set<NodeId> &updated)
{
    InstrDfg out;
    out.instr = instr;
    out.ifr = ifr;

    // Keep updated nodes reachable from the IFR within the updated set
    // (the IFR is the primary root, §4.2.3).
    std::vector<NodeId> stack{ifr};
    out.nodes.insert(ifr);
    while (!stack.empty()) {
        NodeId n = stack.back();
        stack.pop_back();
        for (NodeId c : dfg.children(n)) {
            if (c == n || !updated.count(c) || out.nodes.count(c))
                continue;
            out.nodes.insert(c);
            stack.push_back(c);
        }
    }

    // Reserved parent nodes: immediate DFG parents of members that are
    // not themselves members (e.g. regfile, mem — §4.2.3).
    for (NodeId n : out.nodes) {
        for (NodeId p : dfg.parents(n)) {
            if (p != n && !out.nodes.count(p))
                out.parents.insert(p);
        }
    }

    // Edges restricted to kept nodes (member->member and
    // parent->member).
    for (NodeId n : out.nodes) {
        for (NodeId p : dfg.parents(n)) {
            if (p == n)
                continue;
            if (out.nodes.count(p) || out.parents.count(p))
                out.edges.emplace_back(p, n);
        }
    }
    std::sort(out.edges.begin(), out.edges.end());
    return out;
}

std::string
instrDfgToDot(const FullDesignDfg &dfg, const InstrDfg &idfg)
{
    DotWriter dot("dfg_" + idfg.instr);
    for (NodeId n : idfg.nodes) {
        std::string attrs = "shape=box";
        if (n == idfg.ifr)
            attrs += ", style=bold";
        dot.addNode(dfg.node(n).name, dfg.node(n).name, attrs);
    }
    for (NodeId p : idfg.parents)
        dot.addNode(dfg.node(p).name, dfg.node(p).name,
                    "shape=box, style=dashed");
    for (const auto &[a, b] : idfg.edges)
        dot.addEdge(dfg.node(a).name, dfg.node(b).name);
    return dot.render();
}

} // namespace r2u::dfg
