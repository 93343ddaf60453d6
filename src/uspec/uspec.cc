#include "uspec/uspec.hh"

#include <cctype>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace r2u::uspec
{

const char *
predKindName(PredKind kind)
{
    switch (kind) {
      case PredKind::True_: return "True";
      case PredKind::IsAnyRead: return "IsAnyRead";
      case PredKind::IsAnyWrite: return "IsAnyWrite";
      case PredKind::ProgramOrder: return "ProgramOrder";
      case PredKind::SameCore: return "SameCore";
      case PredKind::NotSameCore: return "NotSameCore";
      case PredKind::NotSame: return "NotSame";
      case PredKind::SamePA: return "SamePA";
      case PredKind::SameData: return "SameData";
      case PredKind::NoWritesInBetween: return "NoWritesInBetween";
      case PredKind::EdgeExists: return "EdgeExists";
    }
    return "?";
}

int
Model::locOf(const std::string &stage) const
{
    for (size_t i = 0; i < stageNames.size(); i++)
        if (stageNames[i] == stage)
            return static_cast<int>(i);
    return -1;
}

int
Model::addStage(const std::string &stage)
{
    int loc = locOf(stage);
    if (loc >= 0)
        return loc;
    stageNames.push_back(stage);
    return static_cast<int>(stageNames.size()) - 1;
}

namespace
{

std::string
edgeToString(const Model &m, const EdgeSpec &e)
{
    std::string s = "((" + e.src.microop + ", " +
                    m.stageNames[e.src.loc] + "), (" + e.dst.microop +
                    ", " + m.stageNames[e.dst.loc] + ")";
    if (!e.label.empty()) {
        s += ", \"" + e.label + "\"";
        if (!e.color.empty())
            s += ", \"" + e.color + "\"";
    }
    s += ")";
    return s;
}

} // namespace

std::string
Model::print() const
{
    std::string out;
    for (size_t i = 0; i < stageNames.size(); i++)
        out += strfmt("StageName %zu \"%s\".\n", i,
                      stageNames[i].c_str());
    if (!memAccessStage.empty())
        out += "MemoryAccessStage \"" + memAccessStage + "\".\n";
    if (!memStage.empty())
        out += "MemoryStage \"" + memStage + "\".\n";
    for (const std::string &note : notes)
        out += "% " + note + "\n";
    out += "\n";
    for (const Axiom &ax : axioms) {
        out += "Axiom \"" + ax.name + "\":\n";
        if (!ax.note.empty())
            out += "% " + ax.note + "\n";
        out += "forall " +
               std::string(ax.microops.size() == 1 ? "microop"
                                                   : "microops");
        for (size_t i = 0; i < ax.microops.size(); i++)
            out += std::string(i ? ", " : " ") + "\"" + ax.microops[i] +
                   "\"";
        out += ",\n";
        for (const Pred &p : ax.antecedents) {
            if (p.kind == PredKind::EdgeExists) {
                out += "EdgeExists " + edgeToString(*this, p.edge) +
                       " =>\n";
            } else {
                out += std::string(predKindName(p.kind)) + " " + p.i0;
                if (!p.i1.empty())
                    out += " " + p.i1;
                out += " =>\n";
            }
        }
        if (ax.edgeAlternatives.size() == 2) {
            out += "EitherOrdering " +
                   edgeToString(*this, ax.edgeAlternatives[0][0]) + ".\n";
        } else if (ax.edgeAlternatives[0].size() == 1) {
            out += "AddEdge " +
                   edgeToString(*this, ax.edgeAlternatives[0][0]) + ".\n";
        } else {
            out += "AddEdges [";
            const auto &edges = ax.edgeAlternatives[0];
            for (size_t i = 0; i < edges.size(); i++) {
                if (i)
                    out += ";\n          ";
                out += edgeToString(*this, edges[i]);
            }
            out += "].\n";
        }
        out += "\n";
    }
    return out;
}

// ----------------------------------------------------------------------
// Parser.
// ----------------------------------------------------------------------

namespace
{

class DslParser
{
  public:
    explicit DslParser(const std::string &text) : text_(text) {}

    Model
    parse()
    {
        Model m;
        skipWs();
        while (pos_ < text_.size()) {
            std::string kw = ident();
            if (kw == "StageName") {
                size_t idx = number();
                std::string name = quoted();
                expect('.');
                while (m.stageNames.size() <= idx)
                    m.stageNames.push_back("");
                m.stageNames[idx] = name;
            } else if (kw == "MemoryAccessStage") {
                m.memAccessStage = quoted();
                expect('.');
            } else if (kw == "MemoryStage") {
                m.memStage = quoted();
                expect('.');
            } else if (kw == "Axiom") {
                m.axioms.push_back(parseAxiom(m));
            } else if (kw == "%") {
                // comment to end of line
                while (pos_ < text_.size() && text_[pos_] != '\n')
                    pos_++;
            } else {
                fatal("uspec parse: unexpected token '%s'", kw.c_str());
            }
            skipWs();
        }
        return m;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isspace(static_cast<unsigned char>(c))) {
                pos_++;
            } else if (c == '%') {
                while (pos_ < text_.size() && text_[pos_] != '\n')
                    pos_++;
            } else {
                break;
            }
        }
    }

    char
    peek()
    {
        skipWs();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fatal("uspec parse: expected '%c' at offset %zu", c, pos_);
        pos_++;
    }

    bool
    accept(char c)
    {
        if (peek() == c) {
            pos_++;
            return true;
        }
        return false;
    }

    std::string
    ident()
    {
        skipWs();
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_' || text_[pos_] == '%')) {
            pos_++;
            if (text_[start] == '%')
                break;
        }
        if (pos_ == start)
            fatal("uspec parse: expected identifier at offset %zu", pos_);
        return text_.substr(start, pos_ - start);
    }

    size_t
    number()
    {
        skipWs();
        size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            pos_++;
        if (pos_ == start)
            fatal("uspec parse: expected number at offset %zu", pos_);
        return static_cast<size_t>(parseInt64(
            "uspec parse: number", text_.substr(start, pos_ - start)));
    }

    std::string
    quoted()
    {
        expect('"');
        size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != '"')
            pos_++;
        if (pos_ >= text_.size())
            fatal("uspec parse: unterminated string");
        std::string s = text_.substr(start, pos_ - start);
        pos_++;
        return s;
    }

    EdgeSpec
    parseEdge(Model &m)
    {
        EdgeSpec e;
        expect('(');
        expect('(');
        e.src.microop = ident();
        expect(',');
        e.src.loc = stageRef(m);
        expect(')');
        expect(',');
        expect('(');
        e.dst.microop = ident();
        expect(',');
        e.dst.loc = stageRef(m);
        expect(')');
        if (accept(',')) {
            e.label = quoted();
            if (accept(','))
                e.color = quoted();
        }
        expect(')');
        return e;
    }

    int
    stageRef(Model &m)
    {
        std::string name = ident();
        int loc = m.locOf(name);
        if (loc < 0)
            fatal("uspec parse: unknown stage '%s'", name.c_str());
        return loc;
    }

    Axiom
    parseAxiom(Model &m)
    {
        Axiom ax;
        ax.name = quoted();
        expect(':');
        std::string fa = ident();
        if (fa != "forall")
            fatal("uspec parse: expected 'forall'");
        std::string kind = ident();
        if (kind != "microop" && kind != "microops")
            fatal("uspec parse: expected 'microop(s)'");
        ax.microops.push_back(quoted());
        while (accept(',')) {
            // Could be another quantified var or the start of the body.
            if (peek() == '"') {
                ax.microops.push_back(quoted());
            } else {
                break;
            }
        }

        // Antecedents and consequent.
        while (true) {
            std::string tok = ident();
            if (tok == "AddEdge") {
                ax.edgeAlternatives = {{parseEdge(m)}};
                expect('.');
                return ax;
            }
            if (tok == "AddEdges") {
                expect('[');
                std::vector<EdgeSpec> edges;
                edges.push_back(parseEdge(m));
                while (accept(';'))
                    edges.push_back(parseEdge(m));
                expect(']');
                expect('.');
                ax.edgeAlternatives = {edges};
                return ax;
            }
            if (tok == "EitherOrdering") {
                EdgeSpec e = parseEdge(m);
                EdgeSpec rev = e;
                std::swap(rev.src, rev.dst);
                ax.edgeAlternatives = {{e}, {rev}};
                expect('.');
                return ax;
            }
            // A predicate antecedent.
            Pred p;
            if (tok == "EdgeExists") {
                p.kind = PredKind::EdgeExists;
                p.edge = parseEdge(m);
            } else {
                bool found = false;
                for (PredKind k :
                     {PredKind::IsAnyRead, PredKind::IsAnyWrite,
                      PredKind::ProgramOrder, PredKind::SameCore,
                      PredKind::NotSameCore, PredKind::NotSame,
                      PredKind::SamePA, PredKind::SameData,
                      PredKind::NoWritesInBetween, PredKind::True_}) {
                    if (tok == predKindName(k)) {
                        p.kind = k;
                        found = true;
                        break;
                    }
                }
                if (!found)
                    fatal("uspec parse: unknown predicate '%s'",
                          tok.c_str());
                if (p.kind != PredKind::True_) {
                    p.i0 = ident();
                    bool binary =
                        p.kind != PredKind::IsAnyRead &&
                        p.kind != PredKind::IsAnyWrite;
                    if (binary)
                        p.i1 = ident();
                }
            }
            ax.antecedents.push_back(std::move(p));
            // '=>' separator
            skipWs();
            if (pos_ + 1 < text_.size() && text_[pos_] == '=' &&
                text_[pos_ + 1] == '>') {
                pos_ += 2;
            } else {
                fatal("uspec parse: expected '=>' after predicate");
            }
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace

Model
Model::parse(const std::string &text)
{
    DslParser p(text);
    Model m = p.parse();
    m.validate();
    return m;
}

void
Model::validate() const
{
    auto check_stage = [&](int loc, const std::string &where) {
        if (loc < 0 || loc >= static_cast<int>(stageNames.size()) ||
            stageNames[static_cast<size_t>(loc)].empty())
            fatal("uspec model: %s references undeclared stage %d",
                  where.c_str(), loc);
    };
    if (!memAccessStage.empty() && locOf(memAccessStage) < 0)
        fatal("uspec model: MemoryAccessStage '%s' is not declared",
              memAccessStage.c_str());
    if (!memStage.empty() && locOf(memStage) < 0)
        fatal("uspec model: MemoryStage '%s' is not declared",
              memStage.c_str());
    for (const Axiom &ax : axioms) {
        auto check_var = [&](const std::string &var) {
            for (const auto &m : ax.microops)
                if (m == var)
                    return;
            fatal("uspec model: axiom '%s' references unbound "
                  "microop '%s'", ax.name.c_str(), var.c_str());
        };
        auto check_edge = [&](const EdgeSpec &e) {
            check_var(e.src.microop);
            check_var(e.dst.microop);
            check_stage(e.src.loc, "axiom " + ax.name);
            check_stage(e.dst.loc, "axiom " + ax.name);
        };
        for (const Pred &p : ax.antecedents) {
            if (p.kind == PredKind::EdgeExists) {
                check_edge(p.edge);
            } else if (p.kind != PredKind::True_) {
                check_var(p.i0);
                if (!p.i1.empty())
                    check_var(p.i1);
            }
        }
        if (ax.edgeAlternatives.empty() ||
            ax.edgeAlternatives.size() > 2)
            fatal("uspec model: axiom '%s' has %zu edge alternatives",
                  ax.name.c_str(), ax.edgeAlternatives.size());
        for (const auto &alt : ax.edgeAlternatives)
            for (const EdgeSpec &e : alt)
                check_edge(e);
    }
}

} // namespace r2u::uspec
