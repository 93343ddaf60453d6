#include "rtl2uspec/synthesis.hh"

#include <deque>

#include "bmc/engine.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/timer.hh"
#include "netlist/coi.hh"
#include "netlist/hash.hh"
#include "rtl2uspec/rounds.hh"

namespace r2u::rtl2uspec
{

using bmc::CheckResult;
using bmc::PropCtx;
using bmc::Verdict;
using sat::Lit;

namespace
{

/**
 * One synthesis run: owns the engine and the verdict-store keys, runs
 * the rounds (rounds.cc) through its batch driver, then emits the
 * model (emit.cc).
 */
class Synthesizer
{
  public:
    Synthesizer(const vlog::ElabResult &design, const DesignMetadata &md,
                const SynthesisOptions &opts)
        : design_(design), md_(md), nl_(*design.netlist),
          full_unroll_(opts.fullUnroll), cone_hasher_(nl_)
    {
        R2U_ASSERT(!md.cores.empty() && !md.instrs.empty(),
                   "metadata needs cores and instruction types");
        // State every Fig. 4 template instance reads: IFR + PCRs
        // (occupancy/binding), the request interface, and the grant.
        const CoreMeta &core = md_.cores[0];
        addSeed(base_seeds_, nl_, core.ifr);
        for (const auto &p : core.pcrs)
            addSeed(base_seeds_, nl_, p);
        addSeed(base_seeds_, nl_, core.reqEn);
        addSeed(base_seeds_, nl_, core.reqWen);
        addSeed(base_seeds_, nl_, md_.remote.grant);
        if (full_unroll_)
            netlist_hash_ = nl::structuralHash(nl_);
        property_env_hash_ = propertyEnvHash();
        bmc::EngineOptions eopts;
        eopts.jobs = opts.jobs;
        eopts.conflictBudget =
            opts.conflictBudget == SynthesisOptions::kInheritBudget
                ? md_.conflictBudget
                : opts.conflictBudget;
        eopts.propagationBudget = opts.propagationBudget;
        eopts.querySeconds = opts.queryTimeoutSeconds;
        eopts.totalSeconds = opts.totalTimeoutSeconds;
        eopts.retryEscalation = opts.retryEscalation;
        eopts.maxRetries = opts.maxRetries;
        validate_mode_ = bmc::validateModeName(opts.validate);
        eopts.validate = opts.validate;
        eopts.validateSampleN = opts.validateSampleN;
        eopts.cexVcdDir = opts.cexVcdDir;
        eopts.faultHook = opts.faultHook;
        if (opts.cache) {
            out_.cacheEnabled = true;
            eopts.cache = opts.cache;
        } else if (!opts.cacheDir.empty()) {
            cache_ = std::make_unique<bmc::VerdictCache>();
            cache_->open(opts.cacheDir);
            out_.cacheEnabled = true;
            if (cache_->numLoaded() > 0)
                inform("rtl2uspec: verdict cache %s: %zu cached "
                       "verdict(s) loaded",
                       cache_->filePath().c_str(), cache_->numLoaded());
            eopts.cache = cache_.get();
        }
        engine_ = std::make_unique<bmc::Engine>(
            nl_, design_.signalMap, unrollOptions(), md_.bound, eopts);
        engine_hook_ = opts.engineHook;
        if (engine_hook_)
            engine_hook_(engine_.get());
    }

    ~Synthesizer()
    {
        // Unpublish the engine before any member is torn down so a
        // supervisor can never interrupt() a dead engine.
        if (engine_hook_)
            engine_hook_(nullptr);
    }

    SynthesisResult
    run()
    {
        Timer total;
        Timer phase;
        const Analysis a(nl_, md_);
        out_.fullDfgDot = a.dfg.toDot();
        out_.staticSeconds = phase.seconds();

        // The rounds, in dependency order; five engine batches in all.
        phase.reset();
        const Prover prove = [this](std::vector<Hypothesis> batch) {
            return runBatch(std::move(batch));
        };
        const Membership members = membershipRound(a, prove);
        progressRound(a, prove);
        out_.bugs = attributionRound(a, prove);
        const Orderings orderings = orderingRound(a, members, prove);
        out_.svas.assign(std::make_move_iterator(records_.begin()),
                         std::make_move_iterator(records_.end()));
        for (const SvaRecord &rec : out_.svas)
            if (rec.degraded)
                out_.degraded.push_back(rec.name + ": " + rec.degradeNote);
        out_.proofSeconds = phase.seconds();
        summarizeEngine();

        phase.reset();
        mergeAndEmit(a, members, orderings, out_);
        out_.postSeconds = phase.seconds();
        out_.totalSeconds = total.seconds();
        tallyStats();
        return std::move(out_);
    }

  private:
    bmc::Unroller::Options
    unrollOptions() const
    {
        bmc::Unroller::Options opts;
        opts.fullUnroll = full_unroll_;
        for (size_t m = 0; m < nl_.numMemories(); m++)
            opts.symbolicMems.insert(static_cast<nl::MemId>(m));
        return opts;
    }

    /**
     * Hash of everything besides the netlist cone that determines what
     * an SVA property *means*: the per-core signal roles, instruction
     * encodings (mask/match feed assumeEncoding inside the property
     * closures — they never appear in the rendered SVA text), the
     * remote-interface signal roles, the exclusion set, and the
     * issue-by frame. A change to any of these re-keys every query.
     * Excludes conflictBudget / relaxPairs / mergeNodes: budgets only
     * change how long a verdict takes, and the relax/merge switches
     * change which queries are generated (visible in their names and
     * text), never what a given query means.
     */
    uint64_t
    propertyEnvHash() const
    {
        nl::Fnv64 h;
        h.u32(static_cast<uint32_t>(md_.cores.size()));
        for (const CoreMeta &core : md_.cores) {
            h.str(core.prefix);
            h.str(core.ifr);
            h.u32(static_cast<uint32_t>(core.pcrs.size()));
            for (const auto &p : core.pcrs)
                h.str(p);
            h.str(core.imPc);
            h.str(core.reqEn);
            h.str(core.reqWen);
        }
        h.u32(static_cast<uint32_t>(md_.instrs.size()));
        for (const InstrType &it : md_.instrs) {
            h.str(it.name);
            h.u32(it.mask);
            h.u32(it.match);
            h.byte(it.isRead ? 1 : 0);
            h.byte(it.isWrite ? 1 : 0);
        }
        h.str(md_.remote.memName);
        h.str(md_.remote.reqValid);
        h.str(md_.remote.reqWen);
        h.str(md_.remote.reqAddr);
        h.str(md_.remote.reqData);
        h.str(md_.remote.reqCore);
        h.str(md_.remote.grant);
        h.str(md_.remote.respValid);
        h.str(md_.remote.respCore);
        h.str(md_.remote.respData);
        h.u32(static_cast<uint32_t>(md_.remote.pipelineRegs.size()));
        for (const auto &r : md_.remote.pipelineRegs)
            h.str(r);
        h.str(md_.remote.pipeValid);
        h.str(md_.remote.pipeWen);
        h.str(md_.remote.pipeCore);
        h.u32(static_cast<uint32_t>(md_.exclude.size()));
        for (const auto &e : md_.exclude) // std::set: sorted, stable
            h.str(e);
        h.u32(md_.issueByFrame);
        return h.value();
    }

    /**
     * Content-derived identity of one SVA query: @p cone, the hash of
     * the COI slice its property can read (the whole netlist under
     * --full-unroll, where every query sees every cell), the property
     * environment, the bound/unroll mode, and the SVA's identity and
     * rendered text. With @p bounded this is the verdict-cache key —
     * two runs produce the same hash exactly when the solver would
     * decide the same question. Without it, the unroll bound is left
     * out: an *unbounded* Proven verdict (a closed induction step) is
     * keyed under that hash too, so a later run at a different bound
     * can reuse the proof (VerdictCache::lookupUnbounded).
     */
    uint64_t
    queryHash(const Hypothesis &h, uint64_t cone, bool bounded) const
    {
        nl::Fnv64 k;
        k.u64(cone);
        k.u64(property_env_hash_);
        if (bounded)
            k.u32(md_.bound);
        k.byte(full_unroll_ ? 1 : 0);
        k.str(h.name);
        k.str(h.category);
        k.str(h.text);
        // 0 is the engine's "unhashed" sentinel; dodge the collision.
        return k.value() == 0 ? 1 : k.value();
    }

    /** The property environment every hypothesis is checked under. */
    void
    environment(PropCtx &ctx) const
    {
        const CoreMeta &core = md_.cores[0];
        ctx.pinInput("reset", 0);
        ctx.watch(core.ifr);
        for (const auto &p : core.pcrs)
            ctx.watch(p);
        ctx.watch(core.reqEn);
        ctx.watch(core.reqWen);
        ctx.watch(md_.remote.grant);
    }

    /**
     * The batch driver (rounds.hh Prover): enqueue every hypothesis
     * under the environment, drain the engine, and fill the records in
     * enqueue order.
     */
    std::vector<SvaRecord *>
    runBatch(std::vector<Hypothesis> batch)
    {
        std::vector<SvaRecord *> recs;
        recs.reserve(batch.size());
        for (Hypothesis &h : batch) {
            R2U_ASSERT(!h.body != !h.kernel,
                       "hypothesis %s needs a body or a kernel",
                       h.name.c_str());
            bmc::Query q;
            q.name = h.name;
            if (h.kernel) {
                // The kernel asserted at every frame is the bounded
                // property; the kernel itself, with the environment
                // built once per context (frame 0 comes first, and
                // pinInput covers every frame), is the strictly
                // frame-local form the induction step needs.
                q.prop = [this, kernel = h.kernel](PropCtx &ctx) {
                    environment(ctx);
                    auto &cnf = ctx.cnf();
                    Lit bad = cnf.falseLit();
                    for (unsigned f = 0; f < ctx.bound(); f++)
                        bad = cnf.mkOr(bad, kernel(ctx, f));
                    return bad;
                };
                q.frameProp = [this, kernel = std::move(h.kernel)](
                                  PropCtx &ctx, unsigned f) {
                    if (f == 0)
                        environment(ctx);
                    return kernel(ctx, f);
                };
            } else {
                q.prop = [this, body = std::move(h.body)](PropCtx &ctx) {
                    environment(ctx);
                    return body(ctx);
                };
            }
            nl::CoiSeeds seeds = base_seeds_;
            seeds.cells.insert(seeds.cells.end(), h.seeds.cells.begin(),
                               h.seeds.cells.end());
            seeds.mems.insert(seeds.mems.end(), h.seeds.mems.begin(),
                              h.seeds.mems.end());
            const nl::Cone coi = cone_hasher_.cone(std::move(seeds));
            const uint64_t cone = full_unroll_ ? netlist_hash_ : coi.hash;
            q.contentHash = queryHash(h, cone, true);
            q.baseHash = queryHash(h, cone, false);
            engine_->enqueue(std::move(q));

            SvaRecord &rec = records_.emplace_back();
            rec.name = std::move(h.name);
            rec.category = std::move(h.category);
            rec.text = std::move(h.text);
            rec.hypotheses = h.hypotheses;
            rec.global = h.global;
            rec.coiCells = coi.cells;
            recs.push_back(&rec);
        }

        std::vector<CheckResult> results = engine_->drain();
        R2U_ASSERT(results.size() == recs.size(),
                   "engine result count mismatch");
        for (size_t q = 0; q < results.size(); q++) {
            SvaRecord &rec = *recs[q];
            const CheckResult &r = results[q];
            rec.verdict = r.verdict;
            rec.source = r.source;
            rec.seconds = r.seconds;
            rec.conflicts = r.conflicts;
            rec.propagations = r.propagations;
            rec.retries = r.retries;
            rec.cnfVars = r.cnfVars;
            rec.cnfClauses = r.cnfClauses;
            rec.cnfVarsAdded = r.cnfVarsAdded;
            rec.cnfClausesAdded = r.cnfClausesAdded;
            rec.validated = r.validated;
            rec.fromCache = r.fromCache;
            rec.engine = bmc::engineKindName(r.engine);
            rec.inductionStep = r.inductionStep;
            rec.unbounded = r.unbounded;
            switch (r.verdict) {
              case Verdict::Refuted:
                rec.trace =
                    r.fromCache ? r.validationNote : r.trace.toString();
                break;
              case Verdict::Proven:
                break;
              case Verdict::Unknown:
                // A validation failure carries its diagnostic bundle
                // here; budget Unknowns have nothing to show.
                rec.trace = r.validationNote;
                break;
            }
            debugLog("SVA %-28s %-12s %.3fs", rec.name.c_str(),
                     bmc::verdictName(rec.verdict), rec.seconds);
        }
        return recs;
    }

    /** Copy the engine's run counters into the result and log them. */
    void
    summarizeEngine()
    {
        out_.jobs = engine_->jobs();
        out_.fullUnroll = full_unroll_;
        const bmc::EngineStats &estats = engine_->stats();
        static_cast<bmc::EngineStats &>(out_) = estats;
        out_.validateMode = validate_mode_;
        if (estats.engineRaces > 0)
            inform("rtl2uspec: induction step: %zu query(ies), "
                   "%zu closed; %zu unbounded proof(s)",
                   static_cast<size_t>(estats.engineRaces),
                   static_cast<size_t>(estats.kindWins),
                   static_cast<size_t>(estats.unboundedProofs));
        if (out_.cacheEnabled)
            inform("rtl2uspec: cache: %zu hit(s), %zu miss(es) "
                   "(%zu invalidated), %zu verdict(s) appended",
                   static_cast<size_t>(estats.cacheHits),
                   static_cast<size_t>(estats.cacheMisses),
                   static_cast<size_t>(estats.cacheInvalidations),
                   static_cast<size_t>(estats.cacheAppends));
        if (estats.replays > 0 || estats.proofRechecks > 0)
            inform("rtl2uspec: validation (%s): %zu replay(s), "
                   "%zu proof re-check(s), %zu mismatch(es), %.2fs",
                   validate_mode_.c_str(),
                   static_cast<size_t>(estats.replays),
                   static_cast<size_t>(estats.proofRechecks),
                   static_cast<size_t>(estats.validationMismatches),
                   estats.validateSeconds);
        if (!out_.svas.empty()) {
            double vars = 0, clauses = 0;
            for (const SvaRecord &rec : out_.svas) {
                vars += static_cast<double>(rec.cnfVars);
                clauses += static_cast<double>(rec.cnfClauses);
            }
            out_.meanCnfVars = vars / out_.svas.size();
            out_.meanCnfClauses = clauses / out_.svas.size();
        }
        inform("rtl2uspec: %zu SVAs on %u worker(s), "
               "%zu transition-relation unroll(s) (%zu warm-seeded), "
               "%.0f CNF vars/query mean (%s)",
               out_.svas.size(), engine_->jobs(),
               static_cast<size_t>(estats.unrollContexts),
               static_cast<size_t>(estats.contextsSeeded),
               out_.meanCnfVars,
               full_unroll_ ? "full unroll" : "COI-sliced");
    }

    void
    tallyStats()
    {
        for (const SvaRecord &rec : out_.svas) {
            CategoryStats &cs = out_.stats[rec.category];
            cs.svas++;
            cs.seconds += rec.seconds;
            cs.cnfVarsSum += rec.cnfVars;
            cs.cnfClausesSum += rec.cnfClauses;
            int &hyp = rec.global ? cs.hypGlobal : cs.hypLocal;
            hyp += static_cast<int>(rec.hypotheses);
            // Intra (membership) SVAs tally their hypotheses as
            // examined HBIs regardless of verdict, matching the
            // paper's Fig. 5 accounting; other categories count only
            // proven orderings. Unknowns never count as proven.
            bool counts = rec.category == "intra";
            switch (rec.verdict) {
              case Verdict::Proven:
                counts = true;
                break;
              case Verdict::Refuted:
                break;
              case Verdict::Unknown:
                out_.unknownSvas++;
                break;
            }
            if (counts) {
                int &hbi = rec.global ? cs.hbiGlobal : cs.hbiLocal;
                hbi += static_cast<int>(rec.hypotheses);
            }
        }
        if (out_.unknownSvas > 0) {
            inform("rtl2uspec: %zu SVA(s) undetermined, %zu "
                   "conservative degradation(s) recorded",
                   static_cast<size_t>(out_.unknownSvas),
                   out_.degraded.size());
        }
    }

    const vlog::ElabResult &design_;
    const DesignMetadata &md_;
    const nl::Netlist &nl_;
    bool full_unroll_ = false;
    nl::CoiSeeds base_seeds_;
    SynthesisResult out_;
    /** Every record the driver filled, in enqueue order; a deque so
     *  the rounds' record pointers survive later batches. */
    std::deque<SvaRecord> records_;
    std::string validate_mode_;
    /** nl::structuralHash of the whole design (full-unroll key;
     *  computed only under --full-unroll). */
    uint64_t netlist_hash_ = 0;
    /** Per-query cone sizes and keys, one computeCoi per distinct
     *  seed set and one coneHash per distinct cone. */
    nl::ConeHasher cone_hasher_;
    /** propertyEnvHash() of the metadata (per-query key ingredient). */
    uint64_t property_env_hash_ = 0;

    /** Durable verdict cache; declared before engine_ so the engine
     *  (which holds a raw pointer to it) dies first. */
    std::unique_ptr<bmc::VerdictCache> cache_;
    /** The BMC query engine serving every SVA in this run. */
    std::unique_ptr<bmc::Engine> engine_;
    /** SynthesisOptions::engineHook (fired in ctor/dtor). */
    std::function<void(bmc::Engine *)> engine_hook_;
};

} // namespace

std::string
metadataSignalError(const DesignMetadata &metadata,
                    const vlog::ElabResult &design)
{
    std::vector<std::pair<std::string, std::string>> named;
    for (size_t c = 0; c < metadata.cores.size(); c++) {
        const CoreMeta &core = metadata.cores[c];
        std::string who = strfmt("core %zu ", c);
        named.emplace_back(who + "ifr", core.ifr);
        named.emplace_back(who + "im_pc", core.imPc);
        for (const auto &p : core.pcrs)
            named.emplace_back(who + "pcrs", p);
        named.emplace_back(who + "req_en", core.reqEn);
        named.emplace_back(who + "req_wen", core.reqWen);
    }
    const RemoteInterface &remote = metadata.remote;
    named.emplace_back("remote grant", remote.grant);
    named.emplace_back("remote pipe_valid", remote.pipeValid);
    named.emplace_back("remote pipe_wen", remote.pipeWen);
    named.emplace_back("remote pipe_core", remote.pipeCore);
    for (const auto &r : remote.pipelineRegs)
        named.emplace_back("remote pipe_regs", r);
    for (const auto &[field, name] : named)
        if (!name.empty() && !design.signalMap.count(name))
            return strfmt("metadata %s names signal '%s', which the "
                          "design does not have",
                          field.c_str(), name.c_str());
    if (!remote.memName.empty() &&
        design.netlist->findMemoryByName(remote.memName) < 0)
        return strfmt("metadata remote mem names memory '%s', which the "
                      "design does not have",
                      remote.memName.c_str());
    return "";
}

SynthesisResult
synthesize(const vlog::ElabResult &design, const DesignMetadata &metadata,
           const SynthesisOptions &options)
{
    std::string bad_signal = metadataSignalError(metadata, design);
    if (!bad_signal.empty())
        fatal("%s", bad_signal.c_str());
    Synthesizer s(design, metadata, options);
    return s.run();
}

} // namespace r2u::rtl2uspec
