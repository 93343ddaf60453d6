/**
 * @file
 * Content-addressed, crash-safe verdict store (--cache DIR).
 *
 * The one durable home of validated BMC verdicts. Each record is keyed
 * by a hash of its query's COI slice, property encoding, and bound
 * (bmc::Query::contentHash), so a verdict is reusable by *any* later
 * run whose query hashes to the same content: a run killed mid-flight
 * and restarted on the same directory, a warm re-run at a different
 * job count, or a near-identical RTL edit — which re-solves exactly
 * the queries whose cone content changed while everything else
 * replays in microseconds. An edited SVA whose name survived gets a
 * different key and simply misses.
 *
 * Format (all little-endian, native widths — the store is a local
 * restart and re-check aid, not an interchange format), in
 * `<dir>/verdicts.r2uc`:
 *
 *   header:  "R2UC"  u32 version (2)
 *   record:  u32 payloadLen  u64 fnv1a(payload)  payload
 *   payload: u64 key  u64 baseKey  u8 verdict  u8 source  u8 flags
 *            u8 pad  u32 bound  u32 retries  f64 seconds
 *            u64 conflicts  u64 propagations
 *            u32 nameLen  name bytes
 *
 * flags bit0 = verdict was independently validated; bit1 = the proof
 * is unbounded (valid at every bound, indexed under baseKey for
 * bound-independent reuse).
 *
 * Appends are write()+fsync() under a mutex, so a kill at any byte
 * offset leaves at worst one torn record at the tail. Loading is
 * *lenient*: a bad magic/version starts the store fresh, and a torn or
 * corrupt record ends the trusted region (it and everything after it
 * are dropped and truncated away, never trusted). A store can only
 * ever cost re-solves, not soundness, so it must never abort a run.
 * Duplicate keys resolve to the newest record; appending an
 * already-present key is a durable no-op, so warm re-runs do not grow
 * the file. Only definite verdicts are stored; Unknowns are
 * budget-dependent and may resolve differently under a bigger budget.
 * Traces are not stored — a replayed Refuted verdict keeps its
 * verdict, and synthesis needs nothing more.
 *
 * Concurrency: append() is thread-safe (worker threads); lookup() /
 * hasStaleEntry() lock the same mutex, and returned record pointers
 * stay valid for the store's lifetime (node-based map). Across
 * processes, an exclusive flock() makes the first opener the single
 * writer; later openers of the same directory run read-only.
 */

#ifndef R2U_BMC_VERDICT_CACHE_HH
#define R2U_BMC_VERDICT_CACHE_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include <sys/types.h>

#include "bmc/checker.hh"

namespace r2u::bmc
{

class VerdictCache
{
  public:
    struct Record
    {
        /** Query::contentHash of the query that produced the verdict. */
        uint64_t key = 0;
        /**
         * Bound-independent identity (Query::baseHash); 0 when the
         * producer had no bound-independent hash. Meaningful with
         * `unbounded`: it is the secondary index that lets the proof
         * satisfy other bounds.
         */
        uint64_t baseKey = 0;
        std::string name;
        Verdict verdict = Verdict::Unknown;
        VerdictSource source = VerdictSource::Solve;
        bool validated = false;
        /**
         * Proof generality: true for a Proven verdict valid at every
         * bound (PDR convergence or a closed induction step), false
         * for bound-specific verdicts. Bounded records only ever
         * answer an exact content-key match.
         */
        bool unbounded = false;
        unsigned bound = 0;
        unsigned retries = 0;
        double seconds = 0.0;
        uint64_t conflicts = 0;
        uint64_t propagations = 0;
    };

    VerdictCache() = default;
    ~VerdictCache();

    VerdictCache(const VerdictCache &) = delete;
    VerdictCache &operator=(const VerdictCache &) = delete;

    /**
     * Open (creating, including the directory, if absent) the store
     * under @p dir. Existing records are loaded for lookup; corrupt
     * content is dropped as described above. fatal() only on I/O
     * errors that prevent the store from operating at all.
     */
    void open(const std::string &dir);

    bool isOpen() const { return fd_ >= 0; }

    /**
     * True when another process held the store's write lock at open()
     * time. A read-only store still serves lookups (isOpen() stays
     * true) but append() writes nothing — the second opener of a
     * shared --cache DIR loses durable warm-write, never store
     * integrity.
     */
    bool readOnly() const { return read_only_; }

    /** True once an append failure stopped all writes for the run. */
    bool disabled() const { return disabled_; }

    /**
     * Test/chaos seam: intercept the next append's write(). The hook
     * receives the frame size about to be written and returns how
     * many bytes to actually put on disk before reporting failure
     * (a torn frame), or < 0 to let the write proceed untouched.
     * Persistent until replaced; clear with nullptr.
     */
    void setWriteFault(std::function<ssize_t(size_t)> hook);

    /** Records loaded from disk at open() time (after dedup). */
    size_t numLoaded() const { return num_loaded_; }

    /** Stored verdict for a content key. nullptr if absent. */
    const Record *lookup(uint64_t key) const;

    /**
     * Unbounded-Proven verdict for a bound-independent content key
     * (Query::baseHash). A hit is valid for the same cone + property
     * at any bound. nullptr if absent.
     */
    const Record *lookupUnbounded(uint64_t base_key) const;

    /**
     * True when the store holds a record for the same (name, bound)
     * under a *different* content key — i.e. this query existed
     * before but its cone or property content changed since it was
     * stored. Purely diagnostic (distinguishes an invalidation from a
     * never-seen miss in the hit/miss accounting).
     */
    bool hasStaleEntry(const std::string &name, unsigned bound,
                       uint64_t key) const;

    /**
     * Durably append one definite verdict keyed by its content hash
     * (rec.key). Returns true when the record is durable in the store
     * — including the already-present case, which writes nothing.
     * Returns false when it is not: the store is read-only, disabled,
     * or this write failed (after a warn; the run continues). Either
     * way the verdict answers this process's later lookups.
     */
    bool append(const Record &rec);

    /** Records physically appended by *this* process. */
    size_t numAppended() const;

    const std::string &filePath() const { return path_; }

  private:
    /** Index @p rec in memory (caller holds mu_ or is open()). */
    void insert(Record rec);

    int fd_ = -1;
    std::string path_;
    mutable std::mutex mu_;
    std::unordered_map<uint64_t, Record> records_;
    /** name -> (bound, key) pairs seen, for invalidation accounting. */
    std::unordered_map<std::string,
                       std::vector<std::pair<unsigned, uint64_t>>>
        by_name_;
    /** baseKey -> unbounded Proven record (stable element pointers). */
    std::unordered_map<uint64_t, const Record *> by_base_;
    size_t num_loaded_ = 0;
    size_t appended_ = 0;
    /** File offset after the last fully-durable frame; append
     *  failures roll the file back here so a partial frame can never
     *  poison the records behind it. */
    off_t end_ = 0;
    bool read_only_ = false;
    bool disabled_ = false;
    std::function<ssize_t(size_t)> write_fault_;
};

} // namespace r2u::bmc

#endif // R2U_BMC_VERDICT_CACHE_HH
