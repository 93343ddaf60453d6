#include "bmc/verdict_cache.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/logging.hh"

namespace r2u::bmc
{

namespace
{

constexpr char kMagic[4] = {'R', '2', 'U', 'C'};
// v2: payload grows a u64 baseKey after key, and flags bit1 records
// proof generality (unbounded) — v1 records cannot express either, so
// they must not answer v2 lookups.
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderSize = 4 + sizeof(uint32_t);
/** payload bytes before the variable-length name */
constexpr size_t kFixedPayload = 8 + 8 + 4 + 4 + 4 + 8 + 8 + 8 + 4;
constexpr uint8_t kFlagValidated = 0x01;
constexpr uint8_t kFlagUnbounded = 0x02;
/** VerdictSource byte of the removed SAT portfolio (see checker.hh). */
constexpr uint8_t kRetiredPortfolioSource = 9;

uint64_t
fnv1a(const uint8_t *data, size_t n)
{
    uint64_t h = 14695981039346656037ull;
    for (size_t i = 0; i < n; i++) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

template <typename T>
void
put(std::vector<uint8_t> &buf, T v)
{
    uint8_t raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    buf.insert(buf.end(), raw, raw + sizeof(T));
}

template <typename T>
T
get(const uint8_t *&p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
}

bool
writeAll(int fd, const uint8_t *data, size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/**
 * writeAll() with the torn-write fault seam applied: when the hook
 * fires (returns >= 0) only that prefix of the frame reaches disk and
 * the write reports failure, exactly like a crash or ENOSPC mid-frame.
 */
bool
faultyWrite(int fd, const uint8_t *data, size_t n,
            const std::function<ssize_t(size_t)> &fault)
{
    if (fault) {
        ssize_t cut = fault(n);
        if (cut >= 0) {
            size_t keep = std::min(static_cast<size_t>(cut), n);
            if (keep > 0)
                writeAll(fd, data, keep);
            errno = EIO;
            return false;
        }
    }
    return writeAll(fd, data, n);
}

std::vector<uint8_t>
encodePayload(const VerdictCache::Record &rec)
{
    std::vector<uint8_t> p;
    p.reserve(kFixedPayload + rec.name.size());
    put<uint64_t>(p, rec.key);
    put<uint64_t>(p, rec.baseKey);
    put<uint8_t>(p, static_cast<uint8_t>(rec.verdict));
    put<uint8_t>(p, static_cast<uint8_t>(rec.source));
    put<uint8_t>(p, (rec.validated ? kFlagValidated : 0) |
                        (rec.unbounded ? kFlagUnbounded : 0));
    put<uint8_t>(p, 0); // pad
    put<uint32_t>(p, rec.bound);
    put<uint32_t>(p, rec.retries);
    put<double>(p, rec.seconds);
    put<uint64_t>(p, rec.conflicts);
    put<uint64_t>(p, rec.propagations);
    put<uint32_t>(p, static_cast<uint32_t>(rec.name.size()));
    p.insert(p.end(), rec.name.begin(), rec.name.end());
    return p;
}

bool
decodePayload(const uint8_t *data, size_t n, VerdictCache::Record &rec)
{
    if (n < kFixedPayload)
        return false;
    const uint8_t *p = data;
    rec.key = get<uint64_t>(p);
    rec.baseKey = get<uint64_t>(p);
    uint8_t verdict = get<uint8_t>(p);
    uint8_t source = get<uint8_t>(p);
    uint8_t flags = get<uint8_t>(p);
    get<uint8_t>(p); // pad
    rec.bound = get<uint32_t>(p);
    rec.retries = get<uint32_t>(p);
    rec.seconds = get<double>(p);
    rec.conflicts = get<uint64_t>(p);
    rec.propagations = get<uint64_t>(p);
    uint32_t name_len = get<uint32_t>(p);
    if (verdict > static_cast<uint8_t>(Verdict::Unknown) ||
        source > static_cast<uint8_t>(VerdictSource::Race))
        return false;
    if (n != kFixedPayload + name_len)
        return false;
    rec.verdict = static_cast<Verdict>(verdict);
    // Byte 9 is the retired SAT-portfolio source: a definite verdict,
    // validated like any other, so it loads as a first-attempt solve.
    rec.source = source == kRetiredPortfolioSource
                     ? VerdictSource::Solve
                     : static_cast<VerdictSource>(source);
    rec.validated = (flags & kFlagValidated) != 0;
    rec.unbounded = (flags & kFlagUnbounded) != 0;
    rec.name.assign(reinterpret_cast<const char *>(p), name_len);
    return true;
}

} // namespace

VerdictCache::~VerdictCache()
{
    if (fd_ >= 0)
        ::close(fd_); // releases the single-writer flock
}

void
VerdictCache::insert(Record rec)
{
    by_name_[rec.name].emplace_back(rec.bound, rec.key);
    Record &slot = records_[rec.key];
    slot = std::move(rec); // last wins
    if (slot.unbounded && slot.baseKey != 0 &&
        slot.verdict == Verdict::Proven)
        by_base_[slot.baseKey] = &slot;
}

void
VerdictCache::open(const std::string &dir)
{
    R2U_ASSERT(fd_ < 0, "verdict cache already open");

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("cache %s: cannot create directory: %s", dir.c_str(),
              ec.message().c_str());
    path_ = (std::filesystem::path(dir) / "verdicts.r2uc").string();

    // Single-writer protection: take an exclusive flock() BEFORE
    // reading or truncating anything. A second opener of the same
    // --cache DIR (daemon + CLI, or two CLIs) degrades to read-only:
    // lookups still work, append() becomes a no-op, and it can never
    // interleave frames into — or truncate the tail of — the live
    // writer's file.
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0)
        fatal("cache %s: open failed: %s", path_.c_str(),
              strerror(errno));
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
        warn("cache %s: another process holds the write lock — "
             "continuing READ-ONLY (cached verdicts are served, new "
             "ones are not stored)",
             path_.c_str());
        ::close(fd_);
        fd_ = ::open(path_.c_str(), O_RDONLY);
        if (fd_ < 0)
            fatal("cache %s: reopen failed: %s", path_.c_str(),
                  strerror(errno));
        read_only_ = true;
    }

    // Load whatever is trustworthy. Nothing here is fatal short of
    // I/O failure: a store that cannot be believed is simply started
    // fresh — the cost is re-solving, never a wrong answer, and
    // aborting a run over a scratch directory would invert that
    // tradeoff. Stop at the first record that does not parse or whose
    // checksum disagrees: appends are ordered, so everything after a
    // torn write is suspect by construction.
    off_t good = 0;
    bool fresh = true;
    int rfd = ::open(path_.c_str(), O_RDONLY);
    if (rfd >= 0) {
        std::vector<uint8_t> file;
        uint8_t chunk[1 << 16];
        ssize_t n;
        while ((n = ::read(rfd, chunk, sizeof(chunk))) > 0)
            file.insert(file.end(), chunk, chunk + n);
        ::close(rfd);

        if (file.size() >= kHeaderSize) {
            const uint8_t *p = file.data();
            uint32_t version = 0;
            if (std::memcmp(p, kMagic, 4) == 0) {
                p += 4;
                version = get<uint32_t>(p);
            }
            if (version != kVersion) {
                warn("cache %s: unrecognized header — starting fresh",
                     path_.c_str());
            } else {
                fresh = false;
                good = static_cast<off_t>(kHeaderSize);
                size_t off = kHeaderSize;
                while (off + sizeof(uint32_t) + sizeof(uint64_t) <=
                       file.size()) {
                    const uint8_t *rp = file.data() + off;
                    uint32_t len = get<uint32_t>(rp);
                    uint64_t sum = get<uint64_t>(rp);
                    size_t total =
                        sizeof(uint32_t) + sizeof(uint64_t) + len;
                    if (off + total > file.size())
                        break; // truncated tail
                    if (fnv1a(rp, len) != sum)
                        break; // corrupt; drop it and the rest
                    Record rec;
                    if (!decodePayload(rp, len, rec))
                        break;
                    insert(std::move(rec));
                    off += total;
                    good = static_cast<off_t>(off);
                }
                if (good != static_cast<off_t>(file.size()))
                    warn("cache %s: dropping %zu torn/corrupt tail "
                         "bytes (%zu valid records)",
                         path_.c_str(),
                         file.size() - static_cast<size_t>(good),
                         records_.size());
            }
        } else if (!file.empty()) {
            warn("cache %s: shorter than its header — starting fresh",
                 path_.c_str());
        }
    }
    num_loaded_ = records_.size();

    // A read-only opener only drops the torn tail *in memory* — the
    // bytes belong to whoever holds the write lock.
    if (read_only_)
        return;

    if (!fresh) {
        if (::ftruncate(fd_, good) != 0 ||
            ::lseek(fd_, good, SEEK_SET) < 0)
            fatal("cache %s: truncate failed: %s", path_.c_str(),
                  strerror(errno));
        end_ = good;
        return;
    }

    if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0)
        fatal("cache %s: truncate failed: %s", path_.c_str(),
              strerror(errno));
    std::vector<uint8_t> hdr;
    hdr.insert(hdr.end(), kMagic, kMagic + 4);
    put<uint32_t>(hdr, kVersion);
    if (!writeAll(fd_, hdr.data(), hdr.size()) || ::fsync(fd_) != 0)
        fatal("cache %s: header write failed: %s", path_.c_str(),
              strerror(errno));
    end_ = static_cast<off_t>(hdr.size());
}

void
VerdictCache::setWriteFault(std::function<ssize_t(size_t)> hook)
{
    std::lock_guard<std::mutex> lock(mu_);
    write_fault_ = std::move(hook);
}

const VerdictCache::Record *
VerdictCache::lookup(uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second;
}

const VerdictCache::Record *
VerdictCache::lookupUnbounded(uint64_t base_key) const
{
    if (base_key == 0)
        return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_base_.find(base_key);
    if (it == by_base_.end())
        return nullptr;
    // A later record with the same primary key may have overwritten
    // the slot this index points at; only serve it if it still is the
    // unbounded proof it was indexed as.
    const Record *rec = it->second;
    if (!rec->unbounded || rec->verdict != Verdict::Proven ||
        rec->baseKey != base_key)
        return nullptr;
    return rec;
}

bool
VerdictCache::hasStaleEntry(const std::string &name, unsigned bound,
                            uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_name_.find(name);
    if (it == by_name_.end())
        return false;
    for (const auto &[b, k] : it->second)
        if (b == bound && k != key)
            return true;
    return false;
}

bool
VerdictCache::append(const Record &rec)
{
    std::vector<uint8_t> payload = encodePayload(rec);
    std::vector<uint8_t> frame;
    frame.reserve(sizeof(uint32_t) + sizeof(uint64_t) + payload.size());
    put<uint32_t>(frame, static_cast<uint32_t>(payload.size()));
    put<uint64_t>(frame, fnv1a(payload.data(), payload.size()));
    frame.insert(frame.end(), payload.begin(), payload.end());

    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0)
        return false;
    bool durable = !read_only_ && !disabled_;
    if (durable && records_.count(rec.key))
        return true; // already durable; a warm run must not grow us
    if (durable &&
        (!faultyWrite(fd_, frame.data(), frame.size(), write_fault_) ||
         ::fsync(fd_) != 0)) {
        int saved = errno;
        // A partial frame at end_ would silently poison every record
        // appended after it (the loader stops at the first bad frame),
        // so roll the file back to the last durable offset and stop
        // writing: ENOSPC/EIO do not heal mid-run, and a quiet
        // best-effort append is exactly how stores get corrupted.
        bool repaired = ::ftruncate(fd_, end_) == 0 &&
                        ::lseek(fd_, end_, SEEK_SET) >= 0;
        disabled_ = true;
        durable = false;
        warn("cache %s: append FAILED (%s)%s — new verdicts are kept "
             "in memory only for the rest of this run",
             path_.c_str(), strerror(saved),
             repaired ? ", partial frame rolled back"
                      : ", and rollback also failed (the torn tail "
                        "will be dropped on the next load)");
    }
    if (durable) {
        end_ += static_cast<off_t>(frame.size());
        appended_++;
    }
    // A verdict that could not be made durable is as valid as a stored
    // one, just not crash-safe: it still answers this process's later
    // lookups (a long-lived daemon would otherwise re-solve it on
    // every request).
    if (!records_.count(rec.key))
        insert(rec);
    return durable;
}

size_t
VerdictCache::numAppended() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return appended_;
}

} // namespace r2u::bmc
