#include "bmc/journal.hh"

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

constexpr char kMagic[4] = {'R', '2', 'U', 'J'};
// v2: journalKey() mixes the query content hash — v1 keys from the
// count-only configHash() era must not answer v2 lookups.
// v3: payload grows a u64 baseKey after key, and flags bit1 records
// proof generality (unbounded) — v2 records cannot express either, so
// they must not answer v3 lookups.
constexpr uint32_t kVersion = 3;
constexpr char kCacheMagic[4] = {'R', '2', 'U', 'C'};
// cache v2: same baseKey/unbounded payload growth as journal v3.
constexpr uint32_t kCacheVersion = 2;
constexpr size_t kCacheHeaderSize = 4 + sizeof(uint32_t);
constexpr size_t kHeaderSize = 4 + sizeof(uint32_t) + sizeof(uint64_t);
/** payload bytes before the variable-length name */
constexpr size_t kFixedPayload = 8 + 8 + 4 + 4 + 4 + 8 + 8 + 8 + 4;
constexpr uint8_t kFlagValidated = 0x01;
constexpr uint8_t kFlagUnbounded = 0x02;
/** VerdictSource byte of the removed SAT portfolio (see checker.hh). */
constexpr uint8_t kRetiredPortfolioSource = 9;

uint64_t
fnv1a(const uint8_t *data, size_t n, uint64_t h = 14695981039346656037ull)
{
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
encodePayload(const Journal::Record &rec)
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
decodePayload(const uint8_t *data, size_t n, Journal::Record &rec)
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

uint64_t
journalKey(const std::string &name, unsigned bound,
           uint64_t content_hash)
{
    uint64_t h = fnv1a(
        reinterpret_cast<const uint8_t *>(name.data()), name.size());
    uint32_t b = bound;
    h = fnv1a(reinterpret_cast<const uint8_t *>(&b), sizeof(b), h);
    return fnv1a(reinterpret_cast<const uint8_t *>(&content_hash),
                 sizeof(content_hash), h);
}

uint64_t
journalBaseKey(const std::string &name, uint64_t base_hash)
{
    if (base_hash == 0)
        return 0;
    uint64_t h = fnv1a(
        reinterpret_cast<const uint8_t *>(name.data()), name.size());
    return fnv1a(reinterpret_cast<const uint8_t *>(&base_hash),
                 sizeof(base_hash), h);
}

Journal::~Journal()
{
    if (fd_ >= 0)
        ::close(fd_);
    if (lock_fd_ >= 0)
        ::close(lock_fd_); // releases the openShared() flock
}

void
Journal::open(const std::string &path, uint64_t config_hash,
              bool resume)
{
    R2U_ASSERT(fd_ < 0, "journal already open");
    path_ = path;

    if (resume) {
        // Load whatever survives; stop at the first record that does
        // not parse or whose checksum disagrees — everything after a
        // torn write is suspect by construction (appends are ordered).
        int rfd = ::open(path.c_str(), O_RDONLY);
        off_t good = 0;
        if (rfd >= 0) {
            std::vector<uint8_t> file;
            uint8_t chunk[1 << 16];
            ssize_t n;
            while ((n = ::read(rfd, chunk, sizeof(chunk))) > 0)
                file.insert(file.end(), chunk, chunk + n);
            ::close(rfd);

            if (file.size() >= kHeaderSize) {
                const uint8_t *p = file.data();
                if (std::memcmp(p, kMagic, 4) != 0)
                    fatal("journal %s: bad magic", path.c_str());
                p += 4;
                uint32_t version = get<uint32_t>(p);
                if (version != kVersion)
                    fatal("journal %s: version %u (expected %u)",
                          path.c_str(), version, kVersion);
                uint64_t hash = get<uint64_t>(p);
                if (hash != config_hash)
                    fatal("journal %s: config hash mismatch "
                          "(%llx vs %llx) — produced by a different "
                          "design/bound/unroll configuration",
                          path.c_str(),
                          static_cast<unsigned long long>(hash),
                          static_cast<unsigned long long>(config_hash));
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
                        break; // corrupt record; drop it and the rest
                    Record rec;
                    if (!decodePayload(rp, len, rec))
                        break;
                    Record &slot = loaded_[rec.key];
                    slot = std::move(rec);
                    if (slot.unbounded && slot.baseKey != 0 &&
                        slot.verdict == Verdict::Proven)
                        by_base_[slot.baseKey] = &slot;
                    off += total;
                    good = static_cast<off_t>(off);
                }
                if (good != static_cast<off_t>(file.size()))
                    warn("journal %s: dropping %zu torn/corrupt tail "
                         "bytes (%zu valid records)",
                         path.c_str(),
                         file.size() - static_cast<size_t>(good),
                         loaded_.size());
            } else if (!file.empty()) {
                fatal("journal %s: shorter than its header",
                      path.c_str());
            }
        }
        fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
        if (fd_ < 0)
            fatal("journal %s: open failed: %s", path.c_str(),
                  strerror(errno));
        if (good > 0) {
            if (::ftruncate(fd_, good) != 0)
                fatal("journal %s: truncate failed: %s", path.c_str(),
                      strerror(errno));
            if (::lseek(fd_, good, SEEK_SET) < 0)
                fatal("journal %s: seek failed: %s", path.c_str(),
                      strerror(errno));
            end_ = good;
            return;
        }
        // Empty or absent file: fall through to write a fresh header.
        if (::ftruncate(fd_, 0) != 0)
            fatal("journal %s: truncate failed: %s", path.c_str(),
                  strerror(errno));
    } else {
        fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd_ < 0)
            fatal("journal %s: open failed: %s", path.c_str(),
                  strerror(errno));
    }

    std::vector<uint8_t> hdr;
    hdr.insert(hdr.end(), kMagic, kMagic + 4);
    put<uint32_t>(hdr, kVersion);
    put<uint64_t>(hdr, config_hash);
    if (!writeAll(fd_, hdr.data(), hdr.size()) || ::fsync(fd_) != 0)
        fatal("journal %s: header write failed: %s", path.c_str(),
              strerror(errno));
    end_ = static_cast<off_t>(hdr.size());
}

bool
Journal::openShared(const std::string &path, uint64_t config_hash)
{
    R2U_ASSERT(fd_ < 0, "journal already open");
    int lfd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (lfd < 0) {
        warn("journal %s: open failed: %s — running without a journal",
             path.c_str(), strerror(errno));
        return false;
    }
    if (::flock(lfd, LOCK_EX | LOCK_NB) != 0) {
        warn("journal %s: another process holds the write lock — "
             "running without a journal",
             path.c_str());
        ::close(lfd);
        return false;
    }
    // The flock lives on this description; keep it open so the lock
    // outlives the separate write fd open() creates below.
    lock_fd_ = lfd;
    open(path, config_hash, /*resume=*/true);
    return true;
}

void
Journal::setWriteFault(std::function<ssize_t(size_t)> hook)
{
    std::lock_guard<std::mutex> lock(mu_);
    write_fault_ = std::move(hook);
}

const Journal::Record *
Journal::lookup(uint64_t key) const
{
    auto it = loaded_.find(key);
    return it == loaded_.end() ? nullptr : &it->second;
}

const Journal::Record *
Journal::lookupUnbounded(uint64_t base_key) const
{
    if (base_key == 0)
        return nullptr;
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
Journal::append(const Record &rec)
{
    std::vector<uint8_t> payload = encodePayload(rec);
    std::vector<uint8_t> frame;
    frame.reserve(sizeof(uint32_t) + sizeof(uint64_t) + payload.size());
    put<uint32_t>(frame, static_cast<uint32_t>(payload.size()));
    put<uint64_t>(frame, fnv1a(payload.data(), payload.size()));
    frame.insert(frame.end(), payload.begin(), payload.end());

    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0 || disabled_)
        return false;
    if (!faultyWrite(fd_, frame.data(), frame.size(), write_fault_) ||
        ::fsync(fd_) != 0) {
        int saved = errno;
        // A partial frame at end_ would silently poison every record
        // appended after it (the loader stops at the first bad frame),
        // so roll the file back to the last durable offset and stop
        // journaling: ENOSPC/EIO do not heal mid-run, and a quiet
        // best-effort append is exactly how stores get corrupted.
        bool repaired = ::ftruncate(fd_, end_) == 0 &&
                        ::lseek(fd_, end_, SEEK_SET) >= 0;
        disabled_ = true;
        warn("journal %s: append FAILED (%s)%s — journaling DISABLED "
             "for the rest of this run",
             path_.c_str(), strerror(saved),
             repaired ? ", partial frame rolled back"
                      : ", and rollback also failed (the torn tail "
                        "will be dropped on the next resume)");
        return false;
    }
    end_ += static_cast<off_t>(frame.size());
    appended_++;
    return true;
}

VerdictCache::~VerdictCache()
{
    if (fd_ >= 0)
        ::close(fd_);
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

    // Load whatever is trustworthy. Unlike the journal, nothing here
    // is fatal short of I/O failure: a cache that cannot be believed
    // is simply started fresh — the cost is re-solving, never a wrong
    // answer, and aborting a run over a scratch directory would invert
    // that tradeoff.
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

        if (file.size() >= kCacheHeaderSize) {
            const uint8_t *p = file.data();
            uint32_t version = 0;
            if (std::memcmp(p, kCacheMagic, 4) == 0) {
                p += 4;
                version = get<uint32_t>(p);
            }
            if (version != kCacheVersion) {
                warn("cache %s: unrecognized header — starting fresh",
                     path_.c_str());
            } else {
                fresh = false;
                good = static_cast<off_t>(kCacheHeaderSize);
                size_t off = kCacheHeaderSize;
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
                    Journal::Record rec;
                    if (!decodePayload(rp, len, rec))
                        break;
                    by_name_[rec.name].emplace_back(rec.bound,
                                                    rec.key);
                    Journal::Record &slot = loaded_[rec.key];
                    slot = std::move(rec); // last wins
                    if (slot.unbounded && slot.baseKey != 0 &&
                        slot.verdict == Verdict::Proven)
                        by_base_[slot.baseKey] = &slot;
                    off += total;
                    good = static_cast<off_t>(off);
                }
                if (good != static_cast<off_t>(file.size()))
                    warn("cache %s: dropping %zu torn/corrupt tail "
                         "bytes (%zu valid records)",
                         path_.c_str(),
                         file.size() - static_cast<size_t>(good),
                         loaded_.size());
            }
        } else if (!file.empty()) {
            warn("cache %s: shorter than its header — starting fresh",
                 path_.c_str());
        }
    }

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
    hdr.insert(hdr.end(), kCacheMagic, kCacheMagic + 4);
    put<uint32_t>(hdr, kCacheVersion);
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

size_t
VerdictCache::numLoaded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return loaded_.size();
}

const Journal::Record *
VerdictCache::lookup(uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = loaded_.find(key);
    return it == loaded_.end() ? nullptr : &it->second;
}

const Journal::Record *
VerdictCache::lookupUnbounded(uint64_t base_key) const
{
    if (base_key == 0)
        return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_base_.find(base_key);
    if (it == by_base_.end())
        return nullptr;
    // Same aliasing guard as Journal::lookupUnbounded: the slot may
    // have been overwritten by a same-key record since it was indexed.
    const Journal::Record *rec = it->second;
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
VerdictCache::append(const Journal::Record &rec)
{
    std::vector<uint8_t> payload = encodePayload(rec);
    std::vector<uint8_t> frame;
    frame.reserve(sizeof(uint32_t) + sizeof(uint64_t) + payload.size());
    put<uint32_t>(frame, static_cast<uint32_t>(payload.size()));
    put<uint64_t>(frame, fnv1a(payload.data(), payload.size()));
    frame.insert(frame.end(), payload.begin(), payload.end());

    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0 || read_only_ || disabled_)
        return false;
    if (loaded_.count(rec.key))
        return true; // already durable; a warm run must not grow us
    if (!faultyWrite(fd_, frame.data(), frame.size(), write_fault_) ||
        ::fsync(fd_) != 0) {
        int saved = errno;
        // Same policy as Journal::append: roll back the partial frame
        // so the store stays loadable, then stop caching for the run
        // rather than retry into a failing disk.
        bool repaired = ::ftruncate(fd_, end_) == 0 &&
                        ::lseek(fd_, end_, SEEK_SET) >= 0;
        disabled_ = true;
        warn("cache %s: append FAILED (%s)%s — caching DISABLED for "
             "the rest of this run",
             path_.c_str(), strerror(saved),
             repaired ? ", partial frame rolled back"
                      : ", and rollback also failed (the torn tail "
                        "will be dropped on the next load)");
        return false;
    }
    end_ += static_cast<off_t>(frame.size());
    by_name_[rec.name].emplace_back(rec.bound, rec.key);
    Journal::Record &slot = loaded_[rec.key];
    slot = rec;
    if (slot.unbounded && slot.baseKey != 0 &&
        slot.verdict == Verdict::Proven)
        by_base_[slot.baseKey] = &slot;
    appended_++;
    return true;
}

size_t
VerdictCache::numAppended() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return appended_;
}

} // namespace r2u::bmc
