#include "serve/disk_cache.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "serve/fsio.h"
#include "support/crc32.h"

namespace rtd::serve {

namespace {

constexpr char kMagic[4] = {'R', 'T', 'D', 'B'};
constexpr uint32_t kVersion = 1;
/** Blobs larger than this are implausible and rejected unread. */
constexpr uint32_t kMaxBlobBytes = 1u << 30;

void
putU32(std::string &out, uint32_t value)
{
    out.push_back(static_cast<char>(value));
    out.push_back(static_cast<char>(value >> 8));
    out.push_back(static_cast<char>(value >> 16));
    out.push_back(static_cast<char>(value >> 24));
}

uint32_t
getU32(const char *p)
{
    return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
           static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
           static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
           static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

std::string
hexHash(uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

bool
readWholeFile(const std::string &path, std::string &out)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::string bytes;
    char chunk[1 << 16];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
        bytes.append(chunk, n);
        if (bytes.size() > kMaxBlobBytes + 1024) {
            std::fclose(f);
            return false;
        }
    }
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (ok)
        out = std::move(bytes);
    return ok;
}

/**
 * Parse a blob record. On success fills @p key and @p payload. The
 * payload CRC is always checked; the caller separately compares @p key
 * against the key it asked for.
 */
bool
parseBlob(const std::string &bytes, std::string &key,
          std::string &payload)
{
    if (bytes.size() < 20 ||
        std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
        return false;
    if (getU32(bytes.data() + 4) != kVersion)
        return false;
    uint32_t key_len = getU32(bytes.data() + 8);
    if (key_len > kMaxBlobBytes || bytes.size() < 20ull + key_len)
        return false;
    size_t payload_header = 12ull + key_len;
    uint32_t payload_len = getU32(bytes.data() + payload_header);
    uint32_t stored_crc = getU32(bytes.data() + payload_header + 4);
    size_t payload_off = payload_header + 8;
    if (payload_len > kMaxBlobBytes ||
        bytes.size() != payload_off + payload_len)
        return false;
    const uint8_t *payload_bytes =
        reinterpret_cast<const uint8_t *>(bytes.data() + payload_off);
    if (crc32(payload_bytes, payload_len) != stored_crc)
        return false;
    key.assign(bytes, 12, key_len);
    payload.assign(bytes, payload_off, payload_len);
    return true;
}

/**
 * RAII exclusive flock over the store's `.lock` file: the cross-process
 * half of write serialization (the in-process half is mutex_, which the
 * caller already holds, so at most one flock per process is pending).
 * A negative fd degrades to a no-op — single-process correctness does
 * not depend on it.
 */
class FlockGuard
{
  public:
    explicit FlockGuard(int fd) : fd_(fd)
    {
        if (fd_ >= 0) {
            while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
            }
        }
    }

    ~FlockGuard()
    {
        if (fd_ >= 0)
            ::flock(fd_, LOCK_UN);
    }

    FlockGuard(const FlockGuard &) = delete;
    FlockGuard &operator=(const FlockGuard &) = delete;

  private:
    int fd_;
};

} // namespace

DiskArtifactCache::DiskArtifactCache(std::string dir, uint64_t max_bytes)
    : dir_(std::move(dir)), maxBytes_(max_bytes)
{
    ::mkdir(dir_.c_str(), 0775);
    lockFd_ = ::open((dir_ + "/.lock").c_str(), O_RDWR | O_CREAT, 0664);

    // The scan (and especially its tmp sweep) runs under the write
    // flock: a live writer in another process holds the lock while its
    // pid-unique temp file exists, so any ".tmp" visible here is a
    // crashed writer's orphan and safe to delete.
    FlockGuard write_lock(lockFd_);

    // Index surviving blobs. Only well-formed names are considered;
    // leftover ".tmp" files from a crashed writer are swept here.
    // Full validation (key/CRC) is deferred to load() — a startup scan
    // that read every payload would make warm restarts O(cache size).
    std::vector<std::pair<int64_t, uint64_t>> by_mtime;  // (mtime, hash)
    if (DIR *d = ::opendir(dir_.c_str())) {
        while (dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            std::string path = dir_ + "/" + name;
            if (name.size() > 4 &&
                name.compare(name.size() - 4, 4, ".tmp") == 0) {
                ::unlink(path.c_str());
                continue;
            }
            if (name.size() != 21 ||
                name.compare(16, 5, ".blob") != 0)
                continue;
            uint64_t hash = 0;
            bool valid = true;
            for (int i = 0; i < 16; ++i) {
                char c = name[i];
                int digit;
                if (c >= '0' && c <= '9')
                    digit = c - '0';
                else if (c >= 'a' && c <= 'f')
                    digit = c - 'a' + 10;
                else {
                    valid = false;
                    break;
                }
                hash = hash << 4 | static_cast<uint64_t>(digit);
            }
            if (!valid)
                continue;
            struct stat st;
            if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
                continue;
            Entry entry;
            entry.file = name;
            // st_size bounds the payload from above; close enough for
            // the size bound until load() sees the real payload length.
            entry.payload =
                st.st_size > 20 ? static_cast<uint64_t>(st.st_size) - 20
                                : 0;
            index_[hash] = entry;
            by_mtime.emplace_back(static_cast<int64_t>(st.st_mtime),
                                  hash);
            totalPayload_ += index_[hash].payload;
        }
        ::closedir(d);
    }
    // Seed recency from mtimes: oldest file gets the lowest seq.
    std::sort(by_mtime.begin(), by_mtime.end());
    for (const auto &[mtime, hash] : by_mtime)
        index_[hash].seq = nextSeq_++;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.bytes = totalPayload_;
        evictLocked();
    }
}

DiskArtifactCache::~DiskArtifactCache()
{
    if (lockFd_ >= 0)
        ::close(lockFd_);
}

std::string
DiskArtifactCache::pathFor(uint64_t hash) const
{
    return dir_ + "/" + hexHash(hash) + ".blob";
}

bool
DiskArtifactCache::load(const std::string &key, std::string &bytes)
{
    uint64_t hash = harness::stableHash64(key);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(hash);
    std::string file = hexHash(hash) + ".blob";
    std::string path = dir_ + "/" + file;
    // Deliberately no index-presence gate and no flock: another
    // process sharing the directory (a second daemon, fsck --repair)
    // may have stored or evicted this blob without us knowing, and
    // rename() atomicity plus the key/CRC verification below make
    // lock-free reads safe.
    std::string raw, stored_key, payload;
    if (!readWholeFile(path, raw)) {
        // Nothing (readable) on disk: a plain miss. Drop any index
        // entry — another process evicted the blob under us.
        if (it != index_.end())
            removeLocked(hash);
        ++stats_.misses;
        return false;
    }
    if (!parseBlob(raw, stored_key, payload) || stored_key != key) {
        // Bad magic, torn record, CRC failure, or a 64-bit hash
        // collision with a different key: reject the blob so the
        // caller rebuilds (and, on store, overwrites the file).
        ++stats_.rejects;
        if (it != index_.end())
            removeLocked(hash);
        else
            ::unlink(path.c_str());
        return false;
    }
    if (it == index_.end()) {
        // Stored by a sibling process: adopt it into our index.
        it = index_.emplace(hash, Entry{file, 0, 0}).first;
    }
    // The startup scan only estimated the payload from the file size
    // (it never reads records); now that we have parsed the record,
    // settle the books with the exact payload length.
    totalPayload_ -= it->second.payload;
    it->second.payload = payload.size();
    totalPayload_ += it->second.payload;
    stats_.bytes = totalPayload_;
    it->second.seq = nextSeq_++;
    // Touch the file so LRU order survives a restart (best effort).
    struct timespec times[2];
    times[0].tv_sec = 0;
    times[0].tv_nsec = UTIME_NOW;
    times[1] = times[0];
    ::utimensat(AT_FDCWD, path.c_str(), times, 0);
    ++stats_.hits;
    bytes = std::move(payload);
    return true;
}

void
DiskArtifactCache::store(const std::string &key, std::string_view bytes)
{
    if (bytes.size() > kMaxBlobBytes)
        return;
    uint64_t hash = harness::stableHash64(key);
    std::string record;
    record.reserve(20 + key.size() + bytes.size());
    record.append(kMagic, sizeof kMagic);
    putU32(record, kVersion);
    putU32(record, static_cast<uint32_t>(key.size()));
    record += key;
    putU32(record, static_cast<uint32_t>(bytes.size()));
    putU32(record,
           crc32(reinterpret_cast<const uint8_t *>(bytes.data()),
                 bytes.size()));
    record.append(bytes.data(), bytes.size());

    std::lock_guard<std::mutex> lock(mutex_);
    // Cross-process write exclusion (see FlockGuard): spans tmp write,
    // rename, and eviction. The temp name is pid-unique so two
    // processes racing on the same key never write one temp file.
    FlockGuard write_lock(lockFd_);
    std::string path = pathFor(hash);
    std::string tmp =
        path + "." + std::to_string(static_cast<long>(::getpid())) +
        ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return;
    // Through the fsio seam so the chaos harness can inject disk-full
    // and torn-write faults; either way a failed store leaves no temp
    // file and the cache just misses next time.
    bool ok = fsio::fwriteAll(f, record.data(), record.size());
    ok = std::fclose(f) == 0 && ok;
    if (!ok || !fsio::renameFile(tmp, path)) {
        ::unlink(tmp.c_str());
        return;
    }
    auto it = index_.find(hash);
    if (it != index_.end())
        totalPayload_ -= it->second.payload;
    Entry &entry = index_[hash];
    entry.file = hexHash(hash) + ".blob";
    entry.payload = bytes.size();
    entry.seq = nextSeq_++;
    totalPayload_ += entry.payload;
    ++stats_.stores;
    stats_.bytes = totalPayload_;
    evictLocked();
}

void
DiskArtifactCache::evictLocked()
{
    if (maxBytes_ == 0)
        return;
    while (totalPayload_ > maxBytes_ && !index_.empty()) {
        auto victim = index_.begin();
        for (auto it = index_.begin(); it != index_.end(); ++it) {
            if (it->second.seq < victim->second.seq)
                victim = it;
        }
        removeLocked(victim->first);
        ++stats_.evictions;
    }
}

void
DiskArtifactCache::removeLocked(uint64_t hash)
{
    auto it = index_.find(hash);
    if (it == index_.end())
        return;
    ::unlink((dir_ + "/" + it->second.file).c_str());
    totalPayload_ -= it->second.payload;
    index_.erase(it);
    stats_.bytes = totalPayload_;
}

FsckReport
DiskArtifactCache::fsck(bool repair)
{
    FsckReport report;
    std::lock_guard<std::mutex> lock(mutex_);
    // The write flock keeps sibling writers out for the whole pass, so
    // a half-renamed record can't be misread as corruption and any
    // ".tmp" seen here is a crashed writer's orphan.
    FlockGuard write_lock(lockFd_);
    std::vector<std::string> names;
    if (DIR *d = ::opendir(dir_.c_str())) {
        while (dirent *e = ::readdir(d))
            names.emplace_back(e->d_name);
        ::closedir(d);
    }
    for (const std::string &name : names) {
        std::string path = dir_ + "/" + name;
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".tmp") == 0) {
            if (repair && ::unlink(path.c_str()) == 0)
                ++report.tmpSwept;
            continue;
        }
        if (name.size() != 21 || name.compare(16, 5, ".blob") != 0)
            continue;
        ++report.scanned;
        std::string raw, stored_key, payload;
        bool intact = readWholeFile(path, raw) &&
                      parseBlob(raw, stored_key, payload);
        // The filename must also agree with the embedded key: a blob
        // renamed (or hardware-scrambled) into the wrong slot would
        // otherwise verify here yet never be loadable under its key.
        if (intact &&
            hexHash(harness::stableHash64(stored_key)) !=
                name.substr(0, 16))
            intact = false;
        if (intact) {
            ++report.intact;
            report.bytes += payload.size();
            continue;
        }
        ++report.corrupt;
        ++stats_.rejects;
        if (repair) {
            uint64_t hash = 0;
            for (int i = 0; i < 16; ++i) {
                char c = name[i];
                hash = hash << 4 |
                       static_cast<uint64_t>(
                           c <= '9' ? c - '0' : c - 'a' + 10);
            }
            if (index_.count(hash)) {
                removeLocked(hash);  // unlinks the file too
                ++report.removed;
            } else if (::unlink(path.c_str()) == 0) {
                ++report.removed;
            }
        }
    }
    return report;
}

DiskCacheStats
DiskArtifactCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace rtd::serve
