/**
 * @file
 * DiskArtifactCache: the content-addressed, on-disk blob store behind
 * the serve daemon's warm restarts (DESIGN.md section 14).
 *
 * The daemon keeps one thing here: the result index, one blob per
 * finished job row under a "result|" key. Programs and built images
 * stay in memory only; a restarted daemon rebuilds them for the jobs it
 * re-runs, which is cheap next to simulating and yields the same rows
 * because jobs are deterministic.
 *
 * ## On-disk layout
 *
 * One file per blob under the cache directory:
 *
 *     <dir>/<16-hex stableHash64(key)>.blob
 *
 * Each file is a self-describing record:
 *
 *     "RTDB"          4-byte magic
 *     version         u32 LE (currently 1)
 *     keyLen          u32 LE
 *     key             keyLen bytes — the FULL canonical key string
 *     payloadLen      u32 LE
 *     payloadCrc      u32 LE — CRC-32 (IEEE) of the payload bytes
 *     payload         payloadLen bytes
 *
 * The full key travels with the blob deliberately: the filename is only
 * a 64-bit hash, and a hash collision (or a stale/corrupted file) must
 * never return the *wrong* row. load() verifies the stored key
 * string against the requested key and the payload against its CRC; any
 * mismatch rejects the blob, deletes the file, and reports a miss — the
 * caller rebuilds and overwrites. Corruption degrades to a cache miss,
 * never to wrong data.
 *
 * ## Eviction and atomicity
 *
 * The store is LRU-bounded by total payload bytes: every load/store
 * bumps the blob's recency, and a store that pushes the total over
 * maxBytes evicts least-recently-used blobs (files deleted) until it
 * fits. Recency survives restarts approximately via file mtimes
 * (refreshed on every load hit), which is exactly the fidelity LRU
 * needs. Writes go to a temp file in the same directory and rename()
 * into place, so a crash mid-write leaves either the old blob or no
 * blob — never a torn one (torn temp files are swept at startup).
 *
 * Thread-safe: one mutex serializes the index; file I/O happens under
 * it too (blobs are small and local, and correctness under concurrent
 * store/evict of the same key matters more than parallel disk writes).
 *
 * ## Multi-process sharing
 *
 * One directory may be opened by several processes at once: a live
 * daemon and an operator's `rtdc_client fsck --repair` scanning it
 * (DESIGN.md section 17), or two daemons on different sockets that
 * share one cache directory. Three mechanisms make that safe:
 *
 *  - writes are serialized across processes by an exclusive flock on
 *    `<dir>/.lock`, held over tmp write + rename + eviction (and over
 *    the startup scan, so the tmp sweep can never delete another live
 *    writer's in-flight temp file — temp names are also pid-unique);
 *  - readers take no lock at all: rename() is atomic, so a racing
 *    reader sees the old complete record or the new one, and the
 *    full-key + CRC verification already rejects anything torn or
 *    foreign as a miss;
 *  - a load whose hash is not in this process's in-memory index falls
 *    through to disk anyway and adopts the blob on success, so blobs
 *    stored by sibling processes are visible without any shared index.
 *
 * Each process's byte accounting only tracks its own view of the
 * directory, so the LRU bound is approximate under sharing — exactly
 * the fidelity a cache bound needs.
 */

#ifndef RTDC_SERVE_DISK_CACHE_H
#define RTDC_SERVE_DISK_CACHE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "harness/artifact_cache.h"

namespace rtd::serve {

/** What a fsck() pass found (and, when repairing, removed). */
struct FsckReport
{
    uint64_t scanned = 0;   ///< blob files examined
    uint64_t intact = 0;    ///< parsed, key-consistent, CRC-verified
    uint64_t corrupt = 0;   ///< torn/CRC-failing/misnamed blobs found
    uint64_t removed = 0;   ///< corrupt blobs unlinked (repair mode)
    uint64_t tmpSwept = 0;  ///< orphan temp files deleted
    uint64_t bytes = 0;     ///< payload bytes across intact blobs
};

/** Observable effect counters (all monotonically increasing). */
struct DiskCacheStats
{
    uint64_t hits = 0;       ///< load() served a verified blob
    uint64_t misses = 0;     ///< load() found nothing
    uint64_t stores = 0;     ///< store() wrote a blob
    uint64_t evictions = 0;  ///< blobs deleted by the size bound
    uint64_t rejects = 0;    ///< blobs rejected (bad magic/key/CRC)
    uint64_t bytes = 0;      ///< current total payload bytes on disk
};

/** Content-addressed, size-bounded, crash-safe blob store. */
class DiskArtifactCache
{
  public:
    /**
     * Open (creating the directory if needed) the store at @p dir.
     * Existing blobs are indexed by scanning the directory; their
     * recency order is seeded from file mtimes. @p max_bytes bounds the
     * total payload (0 = unbounded).
     */
    DiskArtifactCache(std::string dir, uint64_t max_bytes);

    ~DiskArtifactCache();

    /**
     * Look up @p key. True only when a blob with the exact key string
     * and an intact payload exists; @p bytes receives the payload.
     * A hash-matched blob whose embedded key differs (collision) or
     * whose CRC fails (corruption) is deleted and counted in
     * stats().rejects.
     */
    bool load(const std::string &key, std::string &bytes);

    /**
     * Write @p bytes under @p key (overwriting any previous blob of the
     * same key) and evict LRU blobs if the size bound is now exceeded.
     * I/O errors are swallowed — the store is a cache, so the worst
     * case of a full disk is a rebuild next time.
     */
    void store(const std::string &key, std::string_view bytes);

    /**
     * Integrity-scan the whole store: every blob file is read and fully
     * verified (magic, version, framing, embedded-key-vs-filename hash,
     * payload CRC). load() only pays this cost for the blobs a run
     * touches; fsck is the offline sweep that finds latent corruption —
     * bit rot, torn writes from a crashed kernel — before it matters.
     * With @p repair, corrupt blobs and orphan temp files are unlinked
     * (corruption already degrades to a miss at load(), so repair only
     * reclaims the dead bytes). Holds the cross-process write lock for
     * the duration.
     */
    FsckReport fsck(bool repair);

    DiskCacheStats stats() const;

    const std::string &dir() const { return dir_; }

  private:
    struct Entry
    {
        std::string file;     ///< basename under dir_
        uint64_t payload = 0; ///< payload bytes (for the size bound)
        uint64_t seq = 0;     ///< recency (higher = more recent)
    };

    /** Full path of the blob file for @p key's hash. */
    std::string pathFor(uint64_t hash) const;
    /** Evict LRU entries until total payload fits maxBytes_. */
    void evictLocked();
    /** Drop @p hash from index and disk. */
    void removeLocked(uint64_t hash);

    std::string dir_;
    uint64_t maxBytes_;
    /** fd of `<dir>/.lock` for cross-process write exclusion; -1 when
     *  the lock file could not be opened (degrades to in-process-only
     *  safety, which is still correct for a lone daemon). */
    int lockFd_ = -1;
    mutable std::mutex mutex_;
    std::map<uint64_t, Entry> index_;  ///< key hash -> entry
    uint64_t totalPayload_ = 0;
    uint64_t nextSeq_ = 1;
    DiskCacheStats stats_;
};

} // namespace rtd::serve

#endif // RTDC_SERVE_DISK_CACHE_H
