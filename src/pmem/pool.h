// PMDK-like persistent memory pool.
//
// A Pool is a fixed-capacity region backed either by a file mmap ("pmem"
// mode, the emulated-Optane configuration) or anonymous memory ("dram" mode,
// the paper's pure-volatile baseline). It provides:
//
//   * offset-based addressing (8-byte offsets instead of 16-byte persistent
//     pointers on hot paths — design goal DG6 / decision DD2),
//   * a block allocator with persistent size-class free lists so freed
//     records are reused instead of deallocated (DG5 / C5),
//   * persistence primitives Flush/Drain/Persist emulating clwb + sfence
//     with the LatencyModel applied (DG4 / C4),
//   * a segmented redo log for failure-atomic multi-word updates (the role
//     PMDK transactions play in the paper's commit path, §5.1); concurrent
//     committers append to independent segments and recovery replays all
//     marked segments in commit-timestamp order,
//   * optional crash simulation: with `crash_shadow` enabled, only bytes
//     that were explicitly flushed survive SimulateCrash(), which lets tests
//     verify failure atomicity without real power loss.

#ifndef POSEIDON_PMEM_POOL_H_
#define POSEIDON_PMEM_POOL_H_

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "pmem/latency_model.h"
#include "util/status.h"

namespace poseidon::pmem {

/// Byte offset within a pool. Offset 0 addresses the pool header and is
/// never handed out by the allocator, so 0 doubles as the null offset.
using Offset = uint64_t;
inline constexpr Offset kNullOffset = 0;

enum class PoolMode {
  kPmem,  ///< file-backed, persisted, latency model applied
  kDram,  ///< anonymous memory, volatile, no latency injection
};

struct PoolOptions {
  PoolMode mode = PoolMode::kPmem;
  /// Total region size. Fixed at creation.
  uint64_t capacity = 256ull << 20;
  /// If set, overrides the mode-default latency model.
  bool has_latency_override = false;
  LatencyModel latency_override;
  /// Maintain a shadow copy so SimulateCrash() can drop unflushed stores.
  bool crash_shadow = false;
  /// Redo-log segment count: 0 = env POSEIDON_REDO_SEGMENTS (default 8,
  /// clamped to [1, 64]).
  uint32_t redo_segments = 0;
};

/// Number of allocator size classes: 64, 128, 256, 512, 1 KiB ... 64 KiB.
inline constexpr int kNumSizeClasses = 11;

/// Redo-log segment header: state + commit_ts + num_entries + crc.
/// Entries start at this offset within a segment (see RedoLog).
inline constexpr uint64_t kRedoSegmentHeaderBytes = 32;

/// What Pool::Open's redo-log recovery did, segment by segment. Corrupt
/// segments (torn writes, bit flips — anything failing the CRC32C or bounds
/// validation) are discarded, never replayed; `status` carries the first
/// Status::Corruption diagnostic and `warnings` one line per incident, so
/// callers can distinguish a clean recovery from a degraded one.
struct RecoveryReport {
  uint64_t segments_scanned = 0;
  uint64_t segments_replayed = 0;
  /// Committed-marked segments whose checksum or entry bounds were invalid;
  /// reset to idle without applying anything.
  uint64_t segments_discarded_corrupt = 0;
  /// Segments whose state word held garbage (neither idle nor committed).
  uint64_t segments_reset_garbage = 0;
  uint64_t entries_applied = 0;
  std::vector<std::string> warnings;
  /// Ok when every marked segment replayed cleanly; Corruption otherwise
  /// (the pool still opens — recovery degrades gracefully by discarding
  /// exactly the damaged segments).
  Status status;
};

/// Statistics counters (volatile; informational). Fields are atomics so
/// concurrent committers can bump them race-free; read them like plain
/// integers.
struct PoolStats {
  std::atomic<uint64_t> alloc_calls{0};
  std::atomic<uint64_t> alloc_from_free_list{0};
  std::atomic<uint64_t> free_calls{0};
  /// Cache lines whose flush latency was actually paid.
  std::atomic<uint64_t> flushed_lines{0};
  /// Cache lines a FlushBatch skipped because the same line was already
  /// flushed earlier in the same commit (flush coalescing).
  std::atomic<uint64_t> deduped_lines{0};
  std::atomic<uint64_t> drains{0};
  /// Full-latency flushes of lines that were already durable with no store
  /// since (PersistSanitizer class-(b) diagnostic; only advances when PSAN
  /// is compiled in and enabled). These are the flushes the dedup machinery
  /// did NOT absorb but a flush-pruning optimisation could.
  std::atomic<uint64_t> psan_redundant_lines{0};
  /// Allocations denied for lack of space — bump exhaustion or an injected
  /// `pmem.alloc` fault (overload governance).
  std::atomic<uint64_t> alloc_failures{0};
};

/// Copies `len` bytes with 8-byte atomic word accesses (release stores /
/// acquire loads) when everything is 8-aligned, falling back to memcpy
/// otherwise. Commit appliers and seqlock-style readers both use it so a
/// record image can be copied concurrently with an in-place apply without a
/// data race; MVTO validation handles the logical interleavings.
void AtomicStoreCopy(void* dst, const void* src, uint64_t len);
void AtomicLoadCopy(void* dst, const void* src, uint64_t len);

class RedoLog;
class FlushBatch;
class FaultInjector;
class PersistSanitizer;

class Pool {
 public:
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Creates a new pool file at `path` (pmem mode) or an anonymous region
  /// (dram mode; `path` ignored). Fails if a pmem file already exists.
  static Result<std::unique_ptr<Pool>> Create(const std::string& path,
                                              const PoolOptions& options);

  /// Opens an existing pmem pool file and runs redo-log recovery.
  static Result<std::unique_ptr<Pool>> Open(const std::string& path,
                                            const PoolOptions& options);

  /// Convenience: volatile pool for the DRAM baseline.
  static Result<std::unique_ptr<Pool>> CreateVolatile(uint64_t capacity);

  /// Marks clean shutdown (pmem mode) and unmaps.
  ~Pool();

  // --- Addressing -----------------------------------------------------

  template <typename T = void>
  T* ToPtr(Offset off) const {
    assert(off < capacity_);
    return reinterpret_cast<T*>(base_ + off);
  }

  Offset ToOffset(const void* p) const {
    auto d = static_cast<const char*>(p) - base_;
    assert(d >= 0 && static_cast<uint64_t>(d) < capacity_);
    return static_cast<Offset>(d);
  }

  bool Contains(const void* p) const {
    return p >= base_ && p < base_ + capacity_;
  }

  // --- Allocation (DG5) -------------------------------------------------

  /// Allocates `size` bytes aligned to `align` (power of two, >= 8).
  /// Reuses freed blocks of the matching size class when available.
  Result<Offset> Allocate(uint64_t size, uint64_t align = kCacheLineSize);

  /// Returns a block to its size-class free list (no real deallocation —
  /// free space is recycled, matching DG5).
  void Free(Offset off, uint64_t size);

  /// Allocates and zero-fills.
  Result<Offset> AllocateZeroed(uint64_t size,
                                uint64_t align = kCacheLineSize);

  // --- Persistence primitives (DG4) ------------------------------------

  /// Emulated clwb over [addr, addr+len): pays the flush latency per dirty
  /// cache line and, under crash_shadow, marks those bytes as durable.
  void Flush(const void* addr, uint64_t len);

  /// Emulated sfence.
  void Drain();

  /// Flush + Drain.
  void Persist(const void* addr, uint64_t len) {
    Flush(addr, len);
    Drain();
  }

  /// Metadata stores (allocator heads, occupancy bits, the timestamp
  /// high-water mark) are only *flushed* here; the next commit's redo drain
  /// makes them durable before anything that depends on them.
  void PersistDeferred(const void* addr, uint64_t len) { Flush(addr, len); }

  /// Injects the PMem read latency for a read of [addr, addr+len).
  /// Storage-layer record accessors call this on their PMem-resident data.
  void TouchRead(const void* addr, uint64_t len) const {
    latency_.OnRead(addr, len);
  }

  /// Starts a modeled asynchronous fill of [addr, addr+len) and issues a
  /// hardware prefetch. A later TouchRead of the same 256 B block pays only
  /// the portion of the PMem latency that has not yet elapsed, so scan
  /// kernels can hide read latency behind useful work (software prefetch).
  void TouchPrefetch(const void* addr, uint64_t len) const {
    __builtin_prefetch(addr, /*rw=*/0, /*locality=*/0);
    latency_.OnPrefetch(addr, len);
  }

  // --- Root object -------------------------------------------------------

  /// The root offset is the application's entry point into the pool
  /// (the GraphStore directory lives there). Persisted atomically.
  Offset root() const;
  void set_root(Offset off);

  // --- Failure-atomic multi-word updates --------------------------------

  /// The pool's segmented redo log (see RedoLog). Concurrent commits use
  /// independent segments.
  RedoLog* redo_log() { return redo_log_.get(); }

  /// Always true: the parallel commit pipeline (deferred metadata drains,
  /// flush coalescing, 3-drain redo commits) is the only commit path. Kept
  /// because the repository benchmark's config block reads it.
  bool pipelined() const { return true; }

  // --- Crash simulation ---------------------------------------------------

  /// Reverts every byte that was stored but not flushed since the last
  /// Flush() covering it, emulating power loss. Requires crash_shadow.
  /// After this call the pool content equals what a post-crash Open() of the
  /// file would observe; callers then re-run recovery paths against it.
  /// Not thread-safe: quiesce writers first (see FreezeShadow).
  void SimulateCrash();

  /// Freezes the durable image at this instant: subsequent flushes no longer
  /// reach the crash shadow, so concurrent writers may keep running and a
  /// later SimulateCrash() restores the state as of the freeze — a crash at
  /// an arbitrary point under full concurrency. SimulateCrash() unfreezes.
  void FreezeShadow();

  /// True if the previous session did not close this pool cleanly.
  bool recovered_from_crash() const { return recovered_from_crash_; }

  /// Crash-point scheduler (see pmem/fault_injector.h). Non-null only when
  /// the pool was built with crash_shadow; every Flush/Drain reports to it.
  FaultInjector* fault_injector() const { return fault_injector_.get(); }

  /// What redo-log recovery replayed/discarded at Open() (empty report for
  /// Create()). See RecoveryReport.
  const RecoveryReport& recovery_report() const { return recovery_report_; }

  /// Persist-order sanitizer (see pmem/psan.h). Non-null only when the
  /// build has POSEIDON_PSAN and the POSEIDON_PSAN env knob is not 0; every
  /// instrumented store and every Flush/Drain reports to it.
  PersistSanitizer* psan() const { return psan_.get(); }

  // --- Integrity: per-line CRC32C sidecar, scrubbing, quarantine ----------
  //
  // Pool layout v4 reserves a sidecar region between the redo log and the
  // data area: one 4-byte CRC32C slot per 64 B cache line. A slot value of
  // 0 means "unsealed": the line has been flushed since the last commit
  // boundary and its checksum is not currently valid (computed CRCs of 0
  // are biased to 1 so 0 stays reserved). FlushAccounted unseals covered
  // lines *before* the data flush, so a crash between the two degrades to
  // "unverified", never to a false mismatch; SealPending() — called at the
  // end of every redo commit, at recovery, at close, and by the scrubber —
  // seals them again with the CRC of the *durable* image (the crash shadow
  // when present, live memory otherwise: the shadow is the media).

  /// Verdict for a single 64 B line.
  enum class LineVerify {
    kNotCovered,  ///< below the data area (header/redo/sidecar), or off
    kUnsealed,    ///< slot is 0 — flushed since last seal, not judged
    kClean,       ///< stored CRC matches the durable content
    kMismatch,    ///< stored CRC does not match — media corruption
  };

  /// What a corruption handler (or HandleCorruptLine itself) decided about
  /// a mismatched line.
  enum class RepairOutcome {
    kUnrepairable,  ///< content lost — line quarantined, reads degrade
    kRepaired,      ///< content rewritten in place from a redundant source
    kAdopted,       ///< current content acceptable as-is (free slot,
                    ///< structure rebuilt elsewhere) — line resealed
  };

  using CorruptionHandler = std::function<RepairOutcome(Offset line_off)>;

  /// True when line checksums are maintained. On for crash-shadow pools and
  /// whenever POSEIDON_SCRUB=1; POSEIDON_CHECKSUMS=0/1 overrides both.
  bool checksums_enabled() const { return checksums_; }

  /// First byte of the checksummed data area (everything from here up to
  /// capacity is covered by the sidecar).
  Offset data_begin() const { return data_begin_; }

  /// Verifies one line (`line` = pool offset / kCacheLineSize) against its
  /// sidecar slot.
  LineVerify VerifyLine(uint64_t line) const;

  /// Verifies every line overlapping [off, off+len); mismatches are routed
  /// through HandleCorruptLine. Returns the number of mismatches found.
  /// Cold-structure first-touch hooks and the scrubber both land here.
  uint64_t VerifyAndRepairRange(Offset off, uint64_t len);

  /// Seals every line unsealed since the last call: recomputes the CRC of
  /// the durable image and stores it in the sidecar. Runs automatically at
  /// redo-commit boundaries, recovery end, and pool close.
  void SealPending();

  /// Installs the repair dispatcher (GraphDb wires this to the storage and
  /// index layers). Invoked with the pool offset of a corrupt line; runs
  /// without pool-internal locks held.
  void SetCorruptionHandler(CorruptionHandler handler);

  /// Detect→repair→quarantine pipeline for one mismatched line:
  /// re-verifies (a pending-seal line is just resealed), invokes the
  /// corruption handler, seals repaired/adopted lines, quarantines
  /// unrepairable ones.
  RepairOutcome HandleCorruptLine(uint64_t line);

  /// Sanctioned repair write: atomically stores [src, src+len) at `dst`,
  /// marks it for the persist sanitizer, persists it, and reseals + clears
  /// quarantine on the covered lines. Storage-layer repair code uses this
  /// instead of raw stores (recognised by tools/lint_pptr_stores.py).
  void RepairStore(Offset dst, const void* src, uint64_t len);

  /// True when any line overlapping [addr, addr+len) is quarantined.
  /// Fast path: one relaxed load when nothing is quarantined (the common
  /// case on every record read).
  bool IsQuarantinedRange(const void* addr, uint64_t len) const {
    if (quarantine_count_.load(std::memory_order_relaxed) == 0) return false;
    return IsQuarantinedRangeSlow(addr, len);
  }

  void QuarantineLine(uint64_t line);
  uint64_t quarantined_lines() const {
    return quarantine_count_.load(std::memory_order_relaxed);
  }
  void ClearQuarantine();

  /// Monotonic epoch bumped by SimulateCrash(); the scrubber re-reads it
  /// between batches and resets its cursor on change, keeping crash-point
  /// sweeps deterministic under POSEIDON_SCRUB=1.
  uint64_t scrub_epoch() const {
    return scrub_epoch_.load(std::memory_order_acquire);
  }

  struct ScrubStats {
    std::atomic<uint64_t> lines_verified{0};  ///< sealed lines checked clean
    std::atomic<uint64_t> mismatches{0};      ///< CRC mismatches detected
    std::atomic<uint64_t> repaired{0};        ///< lines rebuilt in place
    std::atomic<uint64_t> adopted{0};         ///< resealed as-is (free slot)
    std::atomic<uint64_t> quarantined{0};     ///< unrepairable, reads degrade
    std::atomic<uint64_t> resealed{0};        ///< pending lines sealed late
  };
  const ScrubStats& scrub_stats() const { return scrub_stats_; }

  // --- Media-fault injection (FaultInjector / tests) ----------------------

  /// Overwrites `len` bytes at `off` in the *durable image only* (the crash
  /// shadow when present, live memory otherwise) without flush accounting —
  /// emulating media decay. SimulateCrash() surfaces the damage.
  void CorruptDurable(Offset off, const void* bytes, uint64_t len);

  /// Flips one bit of the durable image (byte `off`, bit index 0..7).
  void FlipDurableBit(Offset off, uint32_t bit);

  /// Appends the line numbers of every currently sealed covered line — the
  /// candidate set for randomized media-fault injection.
  void CollectSealedLines(std::vector<uint64_t>* out) const;

  // --- Introspection ------------------------------------------------------

  PoolMode mode() const { return mode_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t bytes_used() const;

  // --- Space watermarks (overload governance) -----------------------------

  /// Soft-watermark threshold in percent of capacity (bump allocator high-
  /// water mark). 0 disables the watermark (seed behavior). Configured from
  /// POSEIDON_POOL_SOFT_WATERMARK_PCT at Create/Open; tests may override.
  uint32_t soft_watermark_pct() const {
    return soft_watermark_pct_.load(std::memory_order_relaxed);
  }
  void set_soft_watermark_pct(uint32_t pct) {
    soft_watermark_pct_.store(pct > 100 ? 100 : pct,
                              std::memory_order_relaxed);
  }
  /// True when the bump high-water mark crossed the soft watermark. The
  /// admission gate denies new writers above it and kicks emergency GC +
  /// adjacency-cache shrink; readers are unaffected.
  bool AboveSoftWatermark() const {
    uint32_t pct = soft_watermark_pct();
    if (pct == 0) return false;
    return bytes_used() * 100 >= capacity() * pct;
  }
  uint64_t pool_id() const;
  const LatencyModel& latency() const { return latency_; }
  const PoolStats& stats() const { return stats_; }
  /// Resets volatile statistics counters.
  void ResetStats();

 private:
  friend class RedoLog;
  friend class RedoTx;
  friend class FlushBatch;

  Pool() = default;

  struct Header;
  Header* header() const { return reinterpret_cast<Header*>(base_); }

  Status MapRegion(const std::string& path, bool create);
  void InitHeader(const PoolOptions& options);
  Status ValidateHeader() const;
  void Configure(const PoolOptions& options);
  /// Derives data_begin_ from the (validated) header and decides whether
  /// line checksums are maintained. Runs after the crash shadow exists.
  void ConfigureChecksums(const PoolOptions& options);
  static int SizeClassFor(uint64_t size);
  static uint64_t SizeClassBytes(int size_class);

  /// Pays flush latency for `lines` cache lines and copies the (line-
  /// aligned, pool-clamped) range into the crash shadow. Shared by Flush and
  /// FlushBatch, which passes the deduplicated line count.
  void FlushAccounted(const void* addr, uint64_t len, uint64_t unique_lines);
  void CopyToShadow(uint64_t begin_addr, uint64_t end_addr);

  // Integrity internals. Lines are pool offsets / kCacheLineSize; only
  // lines at or above data_begin_ have sidecar slots.
  uint32_t* SidecarSlot(uint64_t line) const;
  uint32_t DurableSlotValue(uint64_t line) const;
  void ReadDurableLine(uint64_t line, void* buf64) const;
  uint32_t ComputeDurableLineCrc(uint64_t line) const;
  /// Unseals covered lines in [begin_addr, end_addr) before their data
  /// flush and records them for the next SealPending().
  void UnsealForFlush(uint64_t begin_addr, uint64_t end_addr);
  void SealLine(uint64_t line);
  /// Zeroes the sidecar and recomputes every allocated line's CRC from the
  /// durable image. Used on reopen when a prior session ran with checksums
  /// off (header checksums_live == 0) and left the on-media seals stale.
  void ReseedSidecar();
  bool IsQuarantinedRangeSlow(const void* addr, uint64_t len) const;

  char* base_ = nullptr;
  uint64_t capacity_ = 0;
  int fd_ = -1;
  PoolMode mode_ = PoolMode::kPmem;
  LatencyModel latency_;
  bool recovered_from_crash_ = false;
  /// Soft-watermark percent of capacity; 0 = disabled (seed behavior).
  std::atomic<uint32_t> soft_watermark_pct_{0};

  // Crash simulation shadow: bytes flushed so far (i.e. durable content).
  // shadow_mu_ serializes shadow writes from concurrent flushers; the
  // source bytes are read with 8-byte atomic loads so a flush racing a
  // commit apply on a neighbouring record in the same line is benign.
  std::unique_ptr<char[]> shadow_;
  mutable std::mutex shadow_mu_;
  std::atomic<bool> shadow_frozen_{false};

  std::unique_ptr<RedoLog> redo_log_;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::unique_ptr<PersistSanitizer> psan_;
  RecoveryReport recovery_report_;
  mutable std::mutex alloc_mu_;
  mutable PoolStats stats_;

  // Integrity layer (header v4 sidecar). data_begin_ is also the initial
  // bump pointer: header | redo | sidecar | data.
  bool checksums_ = false;
  Offset data_begin_ = 0;
  std::mutex seal_mu_;
  std::unordered_set<uint64_t> pending_seal_;
  mutable std::mutex quarantine_mu_;
  std::unordered_set<uint64_t> quarantined_set_;
  std::atomic<uint64_t> quarantine_count_{0};
  std::atomic<uint64_t> scrub_epoch_{0};
  // Serializes HandleCorruptLine pipelines. Recursive because a repair
  // handler may rebuild a structure whose rebuild scan first-touch-verifies
  // other chunks and finds further corruption on the same thread.
  std::recursive_mutex repair_mu_;
  CorruptionHandler corruption_handler_;
  mutable ScrubStats scrub_stats_;
};

/// Per-commit cache-line flush coalescing (Götze et al.: flush dedup at
/// cache-line granularity dominates PMem write-path cost). A FlushBatch
/// remembers which lines it already flushed; re-flushing a line within the
/// same batch still updates the crash shadow (the bytes are durable) but
/// pays no additional flush_line_ns and is counted in
/// PoolStats::deduped_lines.
class FlushBatch {
 public:
  explicit FlushBatch(Pool* pool) : pool_(pool) { lines_.reserve(16); }

  void Flush(const void* addr, uint64_t len);

  /// Forgets the seen-line set (start of a new coalescing scope).
  void Clear() { lines_.clear(); }

  Pool* pool() const { return pool_; }

 private:
  bool Seen(uint64_t line);

  Pool* pool_;
  std::vector<uint64_t> lines_;  // line numbers already flushed this batch
};

/// Failure-atomic multi-word update via redo logging (the mechanism behind
/// the paper's PMDK-based atomic commit, §5.1). Usage:
///
///   RedoTx tx(pool->redo_log());
///   tx.Stage(offset_a, &a, sizeof(a));
///   tx.Stage(offset_b, &b, sizeof(b));
///   tx.Commit(commit_ts);   // all-or-nothing after a crash
///
/// Commit persists the staged entries, atomically sets a commit marker,
/// applies the entries to their home locations, persists them, and clears
/// the marker. Open() replays marked segments (crash after marker) in
/// commit-timestamp order and discards unmarked ones (crash before marker).
///
/// Segment layout (each of area_size/num_segments bytes):
///   [0]  u64 state       (0 = idle, 1 = committed)
///   [8]  u64 commit_ts   (replay order key)
///   [16] u64 num_entries
///   [24] u64 crc         (CRC32C of bytes [8,24) + the entry bytes)
///   [32] entries: { u64 target, u64 len, len bytes (padded to 8) } ...
///
/// The checksum makes a committed marker self-validating: recovery replays
/// a marked segment only when its entry bytes hash to the stored CRC, so a
/// torn entry flush or media bit flip is detected and the segment discarded
/// instead of replaying garbage.
class RedoLog {
 public:
  RedoLog(Pool* pool, Offset area, uint64_t area_size, uint32_t num_segments);

  /// Applies committed-but-unapplied segments in commit-timestamp order,
  /// discarding any segment that fails checksum or bounds validation.
  /// Called by Pool::Open. Returns true if any replay happened; fills
  /// `report` (may be null) with per-segment accounting.
  bool Recover(RecoveryReport* report = nullptr);

  Offset area() const { return area_; }
  uint64_t area_size() const { return area_size_; }
  uint32_t num_segments() const { return num_segments_; }
  uint64_t segment_size() const { return segment_size_; }
  Offset segment_offset(uint32_t i) const {
    return area_ + static_cast<uint64_t>(i) * segment_size_;
  }

 private:
  friend class RedoTx;

  /// Blocks until a segment is free; prefers `hint` (a per-thread slot) so
  /// steady-state committers keep reusing "their" segment.
  uint32_t AcquireSegment(uint32_t hint);
  void ReleaseSegment(uint32_t idx);

  Pool* pool_;
  Offset area_;
  uint64_t area_size_;
  uint32_t num_segments_;
  uint64_t segment_size_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t busy_ = 0;  // bitmask, one bit per segment
};

class RedoTx {
 public:
  /// Drain hook for the commit phases: group commit passes a leader/follower
  /// batched drain; empty = Pool::Drain.
  using DrainFn = std::function<void()>;

  /// Acquires a free redo-log segment (per-thread preferred slot). With one
  /// segment this degenerates to the serialized pool-wide log.
  explicit RedoTx(RedoLog* log);

  /// Releases the segment. A destructed-but-uncommitted tx has no effect.
  ~RedoTx();

  RedoTx(const RedoTx&) = delete;
  RedoTx& operator=(const RedoTx&) = delete;

  /// Stages `len` bytes to be written to pool offset `target` at commit.
  /// Appends straight into the owned segment (no DRAM copy).
  void Stage(Offset target, const void* data, uint64_t len);

  /// Convenience for single values.
  template <typename T>
  void StageValue(Offset target, const T& value) {
    Stage(target, &value, sizeof(T));
  }

  /// Atomically applies all staged writes. Fails (without applying) if the
  /// staged data exceeds the segment. `commit_ts` orders crash replay across
  /// segments; `drain` replaces Pool::Drain in every commit phase.
  Status Commit(uint64_t commit_ts = 0, const DrainFn& drain = {});

  uint32_t segment() const { return segment_; }

 private:
  RedoLog* log_;
  uint32_t segment_ = 0;
  char* seg_ = nullptr;       // segment base pointer
  uint64_t pos_ = kRedoSegmentHeaderBytes;  // append cursor
  uint64_t num_entries_ = 0;
  bool overflow_ = false;
  bool committed_ = false;
};

}  // namespace poseidon::pmem

#endif  // POSEIDON_PMEM_POOL_H_
