// MVTO transactions over the persistent graph store (paper §5).
//
// Protocol summary (timestamp ordering, snapshot-isolation guarantees):
//   * Every transaction gets a unique timestamp `id` at Begin; it doubles as
//     the commit timestamp (classic MVTO).
//   * Writers lock an object by CAS-ing its persistent txn-id field from 0
//     to `id` (C4: an 8-byte atomic) and abort on conflict — if the object
//     is locked, already read by a newer transaction (rts > id), or
//     overwritten by a newer version (bts > id).
//   * All uncommitted changes (new versions) live in a DRAM write set
//     (DG1/DG2); inserted records are placed in PMem immediately but stay
//     locked and carry bts == 0, making them invisible to everyone else.
//   * Readers pick the version with bts <= id < ets: the PMem record is the
//     latest committed version; older ones come from the DRAM version
//     chains. Readers abort when they hit a foreign lock (paper §5.1) and
//     bump rts with an unflushed CAS-max.
//   * Commit persists all new versions with ONE failure-atomic redo-log
//     transaction (the paper uses PMDK transactions here); each record's
//     txn-id reset is staged last so the object stays locked until its new
//     image is fully durable.
//   * Aborts drop the write set, unlock in place, and free inserted slots.
//   * Transaction-level GC prunes version chains and reclaims PMem property
//     chains / deleted slots once invisible to every active transaction.
//
// Read-path scalability (see DESIGN.md "Read-path scalability"):
//   * Active transactions register in fixed arrays of cache-line-padded
//     atomic slots (TxSlots) instead of a mutex-guarded set; the GC
//     watermark is computed by a lock-free scan in the common case (a
//     mutex-guarded multiset absorbs overflow beyond kTxSlots).
//   * Read-only transactions (BeginReadOnly) share a periodically-published
//     snapshot timestamp S chosen so that no active or future writer has
//     id <= S: they skip the next_ts_ bump, every per-record rts CAS, and
//     the post-bump revalidation (POSEIDON_SNAPSHOT_EPOCH_US, 0 = seed
//     behavior: a fresh timestamp per read transaction).
//   * Read-write readers coalesce rts bumps: when the seqlock-validated
//     copy already shows rts >= id, the CAS and revalidation are skipped
//     (POSEIDON_RTS_COALESCE=0 restores the eager seed path).

#ifndef POSEIDON_TX_TRANSACTION_H_
#define POSEIDON_TX_TRANSACTION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "index/index_manager.h"
#include "storage/graph_store.h"
#include "tx/adjacency_cache.h"
#include "tx/version_store.h"
#include "util/backoff.h"
#include "util/cancel.h"

namespace poseidon::tx {

class TransactionManager;

/// Why a transaction aborted (overload-governance taxonomy; DESIGN.md
/// "Overload governance"). Sheds are a manager-level event — no transaction
/// ever existed — and are counted separately (TxStats::writers_shed).
enum class AbortCause {
  kConflict = 0,  ///< MVTO conflict / lock / validation (seed behavior)
  kDeadline,      ///< cooperative deadline expired (kDeadlineExceeded)
  kCancelled,     ///< explicit cancel via CancelToken (kCancelled)
  kSpace,         ///< pool allocation failed in-tx (kResourceExhausted)
};

/// Result of resolving a record to the version visible to a transaction.
/// When `from_snapshot` is set the properties come from a DRAM snapshot
/// (write set or version chain) held in `snapshot`; otherwise read the PMem
/// chain at rec.props.
template <typename R>
struct Resolved {
  R rec;
  bool from_snapshot = false;
  std::vector<storage::Property> snapshot;
};

class Transaction {
 public:
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  storage::Timestamp id() const { return id_; }
  bool finished() const { return finished_; }
  /// Read-only transactions reject every write with kFailedPrecondition.
  bool read_only() const { return read_only_; }
  /// True when this transaction reads at the shared published snapshot
  /// timestamp instead of a freshly allocated one (BeginReadOnly).
  bool snapshot() const { return snapshot_; }
  /// rts CAS-maxes this transaction skipped / elided so far (exact per-tx
  /// attribution for EXPLAIN and ExecStats; totals land in
  /// TransactionManager::Stats() when the transaction finishes).
  uint64_t rts_skipped() const {
    return rts_skipped_.load(std::memory_order_relaxed);
  }
  uint64_t rts_deferred() const {
    return rts_deferred_.load(std::memory_order_relaxed);
  }

  /// Cooperative cancellation: executors poll this token at batch
  /// granularity (scan word / morsel / expand hop); GraphDb::Cancel and the
  /// POSEIDON_QUERY_DEADLINE_MS knob fire it. Never null.
  util::CancelToken* cancel_token() { return &cancel_; }
  const util::CancelToken* cancel_token() const { return &cancel_; }

  /// The cause recorded for an (upcoming or past) abort; defaults to
  /// kConflict, the only cause the seed engine had.
  AbortCause abort_cause() const { return abort_cause_; }
  /// Classifies `s` into the abort taxonomy and records it, so the
  /// follow-up Abort() / failed Commit() is attributed correctly in
  /// TxStats. Statuses outside the taxonomy count as conflicts.
  void RecordAbortCause(const Status& s) { abort_cause_ = CauseFromStatus(s); }
  static AbortCause CauseFromStatus(const Status& s);

  // --- Reads ----------------------------------------------------------

  /// Returns the node version visible to this transaction.
  /// kAborted if the record is locked by another active transaction.
  Result<Resolved<storage::NodeRecord>> GetNode(storage::RecordId id);
  Result<Resolved<storage::RelationshipRecord>> GetRelationship(
      storage::RecordId id);

  /// Property access against the visible version. Null PVal if absent.
  Result<storage::PVal> GetNodeProperty(storage::RecordId id,
                                        storage::DictCode key);
  Result<storage::PVal> GetRelationshipProperty(storage::RecordId id,
                                                storage::DictCode key);
  Result<std::vector<storage::Property>> GetNodeProperties(
      storage::RecordId id);
  Result<std::vector<storage::Property>> GetRelationshipProperties(
      storage::RecordId id);

  /// Visibility-filtered adjacency traversal (ForeachRelationship, §6.1).
  /// `fn` returns false to stop early. Aborts propagate as kAborted.
  Status ForEachOutgoing(
      storage::RecordId node,
      const std::function<bool(storage::RecordId,
                               const storage::RelationshipRecord&)>& fn);
  Status ForEachIncoming(
      storage::RecordId node,
      const std::function<bool(storage::RecordId,
                               const storage::RelationshipRecord&)>& fn);

  /// Topology-only adjacency traversal: `fn(rel_id, rel_label, neighbor)`
  /// where neighbor is rel.dst for kOut and rel.src for kIn. Serves the
  /// versioned DRAM adjacency cache when this transaction's snapshot covers
  /// the cached stamp (see adjacency_cache.h); otherwise falls back to the
  /// chain walk with identical visibility. `fn` returns false to stop early.
  Status ForEachNeighbor(
      storage::RecordId node, AdjDir dir,
      const std::function<bool(storage::RecordId, storage::DictCode,
                               storage::RecordId)>& fn);

  /// Probe-or-build entry into the adjacency cache. Returns the neighbor
  /// array this transaction may legally serve for (node, dir), or null when
  /// it must chain-walk instead: cache disabled, node in this tx's write
  /// set, node/rel reads that need snapshot versions, or visibility errors
  /// (the fallback walk re-raises those). Used directly by the JIT runtime
  /// helper and analytics::Snapshot.
  std::shared_ptr<const AdjacencyList> GetCachedAdjacency(
      storage::RecordId node, AdjDir dir);

  // --- Writes ---------------------------------------------------------

  /// Inserts a node; visible to others only after Commit.
  Result<storage::RecordId> CreateNode(
      storage::DictCode label, const std::vector<storage::Property>& props);

  /// Inserts a directed relationship and links it into both adjacency
  /// lists; write-locks src and dst.
  Result<storage::RecordId> CreateRelationship(
      storage::RecordId src, storage::RecordId dst, storage::DictCode label,
      const std::vector<storage::Property>& props);

  /// Sets (or overwrites) one property; write-locks the record.
  Status SetNodeProperty(storage::RecordId id, storage::DictCode key,
                         storage::PVal value);
  Status SetRelationshipProperty(storage::RecordId id, storage::DictCode key,
                                 storage::PVal value);

  /// Deletes a node; fails (kFailedPrecondition) while relationships are
  /// still attached.
  Status DeleteNode(storage::RecordId id);

  /// Deletes a relationship, unlinking it from both adjacency lists (this
  /// write-locks the endpoints and any predecessor relationships).
  Status DeleteRelationship(storage::RecordId id);

  // --- Outcome -----------------------------------------------------------

  /// Atomically persists the write set; on success the transaction is over.
  /// On failure the transaction has been aborted. Read-only transactions
  /// finish without touching the redo log or the timestamp high-water mark.
  Status Commit();

  /// Discards the write set, unlocking in place.
  void Abort();

  /// Number of objects in the write set (tests/stats).
  size_t write_set_size() const {
    return node_writes_.size() + rel_writes_.size();
  }

  TransactionManager* manager() const { return mgr_; }

 private:
  friend class TransactionManager;

  template <typename R>
  struct Write {
    R rec;  ///< working image (adjacency/props head updated in place)
    std::vector<storage::Property> props;
    bool inserted = false;
    bool deleted = false;
    bool props_changed = false;
    R before;  ///< committed PMem image at lock time (updates only)
    std::vector<storage::Property> props_before;
  };
  using NodeWrite = Write<storage::NodeRecord>;
  using RelWrite = Write<storage::RelationshipRecord>;

  Transaction(TransactionManager* mgr, storage::Timestamp ts);

  /// Seqlock-style stable read of the PMem record: retries while a
  /// concurrent commit is applying; kAborted on a foreign lock.
  template <typename Table, typename R>
  Status ReadStable(const Table& table, storage::RecordId id, R* out);

  /// Write-locks a record and materializes its write-set entry.
  Result<NodeWrite*> LockNode(storage::RecordId id);
  Result<RelWrite*> LockRel(storage::RecordId id);

  template <typename R, typename Table, typename Chains, typename WriteMap>
  Result<Resolved<R>> GetRecord(const Table& table, const Chains& chains,
                                const WriteMap& writes, storage::RecordId id,
                                bool is_node);

  /// CAS-max on the persistent rts field (unflushed; re-initializable).
  template <typename R>
  bool BumpRts(R* rec);

  /// Shared direction-parameterized chain walker behind ForEachOutgoing /
  /// ForEachIncoming / the cache-miss fallback.
  Status ForEachRelChain(
      storage::RecordId node, AdjDir dir,
      const std::function<bool(storage::RecordId,
                               const storage::RelationshipRecord&)>& fn);

  Status CommitImpl();
  void ReleaseLocks();

  TransactionManager* mgr_;
  storage::GraphStore* store_;
  storage::Timestamp id_;
  bool finished_ = false;
  bool read_only_ = false;
  bool snapshot_ = false;
  /// Index into the manager's writer (or reader, when snapshot_) slot
  /// array; -1 = registered in the overflow multiset instead.
  int slot_ = -1;
  /// Per-transaction rts-coalescing tallies. Atomic because morsel-parallel
  /// execution shares one transaction across pool workers; relaxed, and
  /// per-transaction, so unrelated transactions never touch each other's
  /// line — flushing into the manager-wide counters only at Finish keeps
  /// the cross-transaction traffic that coalescing removes out of the read
  /// path.
  std::atomic<uint64_t> rts_skipped_{0};
  std::atomic<uint64_t> rts_deferred_{0};
  util::CancelToken cancel_;
  AbortCause abort_cause_ = AbortCause::kConflict;

  // std::map keeps commit staging deterministic (useful for tests).
  std::map<storage::RecordId, NodeWrite> node_writes_;
  std::map<storage::RecordId, RelWrite> rel_writes_;
};

/// Deferred PMem reclamation (paper §5.3): slots and property chains of
/// superseded/deleted versions are recycled once min-active passes them.
struct GcItem {
  enum class Kind { kPropChain, kNodeSlot, kRelSlot };
  Kind kind;
  storage::Timestamp reclaim_after;
  storage::RecordId id;  ///< chain head (kPropChain) or record slot
};

/// Manager-wide counters, all maintained with relaxed atomics and read as a
/// consistent-enough snapshot for EXPLAIN / bench attribution (before/after
/// deltas around a single query; racy under concurrent queries by design).
struct TxStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  /// Read-path retries: seqlock re-reads + visibility re-checks that had to
  /// back off because a concurrent commit raced the copy.
  uint64_t read_retries = 0;
  /// Reads that exhausted their backoff budget and aborted
  /// (POSEIDON_TX_RETRY_ATTEMPTS, POSEIDON_BACKOFF_*).
  uint64_t retry_exhausted = 0;
  /// Physical drains issued by group-commit leaders (<= commits when
  /// batching is effective).
  uint64_t group_drains = 0;
  /// rts CAS-maxes skipped because the validated copy already carried
  /// rts >= reader id (rts-bump coalescing).
  uint64_t rts_skipped = 0;
  /// rts bumps elided entirely by shared-snapshot readers (no writer can
  /// ever probe below the published snapshot timestamp).
  uint64_t rts_deferred = 0;
  /// Snapshot timestamps published (epoch refreshes that advanced it).
  uint64_t snapshot_refreshes = 0;
  /// Read-only transactions served from the shared snapshot.
  uint64_t snapshot_reads = 0;
  /// Read-only transactions that found the snapshot lagging more than
  /// POSEIDON_SNAPSHOT_MAX_LAG ids behind next_ts_ (a stalled writer
  /// pinning the frontier) and degraded to the seed fresh-ts protocol.
  uint64_t snapshot_fallbacks = 0;
  // --- Overload governance (abort-cause taxonomy) ------------------------
  /// Breakdown of `aborts` by cause: MVTO conflicts (plus anything not
  /// otherwise classified), cooperative deadline expiries, explicit
  /// cancellations, and in-tx pool-space exhaustion unwinds.
  uint64_t aborts_conflict = 0;
  uint64_t aborts_deadline = 0;
  uint64_t aborts_cancelled = 0;
  uint64_t aborts_space = 0;
  /// Writers rejected by the admission gate (POSEIDON_MAX_WRITERS): no
  /// transaction ever existed, so these are NOT included in `aborts`.
  uint64_t writers_shed = 0;
  /// Writers denied because the pool was above its soft space watermark
  /// even after emergency reclamation (POSEIDON_POOL_SOFT_WATERMARK_PCT).
  uint64_t space_denied = 0;
};

class TransactionManager {
 public:
  /// `indexes` may be null (no secondary-index maintenance).
  ///
  /// When the pool runs the parallel commit pipeline, the manager also
  /// activates (a) group commit — concurrent committers elect a leader that
  /// issues one drain for the whole batch (bounded by
  /// POSEIDON_GROUP_COMMIT_WINDOW_US; disable with POSEIDON_GROUP_COMMIT=0)
  /// — and (b) a background epoch thread that runs RunGc() off the commit
  /// path (disable with POSEIDON_BG_GC=0).
  TransactionManager(storage::GraphStore* store,
                     index::IndexManager* indexes);

  /// Stops the background GC thread.
  ~TransactionManager();

  /// Releases in-flight locks left by a crash: uncommitted inserts
  /// (txn-id != 0, bts == 0) are dropped; locked committed records are
  /// unlocked in place. Call once after GraphStore::Open on a crashed pool.
  Status RecoverInFlight();

  std::unique_ptr<Transaction> Begin();

  /// Admission-gated Begin for user-facing writers (overload governance):
  ///   * at most max_writers() read-write transactions in flight (0 =
  ///     unlimited, the default); excess callers wait with a bounded
  ///     util::Backoff (POSEIDON_ADMISSION_ATTEMPTS), then are shed with
  ///     kResourceExhausted instead of piling onto MVTO aborts;
  ///   * a pool above its soft space watermark triggers emergency
  ///     reclamation (RunGc + adjacency-cache drop) and, if still above,
  ///     denies the writer with kResourceExhausted.
  /// The gate is advisory-approximate (counter check and slot claim are not
  /// one atomic step); internal begins — BeginReadOnly's fallback path,
  /// recovery — stay ungated through Begin().
  Result<std::unique_ptr<Transaction>> BeginWrite();

  /// Starts a read-only transaction. With snapshot reuse enabled
  /// (POSEIDON_SNAPSHOT_EPOCH_US > 0, the default) the transaction reads at
  /// the shared published snapshot timestamp: no next_ts_ bump, no rts
  /// CAS-maxes, no post-bump revalidation — the read path mutates no shared
  /// state at all. With the knob at 0 this is Begin() plus the write guard
  /// (the exact seed read protocol).
  std::unique_ptr<Transaction> BeginReadOnly();

  /// Smallest timestamp of any active transaction (the published snapshot
  /// included while snapshot reuse is enabled), or the next timestamp if
  /// none are active. Lock-free unless transactions overflowed the slot
  /// arrays (> kTxSlots concurrently active).
  storage::Timestamp MinActiveTs() const;

  /// Transaction-level GC: prunes version chains and reclaims deferred
  /// PMem space. Invoked automatically as transactions finish.
  void RunGc();

  storage::GraphStore* store() const { return store_; }
  index::IndexManager* indexes() const { return indexes_; }
  VersionChains<storage::NodeRecord>& node_versions() {
    return node_versions_;
  }
  VersionChains<storage::RelationshipRecord>& rel_versions() {
    return rel_versions_;
  }
  AdjacencyCache& adjacency_cache() { return adj_cache_; }

  uint64_t commits() const {
    return commits_.load(std::memory_order_relaxed);
  }
  uint64_t aborts() const { return aborts_.load(std::memory_order_relaxed); }
  /// Full counter snapshot (read retries, group drains, rts coalescing,
  /// snapshot traffic); replaces the per-counter getters.
  TxStats Stats() const;

  bool group_commit_enabled() const { return group_commit_enabled_; }
  bool background_gc_enabled() const { return bg_gc_; }

  /// Snapshot-epoch length in microseconds; 0 disables snapshot reuse
  /// (BeginReadOnly falls back to the seed fresh-timestamp protocol).
  /// Runtime setter for ablation; switch only while no read-only
  /// transaction is being started.
  int64_t snapshot_epoch_us() const {
    return snapshot_epoch_us_.load(std::memory_order_relaxed);
  }
  void set_snapshot_epoch_us(int64_t us) {
    snapshot_epoch_us_.store(us, std::memory_order_relaxed);
  }

  /// Bounded snapshot staleness (POSEIDON_SNAPSHOT_MAX_LAG, ids): when the
  /// published snapshot trails next_ts_ by more than this many drawn ids —
  /// a stalled or preempted writer is pinning the stable frontier —
  /// BeginReadOnly degrades that transaction to the seed fresh-timestamp
  /// protocol instead of handing out a snapshot whose every read of a
  /// recently-updated record falls off the PMem fast path into a version-
  /// chain walk. 0 = unbounded (always use the snapshot).
  uint64_t snapshot_max_lag() const {
    return snapshot_max_lag_.load(std::memory_order_relaxed);
  }
  void set_snapshot_max_lag(uint64_t ids) {
    snapshot_max_lag_.store(ids, std::memory_order_relaxed);
  }

  /// rts-bump coalescing; off restores the eager seed bump on every read.
  bool rts_coalesce() const {
    return rts_coalesce_.load(std::memory_order_relaxed);
  }
  void set_rts_coalesce(bool on) {
    rts_coalesce_.store(on, std::memory_order_relaxed);
  }

  /// Currently published snapshot timestamp (0 = none published yet).
  storage::Timestamp snapshot_ts() const {
    return snapshot_ts_.load(std::memory_order_acquire);
  }

  // --- Overload governance ----------------------------------------------

  /// Max in-flight writers admitted by BeginWrite (POSEIDON_MAX_WRITERS;
  /// 0 = unlimited). Runtime setter for benches/tests.
  int64_t max_writers() const {
    return max_writers_.load(std::memory_order_relaxed);
  }
  void set_max_writers(int64_t n) {
    max_writers_.store(n, std::memory_order_relaxed);
  }

  /// Default per-transaction deadline in ms (POSEIDON_QUERY_DEADLINE_MS;
  /// 0 = none). Armed on every transaction's CancelToken at Begin.
  int64_t default_deadline_ms() const {
    return default_deadline_ms_.load(std::memory_order_relaxed);
  }
  void set_default_deadline_ms(int64_t ms) {
    default_deadline_ms_.store(ms, std::memory_order_relaxed);
  }

  /// Read-write transactions currently in flight (admission-gate input).
  int64_t active_writers() const {
    return active_writers_.load(std::memory_order_acquire);
  }

  // --- Media-fault repair ------------------------------------------------

  /// Produces a replacement image for a corrupt record slot from the newest
  /// retained version in the DRAM version chain: the record rolls back to
  /// its most recent superseded committed state (tx fields normalized to
  /// "latest, unlocked", property chain rewritten from the DRAM snapshot
  /// because the old PMem chain may already be recycled). Returns false
  /// when no version is retained — the slot's content is then lost.
  bool ResurrectNode(storage::RecordId id, storage::NodeRecord* out);
  bool ResurrectRel(storage::RecordId id, storage::RelationshipRecord* out);

 private:
  friend class Transaction;

  /// Fixed-size active-transaction registry: one cache-line-padded atomic
  /// timestamp per slot (0 = free) claimed by CAS from a thread-hashed
  /// start index, with a mutex-guarded multiset absorbing overflow. Two
  /// instances: writers (read-write transactions) and readers (shared-
  /// snapshot pins) — kept separate so the snapshot computation can scan
  /// writers only (a snapshot that included reader pins could never
  /// advance past its own consumers).
  struct TxSlots {
    static constexpr size_t kTxSlots = 64;
    struct alignas(64) Slot {
      std::atomic<storage::Timestamp> ts{0};
    };
    Slot slots[kTxSlots];
    mutable std::mutex overflow_mu;
    std::multiset<storage::Timestamp> overflow;

    /// Claims a free slot and stores `initial` into it (seq_cst, so a
    /// subsequent watermark scan either sees it or runs entirely before
    /// the claim). Returns -1 when every slot is taken.
    int Claim(storage::Timestamp initial) {
      size_t start =
          std::hash<std::thread::id>{}(std::this_thread::get_id()) % kTxSlots;
      for (size_t i = 0; i < kTxSlots; ++i) {
        size_t idx = (start + i) % kTxSlots;
        storage::Timestamp expected = 0;
        if (slots[idx].ts.compare_exchange_strong(
                expected, initial, std::memory_order_seq_cst)) {
          return static_cast<int>(idx);
        }
      }
      return -1;
    }

    void Store(int slot, storage::Timestamp ts) {
      slots[slot].ts.store(ts, std::memory_order_seq_cst);
    }

    void Release(int slot, storage::Timestamp ts) {
      if (slot >= 0) {
        slots[slot].ts.store(0, std::memory_order_release);
      } else {
        std::lock_guard<std::mutex> lock(overflow_mu);
        overflow.erase(overflow.find(ts));
      }
    }

    /// Minimum over `bound`, every claimed slot, and the overflow set. The
    /// caller must load next_ts_ (the bound) BEFORE calling: a transaction
    /// whose slot claim is missed by this scan performed its timestamp
    /// fetch_add after the claim, hence after the bound load in seq_cst
    /// order, so its id is >= bound and the result stays conservative.
    storage::Timestamp Min(storage::Timestamp bound) const {
      storage::Timestamp m = bound;
      for (const Slot& s : slots) {
        storage::Timestamp t = s.ts.load(std::memory_order_seq_cst);
        if (t != 0 && t < m) m = t;
      }
      std::lock_guard<std::mutex> lock(overflow_mu);
      if (!overflow.empty() && *overflow.begin() < m) m = *overflow.begin();
      return m;
    }
  };

  void Finish(Transaction* t, bool committed);
  void Defer(GcItem item);

  /// Publishes (or advances) the shared snapshot timestamp from a full
  /// writer-slot scan. `activate` forces the first publication; after that
  /// the snapshot is kept fresh without this scan by two cheaper paths:
  /// PublishStableIfQuiescent (O(1), every writer retirement) and the scan
  /// folded into RunGc's watermark computation. Staleness is therefore
  /// bounded by the oldest in-flight writer, not the epoch; the epoch knob
  /// is the on/off switch (0 restores the seed protocol exactly).
  void MaybeRefreshSnapshot(bool activate);

  /// O(1) commit-driven snapshot advance: when the retiring writer was the
  /// last one in flight, every timestamp below next_ts_ is stable and the
  /// snapshot can jump to next_ts_ - 1 without scanning the slot array.
  /// Sound because Begin() increments active_writers_ (seq_cst) BEFORE
  /// drawing its id: if the counter reads 0 after our next_ts_ load, no
  /// writer with a smaller id can still be live, and later writers draw
  /// ids >= the loaded bound.
  void PublishStableIfQuiescent();

  /// Leader/follower batched drain used for every commit-phase sfence: the
  /// first committer to arrive becomes leader, waits (bounded) for the other
  /// in-flight committers to reach their drain point, and issues a single
  /// Pool::Drain on behalf of the batch.
  void GroupDrain();

  /// RAII tag for the durable section of a commit; the group-commit leader
  /// only waits for committers that are actually inside it.
  struct CommitSection {
    explicit CommitSection(TransactionManager* m);
    ~CommitSection();
    TransactionManager* mgr;
  };

  storage::GraphStore* store_;
  index::IndexManager* indexes_;
  std::atomic<storage::Timestamp> next_ts_;

  TxSlots writer_slots_;
  TxSlots reader_slots_;

  // --- Shared-snapshot state (BeginReadOnly) ----------------------------
  // snapshot_ts_ stays 0 (and costs nothing) until the first BeginReadOnly
  // publishes it; it is monotonic and always <= the id of every active or
  // future writer. While nonzero and enabled it is part of the GC
  // watermark, closing the claim window between a reader loading it and
  // pinning it in its slot.
  std::atomic<storage::Timestamp> snapshot_ts_{0};
  std::atomic<int64_t> snapshot_epoch_us_;
  std::atomic<uint64_t> snapshot_max_lag_;
  std::atomic<bool> rts_coalesce_;
  std::mutex snapshot_mu_;  // serializes scan-based refreshes (activation)
  // Writers (and seed-mode fresh readers) in flight: incremented in Begin()
  // before the id draw, decremented at Finish. Lets the last writer out
  // publish the stable frontier in O(1) instead of scanning 64 slot lines
  // on every commit.
  std::atomic<int64_t> active_writers_{0};

  VersionChains<storage::NodeRecord> node_versions_;
  VersionChains<storage::RelationshipRecord> rel_versions_;
  AdjacencyCache adj_cache_{AdjacencyCacheOptions::FromEnv()};

  std::mutex gc_mu_;
  std::vector<GcItem> gc_queue_;
  /// Serializes whole RunGc executions (gc_mu_ only covers the queue
  /// partition); see the comment at the top of RunGc. Ordering: gc_run_mu_
  /// is taken before gc_mu_, never the reverse.
  std::mutex gc_run_mu_;

  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_{0};
  std::atomic<uint64_t> read_retries_{0};
  std::atomic<uint64_t> retry_exhausted_{0};
  std::atomic<uint64_t> rts_skipped_{0};
  std::atomic<uint64_t> rts_deferred_{0};
  std::atomic<uint64_t> snapshot_refreshes_{0};
  std::atomic<uint64_t> snapshot_reads_{0};
  std::atomic<uint64_t> snapshot_fallbacks_{0};
  std::atomic<uint64_t> aborts_conflict_{0};
  std::atomic<uint64_t> aborts_deadline_{0};
  std::atomic<uint64_t> aborts_cancelled_{0};
  std::atomic<uint64_t> aborts_space_{0};
  std::atomic<uint64_t> writers_shed_{0};
  std::atomic<uint64_t> space_denied_{0};
  // Admission knobs resolved once at construction (runtime setters above).
  std::atomic<int64_t> max_writers_{0};
  std::atomic<int64_t> default_deadline_ms_{0};
  util::Backoff::Options admission_backoff_;  // gate wait (64 attempts)
  // Gates the scan-based refresh retry during a degraded (lag-capped)
  // phase to every 32nd stale begin; not user-visible.
  std::atomic<uint64_t> fallback_probe_gate_{0};

  // Backoff parameters resolved once at construction (the env is not probed
  // on the read hot path). Both honour POSEIDON_TX_RETRY_ATTEMPTS; the
  // defaults keep the seed engine's per-site budgets.
  util::Backoff::Options read_backoff_;        // seqlock stabilization (1024)
  util::Backoff::Options visibility_backoff_;  // post-rts-bump re-check (64)

  // --- Group commit ------------------------------------------------------
  bool group_commit_enabled_ = false;
  uint64_t group_window_us_ = 50;
  std::mutex group_mu_;
  std::condition_variable arrive_cv_;  // wakes a waiting leader
  std::condition_variable done_cv_;    // wakes followers
  uint64_t group_gen_ = 1;       // id of the currently-forming batch
  uint64_t group_done_gen_ = 0;  // highest batch whose drain completed
  uint32_t group_members_ = 0;   // arrivals in the forming batch
  bool leader_active_ = false;
  std::atomic<uint32_t> committers_in_flight_{0};
  std::atomic<uint64_t> group_drains_{0};

  // --- Background version GC --------------------------------------------
  bool bg_gc_ = false;
  std::atomic<bool> gc_stop_{false};
  std::mutex gc_wake_mu_;
  std::condition_variable gc_wake_cv_;
  std::thread gc_thread_;
};

}  // namespace poseidon::tx

#endif  // POSEIDON_TX_TRANSACTION_H_
