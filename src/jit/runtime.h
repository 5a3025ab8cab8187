// AOT runtime for JIT-compiled queries (paper §6.2).
//
// The code generator inlines the hot data-path — chunk-table loops, MVTO
// fast-path visibility checks, record field loads by fixed byte offset,
// adjacency traversal, predicate evaluation — directly into LLVM IR. For
// everything that is already well-optimized AOT code or inherently
// state-heavy, the generated code calls the extern "C" helpers declared
// here: version-chain fallbacks, property-chain lookups, pipeline breakers
// (order-by/limit/count), hash-join probes, transactional create/set
// operators, and result emission. This mirrors the paper's requirement (4):
// full compatibility with the AOT execution engine.
//
// Calling convention: the generated function has signature
//   i32 query(i8* state, i64 begin, i64 end)
// and returns 0 (ok), 1 (stop requested, e.g. limit reached) or -1 (error;
// the Status is in JitRuntimeState::error). Record handles are caller-
// allocated stack slots (filled by poseidon_node_ref / poseidon_rel_ref),
// satisfying the paper's IR requirements (1) minimal stack allocation and
// (2) initialization at the function entry point.

#ifndef POSEIDON_JIT_RUNTIME_H_
#define POSEIDON_JIT_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "query/interpreter.h"

namespace poseidon::jit {

/// POD header at the start of JitRuntimeState, read directly by generated
/// code (field offsets are hard-coded in jit/codegen.cc): chunk-table
/// geometry for inline record addressing, the transaction timestamp for the
/// inline MVTO fast-path visibility check, and the PMem latency flag.
struct JitStateHeader {
  char* const* node_chunks = nullptr;
  char* const* rel_chunks = nullptr;
  char* const* prop_chunks = nullptr;
  uint64_t node_num_chunks = 0;
  uint64_t rel_num_chunks = 0;
  uint64_t prop_num_chunks = 0;
  uint64_t ts = 0;             ///< transaction timestamp (id)
  uint64_t read_latency = 0;   ///< nonzero: generated code calls poseidon_touch
  /// Nonzero when the transaction's CancelToken carries a deadline or may be
  /// cancelled (always set today — the token always exists). Generated loops
  /// poll poseidon_should_yield at batch granularity when this is nonzero.
  uint64_t cancellable = 0;
  /// Nonzero for shared-snapshot readers under rts coalescing: the inline
  /// fast path skips the rts UMax (Transaction::GetRecord's rule) and keeps
  /// only the seqlock re-check that validates its loads.
  uint64_t snapshot_reader = 0;
  /// Per-worker counters of the rts bumps generated code skipped (one per
  /// worker, kCounterStride apart); the engine credits their sum to the
  /// transaction afterwards.
  uint64_t* rts_deferred = nullptr;
};

/// Stride, in uint64_t, between per-worker counters (one cache line).
inline constexpr uint64_t kCounterStride = 8;

/// A resolved record reference living in a stack slot of generated code.
/// `rec` points either at the PMem record (fast path) or at `copy` (version
/// from the DRAM chain / write set). Property snapshots for non-fast-path
/// versions are kept per-slot in JitRuntimeState.
struct JitHandle {
  const void* rec = nullptr;
  storage::RecordId id = storage::kNullId;
  storage::RecordId props = storage::kNullId;  ///< property chain head
  uint32_t thread = 0;        ///< owning worker (snapshot storage index)
  uint32_t slot = 0;          ///< index into JitRuntimeState::snapshots
  uint32_t has_snapshot = 0;  ///< properties come from the snapshot vector
  alignas(8) char copy[sizeof(storage::RelationshipRecord)];
};

/// Per-execution shared state. One instance serves every morsel of a query
/// run (the same breaker states the interpreter morsels feed — the adaptive
/// engine relies on this).
struct JitRuntimeState {
  JitStateHeader header;  ///< MUST stay the first member (read from IR)

  query::ExecContext ctx;
  query::ResultCollector* collector = nullptr;
  query::PipelineExecutor* executor = nullptr;  ///< tail/breaker delegate
  const query::Plan* plan = nullptr;
  std::vector<const query::Op*> ops;  ///< source..sink (interpreter order)

  /// Property snapshots per handle slot, per thread. Indexed
  /// [thread][slot]; sized by Prepare().
  struct ThreadSlots {
    std::vector<std::vector<storage::Property>> snapshots;
    std::vector<storage::RecordId> index_matches;  ///< index-scan buffer
    /// Adjacency arrays pinned by poseidon_expand_cached, indexed by handle
    /// slot: the shared_ptr keeps the DRAM array alive while generated code
    /// streams it, even if the cache evicts or invalidates the entry.
    std::vector<std::shared_ptr<const tx::AdjacencyList>> adj_holds;
    /// Borrowed pointer to the executor's materialized match list (set by
    /// poseidon_index_matches when available). Sharing it keeps compiled
    /// and interpreted morsels in agreement on match ordering and count
    /// (PipelineExecutor::SourceCardinality drives the morsel split).
    const std::vector<storage::RecordId>* shared_matches = nullptr;
  };
  std::vector<std::unique_ptr<ThreadSlots>> threads;
  /// Backing store of header.rts_deferred.
  std::vector<uint64_t> rts_deferred_counts;

  /// rts bumps skipped by generated code, over all workers.
  uint64_t RtsDeferred() const {
    uint64_t n = 0;
    for (uint64_t c : rts_deferred_counts) n += c;
    return n;
  }

  Status error;  ///< first helper error (guarded by error_mu)
  std::mutex error_mu;

  void SetError(const Status& s) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (error.ok()) error = s;
  }
};

/// Handle slots a compiled query may use (per-thread snapshot storage).
inline constexpr uint32_t kMaxHandleSlots = 64;

/// Builds the shared runtime state for one execution of `plan` through
/// `exec` (prepared), with per-runner storage for `num_runners` morsel
/// runners (slot 0 = the calling thread; see util/morsel_dispatch.h).
std::unique_ptr<JitRuntimeState> MakeRuntimeState(
    const query::Plan& plan, query::ExecContext ctx,
    query::ResultCollector* collector, query::PipelineExecutor* exec,
    size_t num_runners);

}  // namespace poseidon::jit

extern "C" {

/// Resolves node `id` to the version visible to the transaction.
/// Returns 1 (visible; slot filled), 0 (skip: free slot / invisible), or
/// -1 (error/abort; see state->error). `thread` and `slot` address the
/// snapshot storage.
int32_t poseidon_node_ref(void* state, uint64_t id, void* slot_ptr,
                          uint32_t thread, uint32_t slot);

/// Like poseidon_node_ref for relationships, but on return the slot's `rec`
/// is ALWAYS usable for reading the chain pointers (next_src/next_dst) so
/// traversals can continue past invisible relationships.
int32_t poseidon_rel_ref(void* state, uint64_t id, void* slot_ptr,
                         uint32_t thread, uint32_t slot);

/// Property lookup against a resolved handle. Returns the PType tag and
/// stores the raw payload in *out (0 tag = null/absent).
uint32_t poseidon_get_prop(void* state, void* slot_ptr, uint32_t key,
                           uint64_t* out);

/// Loads query parameter `idx`; returns the Value kind tag.
uint32_t poseidon_param(void* state, uint32_t idx, uint64_t* out);

/// Generic comparison of two (kind, raw) values under CmpOp `cmp`
/// (handles int/double coercion like the interpreter). Returns 0/1.
int32_t poseidon_compare(uint32_t cmp, uint32_t kind_a, uint64_t raw_a,
                         uint32_t kind_b, uint64_t raw_b);

/// Materializes the matches of the index-scan source operator `op_idx`
/// into the thread's buffer; returns the match count.
uint64_t poseidon_index_matches(void* state, uint32_t op_idx,
                                uint32_t thread);

/// i-th buffered index match of this thread.
uint64_t poseidon_index_match_at(void* state, uint32_t thread, uint64_t i);

/// Injects the emulated PMem read latency for [ptr, ptr+len). Generated
/// code calls this only when JitStateHeader::read_latency is nonzero.
void poseidon_touch(void* state, const void* ptr, uint64_t len);

/// Starts the emulated-PMem asynchronous fill for [ptr, ptr+len) without
/// blocking (the hardware prefetch instruction is emitted inline by the
/// generated code). A later poseidon_touch of the same block pays only the
/// residual latency. Called only when JitStateHeader::read_latency is
/// nonzero.
void poseidon_prefetch(void* state, const void* ptr, uint64_t len);

/// Probes (or lazily builds) the versioned DRAM adjacency cache for
/// (node_id, direction). On success returns the base of a CachedNeighbor
/// array (24-byte stride; see tx/adjacency_cache.h) and stores the entry
/// count in *count_out; the array stays pinned in the thread's `slot` until
/// the next probe reuses that slot. Returns null when the cache cannot
/// serve this transaction (disabled, writer tx, old snapshot, in-flight
/// versions) — generated code then falls back to the inline chain walk.
const void* poseidon_expand_cached(void* state, uint64_t node_id,
                                   uint32_t dir_out, uint32_t thread,
                                   uint32_t slot, uint64_t* count_out);

/// Cooperative-cancellation poll for generated loops (overload governance):
/// checks the transaction's CancelToken. Returns 0 (keep going) or nonzero
/// (stop: kCancelled / kDeadlineExceeded recorded in state->error, the
/// generated code branches to its error exit).
int32_t poseidon_should_yield(void* state);

/// Emits a finished tuple. `tail_idx` < 0 sends it to the collector;
/// otherwise the tuple enters the interpreter pipeline at operator
/// `tail_idx` (pipeline breakers, joins, create/set operators — the AOT
/// tail). Returns 0 (ok), 1 (stop producing) or -1 (error).
int32_t poseidon_emit(void* state, int32_t tail_idx, uint32_t n,
                      const uint64_t* vals, const uint8_t* kinds);

}  // extern "C"

#endif  // POSEIDON_JIT_RUNTIME_H_
