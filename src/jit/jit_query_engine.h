// Execution façade unifying the AOT interpreter and the JIT compiler, with
// the paper's adaptive mode (§6.2 "Adaptive Execution"):
//
//   * kInterpret / kInterpretParallel — push-based AOT engine (§6.1).
//   * kJit — compile first (memo / persistent cache / fresh), then execute
//     the compiled function over the morsels.
//   * kAdaptive — execution starts immediately in interpretation mode while
//     a background thread compiles the plan; when compilation finishes, the
//     task function is atomically redirected and the next pulled morsel
//     runs machine code. Short queries may finish entirely in AOT mode —
//     the compiled code still lands in the cache for subsequent runs.
//
// Both execution paths share one PipelineExecutor, so pipeline-breaker
// state (order-by buffers, counters, join tables) and results are identical
// regardless of where the mode switch happens.

#ifndef POSEIDON_JIT_JIT_QUERY_ENGINE_H_
#define POSEIDON_JIT_JIT_QUERY_ENGINE_H_

#include <atomic>
#include <memory>
#include <set>

#include "jit/jit_engine.h"
#include "jit/runtime.h"
#include "query/engine.h"

namespace poseidon::jit {

enum class ExecutionMode {
  kInterpret,
  kInterpretParallel,
  kJit,
  kAdaptive,
};

struct ExecStats {
  double compile_ms = 0;  ///< blocking compile cost (kJit; 0 on memo hits)
  bool used_jit = false;  ///< at least one morsel ran compiled code
  bool cache_hit = false;
  bool memo_hit = false;
  uint64_t jit_morsels = 0;
  uint64_t interpreted_morsels = 0;
  bool jit_fallback = false;  ///< compile failed; query ran interpreted
  /// Adjacency-cache traffic attributed to this execution (hits serve
  /// Expand from DRAM arrays; misses include builds and fallback walks).
  uint64_t adj_cache_hits = 0;
  uint64_t adj_cache_misses = 0;
  /// rts-bump coalescing attributed to this execution: CAS-maxes skipped
  /// because the record already carried rts >= reader id, and bumps elided
  /// entirely by shared-snapshot read-only transactions.
  uint64_t rts_skipped = 0;
  uint64_t rts_deferred = 0;
  /// Integrity-scrub activity overlapping this execution (pool checksums
  /// enabled only): lines verified, repaired in place, and quarantined —
  /// includes cold-chunk first-touch verification the query triggered.
  uint64_t scrub_verified = 0;
  uint64_t scrub_repaired = 0;
  uint64_t scrub_quarantined = 0;
  /// Overload governance (cooperative cancellation): set when this execution
  /// was cut short by the transaction's CancelToken. Exactly one of the two
  /// may be set; the returned Status carries the same code.
  bool deadline_exceeded = false;
  bool cancelled = false;
};

class JitQueryEngine {
 public:
  /// `num_threads` counts the threads that run a query's morsels, the
  /// calling thread included: the pool owns `num_threads - 1` helpers.
  /// `cache` may be null (no persistent compiled-code cache).
  static Result<std::unique_ptr<JitQueryEngine>> Create(
      storage::GraphStore* store, index::IndexManager* indexes,
      size_t num_threads, QueryCache* cache);

  /// Waits for detached background compiles, which reference the engine.
  ~JitQueryEngine();

  /// Executes `plan` inside `tx`. The plan only needs to live for the
  /// duration of this call: adaptive background compilation operates on a
  /// self-contained module generated synchronously (JitEngine::BeginCompile).
  Result<query::QueryResult> Execute(const query::Plan& plan,
                                     tx::Transaction* tx,
                                     const std::vector<query::Value>& params,
                                     ExecutionMode mode,
                                     ExecStats* stats = nullptr,
                                     const JitOptions& options = {});

  JitEngine* engine() { return engine_.get(); }
  /// Threads that run one query's morsels: the caller plus the pool helpers.
  size_t query_threads() const { return pool_.num_threads() + 1; }
  storage::GraphStore* store() const { return store_; }

  /// Batched-scan knobs applied to every execution (ablation surface);
  /// shared by the interpreter context and the JIT codegen options.
  const storage::ScanOptions& scan_options() const { return scan_options_; }
  void set_scan_options(const storage::ScanOptions& o) { scan_options_ = o; }

  /// Whether generated code carries the adjacency-cache fast path (part of
  /// the compiled-code cache key). The runtime switch on the cache itself
  /// lives in tx::AdjacencyCache::set_enabled; GraphDb toggles both.
  bool adj_cache_enabled() const { return adj_cache_enabled_; }
  void set_adj_cache_enabled(bool on) { adj_cache_enabled_ = on; }

  /// Blocks until background (adaptive) compilations are finished; call
  /// before tearing down plans or benchmark scopes.
  void WaitForBackgroundCompiles();

 private:
  JitQueryEngine(storage::GraphStore* store, index::IndexManager* indexes,
                 size_t num_threads);

  /// Drives compiled code over all morsels on the calling thread.
  Status RunCompiledSerial(const CompiledQuery& compiled,
                           JitRuntimeState* state,
                           query::PipelineExecutor* exec, ExecStats* stats);

  storage::GraphStore* store_;
  index::IndexManager* indexes_;
  ThreadPool pool_;
  std::unique_ptr<JitEngine> engine_;
  storage::ScanOptions scan_options_ = storage::ScanOptions::FromEnv();
  bool adj_cache_enabled_ = tx::AdjacencyCacheOptions::FromEnv().enabled;

  std::mutex bg_mu_;
  std::condition_variable bg_done_;
  uint64_t bg_inflight_ = 0;
  std::set<uint64_t> bg_query_ids_;  // dedupe concurrent compilations
};

}  // namespace poseidon::jit

#endif  // POSEIDON_JIT_JIT_QUERY_ENGINE_H_
