// JIT compilation engine (paper §6.2): LLVM ORC-based compilation of
// generated query IR with the paper's optimization pass cascade, an
// in-process memo table, and an optional persistent compiled-code cache.
//
// Pass cascade (paper list): Promote Memory To Register, Control Flow Graph
// Simplification, Loop Unrolling, Dead Code Elimination, Instruction
// Combining — followed by the standard -O3 pipeline.

#ifndef POSEIDON_JIT_JIT_ENGINE_H_
#define POSEIDON_JIT_JIT_ENGINE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "jit/codegen.h"
#include "jit/query_cache.h"
#include "query/plan.h"
#include "storage/scan_options.h"

namespace llvm {
class TargetMachine;
namespace orc {
class LLJIT;
}  // namespace orc
}  // namespace llvm

namespace poseidon::jit {

/// A ready-to-run compiled query. The function pointer stays valid for the
/// engine's lifetime.
struct CompiledQuery {
  CompiledQueryFn fn = nullptr;
  int tail_index = -1;
  uint32_t num_handle_slots = 0;
  uint64_t query_id = 0;
  bool from_persistent_cache = false;
  bool from_memo = false;
  /// Wall-clock compilation cost (0 when memoized).
  double codegen_ms = 0;
  double optimize_ms = 0;
  double compile_ms = 0;
};

struct JitOptions {
  /// Run the optimization pass cascade + O3 (paper §6.2). Disable for the
  /// ablation benchmark only.
  bool optimize = true;
  /// Consult/fill the persistent code cache.
  bool use_persistent_cache = true;
  /// Batched-scan knobs baked into the generated scan loop (word-level
  /// skip test, prefetch distance). Part of the cache key: different knob
  /// settings produce different machine code.
  storage::ScanOptions scan;
  /// Bake the DRAM adjacency-cache probe + array loop into kExpand
  /// (poseidon_expand_cached fast path with chain-walk fallback). Part of
  /// the cache key like the scan knobs.
  bool adj_cache = true;
};

class JitEngine {
 public:
  /// `cache` may be null (no persistence of compiled code).
  static Result<std::unique_ptr<JitEngine>> Create(QueryCache* cache);

  ~JitEngine();
  JitEngine(const JitEngine&) = delete;
  JitEngine& operator=(const JitEngine&) = delete;

  /// Compiles `plan` (or fetches it from the memo / persistent cache).
  Result<CompiledQuery> Compile(const query::Plan& plan,
                                const JitOptions& options = {});

  /// Memo-only probe: returns the already-compiled query without doing any
  /// work (the adaptive engine checks this before spawning a background
  /// compilation — §6.2's "lookup ... for already compiled code").
  bool TryGetMemoized(const query::Plan& plan, const JitOptions& options,
                      CompiledQuery* out);

  /// Two-phase compilation for adaptive execution: BeginCompile performs
  /// every plan-dependent step (memo/cache probe + IR generation)
  /// synchronously — afterwards the plan may be destroyed — and
  /// FinishCompile runs the expensive optimization/compilation/linking on
  /// the self-contained pending state (typically on a background thread).
  struct PendingCompile {
    bool done = false;         ///< memo/cache hit: `result` is final
    CompiledQuery result;
    JitOptions options;
    std::string fn_name;
    CodegenResult code;        ///< generated module (plan-independent)
    void* dylib = nullptr;     ///< JITDylib prepared by BeginCompile
  };
  Result<PendingCompile> BeginCompile(const query::Plan& plan,
                                      const JitOptions& options = {});
  Result<CompiledQuery> FinishCompile(PendingCompile pending);

  /// Stable identifier of (plan, options, kCodegenAbiVersion) — the
  /// compiled-code cache key.
  static uint64_t QueryIdFor(const query::Plan& plan,
                             const JitOptions& options);
  /// The key as a generator of version `abi_version` computes it.
  static uint64_t QueryIdFor(const query::Plan& plan,
                             const JitOptions& options, uint32_t abi_version);

  QueryCache* cache() const { return cache_; }

  /// Test seam: `hook(query_id)` runs inside FinishCompile, with the compile
  /// lock held, before optimization. Set it before any compile starts.
  void set_compile_hook_for_testing(std::function<void(uint64_t)> hook) {
    compile_hook_ = std::move(hook);
  }

 private:
  JitEngine() = default;

  /// Copies the memoized compile of `query_id` into `out` (marked as a memo
  /// hit with zero compile cost); false on a miss.
  bool MemoLookup(uint64_t query_id, CompiledQuery* out);
  void MemoInsert(const CompiledQuery& compiled);

  std::unique_ptr<llvm::orc::LLJIT> jit_;
  std::unique_ptr<llvm::TargetMachine> tm_;
  QueryCache* cache_ = nullptr;
  /// Serializes LLVM/ORC work: the legacy pass managers, the shared
  /// TargetMachine and ORC session mutations must not run from two threads
  /// at once. Taken by compiles only, never by memo hits. Acquired before
  /// memo_mu_ when both are held.
  std::mutex compile_mu_;
  uint64_t dylib_counter_ = 0;  // guarded by compile_mu_
  std::function<void(uint64_t)> compile_hook_;
  /// Guards memo_ only; held for one find or insert.
  std::mutex memo_mu_;
  std::unordered_map<uint64_t, CompiledQuery> memo_;
};

}  // namespace poseidon::jit

#endif  // POSEIDON_JIT_JIT_ENGINE_H_
