#include "jit/jit_query_engine.h"

#include <thread>

namespace poseidon::jit {

using query::PipelineExecutor;
using query::QueryEngine;
using query::QueryResult;

namespace {

Status StatusFromCode(int32_t code, JitRuntimeState* state) {
  if (code >= 0) return Status::Ok();
  std::lock_guard<std::mutex> lock(state->error_mu);
  if (!state->error.ok()) return state->error;
  return Status::Internal("compiled query reported an unknown error");
}

}  // namespace

JitQueryEngine::JitQueryEngine(storage::GraphStore* store,
                               index::IndexManager* indexes,
                               size_t num_threads)
    : store_(store),
      indexes_(indexes),
      pool_(num_threads > 0 ? num_threads - 1 : 0) {}

Result<std::unique_ptr<JitQueryEngine>> JitQueryEngine::Create(
    storage::GraphStore* store, index::IndexManager* indexes,
    size_t num_threads, QueryCache* cache) {
  auto engine = std::unique_ptr<JitQueryEngine>(
      new JitQueryEngine(store, indexes, num_threads));
  POSEIDON_ASSIGN_OR_RETURN(engine->engine_, JitEngine::Create(cache));
  return engine;
}

JitQueryEngine::~JitQueryEngine() { WaitForBackgroundCompiles(); }

void JitQueryEngine::WaitForBackgroundCompiles() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  bg_done_.wait(lock, [this] { return bg_inflight_ == 0; });
}

Status JitQueryEngine::RunCompiledSerial(const CompiledQuery& compiled,
                                         JitRuntimeState* state,
                                         PipelineExecutor* exec,
                                         ExecStats* stats) {
  if (compiled.num_handle_slots > kMaxHandleSlots) {
    return Status::Internal("query exceeds the handle-slot budget");
  }
  // NodeScan and index sources are range sources: the compiled function
  // consumes [begin, end) morsels (slot ids / match positions). Create
  // pipelines take a single invocation.
  const query::Op* front = exec->ops().empty() ? nullptr : exec->ops().front();
  bool range_source =
      front != nullptr && (front->kind == query::OpKind::kNodeScan ||
                           front->kind == query::OpKind::kIndexScan ||
                           front->kind == query::OpKind::kIndexRangeScan);
  if (!range_source) {
    int32_t code = compiled.fn(state, 0, 1, 0);
    ++stats->jit_morsels;
    return StatusFromCode(code, state);
  }
  return RunMorsels(
      nullptr, exec->SourceCardinality(), QueryEngine::kMorselSize,
      *state->ctx.tx->cancel_token(),
      [&](uint64_t begin, uint64_t end, uint32_t runner, bool* stop) {
        int32_t code = compiled.fn(state, begin, end, runner);
        ++stats->jit_morsels;
        *stop = code == 1;  // limit satisfied
        return StatusFromCode(code, state);
      });
}

Result<QueryResult> JitQueryEngine::Execute(
    const query::Plan& plan, tx::Transaction* tx,
    const std::vector<query::Value>& params, ExecutionMode mode,
    ExecStats* stats, const JitOptions& options) {
  ExecStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = ExecStats();

  // Engine-level scan knobs flow into both execution paths: the interpreter
  // reads them from the context, the code generator bakes them into the
  // compiled scan loop (and the compiled-code cache key).
  JitOptions jit_options = options;
  jit_options.scan = scan_options_;
  jit_options.adj_cache = adj_cache_enabled_;

  // Attribute adjacency-cache traffic to this execution as a before/after
  // delta on the manager-wide counters (racy under concurrent queries, but
  // EXPLAIN/bench use it single-query).
  const tx::AdjacencyCacheStats adj_before =
      tx->manager()->adjacency_cache().stats();
  // rts-coalescing tallies live on the transaction itself (plain fields,
  // flushed to the manager at Finish), so this attribution is exact even
  // under concurrent queries.
  const uint64_t rts_skipped_before = tx->rts_skipped();
  const uint64_t rts_deferred_before = tx->rts_deferred();

  query::ResultCollector collector;
  query::ExecContext ctx;
  ctx.tx = tx;
  ctx.store = store_;
  ctx.indexes = indexes_;
  ctx.params = &params;
  ctx.scan = scan_options_;
  PipelineExecutor exec(plan, ctx, &collector);
  POSEIDON_RETURN_IF_ERROR(exec.Prepare());

  // The body runs in an IIFE so a cancellation/deadline abort still flows
  // through the stats classification below before propagating to the caller.
  Status run_status = [&]() -> Status {
  switch (mode) {
    case ExecutionMode::kInterpret: {
      POSEIDON_RETURN_IF_ERROR(exec.Run());
      ++stats->interpreted_morsels;
      break;
    }

    case ExecutionMode::kInterpretParallel: {
      uint64_t slots = exec.SourceCardinality();
      if (slots == 0) {
        POSEIDON_RETURN_IF_ERROR(exec.Run());
        ++stats->interpreted_morsels;
        break;
      }
      std::atomic<uint64_t> morsels{0};
      Status ran = RunMorsels(
          &pool_, slots, QueryEngine::kMorselSize, *tx->cancel_token(),
          [&](uint64_t begin, uint64_t end, uint32_t, bool*) {
            morsels.fetch_add(1, std::memory_order_relaxed);
            return exec.RunMorsel(begin, end);
          });
      stats->interpreted_morsels = morsels.load();
      POSEIDON_RETURN_IF_ERROR(ran);
      POSEIDON_RETURN_IF_ERROR(exec.Finish());
      break;
    }

    case ExecutionMode::kJit: {
      auto compiled = engine_->Compile(plan, jit_options);
      if (!compiled.ok()) {
        // Graceful degradation: a compile failure (injectable via the
        // jit.compile fault site) costs the speedup, not the query — run
        // the same plan through the interpreter instead of surfacing an
        // engine-internal error to the client.
        stats->jit_fallback = true;
        POSEIDON_RETURN_IF_ERROR(exec.Run());
        ++stats->interpreted_morsels;
        break;
      }
      stats->compile_ms = compiled->codegen_ms + compiled->optimize_ms +
                          compiled->compile_ms;
      stats->cache_hit = compiled->from_persistent_cache;
      stats->memo_hit = compiled->from_memo;
      stats->used_jit = true;
      auto state = MakeRuntimeState(plan, ctx, &collector, &exec, 1);
      Status ran = RunCompiledSerial(*compiled, state.get(), &exec, stats);
      tx->AddRtsDeferred(state->RtsDeferred());
      POSEIDON_RETURN_IF_ERROR(ran);
      POSEIDON_RETURN_IF_ERROR(exec.Finish());
      break;
    }

    case ExecutionMode::kAdaptive: {
      auto state =
          MakeRuntimeState(plan, ctx, &collector, &exec, query_threads());
      // The "static task function" of the paper: null = interpret.
      auto compiled_fn = std::make_shared<std::atomic<CompiledQueryFn>>(
          nullptr);

      // The plan-dependent phases (memo/cache probe + IR generation) run
      // synchronously — sub-millisecond — so the caller's plan may be
      // destroyed right after Execute returns; only the expensive
      // optimization/compilation/linking happens in the background
      // (deduplicated: repeated adaptive runs of an in-flight query must
      // not stack up compile threads).
      auto pending = engine_->BeginCompile(plan, jit_options);
      if (pending.ok() && pending->done) {
        // Memo/cache hit (§6.2: "If the code is found, it will be linked
        // with the current database instance").
        if (pending->result.num_handle_slots <= kMaxHandleSlots) {
          compiled_fn->store(pending->result.fn, std::memory_order_release);
          stats->memo_hit = pending->result.from_memo;
          stats->cache_hit = pending->result.from_persistent_cache;
        }
      } else if (pending.ok()) {
        uint64_t qid = pending->result.query_id;
        bool launch;
        {
          std::lock_guard<std::mutex> lock(bg_mu_);
          launch = bg_query_ids_.insert(qid).second;
          if (launch) ++bg_inflight_;
        }
        if (launch) {
          auto shared_pending = std::make_shared<JitEngine::PendingCompile>(
              std::move(*pending));
          std::thread([this, shared_pending, compiled_fn, qid] {
            auto compiled =
                engine_->FinishCompile(std::move(*shared_pending));
            if (compiled.ok() &&
                compiled->num_handle_slots <= kMaxHandleSlots) {
              compiled_fn->store(compiled->fn, std::memory_order_release);
            }
            // Notify under the lock: once it is released a waiter may return
            // and destroy the engine, so this thread must not touch `this`
            // after the unlock.
            std::lock_guard<std::mutex> lock(bg_mu_);
            bg_query_ids_.erase(qid);
            --bg_inflight_;
            bg_done_.notify_all();
          }).detach();
        }
      } else {
        // Compile setup failed: all morsels run interpreted.
        stats->jit_fallback = true;
      }

      uint64_t slots = exec.SourceCardinality();
      if (slots == 0) {
        // Non-scan source: a single task; the switch cannot help here
        // (paper: short updates execute entirely in AOT mode).
        POSEIDON_RETURN_IF_ERROR(exec.Run());
        ++stats->interpreted_morsels;
        break;
      }

      // Each morsel reads the task function afresh, so the first morsel
      // claimed after the background compile lands runs machine code. The
      // runner id addresses the JIT handle storage.
      std::atomic<uint64_t> jit_morsels{0}, interp_morsels{0};
      Status ran = RunMorsels(
          &pool_, slots, QueryEngine::kMorselSize, *tx->cancel_token(),
          [&](uint64_t begin, uint64_t end, uint32_t runner, bool* stop) {
            CompiledQueryFn fn = compiled_fn->load(std::memory_order_acquire);
            if (fn == nullptr) {
              interp_morsels.fetch_add(1, std::memory_order_relaxed);
              return exec.RunMorsel(begin, end);
            }
            int32_t code = fn(state.get(), begin, end, runner);
            jit_morsels.fetch_add(1, std::memory_order_relaxed);
            *stop = code == 1;  // limit satisfied
            return StatusFromCode(code, state.get());
          });
      tx->AddRtsDeferred(state->RtsDeferred());
      POSEIDON_RETURN_IF_ERROR(ran);
      POSEIDON_RETURN_IF_ERROR(exec.Finish());
      stats->jit_morsels = jit_morsels.load();
      stats->interpreted_morsels = interp_morsels.load();
      stats->used_jit = stats->jit_morsels > 0;
      break;
    }
  }
  return Status::Ok();
  }();

  if (!run_status.ok()) {
    stats->deadline_exceeded = run_status.IsDeadlineExceeded();
    stats->cancelled = run_status.IsCancelled();
    return run_status;
  }

  const tx::AdjacencyCacheStats adj_after =
      tx->manager()->adjacency_cache().stats();
  stats->adj_cache_hits = adj_after.hits - adj_before.hits;
  stats->adj_cache_misses = adj_after.misses - adj_before.misses;
  stats->rts_skipped = tx->rts_skipped() - rts_skipped_before;
  stats->rts_deferred = tx->rts_deferred() - rts_deferred_before;

  QueryResult result;
  result.rows = collector.TakeRows();
  return result;
}

}  // namespace poseidon::jit
