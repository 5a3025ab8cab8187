#include "core/graph_db.h"

#include "pmem/psan.h"
#include "util/env.h"

namespace poseidon::core {

GraphDb::~GraphDb() {
  // Stop the scrubber before anything it can reach through the corruption
  // handler (store, indexes, transaction manager) is torn down.
  if (scrubber_ != nullptr) scrubber_->Stop();
  if (pool_ != nullptr) pool_->SetCorruptionHandler(nullptr);
  if (engine_ != nullptr) engine_->WaitForBackgroundCompiles();
}

Result<std::unique_ptr<GraphDb>> GraphDb::Create(
    const GraphDbOptions& options) {
  return Init(options, /*create=*/true);
}

Result<std::unique_ptr<GraphDb>> GraphDb::Open(const GraphDbOptions& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("volatile databases cannot be reopened");
  }
  return Init(options, /*create=*/false);
}

Result<std::unique_ptr<GraphDb>> GraphDb::Init(const GraphDbOptions& options,
                                               bool create) {
  auto db = std::unique_ptr<GraphDb>(new GraphDb());

  pmem::PoolOptions pool_options;
  pool_options.capacity = options.capacity;
  pool_options.mode =
      options.path.empty() ? pmem::PoolMode::kDram : pmem::PoolMode::kPmem;
  pool_options.crash_shadow = options.crash_shadow;
  pool_options.has_latency_override = options.has_latency_override;
  pool_options.latency_override = options.latency_override;
  pool_options.redo_segments = options.redo_segments;

  if (create) {
    POSEIDON_ASSIGN_OR_RETURN(db->pool_,
                              pmem::Pool::Create(options.path, pool_options));
    POSEIDON_ASSIGN_OR_RETURN(db->store_,
                              storage::GraphStore::Create(db->pool_.get()));
  } else {
    POSEIDON_ASSIGN_OR_RETURN(db->pool_,
                              pmem::Pool::Open(options.path, pool_options));
    POSEIDON_ASSIGN_OR_RETURN(db->store_,
                              storage::GraphStore::Open(db->pool_.get()));
  }
  db->recovered_ = db->pool_->recovered_from_crash();

  db->indexes_ = std::make_unique<index::IndexManager>(db->store_.get());
  if (!create) {
    // Hybrid/persistent indexes recover by rebuilding DRAM inner levels.
    POSEIDON_RETURN_IF_ERROR(db->indexes_->LoadPersistent());
  }

  db->txm_ = std::make_unique<tx::TransactionManager>(db->store_.get(),
                                                      db->indexes_.get());
  if (db->recovered_) {
    POSEIDON_RETURN_IF_ERROR(db->txm_->RecoverInFlight());
  }

  if (db->pool_->checksums_enabled()) {
    // Read-repair wiring: corrupt lines route storage-first (tables,
    // dictionary, root), then to the index rebuild leg; anything unclaimed
    // falls back to the pool's default (quarantine). Record resurrection
    // rolls a corrupt slot back to its newest retained DRAM version.
    storage::GraphStore* store = db->store_.get();
    index::IndexManager* indexes = db->indexes_.get();
    tx::TransactionManager* txm = db->txm_.get();
    store->SetResurrectors(
        [txm](storage::RecordId id, storage::NodeRecord* out) {
          return txm->ResurrectNode(id, out);
        },
        [txm](storage::RecordId id, storage::RelationshipRecord* out) {
          return txm->ResurrectRel(id, out);
        });
    db->pool_->SetCorruptionHandler(
        [store, indexes](pmem::Offset line_off) {
          if (auto out = store->RepairLine(line_off)) return *out;
          if (auto out = indexes->RepairLine(line_off)) return *out;
          return pmem::Pool::RepairOutcome::kUnrepairable;
        });
    db->scrubber_ = std::make_unique<pmem::Scrubber>(db->pool_.get());
    if (util::EnvU64("POSEIDON_SCRUB", 0) == 1) db->scrubber_->Start();
  }

  if (options.enable_query_cache &&
      db->pool_->mode() == pmem::PoolMode::kPmem) {
    auto* root = db->store_->root();
    if (root->qcache_meta != 0) {
      POSEIDON_ASSIGN_OR_RETURN(
          db->qcache_, jit::QueryCache::Open(db->pool_.get(),
                                             root->qcache_meta));
    } else {
      POSEIDON_ASSIGN_OR_RETURN(db->qcache_,
                                jit::QueryCache::Create(db->pool_.get()));
      root->qcache_meta = db->qcache_->meta_offset();
      db->pool_->Persist(&root->qcache_meta, sizeof(pmem::Offset));
    }
  }

  POSEIDON_ASSIGN_OR_RETURN(
      db->engine_,
      jit::JitQueryEngine::Create(db->store_.get(), db->indexes_.get(),
                                  options.query_threads, db->qcache_.get()));
  db->engine_->set_scan_options(options.scan);
  return db;
}

std::string GraphDb::Explain(const query::Plan& plan) const {
  query::ExplainAnnotation ann;
  ann.threads = engine_->query_threads();
  ann.morsel = query::QueryEngine::kMorselSize;
  const tx::AdjacencyCacheStats adj = txm_->adjacency_cache().stats();
  ann.adj_cache =
      engine_->adj_cache_enabled() && txm_->adjacency_cache().enabled();
  ann.adj_hits = adj.hits;
  ann.adj_misses = adj.misses;
  ann.adj_invalidations = adj.invalidations;
  ann.adj_evictions = adj.evictions;
  const tx::TxStats txs = txm_->Stats();
  ann.rts_coalesce = txm_->rts_coalesce();
  ann.rts_skipped = txs.rts_skipped;
  ann.rts_deferred = txs.rts_deferred;
  ann.snapshot_reuse = txm_->snapshot_epoch_us() > 0;
  ann.snapshot_ts = txm_->snapshot_ts();
  ann.scrub_on = pool_->checksums_enabled();
  const pmem::Pool::ScrubStats& ss = pool_->scrub_stats();
  ann.scrub_verified = ss.lines_verified.load(std::memory_order_relaxed);
  ann.scrub_repaired = ss.repaired.load(std::memory_order_relaxed);
  ann.scrub_quarantined = pool_->quarantined_lines();
  ann.deadline_ms = txm_->default_deadline_ms();
  ann.max_writers = txm_->max_writers();
  ann.overload = ann.deadline_ms > 0 || ann.max_writers > 0 ||
                 pool_->soft_watermark_pct() > 0;
  ann.active_writers = txm_->active_writers();
  ann.aborts_conflict = txs.aborts_conflict;
  ann.aborts_deadline = txs.aborts_deadline;
  ann.aborts_cancelled = txs.aborts_cancelled;
  ann.aborts_space = txs.aborts_space;
  ann.writers_shed = txs.writers_shed;
  ann.space_denied = txs.space_denied;
  return plan.ToString(&store_->dict(), &ann);
}

GraphDb::HealthReport GraphDb::Health() const {
  HealthReport h;
  h.recovery = pool_->recovery_report();
  const pmem::Pool::ScrubStats& ss = pool_->scrub_stats();
  h.scrub_lines_verified = ss.lines_verified.load(std::memory_order_relaxed);
  h.scrub_mismatches = ss.mismatches.load(std::memory_order_relaxed);
  h.scrub_repaired = ss.repaired.load(std::memory_order_relaxed);
  h.scrub_adopted = ss.adopted.load(std::memory_order_relaxed);
  h.scrub_quarantined = ss.quarantined.load(std::memory_order_relaxed);
  h.scrub_resealed = ss.resealed.load(std::memory_order_relaxed);
  h.quarantined_lines = pool_->quarantined_lines();
  h.checksums_enabled = pool_->checksums_enabled();
  if (scrubber_ != nullptr) {
    h.scrub_passes = scrubber_->passes();
    h.scrubber_running = scrubber_->running();
    h.scrub_rate_mb_s = scrubber_->rate_mb_s();
  }
  h.psan_violations = pmem::PsanTotalViolations();
  const tx::TxStats txs = txm_->Stats();
  h.aborts_conflict = txs.aborts_conflict;
  h.aborts_deadline = txs.aborts_deadline;
  h.aborts_cancelled = txs.aborts_cancelled;
  h.aborts_space = txs.aborts_space;
  h.writers_shed = txs.writers_shed;
  h.space_denied = txs.space_denied;
  h.active_writers = txm_->active_writers();
  h.max_writers = txm_->max_writers();
  h.pool_bytes_used = pool_->bytes_used();
  h.pool_capacity = pool_->capacity();
  h.soft_watermark_pct = pool_->soft_watermark_pct();
  h.above_soft_watermark = pool_->AboveSoftWatermark();
  h.alloc_failures =
      pool_->stats().alloc_failures.load(std::memory_order_relaxed);
  return h;
}

Result<query::QueryResult> GraphDb::Execute(
    const query::Plan& plan, jit::ExecutionMode mode,
    const std::vector<query::Value>& params, jit::ExecStats* stats,
    int64_t deadline_ms) {
  // Write plans pass the admission gate and the soft-watermark writer
  // denial; read plans take the snapshot read path and commit without a
  // redo transaction.
  std::unique_ptr<tx::Transaction> tx;
  if (plan.HasWrites()) {
    POSEIDON_ASSIGN_OR_RETURN(tx, BeginWrite());
  } else {
    tx = BeginReadOnly();
  }
  if (deadline_ms > 0) {
    tx->cancel_token()->SetDeadlineAfterMs(deadline_ms);  // per-query override
  }
  auto result = ExecuteIn(plan, tx.get(), params, mode, stats);
  if (!result.ok()) {
    // Classify the failure (deadline / cancel / space / conflict) so the
    // manager's abort taxonomy counts it, then unwind the transaction.
    tx->RecordAbortCause(result.status());
    tx->Abort();
    return result.status();
  }
  POSEIDON_RETURN_IF_ERROR(tx->Commit());
  return std::move(*result);
}

Result<query::QueryResult> GraphDb::ExecuteIn(
    const query::Plan& plan, tx::Transaction* tx,
    const std::vector<query::Value>& params, jit::ExecutionMode mode,
    jit::ExecStats* stats, const jit::JitOptions& options) {
  if (stats == nullptr || !pool_->checksums_enabled()) {
    return engine_->Execute(plan, tx, params, mode, stats, options);
  }
  // Attribute scrub activity overlapping this execution (background pass
  // plus any first-touch verification the query itself triggered).
  const pmem::Pool::ScrubStats& ss = pool_->scrub_stats();
  uint64_t v0 = ss.lines_verified.load(std::memory_order_relaxed);
  uint64_t r0 = ss.repaired.load(std::memory_order_relaxed);
  uint64_t q0 = ss.quarantined.load(std::memory_order_relaxed);
  auto result = engine_->Execute(plan, tx, params, mode, stats, options);
  stats->scrub_verified =
      ss.lines_verified.load(std::memory_order_relaxed) - v0;
  stats->scrub_repaired = ss.repaired.load(std::memory_order_relaxed) - r0;
  stats->scrub_quarantined =
      ss.quarantined.load(std::memory_order_relaxed) - q0;
  return result;
}

Status GraphDb::CreateIndex(std::string_view label, std::string_view key,
                            index::Placement placement) {
  POSEIDON_ASSIGN_OR_RETURN(storage::DictCode label_code, Code(label));
  POSEIDON_ASSIGN_OR_RETURN(storage::DictCode key_code, Code(key));
  return indexes_->CreateIndex(label_code, key_code, placement).status();
}

}  // namespace poseidon::core
