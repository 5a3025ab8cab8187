// QueryEngine: executes graph-algebra plans against a transaction, either
// single-threaded or with morsel-driven parallelism (paper §6.1): the scan
// range is split into fixed-size morsels that the calling thread and pool
// helpers claim (util/morsel_dispatch.h); all post-scan operators run inside
// the same morsel until a pipeline breaker.
//
// Parallel execution is for read-only plans: MVTO write sets are
// transaction-private and not synchronized across worker threads.

#ifndef POSEIDON_QUERY_ENGINE_H_
#define POSEIDON_QUERY_ENGINE_H_

#include <memory>

#include "query/interpreter.h"
#include "util/morsel_dispatch.h"
#include "util/thread_pool.h"

namespace poseidon::query {

struct QueryResult {
  std::vector<Tuple> rows;
};

class QueryEngine {
 public:
  /// Records per morsel (paper-style granularity).
  static constexpr uint64_t kMorselSize = 2048;

  /// `num_threads` counts the threads that run a query's morsels, the
  /// calling thread included: the pool owns `num_threads - 1` workers.
  QueryEngine(storage::GraphStore* store, index::IndexManager* indexes,
              size_t num_threads);

  /// Executes `plan` inside `tx`. With `parallel` set and a splittable
  /// source (NodeScan table slots, index-scan match positions), morsels run
  /// on the calling thread and the pool's helpers.
  Result<QueryResult> Execute(const Plan& plan, tx::Transaction* tx,
                              const std::vector<Value>& params,
                              bool parallel = false);

  storage::GraphStore* store() const { return store_; }
  index::IndexManager* indexes() const { return indexes_; }

  /// Batched-scan knobs applied to every execution (ablation surface).
  const storage::ScanOptions& scan_options() const { return scan_options_; }
  void set_scan_options(const storage::ScanOptions& o) { scan_options_ = o; }

 private:
  storage::GraphStore* store_;
  index::IndexManager* indexes_;
  ThreadPool pool_;
  storage::ScanOptions scan_options_ = storage::ScanOptions::FromEnv();
};

}  // namespace poseidon::query

#endif  // POSEIDON_QUERY_ENGINE_H_
