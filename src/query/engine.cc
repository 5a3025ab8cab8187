#include "query/engine.h"

namespace poseidon::query {

QueryEngine::QueryEngine(storage::GraphStore* store,
                         index::IndexManager* indexes, size_t num_threads)
    : store_(store),
      indexes_(indexes),
      pool_(num_threads > 0 ? num_threads - 1 : 0) {}

Result<QueryResult> QueryEngine::Execute(const Plan& plan,
                                         tx::Transaction* tx,
                                         const std::vector<Value>& params,
                                         bool parallel) {
  ResultCollector out;
  ExecContext ctx;
  ctx.tx = tx;
  ctx.store = store_;
  ctx.indexes = indexes_;
  ctx.params = &params;
  ctx.scan = scan_options_;
  PipelineExecutor exec(plan, ctx, &out);
  POSEIDON_RETURN_IF_ERROR(exec.Prepare());

  uint64_t slots = exec.SourceCardinality();
  if (!parallel || slots == 0) {
    POSEIDON_RETURN_IF_ERROR(exec.Run());
  } else {
    POSEIDON_RETURN_IF_ERROR(RunMorsels(
        &pool_, slots, kMorselSize, *tx->cancel_token(),
        [&exec](uint64_t begin, uint64_t end, uint32_t, bool*) {
          return exec.RunMorsel(begin, end);
        }));
    POSEIDON_RETURN_IF_ERROR(exec.Finish());
  }
  QueryResult result;
  result.rows = out.TakeRows();
  return result;
}

}  // namespace poseidon::query
