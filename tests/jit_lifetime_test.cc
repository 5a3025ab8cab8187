// Lifetime of adaptive background compiles. kAdaptive hands the expensive
// LLVM optimisation/linking to a detached thread that references the
// engine; destroying the engine (or the GraphDb that owns it) right after
// the query returns must wait for that thread and must not race with its
// final notification. Run under the POSEIDON_TSAN build (`ctest -L tsan`)
// to check the teardown for data races.

#include <gtest/gtest.h>

#include "core/graph_db.h"

namespace poseidon::core {
namespace {

using query::Plan;
using query::PlanBuilder;

constexpr int kRounds = 8;

GraphDbOptions VolatileOptions() {
  GraphDbOptions o;  // empty path: DRAM pool
  o.capacity = 64ull << 20;
  o.query_threads = 1;
  o.enable_query_cache = false;  // every round compiles afresh
  return o;
}

Result<std::unique_ptr<GraphDb>> SeededDb(Plan* scan) {
  POSEIDON_ASSIGN_OR_RETURN(auto db, GraphDb::Create(VolatileOptions()));
  POSEIDON_ASSIGN_OR_RETURN(storage::DictCode n, db->Code("N"));
  auto tx = db->Begin();
  for (int i = 0; i < 100; ++i) {
    POSEIDON_RETURN_IF_ERROR(tx->CreateNode(n, {}).status());
  }
  POSEIDON_RETURN_IF_ERROR(tx->Commit());
  *scan = PlanBuilder().NodeScan(n).Count().Build();
  return db;
}

TEST(JitLifetimeTest, GraphDbDestroyedRightAfterAdaptiveLaunch) {
  for (int round = 0; round < kRounds; ++round) {
    Plan scan;
    auto db = SeededDb(&scan);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    jit::ExecStats stats;
    auto r = (*db)->Execute(scan, jit::ExecutionMode::kAdaptive, {}, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].AsInt(), 100);
    // No memo or cache hit: the compile went to the background thread.
    EXPECT_FALSE(stats.memo_hit || stats.cache_hit);
    db->reset();
  }
}

TEST(JitLifetimeTest, StandaloneEngineDestroyedRightAfterAdaptiveLaunch) {
  Plan scan;
  auto db = SeededDb(&scan);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int round = 0; round < kRounds; ++round) {
    auto engine = jit::JitQueryEngine::Create((*db)->store(),
                                              (*db)->indexes(), 1, nullptr);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto tx = (*db)->BeginReadOnly();
    auto r = (*engine)->Execute(scan, tx.get(), {},
                                jit::ExecutionMode::kAdaptive);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].AsInt(), 100);
    ASSERT_TRUE(tx->Commit().ok());
    // No WaitForBackgroundCompiles(): the destructor must do it.
    engine->reset();
  }
}

}  // namespace
}  // namespace poseidon::core
