#include "jit/jit_query_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "ldbc/queries.h"
#include "util/hash.h"

namespace poseidon::jit {
namespace {

using ldbc::SnbConfig;
using ldbc::SnbDataset;
using query::CmpOp;
using query::Direction;
using query::Expr;
using query::Plan;
using query::PlanBuilder;
using query::QueryResult;
using query::Value;

bool SameRows(const QueryResult& a, const QueryResult& b,
              bool order_sensitive = true) {
  if (a.rows.size() != b.rows.size()) return false;
  auto key = [](const query::Tuple& t) {
    std::string k;
    for (const auto& v : t) {
      k += std::to_string(static_cast<int>(v.kind())) + ":" +
           std::to_string(v.raw()) + "|";
    }
    return k;
  };
  std::vector<std::string> ka, kb;
  for (const auto& t : a.rows) ka.push_back(key(t));
  for (const auto& t : b.rows) kb.push_back(key(t));
  if (!order_sensitive) {
    std::sort(ka.begin(), ka.end());
    std::sort(kb.begin(), kb.end());
  }
  return ka == kb;
}

class JitTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto pool = pmem::Pool::CreateVolatile(1ull << 30);
    ASSERT_TRUE(pool.ok());
    pool_ = pool->release();
    auto store = storage::GraphStore::Create(pool_);
    ASSERT_TRUE(store.ok());
    store_ = store->release();
    indexes_ = new index::IndexManager(store_);
    mgr_ = new tx::TransactionManager(store_, indexes_);
    auto cache = QueryCache::Create(pool_);
    ASSERT_TRUE(cache.ok());
    cache_ = cache->release();
    auto engine = JitQueryEngine::Create(store_, indexes_, 2, cache_);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = engine->release();

    SnbConfig cfg;
    cfg.persons = 200;
    auto ds = ldbc::GenerateSnb(mgr_, store_, cfg);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ds_ = new SnbDataset(std::move(*ds));
    ASSERT_TRUE(ldbc::CreateSnbIndexes(indexes_, ds_->schema,
                                       index::Placement::kHybrid)
                    .ok());
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete cache_;
    delete mgr_;
    delete indexes_;
    delete ds_;
    delete store_;
    delete pool_;
  }

  Result<QueryResult> Run(const Plan& plan, std::vector<Value> params,
                          ExecutionMode mode, ExecStats* stats = nullptr) {
    auto tx = mgr_->Begin();
    auto r = engine_->Execute(plan, tx.get(), params, mode, stats);
    if (r.ok()) EXPECT_TRUE(tx->Commit().ok());
    return r;
  }

  static pmem::Pool* pool_;
  static storage::GraphStore* store_;
  static index::IndexManager* indexes_;
  static tx::TransactionManager* mgr_;
  static QueryCache* cache_;
  static JitQueryEngine* engine_;
  static SnbDataset* ds_;
};

pmem::Pool* JitTest::pool_ = nullptr;
storage::GraphStore* JitTest::store_ = nullptr;
index::IndexManager* JitTest::indexes_ = nullptr;
tx::TransactionManager* JitTest::mgr_ = nullptr;
QueryCache* JitTest::cache_ = nullptr;
JitQueryEngine* JitTest::engine_ = nullptr;
SnbDataset* JitTest::ds_ = nullptr;

TEST_F(JitTest, ScanFilterProjectMatchesInterpreter) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .NodeScan(s.person)
               .FilterProperty(0, s.id, CmpOp::kLe,
                               Expr::Literal(Value::Int(50)))
               .Project({Expr::Property(0, s.id),
                         Expr::Property(0, s.first_name)})
               .Build();
  auto aot = Run(p, {}, ExecutionMode::kInterpret);
  ExecStats stats;
  auto jit = Run(p, {}, ExecutionMode::kJit, &stats);
  ASSERT_TRUE(aot.ok() && jit.ok())
      << aot.status().ToString() << " / " << jit.status().ToString();
  EXPECT_TRUE(stats.used_jit);
  EXPECT_EQ(aot->rows.size(), 50u);
  EXPECT_TRUE(SameRows(*aot, *jit, /*order_sensitive=*/false));
}

TEST_F(JitTest, ExpandMatchesInterpreter) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .NodeScan(s.person)
               .FilterProperty(0, s.id, CmpOp::kEq, Expr::Param(0))
               .Expand(0, Direction::kOut, s.knows)
               .Project({Expr::Property(2, s.id),
                         Expr::Property(1, s.creation_date)})
               .Build();
  for (int64_t pid : {1, 7, 42, 100}) {
    auto aot = Run(p, {Value::Int(pid)}, ExecutionMode::kInterpret);
    auto jit = Run(p, {Value::Int(pid)}, ExecutionMode::kJit);
    ASSERT_TRUE(aot.ok() && jit.ok());
    EXPECT_TRUE(SameRows(*aot, *jit)) << "person " << pid;
  }
}

TEST_F(JitTest, CountViaTailMatches) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder().NodeScan(s.comment).Count().Build();
  auto aot = Run(p, {}, ExecutionMode::kInterpret);
  auto jit = Run(p, {}, ExecutionMode::kJit);
  ASSERT_TRUE(aot.ok() && jit.ok());
  ASSERT_EQ(jit->rows.size(), 1u);
  EXPECT_EQ(aot->rows[0][0].AsInt(), jit->rows[0][0].AsInt());
  EXPECT_EQ(jit->rows[0][0].AsInt(), static_cast<int64_t>(ds_->comments.size()));
}

TEST_F(JitTest, IndexScanSourceMatches) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .IndexScan(s.person, s.id, Expr::Param(0))
               .Project({Expr::Property(0, s.first_name),
                         Expr::Property(0, s.last_name)})
               .Build();
  auto aot = Run(p, {Value::Int(33)}, ExecutionMode::kInterpret);
  auto jit = Run(p, {Value::Int(33)}, ExecutionMode::kJit);
  ASSERT_TRUE(aot.ok() && jit.ok())
      << aot.status().ToString() << " / " << jit.status().ToString();
  EXPECT_EQ(aot->rows.size(), 1u);
  EXPECT_TRUE(SameRows(*aot, *jit));
}

TEST_F(JitTest, AllShortReadsJitMatchesAot) {
  for (bool use_index : {false, true}) {
    auto queries = ldbc::BuildShortReads(ds_->schema, use_index);
    Rng rng(99);
    for (const auto& q : queries) {
      for (int i = 0; i < 5; ++i) {
        auto params = ldbc::DrawShortReadParams(*ds_, q.name, &rng);
        auto aot = Run(q.plan, params, ExecutionMode::kInterpret);
        auto jit = Run(q.plan, params, ExecutionMode::kJit);
        ASSERT_TRUE(aot.ok()) << q.name << ": " << aot.status().ToString();
        ASSERT_TRUE(jit.ok()) << q.name << ": " << jit.status().ToString();
        // Order-insensitive: morsel interleaving may reorder equal sort
        // keys and unordered results.
        EXPECT_TRUE(SameRows(*aot, *jit, /*order_sensitive=*/false))
            << q.name << " params=" << params[0].AsInt()
            << " use_index=" << use_index;
      }
    }
  }
}

TEST_F(JitTest, AllUpdatesRunThroughJit) {
  auto queries = ldbc::BuildUpdates(ds_->schema, &store_->dict(), true);
  ASSERT_TRUE(queries.ok());
  Rng rng(31);
  uint64_t rels_before = store_->relationships().size();
  for (const auto& q : *queries) {
    auto params = ldbc::DrawUpdateParams(ds_, q.name, &rng);
    auto tx = mgr_->Begin();
    ExecStats stats;
    auto r = engine_->Execute(q.plan, tx.get(), params, ExecutionMode::kJit,
                              &stats);
    ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
    ASSERT_TRUE(tx->Commit().ok()) << q.name;
  }
  EXPECT_GT(store_->relationships().size(), rels_before);
}

TEST_F(JitTest, CompilationIsMemoized) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder().NodeScan(s.tag).Count().Build();
  ExecStats first, second;
  ASSERT_TRUE(Run(p, {}, ExecutionMode::kJit, &first).ok());
  ASSERT_TRUE(Run(p, {}, ExecutionMode::kJit, &second).ok());
  EXPECT_TRUE(second.memo_hit || second.cache_hit);
  EXPECT_EQ(second.compile_ms, 0.0);
}

TEST_F(JitTest, PersistentCacheServesNewEngine) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .NodeScan(s.forum)
               .Project({Expr::Property(0, s.id)})
               .Build();
  auto first = Run(p, {}, ExecutionMode::kJit);
  ASSERT_TRUE(first.ok());
  uint64_t cached = cache_->size();
  EXPECT_GT(cached, 0u);

  // A brand-new engine (fresh LLJIT, empty memo) must link the persisted
  // object instead of recompiling.
  auto engine2 = JitQueryEngine::Create(store_, indexes_, 2, cache_);
  ASSERT_TRUE(engine2.ok());
  auto tx = mgr_->Begin();
  ExecStats stats;
  auto r = (*engine2)->Execute(p, tx.get(), {}, ExecutionMode::kJit, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_TRUE(SameRows(*first, *r, /*order_sensitive=*/false));
}

TEST_F(JitTest, CodeCachedUnderAnotherCodegenVersionIsNeverServed) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .NodeScan(s.tag_class)
               .Project({Expr::Property(0, s.id)})
               .Build();
  JitOptions opts;
  const uint64_t current = JitEngine::QueryIdFor(p, opts);
  // The key as computed before the generator version joined it, and as a
  // generator one version older computes it.
  const uint64_t unversioned = HashCombine(
      HashCombine(HashCombine(HashCombine(HashString(p.Signature()), 1),
                              opts.scan.batch_size),
                  opts.scan.prefetch_distance),
      1);
  const uint64_t previous =
      JitEngine::QueryIdFor(p, opts, kCodegenAbiVersion - 1);
  EXPECT_NE(current, unversioned);
  EXPECT_NE(current, previous);

  auto make_cache = [] {
    auto pool = pmem::Pool::CreateVolatile(64ull << 20);
    EXPECT_TRUE(pool.ok());
    auto cache = QueryCache::Create(pool->get());
    EXPECT_TRUE(cache.ok());
    return std::make_pair(std::move(*pool), std::move(*cache));
  };
  // Real object code for `p`, as this generator emits it.
  auto [pool, cache] = make_cache();
  {
    auto engine = JitEngine::Create(cache.get());
    ASSERT_TRUE(engine.ok());
    auto c = (*engine)->Compile(p, opts);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_FALSE(c->from_persistent_cache);
  }
  auto blob = cache->Get(current);
  ASSERT_TRUE(blob.ok());

  // A pool holding that code only under the stale keys compiles afresh.
  auto [stale_pool, stale_cache] = make_cache();
  ASSERT_TRUE(stale_cache->Put(unversioned, blob->data(), blob->size()).ok());
  ASSERT_TRUE(stale_cache->Put(previous, blob->data(), blob->size()).ok());
  {
    auto engine = JitEngine::Create(stale_cache.get());
    ASSERT_TRUE(engine.ok());
    auto c = (*engine)->Compile(p, opts);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_FALSE(c->from_persistent_cache);
  }
  // Control: under the current key the same bytes are served.
  {
    auto engine = JitEngine::Create(cache.get());
    ASSERT_TRUE(engine.ok());
    auto c = (*engine)->Compile(p, opts);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_TRUE(c->from_persistent_cache);
  }
}

/// The compiled-code cache key as computed from a fresh serialization of
/// the plan: every key the engine derives from the stored plan hash must
/// equal it, so code cached before the hash was stored is still served.
uint64_t KeyFromSignature(const Plan& p, const JitOptions& o) {
  uint64_t id = HashCombine(HashString(p.Signature()), o.optimize ? 1 : 2);
  id = HashCombine(id, kCodegenAbiVersion);
  id = HashCombine(id, o.scan.batch_size);
  id = HashCombine(id, o.scan.prefetch_distance);
  return HashCombine(id, o.adj_cache ? 1 : 2);
}

TEST_F(JitTest, QueryIdEqualsTheKeyRecomputedFromTheSignature) {
  const auto& s = ds_->schema;
  std::vector<ldbc::NamedQuery> plans = ldbc::BuildShortReads(s, true);
  for (auto& q : ldbc::BuildShortReads(s, false)) plans.push_back(std::move(q));
  auto updates = ldbc::BuildUpdates(s, &store_->dict(), true);
  ASSERT_TRUE(updates.ok());
  for (auto& q : *updates) plans.push_back(std::move(q));
  plans.push_back(
      {"join", PlanBuilder()
                   .NodeScan(s.person)
                   .HashJoin(PlanBuilder().NodeScan(s.forum).Build(), 0, 0)
                   .Count()
                   .Build()});
  JitOptions defaults, unoptimized, no_adj, far_prefetch;
  unoptimized.optimize = false;
  no_adj.adj_cache = false;
  far_prefetch.scan.prefetch_distance = 64;
  for (const auto& q : plans) {
    for (const JitOptions& o : {defaults, unoptimized, no_adj, far_prefetch}) {
      EXPECT_EQ(JitEngine::QueryIdFor(q.plan, o), KeyFromSignature(q.plan, o))
          << q.name;
    }
  }
}

TEST_F(JitTest, OnePlanExecutedFromFourThreads) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .IndexScan(s.person, s.id, Expr::Param(0))
               .Expand(0, Direction::kOut, s.knows)
               .Project({Expr::Property(2, s.id)})
               .Build();
  const std::vector<Value> params = {Value::Int(3)};
  auto want = Run(p, params, ExecutionMode::kInterpret);
  ASSERT_TRUE(want.ok());
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        for (ExecutionMode mode :
             {ExecutionMode::kInterpret, ExecutionMode::kInterpretParallel,
              ExecutionMode::kJit, ExecutionMode::kAdaptive}) {
          auto tx = mgr_->Begin();
          auto got = engine_->Execute(p, tx.get(), params, mode);
          if (!got.ok() || !tx->Commit().ok() ||
              !SameRows(*want, *got, /*order_sensitive=*/false)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  engine_->WaitForBackgroundCompiles();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(JitTest, MemoHitsCompleteWhileAnotherPlanCompiles) {
  const auto& s = ds_->schema;
  Plan a = PlanBuilder().NodeScan(s.city).Count().Build();
  Plan b = PlanBuilder()
               .NodeScan(s.tag)
               .Project({Expr::Property(0, s.id)})
               .Build();
  auto engine = JitEngine::Create(nullptr);
  ASSERT_TRUE(engine.ok());
  JitEngine* jit = engine->get();
  ASSERT_TRUE(jit->Compile(a).ok());  // A is memoized from here on

  // B's compile parks inside FinishCompile (compile lock held) until
  // `release`; both waits give up after a bound so a memo probe that
  // blocks behind the compile fails the test instead of hanging it.
  const uint64_t b_id = JitEngine::QueryIdFor(b, JitOptions());
  std::mutex mu;
  std::condition_variable cv;
  bool b_inside = false, release = false;
  jit->set_compile_hook_for_testing([&](uint64_t query_id) {
    if (query_id != b_id) return;
    std::unique_lock<std::mutex> lock(mu);
    b_inside = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(20), [&] { return release; });
  });
  auto b_compile = std::async(std::launch::async, [&] {
    return jit->Compile(b);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(20), [&] { return b_inside; }));
  }
  constexpr int kHits = 100;
  auto hits = std::async(std::launch::async, [&] {
    int memo_hits = 0;
    for (int i = 0; i < kHits; ++i) {
      auto c = jit->Compile(a);
      CompiledQuery probe;
      if (c.ok() && c->from_memo && jit->TryGetMemoized(a, {}, &probe)) {
        ++memo_hits;
      }
    }
    return memo_hits;
  });
  // Every hit completes while B is still parked inside FinishCompile.
  bool hits_done =
      hits.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  bool b_still_inside = b_compile.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  EXPECT_TRUE(hits_done) << "memo hits waited behind another plan's compile";
  EXPECT_TRUE(b_still_inside);
  EXPECT_EQ(hits.get(), kHits);
  auto compiled_b = b_compile.get();
  ASSERT_TRUE(compiled_b.ok()) << compiled_b.status().ToString();
  EXPECT_FALSE(compiled_b->from_memo);
}

TEST_F(JitTest, AdaptiveMatchesInterpreter) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .NodeScan(s.person)
               .Expand(0, Direction::kOut, s.knows)
               .Count()
               .Build();
  auto aot = Run(p, {}, ExecutionMode::kInterpret);
  ASSERT_TRUE(aot.ok());
  // First adaptive run may finish before compilation lands; run twice.
  ExecStats stats;
  auto a1 = Run(p, {}, ExecutionMode::kAdaptive, &stats);
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_EQ(aot->rows[0][0].AsInt(), a1->rows[0][0].AsInt());
  engine_->WaitForBackgroundCompiles();
  auto a2 = Run(p, {}, ExecutionMode::kAdaptive, &stats);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(aot->rows[0][0].AsInt(), a2->rows[0][0].AsInt());
  EXPECT_GT(stats.jit_morsels, 0u)
      << "second adaptive run should execute compiled code (memoized)";
  engine_->WaitForBackgroundCompiles();
}

TEST_F(JitTest, UnoptimizedCompilationStillCorrect) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .NodeScan(s.post)
               .FilterProperty(0, s.length, CmpOp::kGt,
                               Expr::Literal(Value::Int(100)))
               .Count()
               .Build();
  JitOptions no_opt;
  no_opt.optimize = false;
  auto aot = Run(p, {}, ExecutionMode::kInterpret);
  auto tx = mgr_->Begin();
  auto jit = engine_->Execute(p, tx.get(), {}, ExecutionMode::kJit, nullptr,
                              no_opt);
  ASSERT_TRUE(jit.ok()) << jit.status().ToString();
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_EQ(aot->rows[0][0].AsInt(), jit->rows[0][0].AsInt());
}

TEST_F(JitTest, JitSeesOwnUncommittedWrites) {
  const auto& s = ds_->schema;
  Plan count = PlanBuilder().NodeScan(s.person).Count().Build();
  auto tx = mgr_->Begin();
  auto before = engine_->Execute(count, tx.get(), {}, ExecutionMode::kJit);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(tx->CreateNode(s.person, {}).ok());
  auto after = engine_->Execute(count, tx.get(), {}, ExecutionMode::kJit);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].AsInt(), before->rows[0][0].AsInt() + 1);
  tx->Abort();
}

}  // namespace
}  // namespace poseidon::jit
