// Multi-threaded MVTO stress tests: snapshot-isolation invariants under
// concurrent readers and writers (paper §5's claim of "higher concurrency"
// with consistent snapshots).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "query/engine.h"
#include "tx/transaction.h"
#include "util/random.h"

namespace poseidon::tx {
namespace {

using storage::DictCode;
using storage::PVal;
using storage::RecordId;

// ThreadSanitizer serializes atomics and instruments every access (10-20x);
// the stress loops shrink so `ctest -L tsan` stays tractable — race coverage
// comes from the interleavings, not the iteration count.
#if defined(__SANITIZE_THREAD__)
constexpr int kStressScale = 8;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kStressScale = 8;
#else
constexpr int kStressScale = 1;
#endif
#else
constexpr int kStressScale = 1;
#endif

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pool = pmem::Pool::CreateVolatile(512ull << 20);
    ASSERT_TRUE(pool.ok());
    pool_ = std::move(*pool);
    auto store = storage::GraphStore::Create(pool_.get());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    mgr_ = std::make_unique<TransactionManager>(store_.get(), nullptr);
    account_ = *store_->Code("Account");
    balance_ = *store_->Code("balance");
  }

  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<storage::GraphStore> store_;
  std::unique_ptr<TransactionManager> mgr_;
  DictCode account_, balance_;
};

TEST_F(ConcurrencyTest, DisjointWritersAllCommit) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto tx = mgr_->Begin();
        auto id = tx->CreateNode(
            account_, {{balance_, PVal::Int(t * 100000 + i)}});
        if (!id.ok() || !tx->Commit().ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0) << "disjoint inserts must never conflict";
  EXPECT_EQ(store_->nodes().size(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(mgr_->commits(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST_F(ConcurrencyTest, HotKeyWritersSerializeViaAborts) {
  RecordId hot;
  {
    auto tx = mgr_->Begin();
    hot = *tx->CreateNode(account_, {{balance_, PVal::Int(0)}});
    ASSERT_TRUE(tx->Commit().ok());
  }
  constexpr int kThreads = 4;
  constexpr int kAttempts = 300;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttempts; ++i) {
        auto tx = mgr_->Begin();
        Status s = tx->SetNodeProperty(hot, balance_, PVal::Int(i));
        if (s.ok()) s = tx->Commit();
        if (s.ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(committed.load(), 0);
  EXPECT_EQ(mgr_->commits(), static_cast<uint64_t>(committed.load() + 1));
  // The record must remain readable and consistent afterwards.
  auto check = mgr_->Begin();
  EXPECT_TRUE(check->GetNodeProperty(hot, balance_).ok());
}

TEST_F(ConcurrencyTest, SnapshotSumInvariantUnderTransfers) {
  // The classic bank test: concurrent transfers move money between
  // accounts; snapshot readers must always observe the invariant total.
  constexpr int kAccounts = 10;
  constexpr int64_t kInitial = 1000;
  std::vector<RecordId> accounts;
  {
    auto tx = mgr_->Begin();
    for (int i = 0; i < kAccounts; ++i) {
      accounts.push_back(
          *tx->CreateNode(account_, {{balance_, PVal::Int(kInitial)}}));
    }
    ASSERT_TRUE(tx->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> transfers{0};
  std::atomic<int> bad_snapshots{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(100 + w);
      while (!stop.load(std::memory_order_acquire)) {
        RecordId from = accounts[rng.Uniform(kAccounts)];
        RecordId to = accounts[rng.Uniform(kAccounts)];
        if (from == to) continue;
        int64_t amount = 1 + static_cast<int64_t>(rng.Uniform(50));
        auto tx = mgr_->Begin();
        auto from_bal = tx->GetNodeProperty(from, balance_);
        if (!from_bal.ok()) continue;  // aborted: retry
        auto to_bal = tx->GetNodeProperty(to, balance_);
        if (!to_bal.ok()) continue;
        if (!tx->SetNodeProperty(from, balance_,
                                 PVal::Int(from_bal->AsInt() - amount))
                 .ok()) {
          continue;
        }
        if (!tx->SetNodeProperty(to, balance_,
                                 PVal::Int(to_bal->AsInt() + amount))
                 .ok()) {
          continue;
        }
        if (tx->Commit().ok()) transfers.fetch_add(1);
      }
    });
  }

  // The reader keeps going until it has both 300 clean reads and seen the
  // writers commit kMinTransfers transfers while it read: on a loaded host
  // 300 reads can finish before either writer commits once. Past the
  // wall-clock cap it stops, and the progress check below reports it.
  constexpr int kMinTransfers = 20;
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::thread reader([&] {
    const int transfers_at_start = transfers.load();
    int reads = 0;
    while (reads < 300 ||
           (transfers.load() - transfers_at_start < kMinTransfers &&
            std::chrono::steady_clock::now() < cap)) {
      auto tx = mgr_->Begin();
      int64_t sum = 0;
      bool clean = true;
      for (RecordId id : accounts) {
        auto v = tx->GetNodeProperty(id, balance_);
        if (!v.ok()) {
          clean = false;  // reader aborted on a write lock: retry
          break;
        }
        sum += v->AsInt();
      }
      if (!clean) continue;
      ++reads;
      if (sum != kAccounts * kInitial) bad_snapshots.fetch_add(1);
    }
    stop.store(true, std::memory_order_release);
  });

  reader.join();
  for (auto& w : writers) w.join();

  EXPECT_EQ(bad_snapshots.load(), 0)
      << "snapshot isolation violated: reader saw a partial transfer";
  EXPECT_GT(transfers.load(), 0) << "writers must make progress";

  // Final ground truth.
  auto tx = mgr_->Begin();
  int64_t total = 0;
  for (RecordId id : accounts) {
    total += tx->GetNodeProperty(id, balance_)->AsInt();
  }
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST_F(ConcurrencyTest, ConcurrentInsertsAndScans) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      auto tx = mgr_->Begin();
      (void)tx->CreateNode(account_, {{balance_, PVal::Int(i)}});
      (void)tx->Commit();
    }
    stop.store(true, std::memory_order_release);
  });
  uint64_t last_count = 0;
  while (!stop.load(std::memory_order_acquire)) {
    auto tx = mgr_->Begin();
    uint64_t count = 0;
    uint64_t slots = store_->nodes().NumSlots();
    bool clean = true;
    for (uint64_t id = 0; id < slots && clean; ++id) {
      if (!store_->nodes().IsOccupied(id)) continue;
      auto n = tx->GetNode(id);
      if (n.ok()) {
        ++count;
      } else if (!n.status().IsNotFound()) {
        clean = false;  // locked: abandon this snapshot
      }
    }
    if (!clean) continue;
    EXPECT_GE(count, last_count) << "commit visibility must be monotonic";
    last_count = count;
  }
  writer.join();
  EXPECT_EQ(store_->nodes().size(), 2000u);
}

TEST_F(ConcurrencyTest, ConcurrentAdjacencyInsertsOnDistinctNodes) {
  constexpr int kNodes = 8;
  std::vector<RecordId> hubs;
  DictCode follows = *store_->Code("follows");
  {
    auto tx = mgr_->Begin();
    for (int i = 0; i < kNodes; ++i) {
      hubs.push_back(*tx->CreateNode(account_, {}));
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  // One thread per hub: no cross-thread conflicts, every edge must land.
  std::vector<std::thread> threads;
  constexpr int kEdges = 100;
  for (int t = 0; t < kNodes; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEdges; ++i) {
        auto tx = mgr_->Begin();
        auto spoke = tx->CreateNode(account_, {});
        ASSERT_TRUE(spoke.ok());
        ASSERT_TRUE(
            tx->CreateRelationship(hubs[t], *spoke, follows, {}).ok());
        ASSERT_TRUE(tx->Commit().ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  auto tx = mgr_->Begin();
  for (int t = 0; t < kNodes; ++t) {
    int degree = 0;
    ASSERT_TRUE(tx->ForEachOutgoing(hubs[t], [&](RecordId, const auto&) {
                      ++degree;
                      return true;
                    }).ok());
    EXPECT_EQ(degree, kEdges) << "hub " << t;
  }
}

TEST_F(ConcurrencyTest, MorselParallelScanNeverSeesUncommittedVersions) {
  // Morsel-parallel batched scans race writers that insert "poison" nodes
  // (balance < 0) and abort, interleaved with committed inserts
  // (balance >= 0). MVTO visibility must hold on every worker: a parallel
  // scan may never surface an uncommitted or aborted version.
  constexpr int kSeed = 600;  // spans multiple occupancy words + morsels
  const int kReads = 150 / kStressScale;
  {
    auto tx = mgr_->Begin();
    for (int i = 0; i < kSeed; ++i) {
      ASSERT_TRUE(tx->CreateNode(account_, {{balance_, PVal::Int(i)}}).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }

  query::QueryEngine engine(store_.get(), nullptr, 4);
  using query::CmpOp;
  using query::Expr;
  using query::PlanBuilder;
  using query::Value;
  query::Plan poison_count = PlanBuilder()
                                 .NodeScan(account_)
                                 .FilterProperty(0, balance_, CmpOp::kLt,
                                                 Expr::Literal(Value::Int(0)))
                                 .Count()
                                 .Build();
  query::Plan committed_count =
      PlanBuilder()
          .NodeScan(account_)
          .FilterProperty(0, balance_, CmpOp::kGe,
                          Expr::Literal(Value::Int(0)))
          .Count()
          .Build();

  // Writers draw from a budget the reader tops up before each pair of
  // scans, so they race every scan while the table grows by a bounded
  // amount (unbounded writers made the scans, and the test, slow down as
  // the table grew).
  constexpr int kInsertsPerRead = 8;
  std::atomic<int> budget{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (budget.fetch_sub(1, std::memory_order_acq_rel) <= 0) {
          budget.fetch_add(1, std::memory_order_acq_rel);
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          continue;
        }
        {  // poison insert, always rolled back
          auto tx = mgr_->Begin();
          (void)tx->CreateNode(account_, {{balance_, PVal::Int(-1)}});
          tx->Abort();
        }
        {  // committed insert
          auto tx = mgr_->Begin();
          (void)tx->CreateNode(account_, {{balance_, PVal::Int(1)}});
          (void)tx->Commit();
        }
      }
    });
  }

  int poison_seen = 0;
  int64_t last_committed = kSeed;
  for (int reads = 0; reads < kReads;) {
    budget.fetch_add(kInsertsPerRead, std::memory_order_acq_rel);
    auto tx = mgr_->Begin();
    auto poison = engine.Execute(poison_count, tx.get(), {},
                                 /*parallel=*/true);
    auto committed = engine.Execute(committed_count, tx.get(), {},
                                    /*parallel=*/true);
    if (!poison.ok() || !committed.ok()) continue;  // writer lock: retry
    ++reads;
    if (poison->rows[0][0].AsInt() != 0) ++poison_seen;
    int64_t now_committed = committed->rows[0][0].AsInt();
    EXPECT_GE(now_committed, last_committed)
        << "commit visibility must be monotonic across parallel scans";
    last_committed = now_committed;
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();

  EXPECT_EQ(poison_seen, 0)
      << "morsel-parallel scan surfaced uncommitted/aborted versions";
  EXPECT_GT(last_committed, kSeed) << "writers must make progress";
}

TEST_F(ConcurrencyTest, AdjacencyCacheInvalidationRaceStaysSnapshotExact) {
  // Multiple writers churn the topology of shared hub nodes (insert a spoke
  // edge, commit, delete it, commit) while readers run Expand through the
  // DRAM adjacency cache. Invalidation is asynchronous hygiene, so the cache
  // may hold stale arrays at any moment — but a reader must never be SERVED
  // one: within a single snapshot the cached walk has to agree exactly with
  // the raw chain walk, and every served edge must resolve to a visible
  // relationship with matching endpoints. Foreign-lock aborts are expected.
  constexpr int kHubs = 3;
  const int kWriterIters = 120 / kStressScale;
  const int kReaderIters = 200 / kStressScale;
  DictCode follows = *store_->Code("follows");
  std::vector<RecordId> hubs, spokes;
  {
    auto tx = mgr_->Begin();
    for (int i = 0; i < kHubs; ++i) hubs.push_back(*tx->CreateNode(account_, {}));
    for (int i = 0; i < 12; ++i) spokes.push_back(*tx->CreateNode(account_, {}));
    for (int i = 0; i < kHubs; ++i) {
      ASSERT_TRUE(tx->CreateRelationship(hubs[i], spokes[i], follows, {}).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }

  std::atomic<uint64_t> commits{0};
  std::atomic<int> mismatches{0};
  auto writer = [&](int seed) {
    Rng rng(seed);
    for (int i = 0; i < kWriterIters; ++i) {
      RecordId hub = hubs[rng.Uniform(kHubs)];
      RecordId spoke = spokes[rng.Uniform(spokes.size())];
      auto tx = mgr_->Begin();
      auto rel = tx->CreateRelationship(hub, spoke, follows, {});
      if (!rel.ok() || !tx->Commit().ok()) continue;
      commits.fetch_add(1, std::memory_order_relaxed);
      auto tx2 = mgr_->Begin();
      if (tx2->DeleteRelationship(*rel).ok() && tx2->Commit().ok()) {
        commits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  auto reader = [&](int seed) {
    Rng rng(seed);
    for (int i = 0; i < kReaderIters; ++i) {
      RecordId hub = hubs[rng.Uniform(kHubs)];
      auto tx = mgr_->Begin();
      std::vector<std::pair<RecordId, RecordId>> cached, chain;
      auto cs = tx->ForEachNeighbor(
          hub, AdjDir::kOut, [&](RecordId rel, DictCode, RecordId neighbor) {
            cached.emplace_back(rel, neighbor);
            return true;
          });
      if (!cs.ok()) {
        tx->Abort();
        continue;  // foreign write lock
      }
      auto ws = tx->ForEachOutgoing(
          hub, [&](RecordId rel, const storage::RelationshipRecord& rec) {
            chain.emplace_back(rel, rec.dst);
            return true;
          });
      if (ws.ok() && cached != chain) mismatches.fetch_add(1);
      for (auto& [rel, neighbor] : cached) {
        auto rr = tx->GetRelationship(rel);
        if (!rr.ok()) continue;  // locked by a writer mid-read
        if (rr->rec.src != hub || rr->rec.dst != neighbor) {
          mismatches.fetch_add(1);
        }
      }
      tx->Abort();
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer, 11);
  threads.emplace_back(writer, 12);
  threads.emplace_back(writer, 13);
  threads.emplace_back(reader, 21);
  threads.emplace_back(reader, 22);
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "adjacency cache served a topology outside the reader's snapshot";
  EXPECT_GT(commits.load(), 0u);
}

}  // namespace
}  // namespace poseidon::tx
