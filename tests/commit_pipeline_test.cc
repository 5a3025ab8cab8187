// Parallel commit pipeline tests: per-thread redo-log segments, cache-line
// flush coalescing (with LatencyModel accounting), group commit, and
// crash-recovery invariants under full write concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>

#include "pmem/psan.h"
#include "tx/transaction.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace poseidon::pmem {
namespace {

using storage::DictCode;
using storage::kUnlocked;
using storage::PVal;
using storage::RecordId;
using tx::TransactionManager;

PoolOptions CrashDramOptions(uint64_t capacity = 64ull << 20) {
  PoolOptions o;
  o.mode = PoolMode::kDram;
  o.capacity = capacity;
  o.crash_shadow = true;
  return o;
}

// --- Flush coalescing -----------------------------------------------------

TEST(FlushBatchTest, DedupesRepeatedLinesWithinOneBatch) {
  auto pool_r = Pool::CreateVolatile(32ull << 20);
  ASSERT_TRUE(pool_r.ok());
  Pool* pool = pool_r->get();
  auto a = pool->AllocateZeroed(256);
  ASSERT_TRUE(a.ok());
  char* p = pool->ToPtr<char>(*a);

  pool->ResetStats();
  FlushBatch batch(pool);
  batch.Flush(p, 8);        // line 0: paid
  batch.Flush(p + 16, 8);   // line 0 again: coalesced
  batch.Flush(p + 64, 8);   // line 1: paid
  batch.Flush(p, 72);       // lines 0+1: both coalesced
  EXPECT_EQ(pool->stats().flushed_lines, 2u);
  EXPECT_EQ(pool->stats().deduped_lines, 3u);

  // A new coalescing scope pays again.
  batch.Clear();
  batch.Flush(p, 8);
  EXPECT_EQ(pool->stats().flushed_lines, 3u);
}

TEST(FlushBatchTest, DedupedLinesCostNoFlushLatency) {
  // The acceptance check for the LatencyModel accounting: flushing the same
  // line N times within one commit costs ONE flush_line_ns, not N. Use an
  // exaggerated per-line cost so the spin waits dominate all overheads.
  PoolOptions o;
  o.capacity = 32ull << 20;
  o.has_latency_override = true;
  o.latency_override = LatencyModel{};
  o.latency_override.flush_line_ns = 20'000;  // 20 us per line
  std::string path = testing::TempDir() + "/flush_latency_test.pmem";
  std::filesystem::remove(path);
  auto pool_r = Pool::Create(path, o);
  ASSERT_TRUE(pool_r.ok());
  Pool* pool = pool_r->get();
  auto a = pool->AllocateZeroed(100 * kCacheLineSize);
  ASSERT_TRUE(a.ok());
  char* p = pool->ToPtr<char>(*a);

  pool->ResetStats();
  using Clock = std::chrono::steady_clock;
  FlushBatch dup(pool);
  auto t0 = Clock::now();
  for (int i = 0; i < 100; ++i) dup.Flush(p, 8);  // one line, 99 dedups
  auto t1 = Clock::now();
  FlushBatch uniq(pool);
  for (int i = 0; i < 100; ++i) uniq.Flush(p + i * kCacheLineSize, 8);
  auto t2 = Clock::now();

  EXPECT_EQ(pool->stats().flushed_lines, 101u);
  EXPECT_EQ(pool->stats().deduped_lines, 99u);
  auto dup_ns = (t1 - t0).count();
  auto uniq_ns = (t2 - t1).count();
  EXPECT_LT(dup_ns * 5, uniq_ns)
      << "100 coalesced flushes of one line must cost ~1/100th of 100 "
         "distinct lines (dup=" << dup_ns << "ns uniq=" << uniq_ns << "ns)";
  std::filesystem::remove(path);
}

TEST(CommitPipelineTest, PipelinedCommitDrainsThriceAndCoalesces) {
  auto pool_r = Pool::CreateVolatile(32ull << 20);
  ASSERT_TRUE(pool_r.ok());
  Pool* pool = pool_r->get();
  auto a = pool->AllocateZeroed(64);
  ASSERT_TRUE(a.ok());

  pool->ResetStats();
  RedoTx tx(pool->redo_log());
  uint64_t v1 = 1, v2 = 2;
  tx.StageValue(*a, v1);       // same cache line twice: the apply-phase
  tx.StageValue(*a + 8, v2);   // flushes must coalesce
  ASSERT_TRUE(tx.Commit(1).ok());
  EXPECT_EQ(*pool->ToPtr<uint64_t>(*a), 1u);
  EXPECT_EQ(*pool->ToPtr<uint64_t>(*a + 8), 2u);
  EXPECT_EQ(pool->stats().drains, 3u)
      << "pipelined commit: entry drain, marker drain, apply drain — the "
         "marker clear is flushed but not drained";
  EXPECT_GT(pool->stats().deduped_lines, 0u);
}

// --- Segmented recovery ---------------------------------------------------

/// Crafts a committed-but-unapplied segment using the documented layout:
/// [0] state, [8] commit_ts, [16] num_entries, [24] crc,
/// [32] {target, len, data}.
void CraftCommittedSegment(Pool* pool, uint32_t seg_idx, uint64_t commit_ts,
                           Offset target, uint64_t value) {
  char* seg = pool->ToPtr<char>(pool->redo_log()->segment_offset(seg_idx));
  uint64_t state = 1, n = 1, len = 8;
  std::memcpy(seg + 8, &commit_ts, 8);
  std::memcpy(seg + 16, &n, 8);
  std::memcpy(seg + kRedoSegmentHeaderBytes, &target, 8);
  std::memcpy(seg + kRedoSegmentHeaderBytes + 8, &len, 8);
  std::memcpy(seg + kRedoSegmentHeaderBytes + 16, &value, 8);
  uint64_t crc = util::Crc32c(seg + 8, 16);
  crc = util::Crc32c(seg + kRedoSegmentHeaderBytes, 24,
                     static_cast<uint32_t>(crc));
  std::memcpy(seg + 24, &crc, 8);
  std::memcpy(seg, &state, 8);
}

TEST(CommitPipelineTest, RecoveryReplaysSegmentsInCommitTimestampOrder) {
  // Two segments pending on the same target: the HIGHER commit timestamp
  // must win regardless of segment index (same-record commit order equals
  // timestamp order under MVTO locking).
  for (bool newer_in_segment_zero : {true, false}) {
    auto pool_r = Pool::CreateVolatile(32ull << 20);
    ASSERT_TRUE(pool_r.ok());
    Pool* pool = pool_r->get();
    ASSERT_GE(pool->redo_log()->num_segments(), 2u);
    auto a = pool->AllocateZeroed(64);
    ASSERT_TRUE(a.ok());

    uint32_t newer_seg = newer_in_segment_zero ? 0 : 1;
    uint32_t older_seg = newer_in_segment_zero ? 1 : 0;
    CraftCommittedSegment(pool, newer_seg, /*commit_ts=*/9, *a, 111);
    CraftCommittedSegment(pool, older_seg, /*commit_ts=*/4, *a, 222);

    EXPECT_TRUE(pool->redo_log()->Recover());
    EXPECT_EQ(*pool->ToPtr<uint64_t>(*a), 111u)
        << "newer_in_segment_zero=" << newer_in_segment_zero;
    // Markers cleared: a second recovery is a no-op.
    EXPECT_FALSE(pool->redo_log()->Recover());
  }
}

TEST(CommitPipelineTest, CrashBetweenMarkerAndApplyIsReplayed) {
  // Freeze the durable image right after the phase-2 (marker) drain via the
  // commit's drain hook: the marker is durable, the application is not.
  // Recovery must replay the segment.
  auto pool_r = Pool::Create("", CrashDramOptions());
  ASSERT_TRUE(pool_r.ok());
  Pool* pool = pool_r->get();
  auto a = pool->AllocateZeroed(64);
  ASSERT_TRUE(a.ok());

  int drains = 0;
  RedoTx tx(pool->redo_log());
  uint64_t v = 42;
  tx.StageValue(*a, v);
  ASSERT_TRUE(tx.Commit(3, [&] {
                  pool->Drain();
                  if (++drains == 2) pool->FreezeShadow();
                }).ok());
  EXPECT_EQ(drains, 3);

  pool->SimulateCrash();
  EXPECT_EQ(*pool->ToPtr<uint64_t>(*a), 0u) << "apply was not durable";
  EXPECT_TRUE(pool->redo_log()->Recover());
  EXPECT_EQ(*pool->ToPtr<uint64_t>(*a), 42u);
}

TEST(CommitPipelineTest, ConcurrentCommittersUseDistinctSegments) {
  auto pool_r = Pool::CreateVolatile(32ull << 20);
  ASSERT_TRUE(pool_r.ok());
  Pool* pool = pool_r->get();
  ASSERT_GE(pool->redo_log()->num_segments(), 2u);
  RedoTx a(pool->redo_log());
  RedoTx b(pool->redo_log());
  EXPECT_NE(a.segment(), b.segment());
}

// --- Group commit ---------------------------------------------------------

TEST(GroupCommitTest, SingleThreadedLeaderNeverWaits) {
  auto pool_r = Pool::CreateVolatile(64ull << 20);
  ASSERT_TRUE(pool_r.ok());
  auto store_r = storage::GraphStore::Create(pool_r->get());
  ASSERT_TRUE(store_r.ok());
  TransactionManager mgr(store_r->get(), nullptr);
  ASSERT_TRUE(mgr.group_commit_enabled());
  DictCode label = *(*store_r)->Code("N");

  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) {
    auto tx = mgr.Begin();
    ASSERT_TRUE(tx->CreateNode(label, {}).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto elapsed = std::chrono::steady_clock::now() - t0;
  // A lone committer is its own leader with a satisfied batch predicate:
  // 3 group drains per commit, no window sleeps.
  EXPECT_EQ(mgr.Stats().group_drains, 15u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
}

TEST(GroupCommitTest, ConcurrentCommittersShareLeaderDrains) {
  auto pool_r = Pool::CreateVolatile(256ull << 20);
  ASSERT_TRUE(pool_r.ok());
  auto store_r = storage::GraphStore::Create(pool_r->get());
  ASSERT_TRUE(store_r.ok());
  TransactionManager mgr(store_r->get(), nullptr);
  DictCode label = *(*store_r)->Code("N");

  constexpr int kThreads = 4, kPerThread = 100;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto tx = mgr.Begin();
        if (!tx->CreateNode(label, {}).ok() || !tx->Commit().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mgr.commits(), static_cast<uint64_t>(kThreads * kPerThread));
  // Leaders drain once per batch: never more than 3 drains per commit, and
  // batching makes it strictly fewer whenever committers overlap.
  EXPECT_LE(mgr.Stats().group_drains, 3ull * kThreads * kPerThread);
  EXPECT_GT(mgr.Stats().group_drains, 0u);
  EXPECT_EQ(PsanTotalViolations(), 0u)
      << "group commit broke persist ordering";
}

// --- Crash torture under write concurrency --------------------------------

/// One torture round: 4 writers commit tagged triples concurrently, the
/// durable image freezes at a random instant, we "lose power", recover, and
/// every transaction must be all-or-nothing: each tag has 0 or 3 nodes.
void RunTortureRound(uint64_t seed) {
  auto pool_r = Pool::Create("", CrashDramOptions(48ull << 20));
  ASSERT_TRUE(pool_r.ok());
  Pool* pool = pool_r->get();

  DictCode label, tag_key;
  constexpr int kThreads = 4, kPerThread = 8, kNodesPerTx = 3;
  {
    auto store_r = storage::GraphStore::Create(pool);
    ASSERT_TRUE(store_r.ok());
    auto mgr = std::make_unique<TransactionManager>(store_r->get(), nullptr);
    label = *(*store_r)->Code("T");
    tag_key = *(*store_r)->Code("tag");

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          auto tx = mgr->Begin();
          int64_t tag = t * 10'000 + i;
          bool ok = true;
          for (int n = 0; n < kNodesPerTx; ++n) {
            ok = ok &&
                 tx->CreateNode(label, {{tag_key, PVal::Int(tag)}}).ok();
          }
          if (!ok || !tx->Commit().ok()) failures.fetch_add(1);
        }
      });
    }
    // Power fails at a random instant while all writers are running.
    Rng rng(seed);
    std::this_thread::sleep_for(std::chrono::microseconds(rng.Uniform(400)));
    pool->FreezeShadow();
    for (auto& th : threads) th.join();
    ASSERT_EQ(failures.load(), 0);
    // DRAM-side state (manager, tables) dies with the "crash".
  }

  pool->SimulateCrash();
  pool->redo_log()->Recover();
  auto store_r = storage::GraphStore::Open(pool);
  ASSERT_TRUE(store_r.ok()) << store_r.status().ToString();
  TransactionManager mgr(store_r->get(), nullptr);
  ASSERT_TRUE(mgr.RecoverInFlight().ok());

  // No lock may survive recovery, and every tag is all-or-nothing.
  std::map<int64_t, int> tag_counts;
  auto tx = mgr.Begin();
  (*store_r)->nodes().ForEach([&](RecordId id, storage::NodeRecord& rec) {
    EXPECT_EQ(rec.tx.txn_id, kUnlocked) << "seed " << seed << " node " << id;
    auto v = tx->GetNodeProperty(id, tag_key);
    ASSERT_TRUE(v.ok()) << "seed " << seed << " node " << id << ": "
                        << v.status().ToString();
    ++tag_counts[v->AsInt()];
  });
  for (const auto& [tag, count] : tag_counts) {
    EXPECT_EQ(count, kNodesPerTx)
        << "seed " << seed << ": transaction for tag " << tag
        << " was torn by the crash";
  }
  // Under a POSEIDON_PSAN build the whole round ran with the persist-order
  // sanitizer watching; the unmodified pipeline must stay clean. No-op
  // (always 0) in plain builds.
  EXPECT_EQ(PsanTotalViolations(), 0u)
      << "seed " << seed << ": commit pipeline broke persist ordering";
}

TEST(CommitPipelineTortureTest, ConcurrentCommitsAreAllOrNothing) {
  // Under ThreadSanitizer (10-20x slowdown) fewer rounds keep `ctest -L
  // tsan` tractable; the interleavings, not the round count, carry the
  // race coverage.
#if defined(__SANITIZE_THREAD__)
  constexpr uint64_t kRounds = 12;
#else
  constexpr uint64_t kRounds = 100;
#endif
  for (uint64_t seed = 1; seed <= kRounds; ++seed) RunTortureRound(seed);
}

// --- RecoverInFlight durability (satellite fix) ---------------------------

TEST(CommitPipelineTest, RecoveryPersistsClearedLocksDurably) {
  // A crash leaves (a) a locked committed record whose lock happened to be
  // durable and (b) an uncommitted insert. RecoverInFlight must flush BOTH
  // branches — the cleared txn_id and the dropped occupancy bit — so a
  // second crash right after recovery changes nothing.
  auto pool_r = Pool::Create("", CrashDramOptions());
  ASSERT_TRUE(pool_r.ok());
  Pool* pool = pool_r->get();

  DictCode label, key;
  RecordId committed;
  {
    auto store_r = storage::GraphStore::Create(pool);
    ASSERT_TRUE(store_r.ok());
    auto mgr = std::make_unique<TransactionManager>(store_r->get(), nullptr);
    label = *(*store_r)->Code("N");
    key = *(*store_r)->Code("v");
    {
      auto tx = mgr->Begin();
      committed = *tx->CreateNode(label, {{key, PVal::Int(1)}});
      ASSERT_TRUE(tx->Commit().ok());
    }
    auto tx = mgr->Begin();
    ASSERT_TRUE(tx->SetNodeProperty(committed, key, PVal::Int(2)).ok());
    ASSERT_TRUE(tx->CreateNode(label, {{key, PVal::Int(3)}}).ok());
    // The write lock is normally volatile; emulate the incidental line
    // flush (e.g. a neighbouring record's commit) that makes it durable.
    auto* rec = (*store_r)->nodes().AtForWrite(committed);
    pool->Persist(rec, sizeof(storage::NodeRecord));
    (void)tx.release();  // crash with the transaction in flight
  }

  pool->SimulateCrash();
  pool->redo_log()->Recover();
  {
    auto store_r = storage::GraphStore::Open(pool);
    ASSERT_TRUE(store_r.ok());
    ASSERT_NE((*store_r)->nodes().AtForWrite(committed)->tx.txn_id, kUnlocked)
        << "precondition: the crash left a durable lock";
    TransactionManager mgr(store_r->get(), nullptr);
    ASSERT_TRUE(mgr.RecoverInFlight().ok());
    EXPECT_EQ((*store_r)->nodes().size(), 1u);
    EXPECT_EQ((*store_r)->nodes().AtForWrite(committed)->tx.txn_id,
              kUnlocked);
  }

  // Second power loss immediately after recovery: the recovery writes
  // themselves must have been durable.
  pool->SimulateCrash();
  pool->redo_log()->Recover();
  auto store_r = storage::GraphStore::Open(pool);
  ASSERT_TRUE(store_r.ok());
  EXPECT_EQ((*store_r)->nodes().size(), 1u)
      << "dropped in-flight insert must stay dropped";
  EXPECT_EQ((*store_r)->nodes().AtForWrite(committed)->tx.txn_id, kUnlocked)
      << "cleared lock must stay cleared without re-running recovery";
  TransactionManager mgr(store_r->get(), nullptr);
  auto tx = mgr.Begin();
  auto v = tx->GetNodeProperty(committed, key);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 1) << "uncommitted update must not survive";
  EXPECT_EQ(PsanTotalViolations(), 0u)
      << "recovery writes broke persist ordering";
}

}  // namespace
}  // namespace poseidon::pmem
