// Overload governance end-to-end (ISSUE: cooperative deadlines, admission
// control, graceful pool-space exhaustion):
//
//   * A deliberately long multi-hop traversal is cancelled within 2x its
//     deadline in all four execution modes (including compiled code, which
//     polls poseidon_should_yield from its generated loops), returning
//     kDeadlineExceeded with the transaction cleanly aborted.
//   * Explicit GraphDb::Cancel from another thread aborts with kCancelled.
//   * The writer admission gate sheds with ResourceExhausted once
//     max_writers are in flight, and re-admits when a slot frees.
//   * The pool's soft space watermark denies new writers (after emergency
//     GC) while leaving reads and in-flight commits untouched.
//   * GraphDb::Execute opens write plans through the same gate and
//     watermark, and read plans as read-only transactions that commit
//     without a drain.
//   * A pmem.alloc fault sweep over a mixed insert/update workload: every
//     injected allocation failure unwinds the transaction atomically
//     (ResourceExhausted, no leaked records, pool reopenable, zero PSAN
//     violations).
//   * An abort storm returns every allocation to the free lists (allocator
//     accounting is stable across storm rounds).

#include "core/graph_db.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "pmem/psan.h"
#include "util/fault.h"

namespace poseidon::core {
namespace {

using query::Expr;
using query::Plan;
using query::PlanBuilder;
using query::Value;
using storage::PVal;
using util::FaultRegistry;

GraphDbOptions FastOptions(const std::string& path) {
  GraphDbOptions o;
  o.path = path;
  o.capacity = 512ull << 20;
  o.has_latency_override = true;
  o.latency_override = pmem::LatencyModel::Dram();
  o.query_threads = 2;
  return o;
}

class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/overload_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".pmem";
    std::filesystem::remove(path_);
    FaultRegistry::Instance().Reset();
  }
  void TearDown() override {
    FaultRegistry::Instance().Reset();
    std::filesystem::remove(path_);
  }

  std::string path_;
};

/// Dense SNB-style social graph: every person knows 8 others, so an h-hop
/// expansion fans out 8^h ways — deliberately far too much work to finish
/// under the deadlines below in any execution mode.
void LoadDenseKnowsGraph(GraphDb* db, int persons) {
  auto person = *db->Code("Person");
  auto knows = *db->Code("knows");
  auto id_key = *db->Code("id");
  std::vector<storage::RecordId> ids;
  ids.reserve(persons);
  {
    auto tx = db->Begin();
    for (int i = 0; i < persons; ++i) {
      ids.push_back(*tx->CreateNode(person, {{id_key, PVal::Int(i)}}));
    }
    Status commit = tx->Commit();
    ASSERT_TRUE(commit.ok()) << commit.ToString();
  }
  // Edges land in batched commits: one giant commit would overflow a redo
  // segment (this test is about query-time governance, not commit sizing).
  const int chords[] = {1, 3, 7, 13, 31, 61, 127, 251};
  constexpr int kBatch = 200;
  for (int base = 0; base < persons; base += kBatch) {
    auto tx = db->Begin();
    for (int i = base; i < std::min(base + kBatch, persons); ++i) {
      for (int c : chords) {
        ASSERT_TRUE(
            tx->CreateRelationship(ids[i], ids[(i + c) % persons], knows, {})
                .ok());
      }
    }
    Status commit = tx->Commit();
    ASSERT_TRUE(commit.ok()) << commit.ToString();
  }
}

Plan DeepExpandPlan(GraphDb* db, int hops) {
  auto person = *db->Code("Person");
  auto knows = *db->Code("knows");
  PlanBuilder b = PlanBuilder().NodeScan(person);
  for (int h = 0; h < hops; ++h) {
    // Each Expand appends [rel, node]: hop h expands the node at column 2h.
    b = std::move(b).Expand(2 * h, query::Direction::kOut, knows);
  }
  return std::move(b).Count().Build();
}

TEST_F(OverloadTest, DeadlineCancelsLongTraversalInAllModes) {
  auto db_or = GraphDb::Create(FastOptions(path_));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  GraphDb* db = db_or->get();
  LoadDenseKnowsGraph(db, 1200);
  Plan p = DeepExpandPlan(db, 5);  // ~1200 * 8^5 output rows: minutes of work

  constexpr int64_t kDeadlineMs = 300;
  const jit::ExecutionMode modes[] = {
      jit::ExecutionMode::kInterpret, jit::ExecutionMode::kInterpretParallel,
      jit::ExecutionMode::kJit, jit::ExecutionMode::kAdaptive};
  for (jit::ExecutionMode mode : modes) {
    // Warm-up run (unmeasured): absorbs the one-time LLVM compile cost for
    // kJit/kAdaptive so the measured run hits the in-memory memo and the 2x
    // bound reflects poll latency, not compile latency. The warm-up itself
    // is cut short by the same deadline.
    (void)db->Execute(p, mode, {}, nullptr, kDeadlineMs);
    db->engine()->WaitForBackgroundCompiles();

    uint64_t deadline_aborts_before = db->Health().aborts_deadline;
    jit::ExecStats stats;
    auto start = std::chrono::steady_clock::now();
    auto r = db->Execute(p, mode, {}, &stats, kDeadlineMs);
    auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    ASSERT_FALSE(r.ok()) << "mode=" << static_cast<int>(mode)
                         << " finished a 3M+-row traversal under a "
                         << kDeadlineMs << "ms deadline?";
    EXPECT_TRUE(r.status().IsDeadlineExceeded())
        << "mode=" << static_cast<int>(mode) << ": "
        << r.status().ToString();
    EXPECT_LE(elapsed_ms, 2 * kDeadlineMs)
        << "mode=" << static_cast<int>(mode)
        << " took more than 2x its deadline to notice cancellation";
    EXPECT_TRUE(stats.deadline_exceeded);
    EXPECT_FALSE(stats.cancelled);
    // The transaction was aborted and classified (taxonomy in Health()).
    EXPECT_GT(db->Health().aborts_deadline, deadline_aborts_before)
        << "mode=" << static_cast<int>(mode);
  }
  // The engine stays fully usable: the same plan over a small fraction of
  // the graph (1 hop) completes normally.
  auto ok = db->Execute(DeepExpandPlan(db, 1), jit::ExecutionMode::kInterpret);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows[0][0].AsInt(), 1200 * 8);
}

TEST_F(OverloadTest, ExplicitCancelFromAnotherThread) {
  auto db_or = GraphDb::Create(FastOptions(path_));
  ASSERT_TRUE(db_or.ok());
  GraphDb* db = db_or->get();
  LoadDenseKnowsGraph(db, 1200);
  Plan p = DeepExpandPlan(db, 5);

  auto tx = db->Begin();
  Status result;
  std::thread worker([&] {
    auto r = db->ExecuteIn(p, tx.get(), {}, jit::ExecutionMode::kInterpret);
    result = r.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  GraphDb::Cancel(tx.get());
  worker.join();
  EXPECT_TRUE(result.IsCancelled()) << result.ToString();
  tx->RecordAbortCause(result);
  tx->Abort();
  EXPECT_GE(db->Health().aborts_cancelled, 1u);
}

TEST_F(OverloadTest, AdmissionGateShedsExcessWriters) {
  auto db_or = GraphDb::Create(FastOptions(path_));
  ASSERT_TRUE(db_or.ok());
  GraphDb* db = db_or->get();
  db->txm()->set_max_writers(1);

  auto first = db->BeginWrite();
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // One writer in flight at cap 1: the next admission waits out the bounded
  // backoff (sub-millisecond by default) and sheds.
  auto second = db->BeginWrite();
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourceExhausted())
      << second.status().ToString();
  EXPECT_GE(db->Health().writers_shed, 1u);
  EXPECT_EQ(db->Health().max_writers, 1);

  // Reads are never gated.
  auto reader = db->BeginReadOnly();
  ASSERT_NE(reader, nullptr);

  // Retiring the writer frees the slot; admission succeeds again.
  ASSERT_TRUE((*first)->Commit().ok());
  auto third = db->BeginWrite();
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  (*third)->Abort();
  db->txm()->set_max_writers(0);
}

TEST_F(OverloadTest, SoftWatermarkDeniesWritersButNotReaders) {
  auto options = FastOptions(path_);
  options.capacity = 32ull << 20;  // small pool: data moves the needle
  auto db_or = GraphDb::Create(options);
  ASSERT_TRUE(db_or.ok());
  GraphDb* db = db_or->get();
  auto n_label = *db->Code("N");
  auto v_key = *db->Code("v");
  {
    auto tx = db->Begin();
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(tx->CreateNode(n_label, {{v_key, PVal::Int(i)}}).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  // Pick the largest threshold the current usage already exceeds, so the
  // gate trips deterministically regardless of table geometry.
  uint32_t pct = static_cast<uint32_t>(db->pool()->bytes_used() * 100 /
                                       db->pool()->capacity());
  ASSERT_GE(pct, 1u) << "dataset too small to cross 1% of the pool";
  db->pool()->set_soft_watermark_pct(pct);
  ASSERT_TRUE(db->pool()->AboveSoftWatermark())
      << "usage " << db->pool()->bytes_used() << " of "
      << db->pool()->capacity();

  auto denied = db->BeginWrite();
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.status().IsResourceExhausted())
      << denied.status().ToString();
  EXPECT_GE(db->Health().space_denied, 1u);
  EXPECT_TRUE(db->Health().above_soft_watermark);

  // Reads still work above the watermark.
  auto reader = db->BeginReadOnly();
  auto got = reader->GetNode(0);
  EXPECT_TRUE(got.ok());

  db->pool()->set_soft_watermark_pct(0);
  auto admitted = db->BeginWrite();
  ASSERT_TRUE(admitted.ok());
  (*admitted)->Abort();
}

/// One-node insert: the smallest plan GraphDb::Execute must treat as a
/// writer.
Plan InsertPlan(GraphDb* db) {
  return PlanBuilder()
      .CreateNode(*db->Code("N"), {*db->Code("v")},
                  {Expr::Literal(Value::Int(1))})
      .Build();
}

TEST_F(OverloadTest, ExecuteShedsWritePlansAtTheAdmissionGate) {
  auto db_or = GraphDb::Create(FastOptions(path_));
  ASSERT_TRUE(db_or.ok());
  GraphDb* db = db_or->get();
  Plan insert = InsertPlan(db);
  Plan count = PlanBuilder().NodeScan(*db->Code("N")).Count().Build();
  db->txm()->set_max_writers(1);

  auto held = db->BeginWrite();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  uint64_t shed_before = db->Health().writers_shed;
  auto r = db->Execute(insert);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_EQ(db->Health().writers_shed, shed_before + 1);

  // A read plan is not a writer: it runs while the gate is full.
  auto read = db->Execute(count);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->rows[0][0].AsInt(), 0);

  (*held)->Abort();
  auto admitted = db->Execute(insert);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  db->txm()->set_max_writers(0);
  auto after = db->Execute(count);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].AsInt(), 1);
}

TEST_F(OverloadTest, ExecuteAboveSoftWatermarkDeniesWritePlansOnly) {
  auto options = FastOptions(path_);
  options.capacity = 32ull << 20;
  auto db_or = GraphDb::Create(options);
  ASSERT_TRUE(db_or.ok());
  GraphDb* db = db_or->get();
  auto n_label = *db->Code("N");
  auto v_key = *db->Code("v");
  {
    auto tx = db->Begin();
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(tx->CreateNode(n_label, {{v_key, PVal::Int(i)}}).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  uint32_t pct = static_cast<uint32_t>(db->pool()->bytes_used() * 100 /
                                       db->pool()->capacity());
  ASSERT_GE(pct, 1u);
  db->pool()->set_soft_watermark_pct(pct);
  ASSERT_TRUE(db->pool()->AboveSoftWatermark());

  uint64_t denied_before = db->Health().space_denied;
  auto write = db->Execute(InsertPlan(db));
  ASSERT_FALSE(write.ok());
  EXPECT_TRUE(write.status().IsResourceExhausted())
      << write.status().ToString();
  EXPECT_GT(db->Health().space_denied, denied_before);

  auto read = db->Execute(PlanBuilder().NodeScan(n_label).Count().Build());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->rows[0][0].AsInt(), 5000);
  db->pool()->set_soft_watermark_pct(0);
}

TEST_F(OverloadTest, ReadOnlyExecuteCommitsWithoutDrains) {
  auto db_or = GraphDb::Create(FastOptions(path_));
  ASSERT_TRUE(db_or.ok());
  GraphDb* db = db_or->get();
  auto n_label = *db->Code("N");
  ASSERT_TRUE(db->Execute(InsertPlan(db)).ok());
  Plan count = PlanBuilder().NodeScan(n_label).Count().Build();

  uint64_t before = db->pool()->stats().drains.load();
  for (int i = 0; i < 3; ++i) {
    auto r = db->Execute(count);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].AsInt(), 1);
  }
  EXPECT_EQ(db->pool()->stats().drains.load(), before)
      << "a read-only Execute persists no timestamp and runs no redo commit";
}

TEST_F(OverloadTest, AllocFaultSweepUnwindsCleanly) {
  storage::DictCode label, key;
  uint64_t committed_nodes = 0;
  {
    auto db_or = GraphDb::Create(FastOptions(path_));
    ASSERT_TRUE(db_or.ok());
    GraphDb* db = db_or->get();
    label = *db->Code("Item");
    key = *db->Code("v");
    auto key2 = *db->Code("w");  // interned up front: dictionary growth
                                 // must not absorb the injected fault
    // Base data for the update half of the workload.
    {
      auto tx = db->Begin();
      for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(tx->CreateNode(label, {{key, PVal::Int(i)}}).ok());
      }
      ASSERT_TRUE(tx->Commit().ok());
      committed_nodes = 64;
    }

    // Sweep the fault point across the whole commit path: the k-th pool
    // allocation of each mixed insert/update transaction fails. Whatever
    // breaks must unwind atomically: ResourceExhausted (never a crash or a
    // partial commit), live-record accounting restored, taxonomy bumped.
    for (uint64_t k = 1; k <= 40; ++k) {
      uint64_t nodes_before = db->store()->nodes().size();
      uint64_t props_before = db->store()->properties().table()->size();
      uint64_t space_aborts_before = db->Health().aborts_space;

      FaultRegistry::Instance().Arm("pmem.alloc", /*after=*/k, /*times=*/1);
      auto tx = db->Begin();
      Status s;
      for (int i = 0; i < 10 && s.ok(); ++i) {
        s = tx->CreateNode(label, {{key, PVal::Int(1000 + i)},
                                   {key2, PVal::Int(i)}})
                .status();
      }
      for (int i = 0; i < 5 && s.ok(); ++i) {
        s = tx->SetNodeProperty(static_cast<storage::RecordId>(i), key,
                                PVal::Int(-1));
      }
      if (s.ok()) s = tx->Commit();
      bool fired = FaultRegistry::Instance().fired("pmem.alloc");
      FaultRegistry::Instance().Reset();

      if (s.ok()) {
        ASSERT_FALSE(fired) << "k=" << k
                            << ": injected failure but commit succeeded";
        committed_nodes += 10;
        continue;
      }
      ASSERT_TRUE(fired) << "k=" << k << ": " << s.ToString();
      EXPECT_TRUE(s.IsResourceExhausted()) << "k=" << k << ": "
                                           << s.ToString();
      tx->RecordAbortCause(s);
      tx->Abort();
      tx.reset();  // retire before accounting: Finish() runs inline GC
      EXPECT_GT(db->Health().aborts_space, space_aborts_before) << "k=" << k;
      EXPECT_EQ(db->store()->nodes().size(), nodes_before)
          << "k=" << k << ": aborted insert leaked node records";
      EXPECT_EQ(db->store()->properties().table()->size(), props_before)
          << "k=" << k << ": aborted commit leaked property records";

      // The engine stays writable after every injected failure.
      auto retry = db->Begin();
      ASSERT_TRUE(retry->CreateNode(label, {{key, PVal::Int(7)}}).ok());
      ASSERT_TRUE(retry->Commit().ok());
      ++committed_nodes;
    }
    EXPECT_EQ(pmem::PsanTotalViolations(), 0u);
  }
  // The pool reopens cleanly after the whole sweep and sees exactly the
  // committed state.
  auto db = GraphDb::Open(FastOptions(path_));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->store()->nodes().size(), committed_nodes);
  EXPECT_EQ(pmem::PsanTotalViolations(), 0u);
}

TEST_F(OverloadTest, AbortStormReturnsAllocationsToFreeLists) {
  auto db_or = GraphDb::Create(FastOptions(path_));
  ASSERT_TRUE(db_or.ok());
  GraphDb* db = db_or->get();
  auto label = *db->Code("Tmp");
  auto key = *db->Code("v");

  auto storm_round = [&] {
    for (int t = 0; t < 10; ++t) {
      auto tx = db->Begin();
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(
            tx->CreateNode(label, {{key, PVal::Int(i)}}).ok());
      }
      tx->Abort();
    }
  };

  // Warm-up round: lets the chunked tables grow whatever capacity the storm
  // working set needs (chunk growth is capacity, not a leak).
  storm_round();
  uint64_t nodes_after_warmup = db->store()->nodes().size();
  uint64_t props_after_warmup = db->store()->properties().table()->size();
  uint64_t bytes_after_warmup = db->pool()->bytes_used();

  for (int round = 0; round < 20; ++round) storm_round();

  // Every allocation the aborted transactions made came back to the free
  // lists: live-record counts are flat and the bump pointer never moved
  // again (all storm rounds were served from recycled slots).
  EXPECT_EQ(db->store()->nodes().size(), nodes_after_warmup);
  EXPECT_EQ(db->store()->properties().table()->size(), props_after_warmup);
  EXPECT_EQ(db->pool()->bytes_used(), bytes_after_warmup)
      << "abort storm grew the pool: allocations leaked past the free lists";
}

TEST_F(OverloadTest, ExplainRendersOverloadBlock) {
  auto db_or = GraphDb::Create(FastOptions(path_));
  ASSERT_TRUE(db_or.ok());
  GraphDb* db = db_or->get();
  auto n_label = *db->Code("N");
  Plan p = PlanBuilder().NodeScan(n_label).Count().Build();

  // Off by default: no overload block.
  EXPECT_EQ(db->Explain(p).find("deadline="), std::string::npos);

  db->txm()->set_default_deadline_ms(250);
  db->txm()->set_max_writers(8);
  std::string out = db->Explain(p);
  EXPECT_NE(out.find("deadline=250ms"), std::string::npos) << out;
  EXPECT_NE(out.find("writers=0/8"), std::string::npos) << out;
  EXPECT_NE(out.find("aborts="), std::string::npos) << out;
  db->txm()->set_default_deadline_ms(0);
  db->txm()->set_max_writers(0);
}

TEST_F(OverloadTest, PoolExhaustionErrorCarriesSizes) {
  // The detailed message (requested size/alignment, remaining bytes) is the
  // satellite fix for the bare "pool exhausted" error.
  FaultRegistry::Instance().Arm("pmem.alloc", 1, 1);
  auto db_or = GraphDb::Create(FastOptions(path_));
  // Create itself allocates: whichever layer hit the fault must surface the
  // annotated message.
  if (!db_or.ok()) {
    EXPECT_NE(db_or.status().ToString().find("pmem.alloc"),
              std::string::npos);
    FaultRegistry::Instance().Reset();
    return;
  }
  FaultRegistry::Instance().Reset();
  GraphDb* db = db_or->get();
  auto tx = db->Begin();
  FaultRegistry::Instance().Arm("pmem.alloc", 1, 1);
  auto r = tx->CreateNode(*db->Code("N"), {});
  FaultRegistry::Instance().Reset();
  if (!r.ok()) {
    EXPECT_TRUE(r.status().IsResourceExhausted());
    EXPECT_NE(r.status().ToString().find("requested"), std::string::npos)
        << r.status().ToString();
  }
  tx->Abort();
}

}  // namespace
}  // namespace poseidon::core
