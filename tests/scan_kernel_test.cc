// Differential tests of the two-stage NodeScan kernel (DESIGN.md "Scan
// kernel"): NodeScan plans run in all four execution modes, crossed with
// prefetch_distance 0 / 1 / 4 / 64 (groups of 1, 1, 4 and the clamped
// maximum), and every result is compared with an oracle built from the
// transaction's point reads (GetNode / GetNodeProperty / ForEachNeighbor),
// which never touch the scan kernels. The data set carries every record
// state the kernel must route correctly: deleted-slot holes (single slots
// and whole empty occupancy words), nodes without properties, another
// transaction's uncommitted inserts, the reader's own inserts and updates,
// and versions only the DRAM version chain still holds. Morsels with bounds
// off the 64-slot word grid, a LIMIT and a cancellation that land while a
// group is buffered are exercised directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "jit/jit_query_engine.h"
#include "jit/runtime.h"

namespace poseidon::jit {
namespace {

using query::CmpOp;
using query::Direction;
using query::Expr;
using query::Plan;
using query::PlanBuilder;
using query::Tuple;
using query::Value;
using storage::PVal;
using storage::RecordId;
using storage::ScanOptions;

constexpr int kNodes = 3000;
constexpr int kHoleBegin = 1000;  // [kHoleBegin, kHoleEnd) deleted outright:
constexpr int kHoleEnd = 1130;    // at least one whole empty occupancy word

const ExecutionMode kModes[] = {
    ExecutionMode::kInterpret, ExecutionMode::kInterpretParallel,
    ExecutionMode::kJit, ExecutionMode::kAdaptive};

ScanOptions WithDistance(uint32_t d) {
  ScanOptions o;
  o.prefetch_distance = d;
  return o;
}

std::string Key(const Tuple& t) {
  std::string k;
  for (const Value& v : t) {
    k += std::to_string(static_cast<int>(v.kind())) + ":" +
         std::to_string(v.raw()) + "|";
  }
  return k;
}

std::vector<std::string> Keys(const std::vector<Tuple>& rows, bool sorted) {
  std::vector<std::string> out;
  for (const Tuple& t : rows) out.push_back(Key(t));
  if (sorted) std::sort(out.begin(), out.end());
  return out;
}

class ScanKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A DRAM pool that still charges a (small) modeled read latency, so the
    // kernel's prefetch and residual-wait paths run.
    pmem::PoolOptions po;
    po.mode = pmem::PoolMode::kDram;
    po.capacity = 256ull << 20;
    po.has_latency_override = true;
    po.latency_override.read_block_ns = 40;
    auto pool = pmem::Pool::Create("", po);
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    pool_ = std::move(*pool);
    auto store = storage::GraphStore::Create(pool_.get());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    indexes_ = std::make_unique<index::IndexManager>(store_.get());
    mgr_ = std::make_unique<tx::TransactionManager>(store_.get(),
                                                    indexes_.get());
    auto engine = JitQueryEngine::Create(store_.get(), indexes_.get(), 3,
                                         nullptr);
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(*engine);
    a_ = *store_->Code("A");
    b_ = *store_->Code("B");
    r_ = *store_->Code("R");
    k_ = *store_->Code("k");
  }

  void TearDown() override {
    engine_->WaitForBackgroundCompiles();
    reader_.reset();
    other_.reset();
    engine_.reset();
    mgr_.reset();
    indexes_.reset();
    store_.reset();
    pool_.reset();
  }

  /// Builds the committed base graph: A nodes (every 7th without
  /// properties), B nodes, R edges from A to B, single-slot and whole-word
  /// holes reclaimed by GC.
  void BuildBase() {
    auto tx = mgr_->Begin();
    std::vector<RecordId> b_nodes;
    for (int i = 0; i < kNodes; ++i) {
      bool is_b = i % 3 == 2;
      std::vector<storage::Property> props;
      if (is_b || i % 7 != 0) props.push_back({k_, PVal::Int(i)});
      auto id = tx->CreateNode(is_b ? b_ : a_, props);
      ASSERT_TRUE(id.ok());
      ids_.push_back(*id);
      if (is_b && (i < kHoleBegin || i >= kHoleEnd)) b_nodes.push_back(*id);
    }
    for (int i = 0; i < kNodes; ++i) {
      if (i % 3 == 2 || i % 5 != 1 || (i >= kHoleBegin && i < kHoleEnd)) {
        continue;
      }
      for (int e = 0; e < (i % 10 == 1 ? 2 : 1); ++e) {
        RecordId dst = b_nodes[(i / 5 + e * 7) % b_nodes.size()];
        ASSERT_TRUE(tx->CreateRelationship(ids_[i], dst, r_, {}).ok());
      }
    }
    ASSERT_TRUE(tx->Commit().ok());
    auto del = mgr_->Begin();
    for (int i = 0; i < kNodes; ++i) {
      bool hole = i >= kHoleBegin && i < kHoleEnd;
      if (hole || (i % 11 == 4 && i % 3 != 2 && i % 5 != 1)) {
        ASSERT_TRUE(del->DeleteNode(ids_[i]).ok()) << i;
      }
    }
    ASSERT_TRUE(del->Commit().ok());
    mgr_->RunGc();
    ASSERT_FALSE(store_->nodes().IsOccupied(ids_[kHoleBegin + 64]))
        << "GC did not reclaim the deleted slots";
  }

  /// Opens the reader transaction, then lets other transactions commit
  /// updates, deletes and inserts it must not see, leaves a foreign insert
  /// uncommitted, and gives the reader its own inserts and updates.
  void OpenReaderWithHistory() {
    reader_ = mgr_->Begin();
    auto w = mgr_->Begin();
    for (int i = 0; i < kNodes; ++i) {
      if (!Live(i) || i % 3 == 2) continue;
      if (i % 13 == 6) {  // newer committed version: reader uses the chain
        ASSERT_TRUE(w->SetNodeProperty(ids_[i], k_, PVal::Int(-i)).ok());
      } else if (i % 17 == 8 && i % 5 != 1) {  // deleted after the reader
        ASSERT_TRUE(w->DeleteNode(ids_[i]).ok());
      }
    }
    for (int j = 0; j < 5; ++j) {  // committed, but too new for the reader
      ASSERT_TRUE(w->CreateNode(a_, {{k_, PVal::Int(800000 + j)}}).ok());
    }
    ASSERT_TRUE(w->Commit().ok());
    other_ = mgr_->Begin();
    for (int j = 0; j < 5; ++j) {  // never committed while the scans run
      ASSERT_TRUE(other_->CreateNode(a_, {{k_, PVal::Int(700000 + j)}}).ok());
    }
    for (int j = 0; j < 5; ++j) {
      ASSERT_TRUE(
          reader_->CreateNode(a_, {{k_, PVal::Int(500000 + j)}}).ok());
    }
    for (int i = 0; i < kNodes; ++i) {
      if (Live(i) && i % 3 != 2 && i % 19 == 3 && i % 13 != 6 &&
          !(i % 17 == 8 && i % 5 != 1)) {
        ASSERT_TRUE(
            reader_->SetNodeProperty(ids_[i], k_, PVal::Int(900000 + i)).ok());
      }
    }
  }

  bool Live(int i) const {
    bool hole = i >= kHoleBegin && i < kHoleEnd;
    return !hole && !(i % 11 == 4 && i % 3 != 2 && i % 5 != 1);
  }

  // --- Oracle: point reads through the transaction ----------------------

  /// Visible A nodes in id order with their `k` (null when absent).
  std::vector<std::pair<RecordId, Value>> VisibleA(tx::Transaction* tx) {
    std::vector<std::pair<RecordId, Value>> out;
    for (RecordId id = 0; id < store_->nodes().NumSlots(); ++id) {
      auto n = tx->GetNode(id);
      if (!n.ok()) {
        EXPECT_TRUE(n.status().IsNotFound()) << n.status().ToString();
        continue;
      }
      if (n->rec.label != a_) continue;
      auto p = tx->GetNodeProperty(id, k_);
      EXPECT_TRUE(p.ok());
      out.emplace_back(id, Value::FromPVal(*p));
    }
    return out;
  }

  std::vector<Tuple> OracleProject(tx::Transaction* tx) {
    std::vector<Tuple> rows;
    for (auto& [id, k] : VisibleA(tx)) rows.push_back({Value::Node(id), k});
    return rows;
  }

  std::vector<Tuple> OracleFilter(tx::Transaction* tx, int64_t lo) {
    std::vector<Tuple> rows;
    for (auto& [id, k] : VisibleA(tx)) {
      if (!k.is_null() && k.AsInt() >= lo) rows.push_back({Value::Node(id), k});
    }
    return rows;
  }

  std::vector<Tuple> OracleExpand(tx::Transaction* tx) {
    std::vector<Tuple> rows;
    for (auto& [id, k] : VisibleA(tx)) {
      Status s = tx->ForEachNeighbor(
          id, tx::AdjDir::kOut,
          [&](RecordId, storage::DictCode label, RecordId neighbor) {
            if (label != r_) return true;
            auto p = tx->GetNodeProperty(neighbor, k_);
            EXPECT_TRUE(p.ok());
            rows.push_back({Value::Node(id), Value::Node(neighbor),
                            Value::FromPVal(*p)});
            return true;
          });
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    return rows;
  }

  // --- Plans -------------------------------------------------------------

  Plan ProjectPlan() {
    return PlanBuilder()
        .NodeScan(a_)
        .Project({Expr::Column(0), Expr::Property(0, k_)})
        .Build();
  }
  Plan FilterPlan() {
    return PlanBuilder()
        .NodeScan(a_)
        .FilterProperty(0, k_, CmpOp::kGe, Expr::Param(0))
        .Project({Expr::Column(0), Expr::Property(0, k_)})
        .Build();
  }
  Plan ExpandPlan() {
    return PlanBuilder()
        .NodeScan(a_)
        .Expand(0, Direction::kOut, r_)
        .Project({Expr::Column(0), Expr::Column(2), Expr::Property(2, k_)})
        .Build();
  }
  Plan OrderLimitPlan() {
    return PlanBuilder()
        .NodeScan(a_)
        .Project({Expr::Column(0), Expr::Property(0, k_)})
        .OrderBy(1, /*desc=*/true, /*limit=*/7)
        .Build();
  }

  /// Runs every plan in every mode under `opts` and compares with the
  /// oracle of `tx`.
  void CheckAllModes(tx::Transaction* tx, const ScanOptions& opts) {
    engine_->set_scan_options(opts);
    const auto project = OracleProject(tx);
    const auto filter = OracleFilter(tx, 1500);
    const auto expand = OracleExpand(tx);
    ASSERT_GT(project.size(), 1000u);
    ASSERT_GT(expand.size(), 100u);
    // ORDER BY k DESC LIMIT 7: null sorts lowest, so the top 7 are unique
    // ints and the order is total.
    auto ordered = project;
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Tuple& a, const Tuple& b) {
                       return a[1].Compare(b[1]) > 0;
                     });
    ordered.resize(7);

    Plan pp = ProjectPlan(), fp = FilterPlan(), ep = ExpandPlan(),
         op = OrderLimitPlan();
    for (ExecutionMode mode : kModes) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                   " prefetch_distance " +
                   std::to_string(opts.prefetch_distance));
      bool serial = mode == ExecutionMode::kInterpret ||
                    mode == ExecutionMode::kJit;
      // Adaptive runs twice: interpreted morsels while the background
      // compile is in flight, compiled ones afterwards.
      for (int rep = 0; rep < (mode == ExecutionMode::kAdaptive ? 2 : 1);
           ++rep) {
        auto r = engine_->Execute(pp, tx, {}, mode);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(Keys(r->rows, !serial), Keys(project, !serial));
        r = engine_->Execute(fp, tx, {Value::Int(1500)}, mode);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(Keys(r->rows, true), Keys(filter, true));
        r = engine_->Execute(ep, tx, {}, mode);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(Keys(r->rows, true), Keys(expand, true));
        r = engine_->Execute(op, tx, {}, mode);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(Keys(r->rows, false), Keys(ordered, false));
        engine_->WaitForBackgroundCompiles();
      }
      // LIMITs that stop the pipeline while a group is buffered: serial
      // modes return exactly the first n rows in id order.
      for (uint64_t n : {1u, 3u, 6u, 10u, 61u}) {
        Plan lp = PlanBuilder().NodeScan(a_).Limit(n).Build();
        auto r = engine_->Execute(lp, tx, {}, mode);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ASSERT_EQ(r->rows.size(), n);
        std::vector<Tuple> first;
        for (uint64_t i = 0; i < n; ++i) first.push_back({project[i][0]});
        if (serial) {
          EXPECT_EQ(Keys(r->rows, false), Keys(first, false)) << "limit " << n;
        } else {
          for (const Tuple& t : r->rows) {
            EXPECT_TRUE(std::any_of(project.begin(), project.end(),
                                    [&](const Tuple& p) { return p[0] == t[0]; }))
                << "limit row outside the visible set";
          }
        }
      }
      engine_->WaitForBackgroundCompiles();
    }
  }

  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<storage::GraphStore> store_;
  std::unique_ptr<index::IndexManager> indexes_;
  std::unique_ptr<tx::TransactionManager> mgr_;
  std::unique_ptr<JitQueryEngine> engine_;
  std::unique_ptr<tx::Transaction> reader_;
  std::unique_ptr<tx::Transaction> other_;
  std::vector<RecordId> ids_;
  storage::DictCode a_ = 0, b_ = 0, r_ = 0, k_ = 0;
};

TEST_F(ScanKernelTest, EveryModeAndDistanceMatchesPointReads) {
  BuildBase();
  OpenReaderWithHistory();
  for (uint32_t d : {0u, 1u, 4u, 64u}) {
    CheckAllModes(reader_.get(), WithDistance(d));
  }
  EXPECT_TRUE(reader_->Commit().ok());
  // A shared-snapshot reader (it would abort on the reader's locks, so it
  // starts after that commit) resolves the latest versions through the
  // inline snapshot fast path, which skips the rts bumps, and the versions
  // a later writer replaces through the version chain.
  auto snap = mgr_->BeginReadOnly();
  ASSERT_TRUE(snap->snapshot());
  auto w = mgr_->Begin();
  for (int i = 1; i < kNodes; i += 29) {
    if (Live(i) && i % 3 != 2 && !(i % 17 == 8 && i % 5 != 1)) {
      ASSERT_TRUE(w->SetNodeProperty(ids_[i], k_, PVal::Int(-7 * i)).ok());
    }
  }
  ASSERT_TRUE(w->Commit().ok());
  for (uint32_t d : {0u, 4u}) CheckAllModes(snap.get(), WithDistance(d));
  EXPECT_TRUE(snap->Commit().ok());
  other_->Abort();
}

TEST_F(ScanKernelTest, MorselsOffTheWordGridCoverTheTableOnce) {
  BuildBase();
  OpenReaderWithHistory();
  const auto expected = Keys(OracleProject(reader_.get()), false);
  const uint64_t slots = store_->nodes().NumSlots();
  // Bounds cut words (and groups) at arbitrary slots.
  std::vector<uint64_t> cuts = {0, 1, 63, 65, 130, 511, 700, 1001, 1100, 2047,
                                2049, 2500, 2999};
  cuts.push_back(slots);
  for (uint32_t d : {0u, 1u, 4u, 64u}) {
    SCOPED_TRACE("prefetch_distance " + std::to_string(d));
    ScanOptions opts = WithDistance(d);
    Plan plan = ProjectPlan();
    std::vector<query::Value> params;
    query::ExecContext ctx;
    ctx.tx = reader_.get();
    ctx.store = store_.get();
    ctx.indexes = indexes_.get();
    ctx.params = &params;
    ctx.scan = opts;

    // Interpreter morsels.
    query::ResultCollector interp_rows;
    query::PipelineExecutor interp(plan, ctx, &interp_rows);
    ASSERT_TRUE(interp.Prepare().ok());
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      ASSERT_TRUE(interp.RunMorsel(cuts[c], cuts[c + 1]).ok());
    }
    ASSERT_TRUE(interp.Finish().ok());
    EXPECT_EQ(Keys(interp_rows.TakeRows(), false), expected);

    // Compiled morsels, called directly with the same bounds.
    JitOptions jo;
    jo.scan = opts;
    auto compiled = engine_->engine()->Compile(plan, jo);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    query::ResultCollector jit_rows;
    query::PipelineExecutor exec(plan, ctx, &jit_rows);
    ASSERT_TRUE(exec.Prepare().ok());
    auto state = MakeRuntimeState(plan, ctx, &jit_rows, &exec, 1);
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      ASSERT_EQ(compiled->fn(state.get(), cuts[c], cuts[c + 1], 0), 0)
          << state->error.ToString();
    }
    ASSERT_TRUE(exec.Finish().ok());
    EXPECT_EQ(Keys(jit_rows.TakeRows(), false), expected);
  }
  other_->Abort();
  EXPECT_TRUE(reader_->Commit().ok());
}

TEST_F(ScanKernelTest, CancellationWhileGroupsAreBufferedUnwindsCleanly) {
  BuildBase();
  OpenReaderWithHistory();
  Plan plan = ExpandPlan();
  // Measure one full run, then cancel from another thread at spread-out
  // points inside it; stage 2 polls the token per expanded record, so
  // some cancels land while a group is half drained.
  const auto want = Keys(OracleExpand(reader_.get()), true);
  util::CancelToken* token = reader_->cancel_token();
  for (ExecutionMode mode : kModes) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    engine_->set_scan_options(WithDistance(4));
    auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(engine_->Execute(plan, reader_.get(), {}, mode).ok());
    engine_->WaitForBackgroundCompiles();
    auto full = std::chrono::steady_clock::now() - t0;
    int cancelled = 0;
    for (int step = 0; step < 12; ++step) {
      std::thread canceller([&, step] {
        std::this_thread::sleep_for(full * step / 12);
        token->Cancel();
      });
      auto r = engine_->Execute(plan, reader_.get(), {}, mode);
      canceller.join();
      if (r.ok()) {
        // Finished before the cancel: the rows must be complete.
        EXPECT_EQ(Keys(r->rows, true), want);
      } else {
        EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
        ++cancelled;
      }
      engine_->WaitForBackgroundCompiles();
      token->Reset();
    }
    EXPECT_GT(cancelled, 0);
  }
  other_->Abort();
  EXPECT_TRUE(reader_->Commit().ok());
}

TEST_F(ScanKernelTest, CompiledSnapshotScanLeavesRtsUntouchedLikeInterpreter) {
  BuildBase();
  auto rts_of = [&] {
    std::vector<storage::Timestamp> out;
    for (RecordId id = 0; id < store_->nodes().NumSlots(); ++id) {
      out.push_back(store_->nodes().AtForWrite(id)->tx.rts);
    }
    return out;
  };
  Plan plan = ProjectPlan();
  uint64_t deferred[2] = {0, 0};
  int i = 0;
  for (ExecutionMode mode : {ExecutionMode::kInterpret, ExecutionMode::kJit}) {
    auto before = rts_of();
    auto tx = mgr_->BeginReadOnly();
    ASSERT_TRUE(tx->snapshot());
    ExecStats stats;
    auto r = engine_->Execute(plan, tx.get(), {}, mode, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(stats.used_jit, mode == ExecutionMode::kJit);
    EXPECT_EQ(rts_of(), before) << "a snapshot scan moved some node's rts";
    deferred[i++] = stats.rts_deferred;
    ASSERT_TRUE(tx->Commit().ok());
  }
  EXPECT_GT(deferred[0], 0u);
  EXPECT_EQ(deferred[1], deferred[0])
      << "compiled code must count the bumps it skips like GetRecord";
  // A read-write reader still bumps: the compiled fast path is unchanged
  // for it.
  auto tx = mgr_->Begin();
  ASSERT_TRUE(engine_->Execute(plan, tx.get(), {}, ExecutionMode::kJit).ok());
  auto after = rts_of();
  EXPECT_TRUE(std::count(after.begin(), after.end(), tx->id()) > 0);
  ASSERT_TRUE(tx->Commit().ok());
}

}  // namespace
}  // namespace poseidon::jit
