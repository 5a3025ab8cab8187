// Exhaustive crash-point exploration (fault-injection tentpole, leg 1).
//
// The pool's FaultInjector numbers every persistence primitive (Flush/Drain,
// including PersistDeferred and coalesced FlushBatch flushes) 1, 2, 3, ... in
// execution order. This test runs one fixed LDBC-style update workload —
// person creates with properties, "knows" relationships, property updates,
// relationship + node deletes — once per crash point k: the durable image is
// frozen the instant primitive k begins, the workload finishes volatile-only,
// the pool "loses power", and recovery must yield EXACTLY the state after
// some committed prefix of the workload (boundary transactions are
// all-or-nothing), with the secondary index rebuildable and consistent with
// the surviving table contents.
//
// Determinism: background GC and group commit are disabled (their threads
// would interleave nondeterministic flushes into the point numbering) and
// the workload is single-threaded, so run k is byte-identical to the dry run
// up to point k.
//
// Sharding: the sweep is a value-parameterized test over kCrashShards
// disjoint, contiguous crash-point ranges that together cover every point
// of the dry run. tests/CMakeLists.txt registers one ctest entry per shard
// (--gtest_filter on the instance), so the shards run in parallel.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "index/index_manager.h"
#include "pmem/fault_injector.h"
#include "pmem/psan.h"
#include "tx/transaction.h"

namespace poseidon::tx {
namespace {

using storage::DictCode;
using storage::PVal;
using storage::RecordId;

pmem::PoolOptions ExplorerPoolOptions() {
  pmem::PoolOptions o;
  o.mode = pmem::PoolMode::kDram;
  o.capacity = 48ull << 20;
  o.crash_shadow = true;
  return o;
}

/// Logical graph content, keyed by the unique "tag" property so it can be
/// compared across runs without relying on record ids.
struct Model {
  std::map<int64_t, int64_t> nodes;             // tag -> "v" property
  std::set<std::pair<int64_t, int64_t>> edges;  // (src tag, dst tag)

  bool operator==(const Model& o) const {
    return nodes == o.nodes && edges == o.edges;
  }
};

struct Workload {
  DictCode person, knows, tag_key, v_key;
  std::map<int64_t, RecordId> node_ids;                        // by tag
  std::map<std::pair<int64_t, int64_t>, RecordId> rel_ids;     // by tag pair
};

/// Runs the fixed update workload: one committed transaction per step,
/// appending the after-state to `snapshots` (whose front is the empty
/// pre-workload model). Every operation must succeed — crashes only freeze
/// the durable image, they never make the in-DRAM run fail.
void RunWorkload(TransactionManager* mgr, Workload* w,
                 std::vector<Model>* snapshots) {
  Model m = snapshots->back();
  auto commit = [&](std::unique_ptr<Transaction> tx) {
    ASSERT_TRUE(tx->Commit().ok());
    snapshots->push_back(m);
  };

  // Six persons, one per transaction (insert + property writes).
  for (int64_t t = 1; t <= 6; ++t) {
    auto tx = mgr->Begin();
    auto id = tx->CreateNode(
        w->person, {{w->tag_key, PVal::Int(t)}, {w->v_key, PVal::Int(t * 10)}});
    ASSERT_TRUE(id.ok());
    w->node_ids[t] = *id;
    m.nodes[t] = t * 10;
    commit(std::move(tx));
  }

  // knows edges: a chain 1->2->3->4, then (4,5) and (5,6) in one tx.
  auto link = [&](Transaction* tx, int64_t a, int64_t b) {
    auto id = tx->CreateRelationship(w->node_ids[a], w->node_ids[b], w->knows,
                                     {});
    ASSERT_TRUE(id.ok());
    w->rel_ids[{a, b}] = *id;
    m.edges.insert({a, b});
  };
  for (int64_t a = 1; a <= 3; ++a) {
    auto tx = mgr->Begin();
    link(tx.get(), a, a + 1);
    commit(std::move(tx));
  }
  {
    auto tx = mgr->Begin();
    link(tx.get(), 4, 5);
    link(tx.get(), 5, 6);
    commit(std::move(tx));
  }

  // Property updates on persons 1, 3, 5.
  for (int64_t t : {1, 3, 5}) {
    auto tx = mgr->Begin();
    ASSERT_TRUE(
        tx->SetNodeProperty(w->node_ids[t], w->v_key, PVal::Int(t + 1000))
            .ok());
    m.nodes[t] = t + 1000;
    commit(std::move(tx));
  }

  // Unfriend 2->3, then detach and delete person 6.
  {
    auto tx = mgr->Begin();
    ASSERT_TRUE(tx->DeleteRelationship(w->rel_ids[{2, 3}]).ok());
    m.edges.erase({2, 3});
    commit(std::move(tx));
  }
  {
    auto tx = mgr->Begin();
    ASSERT_TRUE(tx->DeleteRelationship(w->rel_ids[{5, 6}]).ok());
    m.edges.erase({5, 6});
    commit(std::move(tx));
  }
  {
    auto tx = mgr->Begin();
    ASSERT_TRUE(tx->DeleteNode(w->node_ids[6]).ok());
    m.nodes.erase(6);
    commit(std::move(tx));
  }

  // A mixed transaction: new person 7 plus an edge and an update.
  {
    auto tx = mgr->Begin();
    auto id = tx->CreateNode(
        w->person, {{w->tag_key, PVal::Int(7)}, {w->v_key, PVal::Int(70)}});
    ASSERT_TRUE(id.ok());
    w->node_ids[7] = *id;
    m.nodes[7] = 70;
    link(tx.get(), 7, 1);
    ASSERT_TRUE(
        tx->SetNodeProperty(w->node_ids[2], w->v_key, PVal::Int(2002)).ok());
    m.nodes[2] = 2002;
    commit(std::move(tx));
  }
}

/// Reads the recovered graph back into a Model and checks table/index
/// consistency: every surviving node has both properties, adjacency resolves
/// to surviving endpoints, and a freshly built index finds each node exactly
/// once by tag.
void ExtractRecovered(storage::GraphStore* store, TransactionManager* mgr,
                      DictCode person, DictCode tag_key, DictCode v_key,
                      Model* out) {
  std::map<RecordId, int64_t> tag_of;
  auto tx = mgr->Begin();
  store->nodes().ForEach([&](RecordId id, storage::NodeRecord& rec) {
    EXPECT_EQ(rec.tx.txn_id, storage::kUnlocked)
        << "node " << id << " kept a lock across recovery";
    // A committed delete leaves a tombstoned version in the table until GC
    // reclaims the slot; such records are invisible, not corrupt.
    auto visible = tx->GetNode(id);
    if (!visible.ok()) {
      EXPECT_EQ(visible.status().code(), StatusCode::kNotFound)
          << "node " << id << ": " << visible.status().ToString();
      return;
    }
    auto tag = tx->GetNodeProperty(id, tag_key);
    auto v = tx->GetNodeProperty(id, v_key);
    ASSERT_TRUE(tag.ok()) << "node " << id << ": "
                          << tag.status().ToString();
    ASSERT_TRUE(v.ok()) << "node " << id << ": " << v.status().ToString();
    ASSERT_FALSE(tag->is_null()) << "node " << id << " lost its tag";
    ASSERT_FALSE(v->is_null()) << "node " << id << " lost its value";
    tag_of[id] = tag->AsInt();
    out->nodes[tag->AsInt()] = v->AsInt();
  });
  for (const auto& [id, tag] : tag_of) {
    ASSERT_TRUE(
        tx->ForEachOutgoing(
              id,
              [&](RecordId, const storage::RelationshipRecord& rel) {
                auto dst = tag_of.find(rel.dst);
                EXPECT_NE(dst, tag_of.end())
                    << "edge from tag " << tag << " points at a dead node";
                if (dst != tag_of.end()) out->edges.insert({tag, dst->second});
                return true;
              })
            .ok());
  }

  // Index consistency: a rebuild over the recovered table must find every
  // node exactly once by its unique tag.
  index::IndexManager indexes(store);
  auto tree = indexes.CreateIndex(person, tag_key, index::Placement::kVolatile);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  for (const auto& [tag, v] : out->nodes) {
    std::vector<RecordId> found;
    (*tree)->LookupAll(tag, [&](const index::BTreeKey&, RecordId id) {
      found.push_back(id);
    });
    ASSERT_EQ(found.size(), 1u) << "index lookup for tag " << tag;
    EXPECT_EQ(tag_of[found[0]], tag);
  }
}

/// Number of crash-point shards; tests/CMakeLists.txt registers one ctest
/// entry per shard and must use the same count.
constexpr int kCrashShards = 8;

/// Runs the workload with the durable image frozen at crash point k (1-based,
/// relative to pool creation), simulates the power loss, recovers, and
/// returns the index of the committed prefix the recovered state equals.
/// Fails the test (fatally) when recovery is inconsistent or matches no
/// prefix.
void RecoverAtCrashPoint(uint64_t k, const std::vector<Model>& snapshots,
                         size_t* match_out) {
  auto pool = pmem::Pool::Create("", ExplorerPoolOptions());
  ASSERT_TRUE(pool.ok());
  DictCode person, tag_key, v_key;
  {
    auto store = storage::GraphStore::Create(pool->get());
    ASSERT_TRUE(store.ok());
    auto mgr = std::make_unique<TransactionManager>(store->get(), nullptr);
    Workload w;
    w.person = person = *(*store)->Code("Person");
    w.knows = *(*store)->Code("KNOWS");
    w.tag_key = tag_key = *(*store)->Code("tag");
    w.v_key = v_key = *(*store)->Code("v");

    pmem::FaultInjector* inj = (*pool)->fault_injector();
    inj->ArmCrashPoint(inj->points_seen() + k);
    std::vector<Model> rerun{Model{}};
    RunWorkload(mgr.get(), &w, &rerun);
    ASSERT_TRUE(inj->crash_fired()) << "point " << k << " never executed";
    ASSERT_EQ(rerun.size(), snapshots.size())
        << "the workload must be deterministic";
    // DRAM state (manager, store maps) dies with the crash.
  }

  (*pool)->SimulateCrash();
  (*pool)->redo_log()->Recover();
  auto store = storage::GraphStore::Open(pool->get());
  ASSERT_TRUE(store.ok())
      << "crash point " << k << ": " << store.status().ToString();
  TransactionManager mgr(store->get(), nullptr);
  ASSERT_TRUE(mgr.RecoverInFlight().ok()) << "crash point " << k;

  Model recovered;
  ExtractRecovered(store->get(), &mgr, person, tag_key, v_key, &recovered);
  if (::testing::Test::HasFatalFailure()) {
    FAIL() << "consistency violation at crash point " << k;
  }

  size_t match = snapshots.size();
  for (size_t j = 0; j < snapshots.size(); ++j) {
    if (snapshots[j] == recovered) {
      match = j;
      break;
    }
  }
  ASSERT_LT(match, snapshots.size())
      << "crash point " << k << " recovered a state that is NOT any "
      << "committed prefix (" << recovered.nodes.size() << " nodes, "
      << recovered.edges.size() << " edges)";
  *match_out = match;
}

class CrashExplorerSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrashExplorerSweep, EveryCrashPointRecoversACommittedPrefix) {
  // Deterministic point numbering: no background flush sources.
  setenv("POSEIDON_BG_GC", "0", 1);
  setenv("POSEIDON_GROUP_COMMIT", "0", 1);

  // --- Dry run: count the crash points the sweep must cover. -------------
  std::vector<Model> snapshots{Model{}};
  uint64_t num_points = 0;
  {
    auto pool = pmem::Pool::Create("", ExplorerPoolOptions());
    ASSERT_TRUE(pool.ok());
    auto store = storage::GraphStore::Create(pool->get());
    ASSERT_TRUE(store.ok());
    TransactionManager mgr(store->get(), nullptr);
    Workload w;
    w.person = *(*store)->Code("Person");
    w.knows = *(*store)->Code("KNOWS");
    w.tag_key = *(*store)->Code("tag");
    w.v_key = *(*store)->Code("v");

    pmem::FaultInjector* inj = (*pool)->fault_injector();
    ASSERT_NE(inj, nullptr) << "crash_shadow pools must carry an injector";
    uint64_t before = inj->points_seen();
    RunWorkload(&mgr, &w, &snapshots);
    num_points = inj->points_seen() - before;
  }
  ASSERT_GE(num_points, 50u)
      << "the workload must expose a meaningful crash surface";

  // --- This shard's slice of the sweep: points [first, last]. -----------
  const int shard = GetParam();
  const uint64_t first = 1 + shard * num_points / kCrashShards;
  const uint64_t last = (shard + 1) * num_points / kCrashShards;
  std::printf("crash shard %d/%d: points %llu..%llu (%llu of %llu)\n",
              shard, kCrashShards, static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(last),
              static_cast<unsigned long long>(last + 1 - first),
              static_cast<unsigned long long>(num_points));

  // Monotone prefixes across shard boundaries: replay the point just before
  // this shard's range to seed last_prefix.
  size_t last_prefix = 0;
  if (first > 1) {
    RecoverAtCrashPoint(first - 1, snapshots, &last_prefix);
    if (HasFatalFailure()) return;
  }
  for (uint64_t k = first; k <= last; ++k) {
    size_t match = 0;
    RecoverAtCrashPoint(k, snapshots, &match);
    if (HasFatalFailure()) return;
    EXPECT_GE(match, last_prefix)
        << "crash point " << k << " lost transactions an earlier crash "
        << "point had already made durable";
    last_prefix = std::max(last_prefix, match);
  }
  if (shard == kCrashShards - 1) {
    EXPECT_EQ(last_prefix, snapshots.size() - 1)
        << "the final crash points must recover the complete workload";
  }
  // Every crash point and every recovery of this shard ran under the
  // persist-order sanitizer when this is a POSEIDON_PSAN build; the
  // production write paths must never trip it. Always 0 in plain builds.
  EXPECT_EQ(pmem::PsanTotalViolations(), 0u)
      << "crash exploration surfaced a persist-ordering violation";
}

INSTANTIATE_TEST_SUITE_P(Shards, CrashExplorerSweep,
                         ::testing::Range(0, kCrashShards));

TEST(CrashExplorerTest, EnvVariableArmsCrashPoint) {
  // POSEIDON_CRASH_POINT drives whole-binary sweeps (the recovery bench):
  // the pool arms itself at Create.
  setenv("POSEIDON_BG_GC", "0", 1);
  setenv("POSEIDON_GROUP_COMMIT", "0", 1);
  setenv("POSEIDON_CRASH_POINT", "5", 1);
  auto pool = pmem::Pool::Create("", ExplorerPoolOptions());
  unsetenv("POSEIDON_CRASH_POINT");
  ASSERT_TRUE(pool.ok());
  pmem::FaultInjector* inj = (*pool)->fault_injector();
  ASSERT_NE(inj, nullptr);
  auto store = storage::GraphStore::Create(pool->get());
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(inj->crash_fired());
  EXPECT_EQ(inj->crash_fired_at(), 5u);
}

}  // namespace
}  // namespace poseidon::tx
