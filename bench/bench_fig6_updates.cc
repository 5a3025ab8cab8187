// Reproduces Fig. 6 (paper §7.3): LDBC-SNB Interactive Update execution +
// commit times with index support, for PMem-i, DRAM-i, and DISK-i, on hot
// data (avg of N runs) and cold data (first run after cache drop / fresh
// caches).
//
// Expected shape (paper): the PMem engine performs inserts/updates at
// near-DRAM latency and beats the disk baseline by an order of magnitude
// (the disk commit pays WAL fsync); PMem cold ~= hot while DISK cold blows
// up by the miss latency.

#include <atomic>
#include <thread>

#include "bench/bench_common.h"
#include "diskgraph/snb_disk.h"

namespace poseidon::bench {
namespace {

using jit::ExecutionMode;
using storage::DictCode;
using storage::PVal;
using storage::RecordId;

struct Timing {
  double execute_us = 0;
  double commit_us = 0;
};

// --- Writer-thread scaling -------------------------------------------------
//
// IU-style update transactions (insert a person-like node with properties
// plus a knows-like edge) on emulated PMem, swept over writer threads
// (1/2/4/8) through the parallel commit pipeline (segments + flush
// coalescing + group commit + background GC). Emits per-commit wall-clock
// ns per writer count into the fig6 JSON.

struct ScalingResult {
  double per_commit_ns = 0;
  double commits_per_sec = 0;
};

ScalingResult RunUpdateScaling(int writers, uint64_t total_txs) {
  core::GraphDbOptions options;
  options.capacity = 1ull << 30;
  options.path = "/tmp/poseidon_bench_fig6_scale_" +
                 std::to_string(::getpid()) + "_" + std::to_string(writers) +
                 ".pmem";
  std::filesystem::remove(options.path);
  options.enable_query_cache = false;
  BENCH_ASSIGN(auto db, core::GraphDb::Create(options));
  auto* txm = db->txm();
  auto* store = db->store();
  BENCH_ASSIGN(DictCode post, store->Code("Post"));
  BENCH_ASSIGN(DictCode has_creator, store->Code("hasCreator"));
  BENCH_ASSIGN(DictCode reply_of, store->Code("replyOf"));
  BENCH_ASSIGN(DictCode content_key, store->Code("content"));
  BENCH_ASSIGN(DictCode date_key, store->Code("creationDate"));
  BENCH_ASSIGN(DictCode ip_key, store->Code("locationIP"));

  // One anchor node per writer: every edge insert locks only thread-local
  // records, so the sweep measures commit-path cost, not MVTO conflicts.
  std::vector<RecordId> anchors(writers);
  {
    auto tx = txm->Begin();
    for (int t = 0; t < writers; ++t) {
      auto id = tx->CreateNode(post, {{content_key, PVal::Int(t)}});
      if (!id.ok()) Die(id.status(), "anchor");
      anchors[t] = *id;
    }
    BENCH_CHECK(tx->Commit());
  }

  uint64_t per_writer = std::max<uint64_t>(1, total_txs / writers);
  uint64_t trials = std::max<uint64_t>(1, EnvU64("POSEIDON_BENCH_TRIALS", 3));
  std::vector<double> per_commit_samples;
  for (uint64_t trial = 0; trial < trials; ++trial) {
    std::atomic<bool> go{false};
    std::atomic<uint64_t> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < writers; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        // IU6/IU7-style: add a post (three properties) linked to its
        // creator (anchor) and to the writer's previous post.
        RecordId prev = anchors[t];
        for (uint64_t i = 0; i < per_writer; ++i) {
          auto tx = txm->Begin();
          auto id = tx->CreateNode(
              post, {{content_key, PVal::Int(static_cast<int64_t>(i))},
                     {date_key, PVal::Int(static_cast<int64_t>(i) * 86400)},
                     {ip_key, PVal::Int(static_cast<int64_t>(t))}});
          bool ok =
              id.ok() &&
              tx->CreateRelationship(*id, anchors[t], has_creator, {}).ok() &&
              tx->CreateRelationship(*id, prev, reply_of, {}).ok() &&
              tx->Commit().ok();
          if (!ok) {
            failures.fetch_add(1, std::memory_order_relaxed);
          } else {
            prev = *id;
          }
        }
      });
    }
    StopWatch w;
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    double elapsed_ns = w.ElapsedNs();
    if (failures.load() != 0) {
      Die(Status::Internal(std::to_string(failures.load()) +
                           " commits failed"),
          "update scaling");
    }
    uint64_t commits = per_writer * static_cast<uint64_t>(writers);
    per_commit_samples.push_back(elapsed_ns / static_cast<double>(commits));
  }
  std::sort(per_commit_samples.begin(), per_commit_samples.end());
  ScalingResult out;
  out.per_commit_ns = per_commit_samples[per_commit_samples.size() / 2];
  out.commits_per_sec = 1e9 / out.per_commit_ns;
  db.reset();
  std::filesystem::remove(options.path);
  return out;
}

void RunWriterScaling(BenchJson* json) {
  std::printf(
      "\n=== IU commit scaling: pipeline (segments+coalescing+group commit"
      "+bg GC) ===\n");
  uint64_t total_txs = EnvU64("POSEIDON_BENCH_UPDATE_TXS", 4000);
  std::printf("%-8s | %14s %14s | %9s\n", "writers", "commits/s",
              "ns/commit", "vs 1");
  double base_ns = 0;
  for (int writers : {1, 2, 4, 8}) {
    ScalingResult r = RunUpdateScaling(writers, total_txs);
    if (writers == 1) base_ns = r.per_commit_ns;
    std::printf("%-8d | %14.0f %14.1f | %8.2fx\n", writers,
                r.commits_per_sec, r.per_commit_ns,
                base_ns / r.per_commit_ns);
    json->Add("iu_commit_w" + std::to_string(writers) + "_pipeline_on",
              r.per_commit_ns);
  }
  std::printf(
      "expected shape: commits/s roughly flat from 1 to 8 writers — "
      "per-thread segments and group commit keep committers from "
      "serializing on one log.\n");
}

int Main() {
  uint64_t runs = BenchRuns();
  std::printf("=== Fig. 6: Interactive Updates, execute + commit (us) ===\n");
  std::printf("scale: %llu persons, %llu hot runs\n\n",
              static_cast<unsigned long long>(BenchPersons()),
              static_cast<unsigned long long>(runs));

  BENCH_ASSIGN(auto pmem_env, MakeEnv(true, "fig6", true));
  BENCH_ASSIGN(auto dram_env, MakeEnv(false, "fig6d", true));
  diskgraph::DiskGraphOptions disk_options;
  disk_options.dir = "/tmp/poseidon_bench_fig6_disk";
  std::filesystem::remove_all(disk_options.dir);
  BENCH_ASSIGN(auto disk,
               diskgraph::LoadDiskSnbFromStore(pmem_env->db->store(),
                                               pmem_env->db->txm(),
                                               pmem_env->ds, disk_options));
  // The disk baseline draws parameters from its own dataset copy so the
  // PMem/DRAM runs' fresh-id counters cannot leak ids the disk store never
  // created.
  ldbc::SnbDataset disk_ds = pmem_env->ds;

  BENCH_ASSIGN(auto pmem_queries,
               ldbc::BuildUpdates(pmem_env->ds.schema,
                                  &pmem_env->db->store()->dict(), true));
  BENCH_ASSIGN(auto dram_queries,
               ldbc::BuildUpdates(dram_env->ds.schema,
                                  &dram_env->db->store()->dict(), true));

  std::printf("%-5s | %9s %9s | %9s %9s | %9s %9s | %12s %12s\n", "query",
              "PMem-ex", "PMem-cm", "DRAM-ex", "DRAM-cm", "DISK-ex",
              "DISK-cm", "PMem-cold", "DISK-cold");

  Rng rng(777);
  for (size_t q = 0; q < pmem_queries.size(); ++q) {
    const std::string& name = pmem_queries[q].name;

    auto run_engine = [&](BenchEnv* env, const query::Plan& plan,
                          uint64_t n, Timing* out) {
      double exec_total = 0, commit_total = 0;
      for (uint64_t i = 0; i < n; ++i) {
        auto params = ldbc::DrawUpdateParams(&env->ds, name, &rng);
        auto tx = env->db->Begin();
        StopWatch w;
        auto r = env->db->ExecuteIn(plan, tx.get(), params,
                                    ExecutionMode::kInterpret);
        exec_total += w.ElapsedUs();
        if (!r.ok()) Die(r.status(), name.c_str());
        w.Reset();
        BENCH_CHECK(tx->Commit());
        commit_total += w.ElapsedUs();
      }
      out->execute_us = exec_total / static_cast<double>(n);
      out->commit_us = commit_total / static_cast<double>(n);
    };

    auto run_disk = [&](uint64_t n, Timing* out) {
      double exec_total = 0, commit_total = 0;
      for (uint64_t i = 0; i < n; ++i) {
        // Fresh ids come from disk_ds's own counters, so every id the
        // draws can later reference exists in the disk store.
        auto params = ldbc::DrawUpdateParams(&disk_ds, name, &rng);
        std::vector<int64_t> raw;
        for (const auto& v : params) raw.push_back(v.AsInt());
        StopWatch w;
        BENCH_CHECK(diskgraph::RunDiskUpdate(disk.get(), name, raw));
        exec_total += w.ElapsedUs();
        w.Reset();
        BENCH_CHECK(disk->graph->Commit());
        commit_total += w.ElapsedUs();
      }
      out->execute_us = exec_total / static_cast<double>(n);
      out->commit_us = commit_total / static_cast<double>(n);
    };

    // Cold: PMem = first run on a freshly opened engine state (our latency
    // model is cache-oblivious, so cold ~= hot by construction — the
    // paper's "constant answer times both for cold and hot data"); DISK =
    // first run after dropping the buffer pools.
    Timing pmem_cold;
    run_engine(pmem_env.get(), pmem_queries[q].plan, 1, &pmem_cold);
    BENCH_CHECK(disk->graph->DropCaches());
    Timing disk_cold;
    run_disk(1, &disk_cold);

    Timing pmem_hot, dram_hot, disk_hot;
    run_engine(pmem_env.get(), pmem_queries[q].plan, runs, &pmem_hot);
    run_engine(dram_env.get(), dram_queries[q].plan, runs, &dram_hot);
    run_disk(runs, &disk_hot);

    std::printf(
        "%-5s | %9.1f %9.1f | %9.1f %9.1f | %9.1f %9.1f | %12.1f %12.1f\n",
        name.c_str(), pmem_hot.execute_us, pmem_hot.commit_us,
        dram_hot.execute_us, dram_hot.commit_us, disk_hot.execute_us,
        disk_hot.commit_us, pmem_cold.execute_us + pmem_cold.commit_us,
        disk_cold.execute_us + disk_cold.commit_us);
  }

  std::printf(
      "\nexpected shape: PMem ~ DRAM (marginal MVTO/persist overhead); DISK "
      "commit >> PMem commit (WAL fsync); DISK-cold >> PMem-cold.\n");
  std::filesystem::remove_all(disk_options.dir);

  BenchJson json("fig6_updates");
  RunWriterScaling(&json);
  json.Write();
  return 0;
}

}  // namespace
}  // namespace poseidon::bench

int main() { return poseidon::bench::Main(); }
