// Reproduces Fig. 5 (paper §7.3): LDBC-SNB Interactive Short Read execution
// times, averaged over hot runs with varying input ids, for:
//   PMem-s / PMem-p / PMem-i  — this engine on emulated PMem
//                               (single-threaded, parallel, indexed)
//   DRAM-s / DRAM-p / DRAM-i  — the same engine in pure volatile mode
//   DISK-i                    — the disk baseline with a DRAM index
//
// Expected shape (paper): indexes dominate; PMem is close to DRAM
// (the PMem-conscious design bridges most of the latency gap); both beat
// DISK-i on every query.

#include "bench/bench_common.h"
#include "diskgraph/snb_disk.h"

namespace poseidon::bench {
namespace {

using jit::ExecutionMode;

int Main() {
  uint64_t runs = BenchRuns();
  std::printf("=== Fig. 5: Interactive Short Reads (avg of %llu hot runs, us)"
              " ===\n",
              static_cast<unsigned long long>(runs));
  std::printf("scale: %llu persons\n\n",
              static_cast<unsigned long long>(BenchPersons()));

  BENCH_ASSIGN(auto pmem_env, MakeEnv(/*pmem_mode=*/true, "fig5", true));
  BENCH_ASSIGN(auto dram_env, MakeEnv(/*pmem_mode=*/false, "fig5d", true));

  // DISK baseline: copy of the PMem graph + DRAM index.
  diskgraph::DiskGraphOptions disk_options;
  disk_options.dir = "/tmp/poseidon_bench_fig5_disk";
  std::filesystem::remove_all(disk_options.dir);
  BENCH_ASSIGN(auto disk,
               diskgraph::LoadDiskSnbFromStore(pmem_env->db->store(),
                                               pmem_env->db->txm(),
                                               pmem_env->ds, disk_options));

  auto scan_queries = ldbc::BuildShortReads(pmem_env->ds.schema, false);
  auto index_queries = ldbc::BuildShortReads(pmem_env->ds.schema, true);

  BenchJson json("fig5_short_reads");

  std::printf("%-9s %10s %10s %10s %10s %10s %10s %10s %10s %10s\n",
              "query", "PMem-s", "PMem-sNC", "PMem-p", "PMem-i", "PMem-iNC",
              "DRAM-s", "DRAM-p", "DRAM-i", "DISK-i");

  // Per-query parameter sequences, shared by every configuration so all
  // columns see identical inputs.
  std::vector<std::vector<std::vector<query::Value>>> all_params;
  for (size_t q = 0; q < scan_queries.size(); ++q) {
    Rng rng(1234 + q);
    all_params.emplace_back();
    for (uint64_t i = 0; i < runs + 1; ++i) {
      all_params.back().push_back(
          ldbc::DrawShortReadParams(pmem_env->ds, scan_queries[q].name, &rng));
    }
  }

  auto run_engine = [&](BenchEnv* env, size_t q, const query::Plan& plan,
                        ExecutionMode mode) {
    auto& params = all_params[q];
    auto once = [&](size_t i) {
      auto tx = env->db->Begin();
      auto r =
          env->db->ExecuteIn(plan, tx.get(), params[i % params.size()], mode);
      if (!r.ok()) Die(r.status(), scan_queries[q].name.c_str());
      BENCH_CHECK(tx->Commit());
    };
    // Untimed sweep over the full parameter sequence: hot-run steady state
    // for every input id (warm code cache, warm adjacency arrays), applied
    // identically to every configuration.
    for (size_t i = 0; i < params.size(); ++i) once(i);
    size_t i = 0;
    return Measure(runs, [&] { once(i++); });
  };

  // Ablation pre-pass: DRAM adjacency cache off — Expand pays the full PMem
  // chain walk (batching stays on, isolating the cache contribution). Runs
  // before the cached pass so the cache-on columns measure the steady state
  // with arrays accumulated across queries, like every other hot-run column
  // (the JIT code cache and indexes persist across queries the same way).
  std::vector<BenchSample> pmem_snc_all(scan_queries.size());
  std::vector<BenchSample> pmem_inc_all(index_queries.size());
  pmem_env->db->set_adj_cache_enabled(false);
  for (size_t q = 0; q < scan_queries.size(); ++q) {
    pmem_snc_all[q] = run_engine(pmem_env.get(), q, scan_queries[q].plan,
                                 ExecutionMode::kInterpret);
    pmem_inc_all[q] = run_engine(pmem_env.get(), q, index_queries[q].plan,
                                 ExecutionMode::kInterpret);
  }
  pmem_env->db->set_adj_cache_enabled(true);

  for (size_t q = 0; q < scan_queries.size(); ++q) {
    const std::string& name = scan_queries[q].name;

    BenchSample pmem_s = run_engine(pmem_env.get(), q, scan_queries[q].plan,
                                    ExecutionMode::kInterpret);
    BenchSample pmem_snc = pmem_snc_all[q];
    BenchSample pmem_p = run_engine(pmem_env.get(), q, scan_queries[q].plan,
                                    ExecutionMode::kInterpretParallel);
    BenchSample pmem_i = run_engine(pmem_env.get(), q, index_queries[q].plan,
                                    ExecutionMode::kInterpret);
    BenchSample pmem_inc = pmem_inc_all[q];
    BenchSample dram_s = run_engine(dram_env.get(), q, scan_queries[q].plan,
                                    ExecutionMode::kInterpret);
    BenchSample dram_p = run_engine(dram_env.get(), q, scan_queries[q].plan,
                                    ExecutionMode::kInterpretParallel);
    BenchSample dram_i = run_engine(dram_env.get(), q, index_queries[q].plan,
                                    ExecutionMode::kInterpret);

    size_t i = 0;
    BenchSample disk_i = Measure(runs, [&] {
      auto rows = diskgraph::RunDiskShortRead(
          disk.get(), name, all_params[q][i++ % all_params[q].size()][0].AsInt());
      if (!rows.ok()) Die(rows.status(), name.c_str());
    });

    std::printf(
        "%-9s %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f "
        "%10.1f\n",
        name.c_str(), pmem_s.mean_us, pmem_snc.mean_us,
        pmem_p.mean_us, pmem_i.mean_us, pmem_inc.mean_us, dram_s.mean_us,
        dram_p.mean_us, dram_i.mean_us, disk_i.mean_us);

    json.Add(name + "/PMem-s", pmem_s.median_ns);
    json.Add(name + "/PMem-s-nocache", pmem_snc.median_ns);
    json.Add(name + "/PMem-p", pmem_p.median_ns);
    json.Add(name + "/PMem-i", pmem_i.median_ns);
    json.Add(name + "/PMem-i-nocache", pmem_inc.median_ns);
    json.Add(name + "/DRAM-s", dram_s.median_ns);
    json.Add(name + "/DRAM-p", dram_p.median_ns);
    json.Add(name + "/DRAM-i", dram_i.median_ns);
    json.Add(name + "/DISK-i", disk_i.median_ns);
  }
  json.Write();

  std::printf(
      "\nexpected shape: *-i << *-s; PMem-i close to DRAM-i; DISK-i "
      "slowest per query.\n");
  std::filesystem::remove_all(disk_options.dir);
  return 0;
}

}  // namespace
}  // namespace poseidon::bench

int main() { return poseidon::bench::Main(); }
