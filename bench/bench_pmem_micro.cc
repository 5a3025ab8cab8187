// Microbenchmarks backing §3 of the paper (characteristics C1–C3, C5, C6):
// measured on the emulated-PMem substrate so the injected model's shape can
// be validated against the published Optane numbers:
//   C1  PMem random/sequential reads ~3x slower, lower bandwidth than DRAM
//   C2  persistent writes slower than DRAM writes (flush + fence)
//   C3  reads at 256 B block granularity beat sub-block random access
//   C5  pool allocations cost more than DRAM malloc
//   C6  dereferencing 16-byte persistent pointers costs more than using
//       8-byte offsets (registry lookup per dereference)

#include <benchmark/benchmark.h>

#include <cstring>

#include "pmem/pool.h"
#include "pmem/pptr.h"
#include "storage/chunked_table.h"
#include "tx/transaction.h"
#include "util/random.h"

namespace {

using poseidon::Rng;
using poseidon::pmem::kPmemBlockSize;
using poseidon::pmem::LatencyModel;
using poseidon::pmem::Offset;
using poseidon::pmem::Pool;
using poseidon::pmem::PoolOptions;
using poseidon::pmem::PoolRegistry;
using poseidon::pmem::PPtr;
using poseidon::storage::ChunkedTable;
using poseidon::storage::RecordId;
using poseidon::storage::ScanOptions;

constexpr uint64_t kRegionBytes = 64ull << 20;

std::unique_ptr<Pool> MakeLatencyPool(bool emulate_pmem) {
  PoolOptions options;
  options.mode = emulate_pmem ? poseidon::pmem::PoolMode::kPmem
                              : poseidon::pmem::PoolMode::kDram;
  options.capacity = kRegionBytes + (16ull << 20);
  options.has_latency_override = true;
  options.latency_override =
      emulate_pmem ? LatencyModel::EmulatedPmem() : LatencyModel::Dram();
  static int counter = 0;
  std::string path = "/tmp/poseidon_micro_" + std::to_string(::getpid()) +
                     "_" + std::to_string(counter++) + ".pmem";
  std::remove(path.c_str());
  auto pool = emulate_pmem ? Pool::Create(path, options)
                           : Pool::CreateVolatile(options.capacity);
  if (!pool.ok()) std::abort();
  if (emulate_pmem) std::remove(path.c_str());  // unlink; mapping stays
  return std::move(*pool);
}

// --- C1: random record reads ------------------------------------------------

void BM_RandomRead(benchmark::State& state, bool pmem) {
  auto pool = MakeLatencyPool(pmem);
  auto region = pool->Allocate(kRegionBytes, 256);
  char* base = pool->ToPtr<char>(*region);
  std::memset(base, 1, kRegionBytes);
  Rng rng(7);
  uint64_t records = kRegionBytes / 64;
  uint64_t sink = 0;
  for (auto _ : state) {
    char* p = base + rng.Uniform(records) * 64;
    pool->TouchRead(p, 64);
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    sink += v;
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(int64_t(state.iterations()) * 64);
}
BENCHMARK_CAPTURE(BM_RandomRead, dram, false);
BENCHMARK_CAPTURE(BM_RandomRead, pmem, true);

// --- C3: sub-block vs whole-block access --------------------------------

void BM_BlockRead(benchmark::State& state, uint64_t chunk) {
  auto pool = MakeLatencyPool(true);
  auto region = pool->Allocate(kRegionBytes, 256);
  char* base = pool->ToPtr<char>(*region);
  std::memset(base, 1, kRegionBytes);
  Rng rng(9);
  uint64_t blocks = kRegionBytes / kPmemBlockSize;
  char buf[512];
  for (auto _ : state) {
    // Read two 256 B blocks in `chunk`-byte pieces, INTERLEAVED, so the
    // DCPMM block buffer cannot coalesce the sub-block accesses: small
    // chunks then pay the full block latency repeatedly (C3), while
    // block-sized accesses pay it once per block.
    char* block_a = base + rng.Uniform(blocks) * kPmemBlockSize;
    char* block_b = base + rng.Uniform(blocks) * kPmemBlockSize;
    for (uint64_t off = 0; off < kPmemBlockSize; off += chunk) {
      pool->TouchRead(block_a + off, chunk);
      std::memcpy(buf + off, block_a + off, chunk);
      pool->TouchRead(block_b + off, chunk);
      std::memcpy(buf + 256 + off, block_b + off, chunk);
    }
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * 2 * kPmemBlockSize);
}
BENCHMARK_CAPTURE(BM_BlockRead, whole_256B, 256);
BENCHMARK_CAPTURE(BM_BlockRead, pieces_64B, 64);

// --- Batched table scan: occupancy-word skip + software prefetch ----------
// Scan throughput of the chunked record table on emulated PMem:
//   foreach           — classic per-slot loop (occupancy probe + read)
//   batch_noprefetch  — ScanBatch kernel, word-level skip, no prefetch
//   batch_prefetch    — ScanBatch + block read-ahead (prefetch_distance 4:
//                       2 blocks ahead): the modeled block fill overlaps
//                       record processing
// The dense variant fills every slot; the sparse variant occupies every
// 64th slot so whole-word skipping dominates.

struct ScanRecord {
  uint64_t payload[8];  // 64 B: four records per 256 B PMem block
};

void BM_TableScan(benchmark::State& state, int mode, bool sparse) {
  auto pool = MakeLatencyPool(true);
  auto table_r = ChunkedTable<ScanRecord>::Create(pool.get());
  if (!table_r.ok()) std::abort();
  auto table = std::move(*table_r);
  const uint64_t kSlots = 32 << 10;
  ScanRecord rec{};
  uint64_t live = 0;
  for (uint64_t i = 0; i < kSlots; ++i) {
    rec.payload[0] = i;
    auto id = table->Insert(rec);
    if (!id.ok()) std::abort();
    ++live;
  }
  if (sparse) {  // keep every 64th record: bitmap words with a single bit
    for (uint64_t i = 0; i < kSlots; ++i) {
      if (i % 64 == 0) continue;
      if (!table->Delete(i).ok()) std::abort();
      --live;
    }
  }
  ScanOptions opts;
  opts.prefetch_distance = mode == 2 ? 4 : 0;
  uint64_t sink = 0;
  for (auto _ : state) {
    auto consume = [&](RecordId, const ScanRecord& r) {
      sink += r.payload[0];
    };
    if (mode == 0) {
      table->ForEach(consume);
    } else {
      table->ForEachBatch(consume, opts);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(live));
}
BENCHMARK_CAPTURE(BM_TableScan, dense_foreach, 0, false);
BENCHMARK_CAPTURE(BM_TableScan, dense_batch_noprefetch, 1, false);
BENCHMARK_CAPTURE(BM_TableScan, dense_batch_prefetch, 2, false);
BENCHMARK_CAPTURE(BM_TableScan, sparse_foreach, 0, true);
BENCHMARK_CAPTURE(BM_TableScan, sparse_batch_prefetch, 2, true);

// --- C2: persistent writes vs DRAM writes -----------------------------------

void BM_Write64B(benchmark::State& state, bool pmem, bool persist) {
  auto pool = MakeLatencyPool(pmem);
  auto region = pool->Allocate(kRegionBytes, 256);
  char* base = pool->ToPtr<char>(*region);
  Rng rng(11);
  uint64_t records = kRegionBytes / 64;
  char payload[64];
  std::memset(payload, 7, sizeof(payload));
  for (auto _ : state) {
    char* p = base + rng.Uniform(records) * 64;
    std::memcpy(p, payload, 64);
    if (persist) pool->Persist(p, 64);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * 64);
}
BENCHMARK_CAPTURE(BM_Write64B, dram, false, false);
BENCHMARK_CAPTURE(BM_Write64B, pmem_persist, true, true);

// --- C5: allocation cost ----------------------------------------------------

void BM_Allocate(benchmark::State& state, bool pool_alloc) {
  auto pool = MakeLatencyPool(true);
  std::vector<Offset> offsets;
  std::vector<void*> ptrs;
  for (auto _ : state) {
    if (pool_alloc) {
      auto r = pool->Allocate(64);
      if (!r.ok()) std::abort();
      offsets.push_back(*r);
      if (offsets.size() >= 4096) {
        for (Offset o : offsets) pool->Free(o, 64);
        offsets.clear();
      }
    } else {
      ptrs.push_back(::malloc(64));
      if (ptrs.size() >= 4096) {
        for (void* p : ptrs) ::free(p);
        ptrs.clear();
      }
    }
  }
  for (Offset o : offsets) pool->Free(o, 64);
  for (void* p : ptrs) ::free(p);
}
BENCHMARK_CAPTURE(BM_Allocate, malloc_dram, false);
BENCHMARK_CAPTURE(BM_Allocate, pool_pmem, true);

// --- C6/DG6: persistent-pointer dereference vs offsets --------------------

void BM_Dereference(benchmark::State& state, bool use_pptr) {
  auto pool = MakeLatencyPool(false);  // isolate software cost
  PoolRegistry::Instance().Register(pool.get());
  auto region = pool->Allocate(1 << 20, 256);
  auto* values = pool->ToPtr<uint64_t>(*region);
  for (int i = 0; i < 1024; ++i) values[i] = i;
  std::vector<PPtr<uint64_t>> pptrs;
  std::vector<Offset> offsets;
  for (int i = 0; i < 1024; ++i) {
    offsets.push_back(*region + i * 8);
    pptrs.emplace_back(pool->pool_id(), offsets.back());
  }
  uint64_t sink = 0;
  size_t i = 0;
  for (auto _ : state) {
    if (use_pptr) {
      sink += *pptrs[i++ & 1023].get();  // registry lookup each time (C6)
    } else {
      sink += *pool->ToPtr<uint64_t>(offsets[i++ & 1023]);
    }
  }
  benchmark::DoNotOptimize(sink);
  PoolRegistry::Instance().Unregister(pool->pool_id());
}
BENCHMARK_CAPTURE(BM_Dereference, offset_8B, false);
BENCHMARK_CAPTURE(BM_Dereference, pptr_16B, true);

// --- Expand: relationship-chain walk vs DRAM adjacency cache --------------
//
// One Expand over a 64-degree node: the chain walk dereferences 64
// pointer-chased relationship records (PMem random reads), the cached
// variant streams the same neighbors from a sequential DRAM array built on
// first touch. The gap is the Fig. 5 PMem-i vs PMem-i-nocache ablation in
// isolation (the scan variants are NodeScan-bound and dilute it).

void BM_Expand(benchmark::State& state, bool pmem, bool cached) {
  constexpr uint64_t kNodes = 256;
  constexpr uint64_t kDegree = 64;
  auto pool = MakeLatencyPool(pmem);
  auto store = poseidon::storage::GraphStore::Create(pool.get());
  if (!store.ok()) std::abort();
  poseidon::tx::TransactionManager mgr(store->get(), nullptr);
  auto person = *(*store)->Code("Person");
  auto knows = *(*store)->Code("knows");
  std::vector<RecordId> ids;
  {
    auto tx = mgr.Begin();
    for (uint64_t i = 0; i < kNodes; ++i) {
      auto id = tx->CreateNode(person, {});
      if (!id.ok()) std::abort();
      ids.push_back(*id);
    }
    if (!tx->Commit().ok()) std::abort();
  }
  // One commit per source node: a 64-rel write set fits the redo log area.
  Rng rng(99);
  for (uint64_t i = 0; i < kNodes; ++i) {
    auto tx = mgr.Begin();
    for (uint64_t d = 0; d < kDegree; ++d) {
      auto r =
          tx->CreateRelationship(ids[i], ids[rng.Uniform(kNodes)], knows, {});
      if (!r.ok()) std::abort();
    }
    if (!tx->Commit().ok()) std::abort();
  }
  mgr.adjacency_cache().set_enabled(cached);
  if (cached) {
    // Warm pass: materialize every node's array so the loop measures hits.
    auto tx = mgr.Begin();
    for (uint64_t i = 0; i < kNodes; ++i) {
      (void)tx->ForEachNeighbor(ids[i], poseidon::tx::AdjDir::kOut,
                                [](RecordId, poseidon::storage::DictCode,
                                   RecordId) { return true; });
    }
    (void)tx->Commit();
  }
  uint64_t sink = 0;
  size_t i = 0;
  for (auto _ : state) {
    auto tx = mgr.Begin();
    uint64_t degree = 0;
    (void)tx->ForEachNeighbor(
        ids[i++ % kNodes], poseidon::tx::AdjDir::kOut,
        [&](RecordId, poseidon::storage::DictCode, RecordId neighbor) {
          degree += 1;
          sink += neighbor;
          return true;
        });
    (void)tx->Commit();
    if (degree != kDegree) std::abort();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(int64_t(state.iterations()) * kDegree);
}
BENCHMARK_CAPTURE(BM_Expand, dram_chain, false, false);
BENCHMARK_CAPTURE(BM_Expand, dram_adjcache, false, true);
BENCHMARK_CAPTURE(BM_Expand, pmem_chain, true, false);
BENCHMARK_CAPTURE(BM_Expand, pmem_adjcache, true, true);

}  // namespace

BENCHMARK_MAIN();
