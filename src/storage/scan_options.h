// Tuning knobs for the scan kernels (ChunkedTable::ScanBatch /
// ForEachBatch, the two-stage NodeScan kernel of the interpreter and the
// JIT): the gather batch size and the software-prefetch depth.
// prefetch_distance 0 disables latency hiding while keeping the word-level
// skip test.

#ifndef POSEIDON_STORAGE_SCAN_OPTIONS_H_
#define POSEIDON_STORAGE_SCAN_OPTIONS_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "pmem/latency_model.h"

namespace poseidon::storage {

struct ScanOptions {
  /// Records gathered per batch before the consumer loop runs. One batch is
  /// the unit of software pipelining; a morsel is split into batches.
  uint32_t batch_size = 256;
  /// Latency-hiding depth of the scan kernels (0 = no prefetching). The
  /// NodeScan kernel defers up to ScanGroup() label-matching records while
  /// their property-chain heads fill, and every table scan reads 256 B
  /// blocks PrefetchBlocks() ahead; both derive from this value so that the
  /// fills fit the latency model's kPrefetchSlots.
  uint32_t prefetch_distance = 4;

  /// Records the NodeScan kernel defers per group: prefetch_distance,
  /// clamped to half the in-flight slots; 1 (no deferral) when prefetching
  /// is off.
  uint32_t ScanGroup() const {
    return std::clamp<uint32_t>(prefetch_distance, 1,
                                pmem::kPrefetchSlots / 2);
  }

  /// 256 B table blocks kept in flight ahead of the block being read: half
  /// the group, rounded up, so the current block, the blocks ahead and the
  /// group's property fills (3 + 4 at the default) fit in kPrefetchSlots.
  uint32_t PrefetchBlocks() const {
    return prefetch_distance == 0 ? 0 : (ScanGroup() + 1) / 2;
  }

  /// Environment overrides for ablation sweeps without recompiling:
  ///   POSEIDON_SCAN_BATCH_SIZE, POSEIDON_SCAN_PREFETCH_DIST
  static ScanOptions FromEnv() {
    ScanOptions o;
    if (const char* v = std::getenv("POSEIDON_SCAN_BATCH_SIZE"); v && *v) {
      uint64_t n = std::strtoull(v, nullptr, 10);
      if (n >= 1 && n <= 65536) o.batch_size = static_cast<uint32_t>(n);
    }
    if (const char* v = std::getenv("POSEIDON_SCAN_PREFETCH_DIST"); v && *v) {
      uint64_t n = std::strtoull(v, nullptr, 10);
      if (n <= 64) o.prefetch_distance = static_cast<uint32_t>(n);
    }
    return o;
  }
};

}  // namespace poseidon::storage

#endif  // POSEIDON_STORAGE_SCAN_OPTIONS_H_
