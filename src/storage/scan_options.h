// Tuning knobs for the batched scan kernels (ChunkedTable::ScanBatch /
// ForEachBatch, the JIT's word-skip scan loop): the gather batch size and
// the software-prefetch depth. prefetch_distance 0 disables latency hiding
// while keeping the word-level skip test.

#ifndef POSEIDON_STORAGE_SCAN_OPTIONS_H_
#define POSEIDON_STORAGE_SCAN_OPTIONS_H_

#include <cstdint>
#include <cstdlib>

namespace poseidon::storage {

struct ScanOptions {
  /// Records gathered per batch before the consumer loop runs. One batch is
  /// the unit of software pipelining; a morsel is split into batches.
  uint32_t batch_size = 256;
  /// How many records ahead of the consumer a prefetch is issued
  /// (0 = no prefetching). Bounded by the latency model's in-flight slots.
  uint32_t prefetch_distance = 4;

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
