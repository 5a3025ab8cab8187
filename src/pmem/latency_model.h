// Emulated PMem timing model.
//
// This reproduction runs on DRAM; real Optane DCPMMs are not available. To
// preserve the performance *shape* the paper reports (C1: ~3x higher read
// latency and lower bandwidth than DRAM; C2: asymmetrically slower writes;
// C3: 256-byte internal block granularity), the pool injects calibrated
// busy-waits at the same points where a real DCPMM pays its costs:
//
//   * on reads, per 256-byte block touched (TouchRead),
//   * on cache-line flushes (clwb emulation, per dirty line),
//   * on store fences (sfence emulation).
//
// Defaults approximate published Optane measurements (DRAM random read
// ~85 ns vs PMem ~300 ns; flush ~90 ns/line; fence ~100 ns) and can be
// overridden via environment variables for calibration sweeps:
//   POSEIDON_PMEM_READ_NS, POSEIDON_PMEM_FLUSH_NS, POSEIDON_PMEM_DRAIN_NS

#ifndef POSEIDON_PMEM_LATENCY_MODEL_H_
#define POSEIDON_PMEM_LATENCY_MODEL_H_

#include <chrono>
#include <cstdint>

#include "util/spin_timer.h"

namespace poseidon::pmem {

/// Size of the internal DCPMM write-combining block (C3).
inline constexpr uint64_t kPmemBlockSize = 256;
inline constexpr uint64_t kCacheLineSize = 64;

/// Number of in-flight software prefetches the model tracks per thread,
/// mirroring the small number of fill buffers a core can keep outstanding
/// against the DIMM. Prefetches beyond this evict the oldest entry.
inline constexpr uint32_t kPrefetchSlots = 8;

struct LatencyModel {
  /// Extra nanoseconds per 256-byte block on a read access (0 = disabled).
  uint64_t read_block_ns = 0;
  /// Extra nanoseconds per flushed cache line (clwb).
  uint64_t flush_line_ns = 0;
  /// Extra nanoseconds per drain barrier (sfence).
  uint64_t drain_ns = 0;

  /// No injected latency: behaves like DRAM.
  static LatencyModel Dram() { return LatencyModel{}; }

  /// Default emulated-Optane model; env vars override individual knobs.
  static LatencyModel EmulatedPmem();

  bool enabled() const {
    return read_block_ns != 0 || flush_line_ns != 0 || drain_ns != 0;
  }

  /// Models a read of [addr, addr+len): one delay per touched 256 B block,
  /// except for blocks still in the DCPMM's internal buffer. The buffer is
  /// modeled as the most recently accessed block per thread — consecutive
  /// accesses within one block (sequential scans over 64 B records, chained
  /// property records in the same block) are served buffer-hot, which is
  /// what gives PMem its near-sequential-bandwidth behaviour (C3).
  ///
  /// Blocks announced via OnPrefetch earlier only pay the *remaining* time
  /// until the in-flight fill completes (possibly zero), so software
  /// prefetching overlaps PMem latency with real work — exactly the effect a
  /// hardware `prefetchnta` has against a DCPMM.
  void OnRead(const void* addr, uint64_t len) const {
    if (read_block_ns == 0 || len == 0) return;
    PrefetchRing& ring = TlsRing();
    auto a = reinterpret_cast<uint64_t>(addr);
    uint64_t first = a / kPmemBlockSize;
    uint64_t last = (a + len - 1) / kPmemBlockSize;
    uint64_t wait_ns = 0;
    uint64_t now = 0;  // fetched lazily; steady_clock reads are not free
    for (uint64_t b = first; b <= last; ++b) {
      if (b == ring.last_block) continue;
      if (uint64_t* ready_at = ring.Find(b)) {
        // A fill that completed by the last clock reading is free; only a
        // fill that may still be in flight needs a fresh reading.
        if (*ready_at <= ring.clock_floor_ns) continue;
        if (now == 0) now = ring.ReadClock();
        if (*ready_at > now) wait_ns += *ready_at - now;
        continue;  // fill already in flight; pay only the residual
      }
      wait_ns += read_block_ns;
    }
    ring.last_block = last;
    if (wait_ns != 0) SpinWaitNs(wait_ns);
  }

  /// Announces an upcoming read of [addr, addr+len): starts a modeled fill
  /// that completes `read_block_ns` from now for each touched block. Pair
  /// with __builtin_prefetch so the DRAM emulation machine also warms its
  /// real caches. A later OnRead of the same block spins only for whatever
  /// portion of the fill has not yet elapsed. A block that is buffer-hot or
  /// already in flight is a no-op: no fill restarts and no clock is read.
  void OnPrefetch(const void* addr, uint64_t len) const {
    if (read_block_ns == 0 || len == 0) return;
    PrefetchRing& ring = TlsRing();
    auto a = reinterpret_cast<uint64_t>(addr);
    uint64_t first = a / kPmemBlockSize;
    uint64_t last = (a + len - 1) / kPmemBlockSize;
    uint64_t now = 0;  // fetched lazily, only when a fill starts
    for (uint64_t b = first; b <= last; ++b) {
      if (b == ring.last_block || ring.Find(b) != nullptr) continue;
      if (now == 0) now = ring.ReadClock();
      ring.Insert(b, now + read_block_ns);
    }
  }

  /// Models flushing `lines` dirty cache lines.
  void OnFlush(uint64_t lines) const {
    if (flush_line_ns != 0 && lines != 0) SpinWaitNs(flush_line_ns * lines);
  }

  /// Models a store fence.
  void OnDrain() const {
    if (drain_ns != 0) SpinWaitNs(drain_ns);
  }

 private:
  /// Per-thread view of the DIMM's buffering: the most recently accessed
  /// block (served hot) plus up to kPrefetchSlots fills in flight.
  struct PrefetchRing {
    uint64_t last_block = ~0ull;
    uint64_t blocks[kPrefetchSlots];
    uint64_t ready_at_ns[kPrefetchSlots] = {};
    uint32_t next = 0;
    /// The last steady_clock value this thread read: the clock is at least
    /// here, so a fill ready by then has completed.
    uint64_t clock_floor_ns = 0;

    PrefetchRing() {
      for (uint64_t& b : blocks) b = ~0ull;
    }

    uint64_t ReadClock() {
      clock_floor_ns = NowNs();
      return clock_floor_ns;
    }

    uint64_t* Find(uint64_t block) {
      for (uint32_t i = 0; i < kPrefetchSlots; ++i) {
        if (blocks[i] == block) return &ready_at_ns[i];
      }
      return nullptr;
    }

    void Insert(uint64_t block, uint64_t ready_at) {
      blocks[next] = block;
      ready_at_ns[next] = ready_at;
      next = (next + 1) % kPrefetchSlots;
    }
  };

  static PrefetchRing& TlsRing() {
    thread_local PrefetchRing ring;
    return ring;
  }

  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

}  // namespace poseidon::pmem

#endif  // POSEIDON_PMEM_LATENCY_MODEL_H_
