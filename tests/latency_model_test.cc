// LatencyModel tests: env-knob parsing, the Dram()/EmulatedPmem() presets,
// and the zero-latency passthrough guarantees that keep DRAM-mode tests
// fast. The spin-wait *durations* are calibrated elsewhere (bench_pmem_micro
// E1); here we only assert behaviour that is timing-independent or
// one-sided (an upper bound of "essentially free").

#include "pmem/latency_model.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>

namespace poseidon::pmem {
namespace {

class LatencyModelTest : public ::testing::Test {
 protected:
  void SetUp() override { ClearEnv(); }
  void TearDown() override { ClearEnv(); }

  static void ClearEnv() {
    ::unsetenv("POSEIDON_PMEM_READ_NS");
    ::unsetenv("POSEIDON_PMEM_FLUSH_NS");
    ::unsetenv("POSEIDON_PMEM_DRAIN_NS");
  }
};

TEST_F(LatencyModelTest, DramPresetIsDisabled) {
  LatencyModel m = LatencyModel::Dram();
  EXPECT_EQ(m.read_block_ns, 0u);
  EXPECT_EQ(m.flush_line_ns, 0u);
  EXPECT_EQ(m.drain_ns, 0u);
  EXPECT_FALSE(m.enabled());
}

TEST_F(LatencyModelTest, EmulatedPmemDefaultsMatchPublishedNumbers) {
  LatencyModel m = LatencyModel::EmulatedPmem();
  // The documented Optane approximations (see latency_model.h header).
  EXPECT_EQ(m.read_block_ns, 200u);
  EXPECT_EQ(m.flush_line_ns, 90u);
  EXPECT_EQ(m.drain_ns, 100u);
  EXPECT_TRUE(m.enabled());
}

TEST_F(LatencyModelTest, EnvKnobsOverrideEachComponent) {
  ::setenv("POSEIDON_PMEM_READ_NS", "350", 1);
  ::setenv("POSEIDON_PMEM_FLUSH_NS", "0", 1);
  ::setenv("POSEIDON_PMEM_DRAIN_NS", "75", 1);
  LatencyModel m = LatencyModel::EmulatedPmem();
  EXPECT_EQ(m.read_block_ns, 350u);
  EXPECT_EQ(m.flush_line_ns, 0u);  // explicit zero disables just that knob
  EXPECT_EQ(m.drain_ns, 75u);
  EXPECT_TRUE(m.enabled());  // drain + read still inject latency
}

TEST_F(LatencyModelTest, KnobsAreReadFreshOnEveryCall) {
  ::setenv("POSEIDON_PMEM_READ_NS", "111", 1);
  EXPECT_EQ(LatencyModel::EmulatedPmem().read_block_ns, 111u);
  ::setenv("POSEIDON_PMEM_READ_NS", "222", 1);
  EXPECT_EQ(LatencyModel::EmulatedPmem().read_block_ns, 222u);
}

TEST_F(LatencyModelTest, GarbageAndEmptyEnvFallBackToDefaults) {
  ::setenv("POSEIDON_PMEM_READ_NS", "not-a-number", 1);
  ::setenv("POSEIDON_PMEM_FLUSH_NS", "", 1);
  LatencyModel m = LatencyModel::EmulatedPmem();
  EXPECT_EQ(m.read_block_ns, 200u);
  EXPECT_EQ(m.flush_line_ns, 90u);
}

TEST_F(LatencyModelTest, ZeroLatencyCallsArePassthrough) {
  // Dram() models must be safe to call on every hot-path hook and cost
  // nothing observable: no spins, no thread-local churn that matters.
  LatencyModel m = LatencyModel::Dram();
  char buf[4096];
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 100000; ++i) {
    m.OnRead(buf, sizeof(buf));
    m.OnPrefetch(buf, sizeof(buf));
    m.OnFlush(64);
    m.OnDrain();
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  // 400k no-op hooks in well under a second even on a loaded CI machine;
  // a missing early-out would spin for (100000 * 64 * 90ns) = ~9 minutes.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
}

TEST_F(LatencyModelTest, ZeroLengthAccessesAreIgnored) {
  LatencyModel m;
  m.read_block_ns = 1'000'000'000;  // 1s per block: a miss would hang
  m.flush_line_ns = 1'000'000'000;
  auto start = std::chrono::steady_clock::now();
  char buf[8];
  m.OnRead(buf, 0);
  m.OnPrefetch(buf, 0);
  m.OnFlush(0);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            100);
}

TEST_F(LatencyModelTest, PrefetchMakesLaterReadCheaper) {
  // A block announced via OnPrefetch long enough ago is served with only
  // the residual wait. With a tiny read latency the residual is ~zero, so
  // this is timing-safe: we assert the prefetched read does NOT pay the
  // full per-block cost, using a deliberately huge cost to separate the
  // two outcomes by orders of magnitude.
  LatencyModel m;
  m.read_block_ns = 50'000'000;  // 50 ms per block — unmissable if paid
  alignas(256) static char buf[256];
  m.OnPrefetch(buf, 1);
  // Let the modeled fill complete.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
  }
  auto start = std::chrono::steady_clock::now();
  m.OnRead(buf, 1);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            40)
      << "prefetched block paid the full read latency";
}

// --- Charge pins -----------------------------------------------------------
// Each case uses its own 256 B-aligned buffers (the prefetch ring is per
// thread and outlives a test) and a per-block cost large enough that a paid
// and a free access differ by orders of magnitude.

constexpr uint64_t kBlockNs = 30'000'000;  // 30 ms per block
constexpr int64_t kFullMs = 30;

template <typename F>
int64_t ElapsedMs(F&& f) {
  auto start = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void SpinMs(int64_t ms) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
  }
}

TEST_F(LatencyModelTest, NeverPrefetchedBlockPaysTheFullRead) {
  LatencyModel m;
  m.read_block_ns = kBlockNs;
  alignas(256) static char buf[256];
  EXPECT_GE(ElapsedMs([&] { m.OnRead(buf, 64); }), kFullMs - 1);
}

TEST_F(LatencyModelTest, BlockPrefetchedAFullReadAgoIsFree) {
  LatencyModel m;
  m.read_block_ns = kBlockNs;
  alignas(256) static char buf[256];
  m.OnPrefetch(buf + 64, 64);  // any byte of the block starts its fill
  SpinMs(kFullMs + 5);
  EXPECT_LT(ElapsedMs([&] { m.OnRead(buf, 64); }), kFullMs / 3);
}

TEST_F(LatencyModelTest, RereadOfTheSameBlockIsFree) {
  LatencyModel m;
  m.read_block_ns = kBlockNs;
  alignas(256) static char buf[256];
  EXPECT_GE(ElapsedMs([&] { m.OnRead(buf, 64); }), kFullMs - 1);
  EXPECT_LT(ElapsedMs([&] { m.OnRead(buf + 128, 64); }), kFullMs / 3);
}

TEST_F(LatencyModelTest, NoOpPrefetchLeavesEveryFillWhereItWas) {
  LatencyModel m;
  m.read_block_ns = kBlockNs;
  alignas(256) static char inflight[256];
  alignas(256) static char hot[256];
  // A second prefetch of a block already in flight must not restart its
  // fill: the read lands after the first fill completes and pays ~0.
  m.OnPrefetch(inflight, 64);
  SpinMs(kFullMs * 2 / 3);
  m.OnPrefetch(inflight, 64);  // no-op
  SpinMs(kFullMs / 2);         // first fill done; a restarted one is not
  EXPECT_LT(ElapsedMs([&] { m.OnRead(inflight, 64); }), kFullMs / 3);
  // A prefetch of the buffer-hot block is a no-op too: it starts no fill,
  // so once another block has displaced it from the buffer, re-reading it
  // pays in full.
  alignas(256) static char other[256];
  EXPECT_GE(ElapsedMs([&] { m.OnRead(hot, 64); }), kFullMs - 1);
  m.OnPrefetch(hot, 64);  // hot is the buffered block: no-op
  SpinMs(kFullMs + 5);
  EXPECT_GE(ElapsedMs([&] { m.OnRead(other, 64); }), kFullMs - 1);
  EXPECT_GE(ElapsedMs([&] { m.OnRead(hot, 64); }), kFullMs - 1)
      << "a prefetch of the buffered block started a fill";
}

}  // namespace
}  // namespace poseidon::pmem
