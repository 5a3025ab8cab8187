#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "util/backoff.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/spin_timer.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace poseidon {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kCancelled); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusTest, OverloadGovernanceCodes) {
  Status d = Status::DeadlineExceeded("query deadline exceeded");
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.IsDeadlineExceeded());
  EXPECT_FALSE(d.IsCancelled());
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(d.ToString(), "DEADLINE_EXCEEDED: query deadline exceeded");

  Status c = Status::Cancelled("user abort");
  EXPECT_TRUE(c.IsCancelled());
  EXPECT_FALSE(c.IsDeadlineExceeded());
  EXPECT_EQ(c.ToString(), "CANCELLED: user abort");

  Status r = Status::ResourceExhausted("pool full");
  EXPECT_TRUE(r.IsResourceExhausted());
}

// --- CancelToken -------------------------------------------------------------

TEST(CancelTokenTest, DefaultPassesChecks) {
  util::CancelToken t;
  EXPECT_FALSE(t.cancelled());
  EXPECT_FALSE(t.has_deadline());
  EXPECT_TRUE(t.Check().ok());
}

TEST(CancelTokenTest, ExplicitCancelWinsOverDeadline) {
  util::CancelToken t;
  t.SetDeadlineAfterMs(60'000);  // far future: deadline alone passes
  EXPECT_TRUE(t.Check().ok());
  t.Cancel();
  Status s = t.Check();
  EXPECT_TRUE(s.IsCancelled());
  t.Reset();
  EXPECT_TRUE(t.Check().ok());
}

TEST(CancelTokenTest, ExpiredDeadlineReportsDeadlineExceeded) {
  util::CancelToken t;
  t.SetDeadlineAfterMs(1);
  // Busy-wait past the deadline (steady clock; 1 ms).
  while (t.Check().ok()) {
  }
  EXPECT_TRUE(t.Check().IsDeadlineExceeded());
  t.SetDeadlineAfterMs(0);  // disarm
  EXPECT_TRUE(t.Check().ok());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Aborted("conflict");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAborted());
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::Ok();
}

Result<int> DoubleIfPositive(int x) {
  POSEIDON_RETURN_IF_ERROR(FailIfNegative(x));
  return x * 2;
}

Result<int> ChainedMacro(int x) {
  POSEIDON_ASSIGN_OR_RETURN(int doubled, DoubleIfPositive(x));
  return doubled + 1;
}

TEST(ResultTest, MacrosPropagateErrors) {
  auto ok = ChainedMacro(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 11);
  auto err = ChainedMacro(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

// --- Hashing -----------------------------------------------------------------

TEST(HashTest, DeterministicAcrossCalls) {
  EXPECT_EQ(HashString("poseidon"), HashString("poseidon"));
  EXPECT_NE(HashString("poseidon"), HashString("poseidoN"));
  EXPECT_EQ(HashU64(12345), HashU64(12345));
}

TEST(HashTest, SequentialKeysSpread) {
  // Open-addressing quality: consecutive ids must not cluster.
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 1024; ++i) buckets.insert(HashU64(i) % 4096);
  EXPECT_GT(buckets.size(), 800u);
}

TEST(HashTest, CombineIsOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng a2(7);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ZipfIsBoundedAndSkewed) {
  Rng rng(5);
  uint64_t low = 0, total = 20000;
  for (uint64_t i = 0; i < total; ++i) {
    uint64_t v = rng.Zipf(1000);
    ASSERT_LT(v, 1000u);
    if (v < 10) ++low;
  }
  // A zipf(1.2) distribution concentrates mass on small ranks.
  EXPECT_GT(low, total / 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// --- SpinWait / StopWatch ---------------------------------------------------

TEST(SpinTimerTest, WaitsApproximatelyRequestedTime) {
  StopWatch w;
  SpinWaitNs(200000);  // 200 us
  uint64_t elapsed = w.ElapsedNs();
  EXPECT_GE(elapsed, 190000u);
  EXPECT_LT(elapsed, 5000000u);  // generous upper bound for busy CI boxes
}

TEST(SpinTimerTest, ZeroIsNoop) {
  StopWatch w;
  for (int i = 0; i < 1000; ++i) SpinWaitNs(0);
  EXPECT_LT(w.ElapsedUs(), 10000.0);
}

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }  // the destructor runs every queued task before joining
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&] {
        int now = active.fetch_add(1) + 1;
        int prev = max_active.load();
        while (now > prev && !max_active.compare_exchange_weak(prev, now)) {
        }
        SpinWaitNs(1000000);
        active.fetch_sub(1);
      });
    }
  }
  EXPECT_GE(max_active.load(), 2);
}

// --- FaultRegistry env-spec parsing -----------------------------------------

// Each test uses a unique site name: ShouldFail latches the environment on
// the site's first evaluation, and Reset() forgets the latch but a previous
// test's unsetenv would otherwise race with reuse.

class FaultEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv(var_.c_str());
    util::FaultRegistry::Instance().Reset();
  }

  /// Sets POSEIDON_FAULT_<SITE> for `site` (dots -> underscores, uppercase).
  void SetSpec(const std::string& site, const char* spec) {
    var_ = "POSEIDON_FAULT_";
    for (char c : site) {
      var_.push_back(c == '.' ? '_' : static_cast<char>(std::toupper(
                                          static_cast<unsigned char>(c))));
    }
    setenv(var_.c_str(), spec, 1);
  }

  std::string var_ = "POSEIDON_FAULT_UTIL_TEST_UNUSED";
};

TEST_F(FaultEnvTest, PlainCountArmsOnceAtThatHit) {
  SetSpec("env.plain", "3");
  auto& reg = util::FaultRegistry::Instance();
  EXPECT_FALSE(reg.ShouldFail("env.plain"));
  EXPECT_FALSE(reg.ShouldFail("env.plain"));
  EXPECT_TRUE(reg.ShouldFail("env.plain"));   // 3rd evaluation fires
  EXPECT_FALSE(reg.ShouldFail("env.plain"));  // times defaults to 1
  EXPECT_EQ(reg.fired("env.plain"), 1u);
}

TEST_F(FaultEnvTest, TimesSuffixKeepsFiring) {
  SetSpec("env.times", "2:3");
  auto& reg = util::FaultRegistry::Instance();
  EXPECT_FALSE(reg.ShouldFail("env.times"));
  EXPECT_TRUE(reg.ShouldFail("env.times"));
  EXPECT_TRUE(reg.ShouldFail("env.times"));
  EXPECT_TRUE(reg.ShouldFail("env.times"));
  EXPECT_FALSE(reg.ShouldFail("env.times"));  // recovered after 3 failures
  EXPECT_EQ(reg.fired("env.times"), 3u);
}

TEST_F(FaultEnvTest, AlwaysNeverRecovers) {
  SetSpec("env.always", "always");
  auto& reg = util::FaultRegistry::Instance();
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(reg.ShouldFail("env.always"));
  }
  EXPECT_EQ(reg.fired("env.always"), 50u);
}

TEST_F(FaultEnvTest, MalformedSpecsLeaveSiteDisarmed) {
  const char* bad[] = {"abc", "0", ":", "", ":4", "-3"};
  int n = 0;
  for (const char* spec : bad) {
    std::string site = "env.bad" + std::to_string(n++);
    SetSpec(site, spec);
    auto& reg = util::FaultRegistry::Instance();
    for (int i = 0; i < 5; ++i) {
      EXPECT_FALSE(reg.ShouldFail(site)) << "spec '" << spec << "'";
    }
    unsetenv(var_.c_str());
  }
}

TEST_F(FaultEnvTest, MalformedTimesSuffixFallsBackToOne) {
  SetSpec("env.badtimes", "2:zzz");
  auto& reg = util::FaultRegistry::Instance();
  EXPECT_FALSE(reg.ShouldFail("env.badtimes"));
  EXPECT_TRUE(reg.ShouldFail("env.badtimes"));
  EXPECT_FALSE(reg.ShouldFail("env.badtimes"));  // times stayed at 1
}

TEST_F(FaultEnvTest, UnknownSiteNamesAreInertAndCounted) {
  // Nothing ever arms a site nobody set a variable for: evaluations count
  // but never fail, and fired() of a never-evaluated name is zero.
  auto& reg = util::FaultRegistry::Instance();
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(reg.ShouldFail("no.such.site"));
  }
  EXPECT_EQ(reg.hits("no.such.site"), 10u);
  EXPECT_EQ(reg.fired("no.such.site"), 0u);
  EXPECT_EQ(reg.hits("never.evaluated"), 0u);
}

TEST_F(FaultEnvTest, ExplicitArmOverridesEnvironment) {
  SetSpec("env.override", "always");
  auto& reg = util::FaultRegistry::Instance();
  reg.Arm("env.override", 1, 1);  // arming first marks env as consumed
  EXPECT_TRUE(reg.ShouldFail("env.override"));
  EXPECT_FALSE(reg.ShouldFail("env.override"));  // "always" never kicked in
}

// --- Backoff jitter ----------------------------------------------------------

TEST(BackoffTest, ZeroJitterIsExactExponential) {
  util::Backoff::Options o;
  o.max_attempts = 16;
  o.base_spin_ns = 4;
  o.max_spin_ns = 64;
  util::Backoff b(o);
  uint64_t expected = 4;
  while (b.Next()) {
    EXPECT_EQ(b.last_spin_ns(), expected);
    expected = expected >= 64 ? 64 : expected * 2;
  }
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.attempts(), 16);
}

TEST(BackoffTest, JitterStaysWithinPctBounds) {
  util::Backoff::Options o;
  o.max_attempts = 64;
  o.base_spin_ns = 100;
  o.max_spin_ns = 100000;
  o.jitter_pct = 25;
  o.jitter_seed = 42;
  util::Backoff b(o);
  uint64_t nominal = 100;
  bool saw_deviation = false;
  while (b.Next()) {
    // last_spin_ns must lie in nominal * [0.75, 1.25], clamped to the cap.
    uint64_t lo = nominal * 75 / 100;
    uint64_t hi = nominal * 125 / 100;
    if (hi > o.max_spin_ns) hi = o.max_spin_ns;
    EXPECT_GE(b.last_spin_ns(), lo);
    EXPECT_LE(b.last_spin_ns(), hi);
    saw_deviation |= b.last_spin_ns() != nominal;
    nominal = nominal >= o.max_spin_ns ? o.max_spin_ns : nominal * 2;
  }
  EXPECT_TRUE(saw_deviation) << "25% jitter never moved the spin";
}

TEST(BackoffTest, JitterNeverExceedsMaxSpin) {
  util::Backoff::Options o;
  o.max_attempts = 64;
  o.base_spin_ns = 4096;
  o.max_spin_ns = 8192;
  o.jitter_pct = 100;
  o.jitter_seed = 7;
  util::Backoff b(o);
  while (b.Next()) {
    EXPECT_LE(b.last_spin_ns(), o.max_spin_ns);
  }
}

TEST(BackoffTest, JitterStreamIsDeterministicPerSeed) {
  util::Backoff::Options o;
  o.max_attempts = 32;
  o.base_spin_ns = 1;  // tiny spins keep the test instant
  o.max_spin_ns = 8192;
  o.jitter_pct = 50;
  o.jitter_seed = 1234;
  std::vector<uint64_t> a, bvals;
  {
    util::Backoff b(o);
    while (b.Next()) a.push_back(b.last_spin_ns());
  }
  {
    util::Backoff b(o);
    while (b.Next()) bvals.push_back(b.last_spin_ns());
  }
  EXPECT_EQ(a, bvals);
}

TEST(BackoffTest, FromEnvReadsJitterPct) {
  setenv("POSEIDON_BACKOFF_JITTER_PCT", "30", 1);
  util::Backoff::Options o = util::Backoff::FromEnv(8);
  EXPECT_EQ(o.jitter_pct, 30u);
  setenv("POSEIDON_BACKOFF_JITTER_PCT", "250", 1);
  o = util::Backoff::FromEnv(8);
  EXPECT_EQ(o.jitter_pct, 100u) << "jitter percent clamps to 100";
  unsetenv("POSEIDON_BACKOFF_JITTER_PCT");
  o = util::Backoff::FromEnv(8);
  EXPECT_EQ(o.jitter_pct, 0u);
}

}  // namespace
}  // namespace poseidon
