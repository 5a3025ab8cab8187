// Caller-runs morsel dispatch (util/morsel_dispatch.h): where morsels run,
// how errors, stops and cancellation end the claiming, per-call completion
// under concurrent callers, and end-to-end agreement of the adaptive engine
// with the interpreter from several client threads. Run under the
// POSEIDON_TSAN build (`ctest -L tsan`) to race-check the job hand-off.

#include "util/morsel_dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "core/graph_db.h"
#include "ldbc/queries.h"

namespace poseidon {
namespace {

constexpr auto kTimeout = std::chrono::seconds(20);

/// For calls whose cancellation is not under test.
const util::CancelToken kNeverCancelled;

/// A one-shot latch whose wait gives up after kTimeout, so a scheduler that
/// makes callers wait for each other fails the test instead of hanging it.
class Latch {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  /// True when opened, false on timeout.
  bool Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kTimeout, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

struct Call {
  uint64_t begin, end;
  uint32_t runner;
  std::thread::id thread;
};

/// Runs `total` units in morsels of `size`, recording every body call.
Status Record(ThreadPool* pool, uint64_t total, uint64_t size,
              std::vector<Call>* calls) {
  std::mutex mu;
  return RunMorsels(pool, total, size, kNeverCancelled,
                    [&](uint64_t b, uint64_t e, uint32_t runner, bool*) {
                      std::lock_guard<std::mutex> lock(mu);
                      calls->push_back({b, e, runner,
                                        std::this_thread::get_id()});
                      return Status::Ok();
                    });
}

TEST(MorselDispatchTest, SingleMorselRunsOnTheCallingThread) {
  ThreadPool pool(3);
  std::vector<Call> calls;
  ASSERT_TRUE(Record(&pool, 100, 2048, &calls).ok());
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].begin, 0u);
  EXPECT_EQ(calls[0].end, 100u);
  EXPECT_EQ(calls[0].runner, 0u);
  EXPECT_EQ(calls[0].thread, std::this_thread::get_id());
}

TEST(MorselDispatchTest, PoolWithoutWorkersRunsEveryMorselInline) {
  ThreadPool empty(0);
  for (ThreadPool* pool : {&empty, static_cast<ThreadPool*>(nullptr)}) {
    std::vector<Call> calls;
    ASSERT_TRUE(Record(pool, 10 * 64 + 5, 64, &calls).ok());
    ASSERT_EQ(calls.size(), 11u);
    for (size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].begin, i * 64);  // one runner claims in order
      EXPECT_EQ(calls[i].end, std::min<uint64_t>(i * 64 + 64, 645));
      EXPECT_EQ(calls[i].runner, 0u);
      EXPECT_EQ(calls[i].thread, std::this_thread::get_id());
    }
  }
}

TEST(MorselDispatchTest, HelpersCoverEveryMorselOnceWithinTheirSlots) {
  ThreadPool pool(3);
  std::vector<Call> calls;
  ASSERT_TRUE(Record(&pool, 1000, 7, &calls).ok());
  std::sort(calls.begin(), calls.end(),
            [](const Call& a, const Call& b) { return a.begin < b.begin; });
  ASSERT_EQ(calls.size(), 143u);
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].begin, i * 7);
    EXPECT_EQ(calls[i].end, std::min<uint64_t>(i * 7 + 7, 1000));
    EXPECT_LT(calls[i].runner, 4u) << "runner slots are 0..query_threads-1";
  }
}

TEST(MorselDispatchTest, FirstErrorWinsAndEndsTheClaiming) {
  int runs = 0;
  Status s = RunMorsels(nullptr, 100, 1, kNeverCancelled,
                        [&](uint64_t b, uint64_t, uint32_t, bool*) {
                          ++runs;
                          if (b >= 3) {
                            return Status::Internal("morsel " +
                                                    std::to_string(b));
                          }
                          return Status::Ok();
                        });
  EXPECT_EQ(s.message(), "morsel 3");
  EXPECT_EQ(runs, 4) << "no morsel is claimed after the first error";

  // With helpers: the one failing morsel's error is returned, and the
  // claiming stops long before the 100k morsels are done.
  ThreadPool pool(3);
  std::atomic<int> parallel_runs{0};
  s = RunMorsels(&pool, 100000, 1, kNeverCancelled,
                 [&](uint64_t b, uint64_t, uint32_t, bool*) {
                   parallel_runs.fetch_add(1);
                   return b == 10 ? Status::Internal("morsel 10")
                                  : Status::Ok();
                 });
  EXPECT_EQ(s.message(), "morsel 10");
  EXPECT_LT(parallel_runs.load(), 100000);
}

TEST(MorselDispatchTest, StopEndsTheClaimingWithoutAnError) {
  int runs = 0;
  Status s = RunMorsels(nullptr, 100, 1, kNeverCancelled,
                        [&](uint64_t b, uint64_t, uint32_t, bool* stop) {
                          ++runs;
                          *stop = b == 5;  // a satisfied LIMIT
                          return Status::Ok();
                        });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(runs, 6);
}

TEST(MorselDispatchTest, CancelIsPolledBeforeEachMorsel) {
  util::CancelToken token;
  int runs = 0;
  Status s = RunMorsels(nullptr, 100, 1, token,
                        [&](uint64_t b, uint64_t, uint32_t, bool*) {
                          ++runs;
                          if (b == 2) token.Cancel();
                          return Status::Ok();
                        });
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  EXPECT_EQ(runs, 3);
}

TEST(MorselDispatchTest, ConcurrentCallersOnOneWorkerDoNotWaitForEachOther) {
  ThreadPool pool(1);
  Latch helper_running, b_returned;
  std::atomic<bool> timed_out{false};
  Status a_status;
  // Caller A: its runner 0 holds its first morsel until the helper has
  // claimed the second, which then blocks until caller B has returned.
  std::thread a([&] {
    a_status = RunMorsels(
        &pool, 2, 1, kNeverCancelled,
        [&](uint64_t, uint64_t, uint32_t runner, bool*) {
          if (runner == 0) {
            if (!helper_running.Wait()) timed_out = true;
          } else {
            helper_running.Open();
            if (!b_returned.Wait()) timed_out = true;
          }
          return Status::Ok();
        });
  });
  ASSERT_TRUE(helper_running.Wait());
  // Caller B: its helper queues behind A's blocked morsel on the only
  // worker, so B must finish both morsels itself and return without
  // waiting for the pool.
  std::atomic<int> b_runs{0};
  Status b_status = RunMorsels(&pool, 2, 1, kNeverCancelled,
                               [&](uint64_t, uint64_t, uint32_t, bool*) {
                                 b_runs.fetch_add(1);
                                 return Status::Ok();
                               });
  b_returned.Open();
  a.join();
  EXPECT_FALSE(timed_out.load()) << "callers waited for each other's morsels";
  EXPECT_TRUE(a_status.ok());
  EXPECT_TRUE(b_status.ok());
  EXPECT_EQ(b_runs.load(), 2);
}

TEST(MorselDispatchTest, LateHelperTouchesNothingOfItsReturnedCaller) {
  Latch gate;
  std::atomic<bool> gate_timed_out{false};
  {
    ThreadPool pool(1);
    pool.Submit([&] {
      if (!gate.Wait()) gate_timed_out = true;
    });
    {
      // Everything the body touches lives in this scope; the helper this
      // call posts is still queued behind the gate when the scope ends.
      std::vector<uint32_t> runners(4, 99);
      Status s = RunMorsels(&pool, 4, 1, kNeverCancelled,
                            [&](uint64_t b, uint64_t, uint32_t runner, bool*) {
                              runners[b] = runner;
                              return Status::Ok();
                            });
      ASSERT_TRUE(s.ok());
      EXPECT_EQ(runners, std::vector<uint32_t>(4, 0));
    }
    gate.Open();
  }  // the pool drains: the late helper runs against the finished job
  EXPECT_FALSE(gate_timed_out.load());
}

// --- End to end: adaptive vs interpreted from concurrent clients ----------

using Row = std::vector<std::pair<int, uint64_t>>;

std::vector<Row> Canonical(const query::QueryResult& r) {
  std::vector<Row> rows;
  for (const auto& t : r.rows) {
    Row row;
    for (const auto& v : t) {
      row.emplace_back(static_cast<int>(v.kind()), v.raw());
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool OrdersOrLimits(const query::Plan& plan) {
  for (const query::Op* op = plan.root(); op != nullptr;
       op = op->input.get()) {
    if (op->kind == query::OpKind::kOrderBy ||
        op->kind == query::OpKind::kLimit) {
      return true;
    }
  }
  return false;
}

TEST(MorselDispatchTest, AdaptiveMatchesInterpreterFromConcurrentClients) {
  constexpr int kClients = 4;
  constexpr int kRoundsPerClient = 3;
  for (size_t query_threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("query_threads " + std::to_string(query_threads));
    core::GraphDbOptions o;  // DRAM pool
    o.capacity = 256ull << 20;
    o.query_threads = query_threads;
    auto db = core::GraphDb::Create(o);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ldbc::SnbConfig cfg;
    cfg.persons = 300;
    auto ds = ldbc::GenerateSnb((*db)->txm(), (*db)->store(), cfg);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ASSERT_TRUE(ldbc::CreateSnbIndexes((*db)->indexes(), ds->schema,
                                       index::Placement::kVolatile)
                    .ok());
    // Every indexed short read, plus the scanned ones whose rows do not
    // depend on tie order: those split into several morsels, so helpers
    // run beside the callers when query_threads > 1.
    std::vector<ldbc::NamedQuery> queries =
        ldbc::BuildShortReads(ds->schema, true);
    for (auto& q : ldbc::BuildShortReads(ds->schema, false)) {
      if (!OrdersOrLimits(q.plan)) queries.push_back(std::move(q));
    }
    ASSERT_GT((*db)->store()->nodes().NumSlots(),
              query::QueryEngine::kMorselSize);

    std::atomic<int> mismatches{0}, failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(1000 + c);
        for (int round = 0; round < kRoundsPerClient; ++round) {
          for (const auto& q : queries) {
            auto params = ldbc::DrawShortReadParams(*ds, q.name, &rng);
            auto want = (*db)->Execute(q.plan, jit::ExecutionMode::kInterpret,
                                       params);
            auto got = (*db)->Execute(q.plan, jit::ExecutionMode::kAdaptive,
                                      params);
            if (!want.ok() || !got.ok()) {
              failures.fetch_add(1);
            } else if (Canonical(*want) != Canonical(*got)) {
              mismatches.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    (*db)->engine()->WaitForBackgroundCompiles();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
  }
}

}  // namespace
}  // namespace poseidon
