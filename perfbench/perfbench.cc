// Repository benchmark program: runs one named LDBC-SNB workload against the
// engine on an emulated-PMem pool, checks its outputs and prints every
// metric by name with its unit and sample count. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload sr_mix --seed 1 --seconds 12 --trace 0
//       [--dir .bench_out] [--git-sha <sha>] [--source-sha256 <digest>]
//
// Workloads (why each exists), each with one client and one morsel worker
// on one CPU (see CpuMasks):
//   sr_mix   SNB at 10k persons, hybrid id indexes; 90% indexed IS1-IS7 and
//            10% IU1-IU8 plans: the paper's interactive mix. Its time goes
//            to the read path (tx begin/visibility, index lookup, adjacency
//            cache, per-call query/JIT dispatch).
//   iu_write SNB at 1k persons with indexes, 100% IU1-IU8, each a durable
//            commit: redo log, flush/drain, allocation, index insert. A
//            read-path gain that costs writers shows here.
//   scan_jit SNB at 1k persons, no indexes; the 12 unindexed IS plans
//            (NodeScan + filter): the setting of the paper's Fig. 7/10. Time
//            goes to the storage scan, PMem read emulation, codegen/compile
//            and the code cache.
// All three fit in the adjacency cache's default 256 MiB. A workload larger
// than that cache needs ~100k persons and 30+ s of set-up per run, which
// the run budget does not allow, so there is none.
//
// Every operation goes through GraphDb::Execute(plan, kAdaptive, params) in
// a closed loop without think time; the engine only sees plans and the
// parameters ldbc::Draw*Params made from --seed. The traced run (--trace 1)
// issues the same operations as Begin() + ExecuteIn() + Commit(), the body
// of GraphDb::Execute, so the tx and core layers can be timed apart; its
// numbers are per-layer only.

#include <malloc.h>
#include <cerrno>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/graph_db.h"
#include "ldbc/queries.h"
#include "stats.h"
#include "trace.h"
#include "util/random.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using poseidon::Result;
using poseidon::Rng;
using poseidon::Status;
using poseidon::StatusCode;
using poseidon::core::GraphDb;
using poseidon::jit::ExecStats;
using poseidon::jit::ExecutionMode;
using poseidon::ldbc::NamedQuery;
using poseidon::ldbc::SnbDataset;
using poseidon::query::Plan;
using poseidon::query::QueryResult;
using poseidon::query::Tuple;
using poseidon::query::Value;
using poseidon::storage::DictCode;
namespace fs = std::filesystem;

/// Reopens per run; reopen_ms and cached_query_ms are medians over them.
/// They are kReopenPauseMs apart, half before and half after the timed
/// phase, so that their median spans the run's host conditions rather than
/// one burst.
constexpr int kReopenRepeats = 21;
constexpr int kReopenPauseMs = 100;
/// One-second windows the timed phase is cut into per --seconds; the
/// end-to-end throughput and latencies are medians over windows, so a
/// few seconds of host interference do not move them.
constexpr double kWindowSeconds = 1.0;
int TimedWindows(double seconds) {
  return std::max(1, static_cast<int>(seconds / kWindowSeconds));
}
/// Highest percentile the end-to-end latency tail reports. Above p90 the
/// tail is set by scheduler preemption on a shared host and swings run to
/// run: on a 4-vCPU VM the quartile spread over seeds reached 30-40% of the
/// median for p99 (scan_jit) and 23% for p95 (iu_write).
constexpr double kEndToEndTailPct = 90.0;
/// Attempts per operation: an MVTO conflict (kAborted) is retried up to
/// this bound before the operation counts as failed. Between attempts the
/// client sleeps for a jittered, doubling delay capped at kMaxRetrySleepUs:
/// sleeping rather than spinning hands the CPU to a preempted lock holder.
constexpr int kMaxAttempts = 32;
constexpr int64_t kMaxRetrySleepUs = 2000;
/// Parameter sets per plan in scan_jit, each checked against kInterpret.
constexpr int kScanInputsPerPlan = 8;
/// Probe repetitions for the traced index-lookup and storage-scan probes.
constexpr int kProbeRepeats = 5;
constexpr uint64_t kPoolCapacity = 1ull << 30;
/// One client thread and one engine morsel worker (the pool's minimum) on
/// every workload; CpuMasks says why there are no more.
constexpr int kClients = 1;
constexpr size_t kQueryThreads = 1;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

template <typename T>
T Unwrap(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + salt * 0xbf58476d1ce4e5b9ull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

// --- Workload definitions ---------------------------------------------------

struct WorkloadSpec {
  std::string name;
  uint64_t persons = 0;
  bool indexed = false;
  double update_share = 0;  ///< share of operations that are IU plans
  uint64_t warmup_ops = 0;  ///< operations run before the timed phase
  int setup_repeats = 5;  ///< set-ups per run; setup_s is their median
};

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "sr_mix") {
    w.persons = 10000;
    w.indexed = true;
    w.update_share = 0.10;
    w.warmup_ops = 40000;
    w.setup_repeats = 3;  // ~7 s each
  } else if (name == "iu_write") {
    w.persons = 1000;
    w.indexed = true;
    w.update_share = 1.0;
    w.warmup_ops = 8000;
    w.setup_repeats = 9;  // ~0.8 s each
  } else if (name == "scan_jit") {
    w.persons = 1000;
    w.indexed = false;
    w.update_share = 0;
    w.warmup_ops = 2 * 12 * kScanInputsPerPlan;
  } else {
    Die("unknown workload '" + name + "' (sr_mix, iu_write, scan_jit)");
  }
  return w;
}

bool IsSingleEntityRead(const std::string& name) {
  return name == "IS1" || name.rfind("IS4", 0) == 0 ||
         name.rfind("IS5", 0) == 0 || name.rfind("IS6", 0) == 0;
}

/// Rows in a canonical order, so results from parallel morsels compare
/// equal to serial ones.
std::vector<Tuple> Canonical(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

/// IU parameter draws mutate the dataset's id counters, so they are made
/// under one lock from one seeded generator: the sequence of draws is a
/// function of the seed alone.
class UpdateDrawer {
 public:
  UpdateDrawer(const SnbDataset& ds, uint64_t seed) : ds_(ds), rng_(seed) {}
  std::vector<Value> Draw(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return poseidon::ldbc::DrawUpdateParams(&ds_, name, &rng_);
  }

 private:
  std::mutex mu_;
  SnbDataset ds_;  // guarded by mu_
  Rng rng_;        // guarded by mu_
};

/// The nodes acknowledged IU operations inserted, for the durability check.
struct Ledger {
  std::mutex mu;
  std::vector<std::pair<DictCode, int64_t>> nodes;  // (label, id); guarded
};

/// Output-check failures, shared by all clients.
struct Checks {
  std::atomic<uint64_t> failures{0};
  std::mutex mu;
  std::vector<std::string> first;  // guarded by mu

  void Fail(const std::string& what) {
    failures.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    if (first.size() < 8) first.push_back(what);
  }
};

/// One scan_jit input: a plan, its parameters and the first result seen.
struct ScanInput {
  const NamedQuery* query = nullptr;
  std::vector<Value> params;
  std::mutex mu;
  bool seen = false;               // guarded by mu
  std::vector<Tuple> first_rows;   // guarded by mu
};

// --- One database and its workload state ------------------------------------

struct Instance {
  WorkloadSpec spec;
  uint64_t seed = 0;
  std::string path;
  std::unique_ptr<GraphDb> db;
  SnbDataset ds;  ///< as generated; read draws never see later inserts
  std::vector<NamedQuery> reads;
  std::vector<NamedQuery> updates;
  std::unique_ptr<UpdateDrawer> drawer;
  std::vector<std::unique_ptr<ScanInput>> scan_inputs;
  Ledger ledger;
  uint64_t base_nodes = 0;   ///< live nodes before any IU operation ran
  uint64_t closed_rels = 0;  ///< live relationships when last closed

  /// Closes the database (a clean shutdown).
  void Close() {
    closed_rels = db->store()->relationships().size();
    db.reset();
  }

  ~Instance() {
    db.reset();
    if (!path.empty()) fs::remove(path);
  }

  /// Plans whose first executions are timed (cold and after reopen).
  std::vector<const NamedQuery*> AllPlans() const {
    std::vector<const NamedQuery*> out;
    if (spec.update_share < 1.0) {
      for (const auto& q : reads) out.push_back(&q);
    }
    if (spec.update_share > 0) {
      for (const auto& q : updates) out.push_back(&q);
    }
    return out;
  }
};

poseidon::core::GraphDbOptions DbOptions(const Instance& inst) {
  poseidon::core::GraphDbOptions o;
  o.path = inst.path;
  o.capacity = kPoolCapacity;
  o.query_threads = kQueryThreads;
  return o;
}

// --- Operations -------------------------------------------------------------

struct Op {
  const NamedQuery* query = nullptr;
  std::vector<Value> params;
  bool write = false;
  ScanInput* scan = nullptr;
};

/// Per-client counts and samples; merged after the clients stop.
struct Tally {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;   ///< committed reads
  uint64_t writes = 0;  ///< committed writes
  uint64_t retries = 0;
  std::vector<double> op_us;  ///< committed op latency, retries included
  std::vector<int64_t> op_end_ns;  ///< completion time of each op_us entry
  int64_t start_ns = 0;            ///< phase start (RunClients)
  int64_t stop_ns = 0;             ///< all clients stopped
  std::vector<double> window_steal;  ///< RunClients' steal_windows
  // Traced run only.
  std::vector<double> interp_exec_us;
  std::vector<double> jit_exec_us;
  uint64_t execs = 0;
  uint64_t memo_hits = 0;
  uint64_t cache_hits = 0;
  uint64_t jit_morsels = 0;
  uint64_t interp_morsels = 0;
  uint64_t fallbacks = 0;

  void Merge(const Tally& o) {
    attempted += o.attempted;
    committed += o.committed;
    failed += o.failed;
    reads += o.reads;
    writes += o.writes;
    retries += o.retries;
    op_us.insert(op_us.end(), o.op_us.begin(), o.op_us.end());
    op_end_ns.insert(op_end_ns.end(), o.op_end_ns.begin(), o.op_end_ns.end());
    interp_exec_us.insert(interp_exec_us.end(), o.interp_exec_us.begin(),
                          o.interp_exec_us.end());
    jit_exec_us.insert(jit_exec_us.end(), o.jit_exec_us.begin(),
                       o.jit_exec_us.end());
    execs += o.execs;
    memo_hits += o.memo_hits;
    cache_hits += o.cache_hits;
    jit_morsels += o.jit_morsels;
    interp_morsels += o.interp_morsels;
    fallbacks += o.fallbacks;
  }
};

/// The body of GraphDb::Execute with a span around each layer call.
Result<QueryResult> TracedExecute(GraphDb* db, const Op& op, ExecStats* stats,
                                  int64_t* exec_ns) {
  std::unique_ptr<poseidon::tx::Transaction> tx;
  {
    ScopedSpan span("tx.begin");
    tx = db->Begin();
  }
  ScopedSpan exec_span("core.execute");
  auto result = db->ExecuteIn(op.query->plan, tx.get(), op.params,
                              ExecutionMode::kAdaptive, stats);
  exec_span.End();
  *exec_ns = exec_span.ElapsedNs();
  if (!result.ok()) {
    tx->RecordAbortCause(result.status());
    ScopedSpan span("tx.abort");
    tx->Abort();
    return result.status();
  }
  ScopedSpan commit_span("tx.commit");
  Status s = tx->Commit();
  if (!s.ok()) return s;
  return result;
}

std::atomic<uint64_t> g_next_op_id{1};

/// Runs one operation with the conflict-retry bound, records its outcome
/// in `t` and checks its output.
void RunOp(Instance* inst, const Op& op, bool traced, Tally* t,
           Checks* checks) {
  ++t->attempted;
  uint64_t op_id = g_next_op_id.fetch_add(1, std::memory_order_relaxed);
  SetCurrentOp(traced ? op_id : 0);
  ScopedSpan op_span(op.write ? "op.write" : "op.read");
  Status last;
  std::optional<QueryResult> result;
  Rng jitter(op_id);
  for (int attempt = 1;; ++attempt) {
    Result<QueryResult> r = Status::Internal("not run");
    if (traced) {
      ExecStats stats;
      int64_t exec_ns = 0;
      r = TracedExecute(inst->db.get(), op, &stats, &exec_ns);
      ++t->execs;
      t->memo_hits += stats.memo_hit ? 1 : 0;
      t->cache_hits += stats.cache_hit ? 1 : 0;
      t->jit_morsels += stats.jit_morsels;
      t->interp_morsels += stats.interpreted_morsels;
      t->fallbacks += stats.jit_fallback ? 1 : 0;
      (stats.used_jit ? t->jit_exec_us : t->interp_exec_us)
          .push_back(Us(exec_ns));
    } else {
      r = inst->db->Execute(op.query->plan, ExecutionMode::kAdaptive,
                            op.params);
    }
    if (r.ok()) {
      result = std::move(r).value();
      break;
    }
    last = r.status();
    if (last.code() != StatusCode::kAborted || attempt == kMaxAttempts) break;
    ++t->retries;
    int64_t delay = std::min<int64_t>(int64_t{1} << attempt, kMaxRetrySleepUs);
    std::this_thread::sleep_for(std::chrono::microseconds(
        delay / 2 + static_cast<int64_t>(jitter.Uniform(delay))));
  }
  op_span.End();
  SetCurrentOp(0);
  if (!result) {
    ++t->failed;
    if (last.code() != StatusCode::kAborted) {
      checks->Fail(op.query->name + " returned " + last.ToString());
    }
    return;
  }
  ++t->committed;
  t->op_us.push_back(Us(op_span.ElapsedNs()));
  t->op_end_ns.push_back(NowNs());
  const std::string& name = op.query->name;
  if (!op.write) {
    ++t->reads;
    if (IsSingleEntityRead(name) && result->rows.size() != 1) {
      checks->Fail(name + " with id " + op.params[0].ToString() + " returned " +
                   std::to_string(result->rows.size()) + " rows, want 1");
    }
  } else {
    ++t->writes;
    bool creates_node = name == "IU1" || name == "IU4" || name == "IU6" ||
                        name == "IU7";
    std::lock_guard<std::mutex> lock(inst->ledger.mu);
    if (creates_node) {
      const auto& s = inst->ds.schema;
      DictCode label = name == "IU1"   ? s.person
                       : name == "IU4" ? s.forum
                       : name == "IU6" ? s.post
                                       : s.comment;
      inst->ledger.nodes.emplace_back(label, op.params[0].AsInt());
    }
  }
  if (op.scan != nullptr) {
    std::vector<Tuple> rows = Canonical(std::move(result->rows));
    std::lock_guard<std::mutex> lock(op.scan->mu);
    if (!op.scan->seen) {
      op.scan->seen = true;
      op.scan->first_rows = std::move(rows);
    } else if (rows != op.scan->first_rows) {
      checks->Fail(name + ": hot result differs from an earlier run");
    }
  }
}

/// Draws the next operation of the workload's mix.
Op NextOp(Instance* inst, Rng* rng) {
  Op op;
  if (!inst->scan_inputs.empty()) {
    ScanInput* in =
        inst->scan_inputs[rng->Uniform(inst->scan_inputs.size())].get();
    op.query = in->query;
    op.params = in->params;
    op.scan = in;
    return op;
  }
  if (rng->NextDouble() < inst->spec.update_share) {
    op.query = &inst->updates[rng->Uniform(inst->updates.size())];
    op.params = inst->drawer->Draw(op.query->name);
    op.write = true;
  } else {
    op.query = &inst->reads[rng->Uniform(inst->reads.size())];
    op.params =
        poseidon::ldbc::DrawShortReadParams(inst->ds, op.query->name, rng);
  }
  return op;
}

int Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n < 1 ? 1 : static_cast<int>(n);
}

/// CPU masks of the run. Every thread runs on `one` (the highest-numbered
/// CPU the process may use) except in the cold phase of a set-up, when the
/// process also gets the next CPU (`cold`): a never-seen plan's first run
/// starts its compile on a background thread, and on one CPU that thread
/// takes a varying share of the first run's time (the first run of one IU
/// plan ranged from 0.5 to 5.9 ms over set-ups of one seed).
///
/// One CPU for the rest: each adaptive operation hands its morsels to a
/// pool thread and sleeps until they are done. On one CPU that hand-off is
/// a local context switch; spread over CPUs, every hand-off wakes an idle
/// vCPU, which on a shared host waits for the hypervisor. 2 clients + 2
/// workers unpinned on a 4-vCPU VM ran sr_mix at 5.6k-26k ops/s from run to
/// run, with 25% of the CPU time stolen in the slow runs, while one client
/// and one worker on one CPU stayed at 28.5k +- 4% through the same period.
struct CpuMasks {
  int cpu = -1;  ///< the CPU of `one`
  cpu_set_t one;
  cpu_set_t cold;
};
CpuMasks g_cpus;

CpuMasks ChooseCpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    Die("sched_getaffinity failed");
  }
  CpuMasks m;
  CPU_ZERO(&m.one);
  CPU_ZERO(&m.cold);
  int taken = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && taken < 2; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (taken++ == 0) {
      m.cpu = c;
      CPU_SET(c, &m.one);
    }
    CPU_SET(c, &m.cold);
  }
  if (m.cpu < 0) Die("no CPU to run on");
  return m;
}

/// Sets the CPU mask of every thread of the process, as `taskset -a` does;
/// threads started later inherit it from their creator.
void PinAllThreads(const cpu_set_t& mask) {
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    pid_t tid = static_cast<pid_t>(std::stol(entry.path().filename()));
    // A thread that exited meanwhile (ESRCH) needs no mask.
    if (sched_setaffinity(tid, sizeof mask, &mask) != 0 && errno != ESRCH) {
      Die("cannot set the CPU mask of thread " + std::to_string(tid));
    }
  }
}

/// Clock ticks the hypervisor gave to other guests while the benchmark's
/// CPU wanted to run (its steal column in /proc/stat); 0 on bare metal.
uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string want = "cpu" + std::to_string(g_cpus.cpu);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(want + " ", 0) != 0) continue;
    std::istringstream fields(line.substr(want.size()));
    uint64_t v[8] = {};
    for (uint64_t& x : v) fields >> x;
    return fields ? v[7] : 0;
  }
  return 0;
}

/// Share of the benchmark CPU's time stolen: `ticks` of steal in `seconds`.
double StealShare(uint64_t ticks, double seconds) {
  return static_cast<double>(ticks) /
         (static_cast<double>(sysconf(_SC_CLK_TCK)) * seconds);
}

/// Closed loop: each client issues its next operation when the previous one
/// returned. Stops after `seconds` (time-bound) or after `ops_per_client`
/// operations when that is non-zero. With `steal_windows`, the time-bound
/// phase is cut into that many windows and the steal share of each is
/// sampled at its end.
Tally RunClients(Instance* inst, double seconds, uint64_t ops_per_client,
                 bool traced, uint64_t salt, Checks* checks,
                 int steal_windows = 0) {
  int n = kClients;
  std::vector<Tally> tallies(n);
  std::vector<std::thread> threads;
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(MixSeed(inst->seed, salt * 64 + c));
      Tally& t = tallies[c];
      if (ops_per_client == 0) {
        t.op_us.reserve(1 << 20);
        t.op_end_ns.reserve(1 << 20);
      }
      for (uint64_t i = 0;; ++i) {
        if (ops_per_client != 0 ? i >= ops_per_client : NowNs() >= deadline) {
          break;
        }
        Op op = NextOp(inst, &rng);
        RunOp(inst, op, traced, &t, checks);
      }
    });
  }
  Tally all;
  if (ops_per_client == 0 && steal_windows > 0) {
    double window_s = seconds / steal_windows;
    uint64_t prev = StealTicks();
    for (int w = 1; w <= steal_windows; ++w) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(start + static_cast<int64_t>(
                                               w * window_s * 1e9))));
      uint64_t now = StealTicks();
      all.window_steal.push_back(StealShare(now - prev, window_s));
      prev = now;
    }
  }
  for (auto& th : threads) th.join();
  for (const Tally& t : tallies) all.Merge(t);
  all.start_ns = start;
  all.stop_ns = NowNs();
  return all;
}

// --- Set-up -----------------------------------------------------------------

/// Mean over plans of each plan's median: every plan weighs the same, and
/// unlike a median over plans it does not jump between the fast and the
/// slow plans of a mix.
double MeanOfPlanMedians(const std::vector<std::vector<double>>& per_plan) {
  double sum = 0;
  for (const auto& v : per_plan) sum += Median(v);
  return per_plan.empty() ? 0 : sum / static_cast<double>(per_plan.size());
}

struct SetupTimes {
  double total_s = 0;
  double steal = 0;  ///< share of the CPU time stolen during the set-up
  double generate_s = 0;
  double index_s = 0;
  std::vector<double> first_query_ms;  ///< one per never-seen plan
  std::vector<double> compile_ms;      ///< traced: kJit compile per plan
};

/// Runs each plan once and times it; the first execution of a plan after
/// Create (cold) or Open (served from the persistent code cache).
std::vector<double> FirstExecutions(Instance* inst, Checks* checks,
                                    uint64_t salt, Tally* t, bool traced) {
  std::vector<double> ms;
  Rng rng(MixSeed(inst->seed, salt));
  for (const NamedQuery* q : inst->AllPlans()) {
    Op op;
    op.query = q;
    op.write = q->name.rfind("IU", 0) == 0;
    op.params = op.write ? inst->drawer->Draw(q->name)
                         : poseidon::ldbc::DrawShortReadParams(inst->ds,
                                                               q->name, &rng);
    size_t before = t->op_us.size();
    RunOp(inst, op, traced, t, checks);
    if (t->op_us.size() > before) ms.push_back(t->op_us.back() / 1e3);
    // The next plan's first run must not share the CPU with this one's
    // background compile.
    inst->db->engine()->WaitForBackgroundCompiles();
  }
  return ms;
}

std::unique_ptr<Instance> Setup(const WorkloadSpec& spec, uint64_t seed,
                                const std::string& dir, int rep, bool traced,
                                bool probe_compile, Checks* checks,
                                SetupTimes* times) {
  auto inst = std::make_unique<Instance>();
  inst->spec = spec;
  inst->seed = seed;
  inst->path = (fs::path(dir) / (spec.name + "-" + std::to_string(seed) +
                                 "-" + std::to_string(rep) + ".pool"))
                   .string();
  fs::remove(inst->path);

  ScopedSpan setup("setup");
  uint64_t steal0 = StealTicks();
  inst->db = Unwrap(GraphDb::Create(DbOptions(*inst)), "GraphDb::Create");
  poseidon::ldbc::SnbConfig cfg;
  cfg.persons = spec.persons;
  cfg.seed = seed;
  {
    ScopedSpan span("ldbc.generate");
    inst->ds = Unwrap(poseidon::ldbc::GenerateSnb(inst->db->txm(),
                                                  inst->db->store(), cfg),
                      "GenerateSnb");
    times->generate_s = Ms(span.ElapsedNs()) / 1e3;
  }
  if (spec.indexed) {
    ScopedSpan span("index.build");
    Check(poseidon::ldbc::CreateSnbIndexes(inst->db->indexes(),
                                           inst->ds.schema,
                                           poseidon::index::Placement::kHybrid),
          "CreateSnbIndexes");
    times->index_s = Ms(span.ElapsedNs()) / 1e3;
  }
  inst->reads = poseidon::ldbc::BuildShortReads(inst->ds.schema, spec.indexed);
  inst->updates = Unwrap(
      poseidon::ldbc::BuildUpdates(inst->ds.schema,
                                   &inst->db->store()->dict(), spec.indexed),
      "BuildUpdates");
  inst->drawer = std::make_unique<UpdateDrawer>(inst->ds, MixSeed(seed, 7));
  inst->base_nodes = inst->db->store()->nodes().size();
  if (spec.update_share == 0) {
    Rng rng(MixSeed(seed, 11));
    for (const auto& q : inst->reads) {
      for (int i = 0; i < kScanInputsPerPlan; ++i) {
        auto in = std::make_unique<ScanInput>();
        in->query = &q;
        in->params =
            poseidon::ldbc::DrawShortReadParams(inst->ds, q.name, &rng);
        inst->scan_inputs.push_back(std::move(in));
      }
    }
  }

  if (probe_compile) {
    // Blocking compile of each never-seen plan; this set-up is discarded,
    // so the cold timings below are not the ones reported.
    Rng rng(MixSeed(seed, 13));
    for (const NamedQuery* q : inst->AllPlans()) {
      bool write = q->name.rfind("IU", 0) == 0;
      auto params = write ? inst->drawer->Draw(q->name)
                          : poseidon::ldbc::DrawShortReadParams(inst->ds,
                                                                q->name, &rng);
      ExecStats stats;
      ScopedSpan span("jit.compile_probe");
      auto r = inst->db->Execute(q->plan, ExecutionMode::kJit, params, &stats);
      if (!r.ok()) Die(q->name + " under kJit: " + r.status().ToString());
      times->compile_ms.push_back(stats.compile_ms);
    }
  }

  Tally cold;
  {
    ScopedSpan span("setup.cold");
    PinAllThreads(g_cpus.cold);
    times->first_query_ms = FirstExecutions(inst.get(), checks, 17, &cold,
                                            traced);
    PinAllThreads(g_cpus.one);
  }
  {
    // Caches fill and compiles finish here. Its operations are not traced:
    // the span covers the whole warm-up.
    ScopedSpan span("setup.warmup");
    bool tracing = TracingEnabled();
    SetTracing(false);
    RunClients(inst.get(), 0, spec.warmup_ops / kClients, false, 19,
               checks);
    SetTracing(tracing);
  }
  setup.End();
  times->total_s = Ms(setup.ElapsedNs()) / 1e3;
  times->steal = StealShare(StealTicks() - steal0, times->total_s);
  return inst;
}

// --- Probes and checks ----------------------------------------------------

/// CPU seconds (user + system) the process has used so far.
double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Heap bytes the process holds in live allocations, in MiB (the pool is a
/// file mapping and not part of it).
double HeapMib() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / 1048576.0;
}

/// Anonymous resident memory in MiB. Printed next to the heap figure; it
/// also counts allocator slack, which varies from run to run.
double AnonRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::strtod(line.c_str() + 8, nullptr) / 1024.0;
    }
  }
  Die("RssAnon not found in /proc/self/status");
}

/// Every IU insert acknowledged during the run is found by id after the
/// reopen, and the live node count matches the ledger. Relationships carry
/// no id; their live count must equal the count at the clean shutdown.
void CheckDurability(Instance* inst, Checks* checks) {
  if (inst->spec.update_share == 0) return;
  const auto& s = inst->ds.schema;
  std::map<DictCode, Plan> lookup;
  for (DictCode label : {s.person, s.forum, s.post, s.comment}) {
    lookup[label] = poseidon::query::PlanBuilder()
                        .IndexScan(label, s.id, poseidon::query::Expr::Param(0))
                        .Count()
                        .Build();
  }
  uint64_t missing = 0;
  for (const auto& [label, id] : inst->ledger.nodes) {
    auto r = inst->db->Execute(lookup[label], ExecutionMode::kInterpret,
                               {Value::Int(id)});
    if (!r.ok() || r->rows.size() != 1 || r->rows[0][0].AsInt() != 1) {
      if (++missing <= 3) {
        checks->Fail("acknowledged insert id " + std::to_string(id) +
                     " not found after reopen");
      }
    }
  }
  if (missing > 3) checks->Fail(std::to_string(missing) + " inserts missing");
  uint64_t nodes = inst->db->store()->nodes().size();
  uint64_t rels = inst->db->store()->relationships().size();
  uint64_t want_nodes = inst->base_nodes + inst->ledger.nodes.size();
  uint64_t want_rels = inst->closed_rels;
  if (nodes != want_nodes || rels != want_rels) {
    checks->Fail("after reopen " + std::to_string(nodes) + " nodes / " +
                 std::to_string(rels) + " relationships, want " +
                 std::to_string(want_nodes) + " / " +
                 std::to_string(want_rels));
  }
  std::printf("durability: %zu acknowledged node inserts checked by id, "
              "%llu relationships after reopen\n",
              inst->ledger.nodes.size(), static_cast<unsigned long long>(rels));
}

/// Every hot scan_jit result equals the interpreter's on the same inputs
/// (the workload is read-only, so results cannot change).
void CheckScanResults(Instance* inst, Checks* checks) {
  uint64_t compared = 0;
  for (const auto& in : inst->scan_inputs) {
    std::lock_guard<std::mutex> lock(in->mu);
    if (!in->seen) continue;
    auto r = inst->db->Execute(in->query->plan, ExecutionMode::kInterpret,
                               in->params);
    if (!r.ok()) {
      checks->Fail(in->query->name + " under kInterpret: " +
                   r.status().ToString());
      continue;
    }
    if (Canonical(std::move(r->rows)) != in->first_rows) {
      checks->Fail(in->query->name + " with " + in->params[0].ToString() +
                   ": adaptive result differs from kInterpret");
    }
    ++compared;
  }
  std::printf("scan check: %llu hot inputs equal their kInterpret result\n",
              static_cast<unsigned long long>(compared));
}

/// Timed BPlusTree::Lookup on person ids drawn as the IS plans draw them;
/// ns per lookup, median over kProbeRepeats batches.
double IndexLookupNs(Instance* inst, uint64_t* samples) {
  const auto& s = inst->ds.schema;
  poseidon::index::BPlusTree* tree = inst->db->indexes()->Find(s.person, s.id);
  if (tree == nullptr) return 0;
  Rng rng(MixSeed(inst->seed, 23));
  std::vector<int64_t> ids(4096);
  for (auto& id : ids) {
    id = poseidon::ldbc::DrawShortReadParams(inst->ds, "IS1", &rng)[0].AsInt();
  }
  std::vector<double> per_lookup;
  uint64_t found = 0;
  for (int r = 0; r < kProbeRepeats; ++r) {
    ScopedSpan span("index.lookup_probe");
    for (int64_t id : ids) {
      found += tree->LookupAll(id, [](const poseidon::index::BTreeKey&,
                                      poseidon::storage::RecordId) {});
    }
    span.End();
    per_lookup.push_back(static_cast<double>(span.ElapsedNs()) /
                         static_cast<double>(ids.size()));
  }
  if (found == 0) Die("index probe found no person");
  *samples = ids.size() * kProbeRepeats;
  return Median(per_lookup);
}

/// Timed batch scan over the node table, reading each record's label to
/// count the persons; ns per record visited, median over repeats.
double ScanNsPerRecord(Instance* inst, uint64_t* samples) {
  const auto& nodes = inst->db->store()->nodes();
  DictCode person = inst->ds.schema.person;
  std::vector<double> per_record;
  for (int r = 0; r < kProbeRepeats; ++r) {
    uint64_t visited = 0, persons = 0;
    ScopedSpan span("storage.scan_probe");
    nodes.ForEachBatch(
        [&](poseidon::storage::RecordId, const poseidon::storage::NodeRecord&
                                             rec) {
          ++visited;
          persons += rec.label == person ? 1 : 0;
        },
        inst->db->scan_options());
    span.End();
    if (persons < inst->spec.persons) Die("scan probe missed persons");
    per_record.push_back(static_cast<double>(span.ElapsedNs()) /
                         static_cast<double>(visited));
    *samples += visited;
  }
  return Median(per_record);
}

// --- Host and configuration block -------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string source_sha256 = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) Die("missing value for " + k);
    std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--dir") {
      a.dir = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--source-sha256") {
      a.source_sha256 = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.workload.empty()) Die("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 120)) {
    Die("--seconds must be in (0, 120]");
  }
  return a;
}

// --- The run --------------------------------------------------------------

struct ReopenTimes {
  std::vector<double> reopen_ms;
  std::vector<double> pmem_open_ms, storage_open_ms, index_load_ms;
  std::vector<std::vector<double>> cached_ms;  ///< per plan, per reopen
  uint64_t cached_execs = 0;
  uint64_t cached_hits = 0;
};

/// Reopens the closed pool of `inst` `count` times and times each plan's
/// first execution after every reopen; appends to `out`. `first` numbers
/// the reopens across calls, which seeds their parameters.
void Reopens(Instance* inst, bool traced, Checks* checks, int first, int count,
             ReopenTimes* out) {
  std::vector<std::vector<double>>& per_plan = out->cached_ms;
  for (int r = first; r < first + count; ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kReopenPauseMs));
    if (traced) {
      // GraphDb::Open's three recovery steps, timed one by one.
      poseidon::pmem::PoolOptions po;
      po.capacity = kPoolCapacity;
      ScopedSpan reopen("reopen.split");
      std::unique_ptr<poseidon::pmem::Pool> pool;
      {
        ScopedSpan span("pmem.open");
        pool = Unwrap(poseidon::pmem::Pool::Open(inst->path, po), "Pool::Open");
        out->pmem_open_ms.push_back(Ms(span.ElapsedNs()));
      }
      std::unique_ptr<poseidon::storage::GraphStore> store;
      {
        ScopedSpan span("storage.open");
        store = Unwrap(poseidon::storage::GraphStore::Open(pool.get()),
                       "GraphStore::Open");
        out->storage_open_ms.push_back(Ms(span.ElapsedNs()));
      }
      {
        poseidon::index::IndexManager indexes(store.get());
        ScopedSpan span("index.load");
        Check(indexes.LoadPersistent(), "IndexManager::LoadPersistent");
        out->index_load_ms.push_back(Ms(span.ElapsedNs()));
      }
      store.reset();
      pool.reset();
    }
    {
      ScopedSpan span("reopen");
      inst->db = Unwrap(GraphDb::Open(DbOptions(*inst)), "GraphDb::Open");
      out->reopen_ms.push_back(Ms(span.ElapsedNs()));
    }
    Tally t;
    std::vector<double> ms = FirstExecutions(
        inst, checks, 29 + static_cast<uint64_t>(r), &t, traced);
    per_plan.resize(std::max(per_plan.size(), ms.size()));
    for (size_t i = 0; i < ms.size(); ++i) per_plan[i].push_back(ms[i]);
    out->cached_execs += t.execs;
    out->cached_hits += t.cache_hits;
    inst->Close();
  }
}

struct Deltas {
  poseidon::tx::TxStats tx0;
  uint64_t flushed = 0, deduped = 0, drains = 0, allocs = 0;
  poseidon::tx::AdjacencyCacheStats adj0;
};

Deltas Snapshot(GraphDb* db) {
  Deltas d;
  d.tx0 = db->txm()->Stats();
  const auto& ps = db->pool()->stats();
  d.flushed = ps.flushed_lines.load();
  d.deduped = ps.deduped_lines.load();
  d.drains = ps.drains.load();
  d.allocs = ps.alloc_calls.load();
  d.adj0 = db->txm()->adjacency_cache().stats();
  return d;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  int nproc = Nproc();
  g_cpus = ChooseCpus();
  PinAllThreads(g_cpus.one);
  WorkloadSpec spec = SpecFor(args.workload);
  fs::create_directories(args.dir);
  Checks checks;
  MetricSet metrics;

  // Traced runs keep their spans per phase: set-up, the emulated-PMem
  // pass, the probes and the reopens.
  std::vector<std::pair<std::string, std::vector<Span>>> phases;
  auto end_phase = [&](const char* name) {
    if (!args.trace) return;
    phases.emplace_back(name, CollectSpans());
    ClearSpans();
  };
  // Set-up from scratch spec.setup_repeats times; the last instance runs
  // the timed phase. The second-to-last is kept, closed, for the state
  // metrics: the pool as set up (not after a timed phase whose length
  // scales with the throughput) is what reopen_ms, cached_query_ms and
  // pool bytes measure.
  std::vector<SetupTimes> setups(spec.setup_repeats);
  std::unique_ptr<Instance> inst, state;
  double bytes_per_record = 0, heap_mib = 0;
  SetTracing(args.trace);
  for (int rep = 0; rep < spec.setup_repeats; ++rep) {
    bool probe = args.trace && rep == 0;
    inst = Setup(spec, args.seed, args.dir, rep, args.trace, probe, &checks,
                 &setups[rep]);
    if (rep == spec.setup_repeats - 2) {
      GraphDb* db = inst->db.get();
      bytes_per_record =
          static_cast<double>(db->pool()->bytes_used()) /
          static_cast<double>(db->store()->nodes().size() +
                              db->store()->relationships().size());
      // The engine's heap is what closing the GraphDb gives back; the
      // benchmark's own inputs (datasets, plans, scan inputs) stay live.
      double held = HeapMib();
      inst->Close();
      heap_mib = held - HeapMib();
      state = std::move(inst);
    } else if (rep + 1 < spec.setup_repeats) {
      inst.reset();
    }
  }
  SetTracing(false);
  end_phase("setup");
  GraphDb* db = inst->db.get();
  const poseidon::pmem::LatencyModel lat = db->pool()->latency();

  std::printf(
      "config: {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %d, \"pinned_cpu\": %d, "
      "\"cpu_model\": %s, \"build_type\": %s, "
      "\"git_sha\": %s, \"source_sha256\": %s, \"pmem_read_block_ns\": %llu, "
      "\"pmem_flush_line_ns\": %llu, \"pmem_drain_ns\": %llu, "
      "\"commit_pipeline\": %s, \"group_commit\": %s, \"persons\": %llu, "
      "\"nodes\": %llu, \"relationships\": %llu, \"indexed\": %s, "
      "\"clients\": %d, \"query_threads\": %zu, \"update_share\": %s, "
      "\"retry_bound\": %d, \"setup_repeats\": %d, \"reopen_repeats\": %d, "
      "\"mode\": \"adaptive\", \"load\": \"closed loop, no think time\"}\n",
      JsonString(spec.name).c_str(), static_cast<unsigned long long>(args.seed),
      FormatNumber(args.seconds).c_str(), args.trace ? 1 : 0, nproc,
      g_cpus.cpu,
      JsonString(CpuModel()).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(args.git_sha).c_str(), JsonString(args.source_sha256).c_str(),
      static_cast<unsigned long long>(lat.read_block_ns),
      static_cast<unsigned long long>(lat.flush_line_ns),
      static_cast<unsigned long long>(lat.drain_ns),
      db->pool()->pipelined() ? "true" : "false",
      db->txm()->group_commit_enabled() ? "true" : "false",
      static_cast<unsigned long long>(spec.persons),
      static_cast<unsigned long long>(inst->ds.total_nodes),
      static_cast<unsigned long long>(inst->ds.total_relationships),
      spec.indexed ? "true" : "false", kClients, kQueryThreads,
      FormatNumber(spec.update_share).c_str(), kMaxAttempts,
      spec.setup_repeats, kReopenRepeats);
  if (!lat.enabled()) Die("pool is not on the emulated-PMem latency model");

  std::vector<double> setup_s, generate_s, index_s, compile_ms;
  std::vector<std::vector<double>> first_ms;  // per plan, one per set-up
  std::string setup_log;
  for (size_t r = 0; r < setups.size(); ++r) {
    const SetupTimes& s = setups[r];
    setup_log += " " + FormatNumber(s.total_s) + " s (" +
                 FormatNumber(std::round(1000 * s.steal) / 10) + "%)";
    generate_s.push_back(s.generate_s);
    index_s.push_back(s.index_s);
    compile_ms.insert(compile_ms.end(), s.compile_ms.begin(),
                      s.compile_ms.end());
    setup_s.push_back(s.total_s);
    first_ms.resize(std::max(first_ms.size(), s.first_query_ms.size()));
    for (size_t i = 0; i < s.first_query_ms.size(); ++i) {
      first_ms[i].push_back(s.first_query_ms[i]);
    }
  }
  std::printf("set-ups (steal):%s\n", setup_log.c_str());
  std::string first_log;
  for (const std::vector<double>& plan : first_ms) {
    first_log += " " + FormatNumber(std::round(Median(plan) * 1000) / 1000);
  }
  std::printf("first execution per plan, median over set-ups (ms):%s\n",
              first_log.c_str());

  // Half of the reopens run before the timed phase and half after it, so
  // that their medians span the run's host conditions, not 2-3 s of them.
  ReopenTimes reopen;
  SetTracing(args.trace);
  Reopens(state.get(), args.trace, &checks, 0, kReopenRepeats / 2, &reopen);
  SetTracing(false);
  end_phase("reopen");

  Tally run;
  double untraced_tput = 0;
  Deltas before;
  Deltas after;
  poseidon::tx::AdjacencyCacheStats adj_end;
  double index_lookup_ns = 0, scan_ns = 0;
  uint64_t lookup_n = 0, scan_n = 0;
  std::vector<double> dram_op_us;

  if (!args.trace) {
    double cpu0 = CpuSeconds();
    uint64_t steal0 = StealTicks();
    run = RunClients(inst.get(), args.seconds, 0, false, 1, &checks,
                     TimedWindows(args.seconds));
    double wall = Ms(run.stop_ns - run.start_ns) / 1e3;
    double cpu = CpuSeconds() - cpu0;
    std::printf("timed phase: %s s wall, %s CPU seconds (%s cores busy), "
                "%s%% of its CPU's time stolen by the hypervisor, "
                "heap %s MiB, anon RSS %s MiB\n",
                FormatNumber(wall).c_str(), FormatNumber(cpu).c_str(),
                FormatNumber(cpu / wall).c_str(),
                FormatNumber(100 * StealShare(StealTicks() - steal0, wall))
                    .c_str(),
                FormatNumber(HeapMib()).c_str(),
                FormatNumber(AnonRssMib()).c_str());
  } else {
    // Three thirds of --seconds: untraced (the overhead reference, split
    // around the traced pass so cache warming favours neither), traced on
    // the emulated pool, and traced on the pool reopened with DRAM latency
    // (the media share).
    double third = args.seconds / 3;
    Tally plain = RunClients(inst.get(), third / 2, 0, false, 1, &checks);
    SetTracing(true);
    before = Snapshot(db);
    run = RunClients(inst.get(), third, 0, true, 2, &checks);
    after = Snapshot(db);
    adj_end = after.adj0;
    SetTracing(false);
    end_phase("emulated");
    Tally plain2 = RunClients(inst.get(), third / 2, 0, false, 5, &checks);
    untraced_tput =
        static_cast<double>(plain.committed + plain2.committed) * 1e9 /
        static_cast<double>(plain.stop_ns - plain.start_ns + plain2.stop_ns -
                            plain2.start_ns);
    SetTracing(true);
    index_lookup_ns = IndexLookupNs(inst.get(), &lookup_n);
    scan_ns = ScanNsPerRecord(inst.get(), &scan_n);
    SetTracing(false);
    end_phase("probes");
  }
  if (!inst->scan_inputs.empty()) CheckScanResults(inst.get(), &checks);
  inst->Close();
  db = nullptr;

  if (args.trace) {
    auto o = DbOptions(*inst);
    o.has_latency_override = true;
    o.latency_override = poseidon::pmem::LatencyModel::Dram();
    inst->db = Unwrap(GraphDb::Open(o), "GraphDb::Open (DRAM latency)");
    RunClients(inst.get(), 0, spec.warmup_ops / kClients, false, 3,
               &checks);
    SetTracing(true);
    Tally dram = RunClients(inst.get(), args.seconds / 3, 0, true, 4, &checks);
    SetTracing(false);
    ClearSpans();  // recorded only so both passes pay the same overhead
    dram_op_us = dram.op_us;
    inst->Close();
  }

  {
    ScopedSpan span("reopen");
    inst->db = Unwrap(GraphDb::Open(DbOptions(*inst)), "GraphDb::Open");
    std::printf("reopen after the timed phase: %s ms\n",
                FormatNumber(Ms(span.ElapsedNs())).c_str());
  }
  CheckDurability(inst.get(), &checks);
  inst->Close();

  SetTracing(args.trace);
  Reopens(state.get(), args.trace, &checks, kReopenRepeats / 2,
          kReopenRepeats - kReopenRepeats / 2, &reopen);
  SetTracing(false);
  end_phase("reopen");

  if (!args.trace) {
    metrics.Add("setup_s", Median(setup_s), "s", setup_s.size(),
                "median over set-ups");
    int windows = TimedWindows(args.seconds);
    WindowedSummary w =
        SummarizeWindows(run.op_us, run.op_end_ns, run.start_ns, run.stop_ns,
                         windows, kEndToEndTailPct, run.window_steal);
    std::string over = "median of the " + std::to_string(w.windows_used) +
                       " of " + std::to_string(windows) +
                       " windows with steal <= " +
                       FormatNumber(100 * kMaxWindowSteal) + "%, or the " +
                       std::to_string(kMinCleanWindows) + " least stolen";
    std::string per_window, per_steal;
    for (int i = 0; i < windows; ++i) {
      per_window += " " + FormatNumber(std::round(w.window_throughput[i]));
      per_steal += " " + FormatNumber(std::round(1000 * run.window_steal[i]) /
                                      10);
    }
    std::printf("throughput per window (1/s):%s\nsteal per window (%%):%s\n",
                per_window.c_str(), per_steal.c_str());
    metrics.Add("throughput_ops_s", w.throughput, "1/s", w.samples, over);
    metrics.Add("op_p50_us", w.p50, "us", w.samples, over);
    metrics.Add("op_p90_us", w.tail, "us", w.samples,
                "window p" + FormatNumber(w.tail_pct) + ", " + over);
    metrics.AddRatio("commit_ratio",
                     Ratio{static_cast<double>(run.committed),
                           static_cast<double>(run.attempted),
                           "operations attempted in the timed phase"});
    metrics.Add("first_query_ms", MeanOfPlanMedians(first_ms), "ms",
                first_ms.size() * setup_s.size(),
                "mean over plans of the median first execution over set-ups");
    metrics.Add("reopen_ms", Median(reopen.reopen_ms), "ms",
                reopen.reopen_ms.size());
    metrics.Add("cached_query_ms", MeanOfPlanMedians(reopen.cached_ms), "ms",
                reopen.cached_ms.size() * kReopenRepeats,
                "mean over plans of the median first execution per reopen");
    metrics.Add("pool_bytes_per_record", bytes_per_record, "B/record", 1,
                "pool as set up");
    metrics.Add("dram_heap_mib", heap_mib, "MiB", 1,
                "heap the GraphDb of a set-up held until it was closed");
  } else {
    const std::vector<Span>& spans =
        std::find_if(phases.begin(), phases.end(), [](const auto& p) {
          return p.first == "emulated";
        })->second;
    auto add_p50 = [&](const std::string& name, std::vector<double> v,
                       const std::string& unit) {
      std::sort(v.begin(), v.end());
      metrics.Add(name, v.empty() ? 0 : Percentile(v, 50), unit, v.size());
    };
    double writes = static_cast<double>(run.writes);
    const auto& tx0 = before.tx0;
    const auto& tx1 = after.tx0;
    double commits = static_cast<double>(tx1.commits - tx0.commits);
    double aborts = static_cast<double>(tx1.aborts - tx0.aborts);
    double flushed = static_cast<double>(after.flushed - before.flushed);
    double deduped = static_cast<double>(after.deduped - before.deduped);
    double drains = static_cast<double>(after.drains - before.drains);
    double allocs = static_cast<double>(after.allocs - before.allocs);
    const char* per_write = "committed write ops in the traced pass";
    // Read-only transactions commit through the same pipeline, so the
    // persistence costs are per committed transaction.
    const char* per_commit = "transactions committed in the traced pass";

    metrics.Add("ldbc.generate_s", Median(generate_s), "s", generate_s.size());
    metrics.Add("index.build_s", Median(index_s), "s",
                spec.indexed ? index_s.size() : 0);
    metrics.Add("index.lookup_ns", index_lookup_ns, "ns", lookup_n);
    metrics.Add("index.load_ms", Median(reopen.index_load_ms), "ms",
                reopen.index_load_ms.size());
    AddLatency(&metrics, "core.execute_us.p50", "core.execute_us.p99",
               DurationsUs(spans, "core.execute"), "us");
    add_p50("query.interp_exec_us.p50", run.interp_exec_us, "us");
    metrics.Add("jit.compile_ms", Median(compile_ms), "ms", compile_ms.size(),
                "median blocking kJit compile per never-seen plan");
    metrics.AddRatio("jit.memo_hit_ratio",
                     Ratio{static_cast<double>(run.memo_hits),
                           static_cast<double>(run.execs),
                           "executions in the traced pass"});
    metrics.AddRatio("jit.code_cache_hit_ratio",
                     Ratio{static_cast<double>(reopen.cached_hits),
                           static_cast<double>(reopen.cached_execs),
                           "first executions after reopen"});
    metrics.AddRatio(
        "jit.jit_morsel_share",
        Ratio{static_cast<double>(run.jit_morsels),
              static_cast<double>(run.jit_morsels + run.interp_morsels),
              "morsels in the traced pass"});
    add_p50("jit.jit_exec_us.p50", run.jit_exec_us, "us");
    metrics.Add("jit.fallbacks", static_cast<double>(run.fallbacks), "count",
                run.execs);
    add_p50("tx.begin_us.p50", DurationsUs(spans, "tx.begin"), "us");
    AddLatency(&metrics, "tx.commit_us.p50", "tx.commit_us.p99",
               DurationsUs(spans, "tx.commit"), "us");
    metrics.AddRatio("tx.abort_ratio",
                     Ratio{aborts, commits + aborts, "transactions ended"});
    metrics.AddRatio(
        "tx.read_retries_per_op",
        Ratio{static_cast<double>(tx1.read_retries - tx0.read_retries),
              static_cast<double>(run.attempted), "operations attempted"},
        "retries/op");
    metrics.AddRatio(
        "tx.snapshot_read_share",
        Ratio{static_cast<double>(tx1.snapshot_reads - tx0.snapshot_reads),
              commits + aborts, "transactions ended"});
    metrics.AddRatio(
        "tx.rts_skipped_per_read",
        Ratio{static_cast<double>(tx1.rts_skipped - tx0.rts_skipped),
              static_cast<double>(run.reads), "committed read ops"},
        "skips/read");
    metrics.AddRatio(
        "tx.group_drains_per_commit",
        Ratio{static_cast<double>(tx1.group_drains - tx0.group_drains),
              commits, per_commit},
        "drains/commit");
    double hits = static_cast<double>(adj_end.hits - before.adj0.hits);
    double misses = static_cast<double>(adj_end.misses - before.adj0.misses);
    metrics.AddRatio("adjcache.hit_ratio",
                     Ratio{hits, hits + misses, "adjacency-cache probes"});
    metrics.AddRatio(
        "adjcache.invalidations_per_write",
        Ratio{static_cast<double>(adj_end.invalidations -
                                  before.adj0.invalidations),
              writes, per_write}, "inval/write");
    metrics.Add("adjcache.evictions",
                static_cast<double>(adj_end.evictions - before.adj0.evictions),
                "count", static_cast<uint64_t>(hits + misses));
    metrics.Add("adjcache.mib", static_cast<double>(adj_end.bytes) / 1048576.0,
                "MiB", adj_end.entries);
    metrics.Add("storage.open_ms", Median(reopen.storage_open_ms), "ms",
                reopen.storage_open_ms.size());
    metrics.Add("storage.scan_ns_per_record", scan_ns, "ns", scan_n);
    metrics.Add("pmem.open_ms", Median(reopen.pmem_open_ms), "ms",
                reopen.pmem_open_ms.size());
    metrics.AddRatio("pmem.flushed_lines_per_commit",
                     Ratio{flushed, commits, per_commit}, "lines/commit");
    metrics.AddRatio("pmem.dedup_ratio",
                     Ratio{deduped, flushed + deduped,
                           "cache lines submitted for flush"});
    metrics.AddRatio("pmem.drains_per_commit",
                     Ratio{drains, commits, per_commit},
                     "drains/commit");
    metrics.AddRatio("pmem.allocs_per_commit",
                     Ratio{allocs, commits, per_commit},
                     "allocs/commit");
    metrics.AddRatio(
        "pmem.emulated_write_us_per_commit",
        Ratio{(flushed * static_cast<double>(lat.flush_line_ns) +
               drains * static_cast<double>(lat.drain_ns)) /
                  1e3,
              commits, per_commit},
        "us/commit");
    // Share of op latency that is emulated media time: 1 - dram / emulated.
    std::vector<double> emu = run.op_us, dram = dram_op_us;
    std::sort(emu.begin(), emu.end());
    std::sort(dram.begin(), dram.end());
    for (double pct : {50.0, 99.0}) {
      if (emu.empty() || dram.empty()) Die("media-share pass ran no ops");
      double e = Percentile(emu, pct), d = Percentile(dram, pct);
      metrics.Add(Metric{"pmem.media_share.op_p" + FormatNumber(pct),
                         (e - d) / e, "ratio", emu.size(),
                         "emulated-PMem pass latency", ""});
    }
    double traced_tput = static_cast<double>(run.committed) * 1e9 /
                         static_cast<double>(run.stop_ns - run.start_ns);
    metrics.Add("trace.untraced_throughput_ops_s", untraced_tput, "1/s",
                run.committed);
    metrics.Add("trace.traced_throughput_ops_s", traced_tput, "1/s",
                run.committed);
    metrics.Add(Metric{"trace.throughput_ratio", traced_tput / untraced_tput,
                       "ratio", run.committed, "untraced throughput, same run",
                       ""});

    std::string span_path =
        (fs::path(args.dir) / ("trace-" + spec.name + ".csv")).string();
    if (!WriteSpans(phases, span_path)) Die("cannot write " + span_path);
    std::printf("spans written to %s\n", span_path.c_str());
  }

  uint64_t failures = checks.failures.load();
  for (const std::string& f : checks.first) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("ops: attempted=%llu committed=%llu failed=%llu reads=%llu "
              "writes=%llu conflict_retries=%llu\n",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.committed),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.reads),
              static_cast<unsigned long long>(run.writes),
              static_cast<unsigned long long>(run.retries));
  std::printf("metrics:\n%s", metrics.Describe().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failures == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              metrics.MetricsJson().c_str());
  std::fflush(stdout);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
