#include "util/morsel_dispatch.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

namespace poseidon {

namespace {

struct MorselJob {
  MorselJob(uint64_t total, uint64_t morsel_size,
            const util::CancelToken* cancel, const MorselBody* body)
      : total(total),
        morsel_size(morsel_size),
        num_morsels((total + morsel_size - 1) / morsel_size),
        cancel(cancel),
        body(body) {}

  const uint64_t total;
  const uint64_t morsel_size;
  const uint64_t num_morsels;
  // Owned by the caller. Dereferenced only for a claimed morsel, and the
  // caller returns only after every claimed morsel has finished.
  const util::CancelToken* const cancel;
  const MorselBody* const body;

  /// Next morsel to claim; any value >= num_morsels means none is left.
  std::atomic<uint64_t> cursor{0};

  std::mutex mu;
  std::condition_variable helpers_done;
  uint32_t active_helpers = 0;  // guarded by mu
  Status first_error;           // guarded by mu
};

/// Claims and runs morsels until none is left, or one fails or stops.
void RunClaims(MorselJob& job, uint32_t runner) {
  for (;;) {
    uint64_t m = job.cursor.fetch_add(1);
    if (m >= job.num_morsels) return;
    Status s = job.cancel->Check();
    bool stop = false;
    if (s.ok()) {
      uint64_t begin = m * job.morsel_size;
      s = (*job.body)(begin, std::min(begin + job.morsel_size, job.total),
                      runner, &stop);
    }
    if (s.ok() && !stop) continue;
    job.cursor.store(job.num_morsels);  // no runner claims another morsel
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(job.mu);
      if (job.first_error.ok()) job.first_error = s;
    }
    return;
  }
}

}  // namespace

Status RunMorsels(ThreadPool* pool, uint64_t total, uint64_t morsel_size,
                  const util::CancelToken& cancel, const MorselBody& body) {
  const uint64_t num_morsels = (total + morsel_size - 1) / morsel_size;
  const uint64_t helpers =
      pool == nullptr || num_morsels < 2
          ? 0
          : std::min<uint64_t>(pool->num_threads(), num_morsels - 1);
  if (helpers == 0) {
    MorselJob job(total, morsel_size, &cancel, &body);
    RunClaims(job, 0);
    return job.first_error;
  }

  auto job = std::make_shared<MorselJob>(total, morsel_size, &cancel, &body);
  for (uint32_t h = 1; h <= helpers; ++h) {
    pool->Submit([job, h] {
      // Registered before the first claim: a helper that claims a morsel is
      // always counted by the time the caller checks for running helpers.
      {
        std::lock_guard<std::mutex> lock(job->mu);
        ++job->active_helpers;
      }
      RunClaims(*job, h);
      std::lock_guard<std::mutex> lock(job->mu);
      if (--job->active_helpers == 0) job->helpers_done.notify_all();
    });
  }
  RunClaims(*job, 0);
  // The cursor is exhausted or closed, so no helper can claim a morsel any
  // more; wait only for the helpers still inside one. Helpers still queued
  // will find nothing to claim.
  std::unique_lock<std::mutex> lock(job->mu);
  job->helpers_done.wait(lock, [&] { return job->active_helpers == 0; });
  return job->first_error;
}

}  // namespace poseidon
