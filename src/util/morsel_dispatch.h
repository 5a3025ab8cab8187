// Caller-runs morsel scheduler (paper §6.1 "morsel-driven parallelism"),
// shared by the interpreter and every JIT execution mode.
//
// The calling thread claims morsels from an atomic cursor and runs them
// itself as runner 0. Only when the source has more than one morsel are pool
// workers posted as helpers (runners 1..n, at most one per pool worker and
// one fewer than the morsel count) that claim from the same cursor. A
// single-morsel query — an index probe, a short LDBC read — therefore runs
// entirely on the calling thread, without a hand-off to the pool.
//
// Completion is tracked per call: the caller waits only for helpers that are
// running a morsel of its own job, never for the pool as a whole, so
// concurrent clients sharing one pool do not wait for each other's morsels.
// The job state a helper touches is shared-owned; a helper that starts after
// the cursor is exhausted (its caller may already have returned) finds
// nothing to claim and touches nothing of the caller's.

#ifndef POSEIDON_UTIL_MORSEL_DISPATCH_H_
#define POSEIDON_UTIL_MORSEL_DISPATCH_H_

#include <cstdint>
#include <functional>

#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace poseidon {

/// Runs one morsel: source units [begin, end) on runner slot `runner`
/// (0 = the calling thread, 1.. = helpers). A non-OK status fails the job;
/// setting `*stop` ends the claiming early (a satisfied LIMIT).
using MorselBody = std::function<Status(uint64_t begin, uint64_t end,
                                        uint32_t runner, bool* stop)>;

/// Splits [0, total) into morsels of `morsel_size` units and runs them with
/// `body`, the calling thread included; `pool` (may be null: the caller runs
/// every morsel) supplies the helpers. `cancel` is polled before each
/// morsel. Returns once every claimed morsel has finished, with
/// the first error any morsel or poll reported; an error or a stop ends the
/// claiming of further morsels.
Status RunMorsels(ThreadPool* pool, uint64_t total, uint64_t morsel_size,
                  const util::CancelToken& cancel, const MorselBody& body);

}  // namespace poseidon

#endif  // POSEIDON_UTIL_MORSEL_DISPATCH_H_
