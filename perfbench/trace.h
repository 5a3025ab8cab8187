// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only by the benchmark program, around its calls into
// each engine layer. A span has a name, start and end, the span that was
// open on the same thread when it started (its parent) and the id of the
// operation it belongs to. Spans stay in per-thread buffers until the run
// ends and are then written out in one go, so recording costs two clock
// reads and a vector append.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< string literal; lives for the program
  uint64_t id = 0;             ///< unique; 0 means "no span"
  uint64_t parent = 0;
  uint64_t op_id = 0;  ///< 0 outside an operation
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Turns recording on or off for the whole process. Off by default; a
/// ScopedSpan made while off records nothing.
void SetTracing(bool on);
bool TracingEnabled();

/// Sets the operation id stamped on spans this thread starts from now on.
void SetCurrentOp(uint64_t op_id);

/// Times one call into a layer. Nesting on one thread sets the parent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Duration so far (or final, after End()) in nanoseconds; valid when
  /// tracing is off too, so callers can time with the same object.
  int64_t ElapsedNs() const;
  /// Ends the span early (idempotent).
  void End();

 private:
  Span span_;
  uint64_t saved_parent_ = 0;
  bool recording_ = false;
  bool ended_ = false;
};

/// All spans recorded so far, from every thread, in no particular order.
/// Call only while no thread is recording.
std::vector<Span> CollectSpans();

/// Discards every recorded span. Call only while no thread is recording.
void ClearSpans();

/// Durations in microseconds of the spans called `name`.
std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name);

/// Writes spans grouped by phase as CSV
/// (phase,name,id,parent,op,start_ns,dur_ns), start_ns counted from the
/// earliest span. Returns false when the file cannot be written.
bool WriteSpans(
    const std::vector<std::pair<std::string, std::vector<Span>>>& phases,
    const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
