#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

/// One thread's spans. Owned by the registry so they outlive the thread.
struct ThreadBuffer {
  uint64_t thread_index = 0;
  uint64_t next_seq = 0;
  uint64_t open_span = 0;
  uint64_t op_id = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;  // guarded by mu

ThreadBuffer& Local() {
  thread_local ThreadBuffer* buf = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    raw->thread_index = g_registry.size() + 1;
    raw->spans.reserve(1 << 16);
    g_registry.push_back(std::move(owned));
    return raw;
  }();
  return *buf;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetCurrentOp(uint64_t op_id) {
  if (TracingEnabled()) Local().op_id = op_id;
}

ScopedSpan::ScopedSpan(const char* name) {
  span_.name = name;
  recording_ = TracingEnabled();
  if (recording_) {
    ThreadBuffer& buf = Local();
    span_.id = (buf.thread_index << 40) | ++buf.next_seq;
    span_.parent = buf.open_span;
    span_.op_id = buf.op_id;
    saved_parent_ = buf.open_span;
    buf.open_span = span_.id;
  }
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() { End(); }

void ScopedSpan::End() {
  if (ended_) return;
  ended_ = true;
  span_.end_ns = NowNs();
  if (recording_) {
    ThreadBuffer& buf = Local();
    buf.open_span = saved_parent_;
    buf.spans.push_back(span_);
  }
}

int64_t ScopedSpan::ElapsedNs() const {
  return (ended_ ? span_.end_ns : NowNs()) - span_.start_ns;
}

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> out;
  for (const auto& buf : g_registry) {
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  return out;
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buf : g_registry) buf->spans.clear();
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool WriteSpans(
    const std::vector<std::pair<std::string, std::vector<Span>>>& phases,
    const std::string& path) {
  int64_t t0 = INT64_MAX;
  for (const auto& phase : phases) {
    for (const Span& s : phase.second) t0 = std::min(t0, s.start_ns);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "phase,name,id,parent,op,start_ns,dur_ns\n");
  for (const auto& [phase, spans] : phases) {
    for (const Span& s : spans) {
      std::fprintf(f, "%s,%s,%llu,%llu,%llu,%lld,%lld\n", phase.c_str(),
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op_id),
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - s.start_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
