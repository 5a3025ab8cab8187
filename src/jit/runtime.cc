#include "jit/runtime.h"

#include <cstring>

namespace poseidon::jit {
namespace {

using query::CmpOp;
using query::PipelineExecutor;
using query::Tuple;
using query::Value;
using storage::PVal;
using storage::Property;
using storage::RecordId;

JitRuntimeState* State(void* p) { return static_cast<JitRuntimeState*>(p); }
JitHandle* Handle(void* p) { return static_cast<JitHandle*>(p); }

/// Fills `h` from a Resolved record version; snapshot properties move into
/// the per-thread per-slot storage so the handle stays POD.
template <typename R>
void FillHandle(JitRuntimeState* s, uint32_t thread, uint32_t slot,
                JitHandle* h, RecordId id, tx::Resolved<R>&& r) {
  h->id = id;
  h->thread = thread;
  h->slot = slot;
  h->props = r.rec.props;
  std::memcpy(h->copy, &r.rec, sizeof(R));
  h->rec = h->copy;
  if (r.from_snapshot) {
    h->has_snapshot = 1;
    s->threads[thread]->snapshots[slot] = std::move(r.snapshot);
  } else {
    h->has_snapshot = 0;
  }
}

}  // namespace

std::unique_ptr<JitRuntimeState> MakeRuntimeState(
    const query::Plan& plan, query::ExecContext ctx,
    query::ResultCollector* collector, PipelineExecutor* exec,
    size_t num_runners) {
  auto state = std::make_unique<JitRuntimeState>();
  const auto& nodes = ctx.store->nodes();
  const auto& rels = ctx.store->relationships();
  const auto& props = *ctx.store->properties().table();
  state->header.node_chunks = nodes.chunk_ptr_array();
  state->header.rel_chunks = rels.chunk_ptr_array();
  state->header.prop_chunks = props.chunk_ptr_array();
  state->header.node_num_chunks = nodes.num_chunks();
  state->header.rel_num_chunks = rels.num_chunks();
  state->header.prop_num_chunks = props.num_chunks();
  state->header.ts = ctx.tx->id();
  state->header.read_latency = ctx.store->pool()->latency().read_block_ns;
  // The token always exists, and an explicit Cancel may arrive at any time,
  // so generated loops always poll. The flag stays in the header so compiled
  // code cached before this field existed remains well-defined (it simply
  // never polls) and future fast paths can gate on it.
  state->header.cancellable = 1;
  state->header.snapshot_reader =
      ctx.tx->snapshot() && ctx.tx->manager()->rts_coalesce() ? 1 : 0;
  state->ctx = ctx;
  state->collector = collector;
  state->executor = exec;
  state->plan = &plan;
  state->ops = exec->ops();
  state->rts_deferred_counts.assign(num_runners * kCounterStride, 0);
  state->header.rts_deferred = state->rts_deferred_counts.data();
  state->threads.reserve(num_runners);
  for (size_t t = 0; t < num_runners; ++t) {
    auto slots = std::make_unique<JitRuntimeState::ThreadSlots>();
    slots->snapshots.resize(kMaxHandleSlots);
    slots->adj_holds.resize(kMaxHandleSlots);
    state->threads.push_back(std::move(slots));
  }
  return state;
}

}  // namespace poseidon::jit

using namespace poseidon;         // NOLINT(build/namespaces)
using namespace poseidon::jit;    // NOLINT(build/namespaces)

extern "C" {

int32_t poseidon_node_ref(void* state, uint64_t id, void* slot_ptr,
                          uint32_t thread, uint32_t slot) {
  auto* s = State(state);
  if (!s->ctx.store->nodes().IsOccupied(id)) return 0;
  auto r = s->ctx.tx->GetNode(id);
  if (!r.ok()) {
    if (r.status().IsNotFound()) return 0;
    s->SetError(r.status());
    return -1;
  }
  FillHandle(s, thread, slot, Handle(slot_ptr), id, std::move(*r));
  return 1;
}

int32_t poseidon_rel_ref(void* state, uint64_t id, void* slot_ptr,
                         uint32_t thread, uint32_t slot) {
  auto* s = State(state);
  auto* h = Handle(slot_ptr);
  auto r = s->ctx.tx->GetRelationship(id);
  if (!r.ok()) {
    if (!r.status().IsNotFound()) {
      s->SetError(r.status());
      return -1;
    }
    // Invisible but possibly chained: expose the raw record so the
    // generated traversal loop can still follow next_src/next_dst
    // (mirrors Transaction::ForEachOutgoing's defensive path).
    const auto* raw = s->ctx.store->relationships().At(id);
    std::memcpy(h->copy, raw, sizeof(storage::RelationshipRecord));
    h->rec = h->copy;
    h->id = id;
    h->thread = thread;
    h->slot = slot;
    h->has_snapshot = 0;
    h->props = storage::kNullId;
    return 0;
  }
  FillHandle(s, thread, slot, h, id, std::move(*r));
  return 1;
}

const void* poseidon_expand_cached(void* state, uint64_t node_id,
                                   uint32_t dir_out, uint32_t thread,
                                   uint32_t slot, uint64_t* count_out) {
  auto* s = State(state);
  *count_out = 0;
  auto adj = s->ctx.tx->GetCachedAdjacency(
      node_id, dir_out != 0 ? tx::AdjDir::kOut : tx::AdjDir::kIn);
  if (adj == nullptr) return nullptr;  // fall back to the inline chain walk
  *count_out = adj->edges.size();
  // data() of an empty vector may be null, which generated code reads as a
  // miss; hand back any non-null pointer (the loop bound is zero anyway).
  static const tx::CachedNeighbor kEmpty{};
  const void* base = adj->edges.empty()
                         ? static_cast<const void*>(&kEmpty)
                         : static_cast<const void*>(adj->edges.data());
  auto& holds = s->threads[thread]->adj_holds;
  if (holds.size() <= slot) holds.resize(slot + 1);
  holds[slot] = std::move(adj);  // pinned until this slot is probed again
  return base;
}

uint32_t poseidon_get_prop(void* state, void* slot_ptr, uint32_t key,
                           uint64_t* out) {
  auto* s = State(state);
  auto* h = Handle(slot_ptr);
  // Tags returned here are query::Value kinds (what poseidon_compare and
  // the emitted tuples expect), not storage PType tags.
  if (h->has_snapshot != 0) {
    const auto& props = s->threads[h->thread]->snapshots[h->slot];
    for (const Property& p : props) {
      if (p.key == key) {
        Value v = Value::FromPVal(p.value);
        *out = v.raw();
        return static_cast<uint32_t>(v.kind());
      }
    }
    *out = 0;
    return 0;
  }
  Value v = Value::FromPVal(s->ctx.store->properties().Get(h->props, key));
  *out = v.raw();
  return static_cast<uint32_t>(v.kind());
}

uint32_t poseidon_param(void* state, uint32_t idx, uint64_t* out) {
  auto* s = State(state);
  if (s->ctx.params == nullptr || idx >= s->ctx.params->size()) {
    s->SetError(Status::InvalidArgument("missing query parameter " +
                                        std::to_string(idx)));
    *out = 0;
    return 0;
  }
  const Value& v = (*s->ctx.params)[idx];
  *out = v.raw();
  return static_cast<uint32_t>(v.kind());
}

int32_t poseidon_compare(uint32_t cmp, uint32_t kind_a, uint64_t raw_a,
                         uint32_t kind_b, uint64_t raw_b) {
  Value a = Value::FromRaw(static_cast<uint8_t>(kind_a), raw_a);
  Value b = Value::FromRaw(static_cast<uint8_t>(kind_b), raw_b);
  return PipelineExecutor::Compare(static_cast<CmpOp>(cmp), a, b) ? 1 : 0;
}

uint64_t poseidon_index_matches(void* state, uint32_t op_idx,
                                uint32_t thread) {
  auto* s = State(state);
  auto& slots = *s->threads[thread];
  // Prefer the executor's matches materialized by Prepare(): morsel ranges
  // [begin, end) address positions in that list, so compiled code must see
  // the exact ordering and count SourceCardinality() reported.
  if (op_idx == 0 && s->executor != nullptr) {
    if (const auto* shared = s->executor->SourceMatches()) {
      slots.shared_matches = shared;
      return shared->size();
    }
  }
  slots.shared_matches = nullptr;
  const query::Op* op = s->ops[op_idx];
  auto& buffer = slots.index_matches;
  buffer.clear();
  if (s->ctx.indexes == nullptr) {
    s->SetError(Status::FailedPrecondition("no index manager configured"));
    return 0;
  }
  index::BPlusTree* tree = s->ctx.indexes->Find(op->label, op->key);
  if (tree == nullptr) {
    s->SetError(Status::FailedPrecondition("no index on (label, key)"));
    return 0;
  }
  Tuple empty;
  auto lo = PipelineExecutor::Eval(op->value, empty, &s->ctx);
  if (!lo.ok()) {
    s->SetError(lo.status());
    return 0;
  }
  int64_t lo_key = index::IndexKeyOf(lo->ToPVal());
  int64_t hi_key = lo_key;
  if (op->kind == query::OpKind::kIndexRangeScan) {
    auto hi = PipelineExecutor::Eval(op->value2, empty, &s->ctx);
    if (!hi.ok()) {
      s->SetError(hi.status());
      return 0;
    }
    hi_key = index::IndexKeyOf(hi->ToPVal());
  }
  tree->ScanRange(index::BTreeKey{lo_key, 0}, index::BTreeKey{hi_key, ~0ull},
                  [&](const index::BTreeKey&, RecordId id) {
                    buffer.push_back(id);
                    return true;
                  });
  return buffer.size();
}

uint64_t poseidon_index_match_at(void* state, uint32_t thread, uint64_t i) {
  const auto& slots = *State(state)->threads[thread];
  if (slots.shared_matches != nullptr) return (*slots.shared_matches)[i];
  return slots.index_matches[i];
}

void poseidon_touch(void* state, const void* ptr, uint64_t len) {
  State(state)->ctx.store->pool()->TouchRead(ptr, len);
}

void poseidon_prefetch(void* state, const void* ptr, uint64_t len) {
  State(state)->ctx.store->pool()->TouchPrefetch(ptr, len);
}

int32_t poseidon_should_yield(void* state) {
  auto* s = State(state);
  Status st = s->ctx.tx->cancel_token()->Check();
  if (st.ok()) return 0;
  s->SetError(st);
  return 1;
}

int32_t poseidon_emit(void* state, int32_t tail_idx, uint32_t n,
                      const uint64_t* vals, const uint8_t* kinds) {
  auto* s = State(state);
  Tuple t;
  t.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    t.push_back(Value::FromRaw(kinds[i], vals[i]));
  }
  if (tail_idx < 0) {
    s->collector->Add(t);
    return 0;
  }
  Status st = s->executor->PushFrom(static_cast<size_t>(tail_idx), t);
  if (st.ok()) return 0;
  if (st.code() == StatusCode::kOutOfRange) return 1;  // stop producing
  s->SetError(st);
  return -1;
}

}  // extern "C"
