#include "query/interpreter.h"

#include <algorithm>

#include "util/hash.h"

namespace poseidon::query {

using storage::kInvalidCode;
using storage::kNullId;
using storage::Property;
using storage::PVal;
using storage::RecordId;

namespace {

/// Internal sentinel: the pipeline consumed enough tuples (limit reached).
Status StopProducing() { return Status::OutOfRange("pipeline done"); }

bool IsStop(const Status& s) {
  return s.code() == StatusCode::kOutOfRange;
}

uint64_t JoinKeyHash(const Value& v) {
  return HashCombine(static_cast<uint64_t>(v.kind()), v.raw());
}

bool IsIndexSource(const Op* op) {
  return op != nullptr && (op->kind == OpKind::kIndexScan ||
                           op->kind == OpKind::kIndexRangeScan);
}

// Per-worker tuple sink: while set, terminal pushes append here instead of
// taking the collector lock; RunMorsel flushes the buffer once per morsel.
thread_local std::vector<Tuple>* tl_sink = nullptr;

struct ScopedSink {
  explicit ScopedSink(std::vector<Tuple>* sink) : prev_(tl_sink) {
    tl_sink = sink;
  }
  ~ScopedSink() { tl_sink = prev_; }
  std::vector<Tuple>* prev_;
};

/// A node version the NodeScan kernel resolved in stage 1 (fast path: the
/// latest committed PMem version, copied under the seqlock check). While
/// stage 2 pushes the record's tuple, operators up to the pipeline's first
/// write read the node's label and property-chain head from here instead of
/// resolving it again; the property chain it names is copy-on-write and
/// pinned by the reader, so reading it late is snapshot-exact.
struct SourceHandle {
  const tx::Transaction* tx = nullptr;
  RecordId id = kNullId;
  storage::NodeRecord rec;
};

thread_local const SourceHandle* tl_handle = nullptr;

struct ScopedHandle {
  explicit ScopedHandle(const SourceHandle* h) : prev_(tl_handle) {
    tl_handle = h;
  }
  ~ScopedHandle() { tl_handle = prev_; }
  const SourceHandle* prev_;
};

/// The stage-1 resolution of node `id`, when stage 2 is pushing it.
const SourceHandle* HandleFor(const ExecContext* ctx, RecordId id) {
  const SourceHandle* h = tl_handle;
  return h != nullptr && h->id == id && h->tx == ctx->tx ? h : nullptr;
}

}  // namespace

PipelineExecutor::PipelineExecutor(const Plan& plan, ExecContext ctx,
                                   ResultCollector* collector)
    : root_(plan.root()), ctx_(ctx), collector_(collector) {}

PipelineExecutor::PipelineExecutor(const Op* root, ExecContext ctx,
                                   ResultCollector* collector)
    : root_(root), ctx_(ctx), collector_(collector) {}

Result<Value> PipelineExecutor::Eval(const Expr& e, const Tuple& t,
                                     ExecContext* ctx) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kParam: {
      if (ctx->params == nullptr ||
          e.param >= static_cast<int>(ctx->params->size())) {
        return Status::InvalidArgument("missing query parameter " +
                                       std::to_string(e.param));
      }
      return (*ctx->params)[e.param];
    }
    case Expr::Kind::kColumn:
      if (e.column < 0 || e.column >= static_cast<int>(t.size())) {
        return Status::InvalidArgument("column out of range");
      }
      return t[e.column];
    case Expr::Kind::kProperty: {
      if (e.column < 0 || e.column >= static_cast<int>(t.size())) {
        return Status::InvalidArgument("column out of range");
      }
      const Value& v = t[e.column];
      if (v.kind() == Value::Kind::kNode) {
        if (const SourceHandle* h = HandleFor(ctx, v.AsRecordId())) {
          const auto& props = ctx->store->properties();
          POSEIDON_RETURN_IF_ERROR(props.CheckChain(h->rec.props));
          return Value::FromPVal(props.Get(h->rec.props, e.key));
        }
        POSEIDON_ASSIGN_OR_RETURN(
            PVal p, ctx->tx->GetNodeProperty(v.AsRecordId(), e.key));
        return Value::FromPVal(p);
      }
      if (v.kind() == Value::Kind::kRel) {
        POSEIDON_ASSIGN_OR_RETURN(
            PVal p, ctx->tx->GetRelationshipProperty(v.AsRecordId(), e.key));
        return Value::FromPVal(p);
      }
      return Status::InvalidArgument("property access on non-record value");
    }
    case Expr::Kind::kRecordId: {
      const Value& v = t[e.column];
      return Value::Int(static_cast<int64_t>(v.AsRecordId()));
    }
    case Expr::Kind::kLabel: {
      const Value& v = t[e.column];
      if (v.kind() == Value::Kind::kNode) {
        if (const SourceHandle* h = HandleFor(ctx, v.AsRecordId())) {
          return Value::String(h->rec.label);
        }
        POSEIDON_ASSIGN_OR_RETURN(auto n, ctx->tx->GetNode(v.AsRecordId()));
        return Value::String(n.rec.label);
      }
      if (v.kind() == Value::Kind::kRel) {
        POSEIDON_ASSIGN_OR_RETURN(auto r,
                                  ctx->tx->GetRelationship(v.AsRecordId()));
        return Value::String(r.rec.label);
      }
      return Status::InvalidArgument("label access on non-record value");
    }
  }
  return Status::Internal("unknown expression kind");
}

bool PipelineExecutor::Compare(CmpOp cmp, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    // SQL-ish: null compares equal only under kEq when both are null.
    if (cmp == CmpOp::kEq) return a.is_null() && b.is_null();
    if (cmp == CmpOp::kNe) return a.is_null() != b.is_null();
    return false;
  }
  int c = a.Compare(b);
  switch (cmp) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

Status PipelineExecutor::Prepare() {
  ops_.clear();
  states_.clear();
  for (const Op* op = root_; op != nullptr; op = op->input.get()) {
    ops_.push_back(op);
  }
  std::reverse(ops_.begin(), ops_.end());  // source .. sink
  handle_limit_ = ops_.size();
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (IsWriteOp(*ops_[i])) {
      handle_limit_ = i;
      break;
    }
  }
  states_.resize(ops_.size());
  for (size_t i = 0; i < ops_.size(); ++i) {
    states_[i] = std::make_unique<OpState>();
    if (ops_[i]->kind == OpKind::kHashJoin) {
      // Materialize the build side (the paper's "right sub-pipeline ...
      // will be materialized", §6.2) with a nested executor.
      ResultCollector build_sink;
      {
        PipelineExecutor build_exec(ops_[i]->right.get(), ctx_, &build_sink);
        POSEIDON_RETURN_IF_ERROR(build_exec.Prepare());
        POSEIDON_RETURN_IF_ERROR(build_exec.Run());
      }
      states_[i]->build_rows = build_sink.TakeRows();
      int key_col = ops_[i]->right_key_col;
      for (size_t r = 0; r < states_[i]->build_rows.size(); ++r) {
        const Tuple& row = states_[i]->build_rows[r];
        if (key_col < 0 || key_col >= static_cast<int>(row.size())) {
          return Status::InvalidArgument("join build key column invalid");
        }
        states_[i]->build_index[JoinKeyHash(row[key_col])].push_back(r);
      }
    }
  }
  if (IsIndexSource(ops_.empty() ? nullptr : ops_.front())) {
    POSEIDON_RETURN_IF_ERROR(MaterializeIndexMatches());
  }
  prepared_ = true;
  return Status::Ok();
}

Status PipelineExecutor::MaterializeIndexMatches() {
  const Op* src = ops_.front();
  if (ctx_.indexes == nullptr) {
    return Status::FailedPrecondition("no index manager configured");
  }
  index::BPlusTree* tree = ctx_.indexes->Find(src->label, src->key);
  if (tree == nullptr) {
    return Status::FailedPrecondition("no index on (label, key)");
  }
  Tuple t;
  POSEIDON_ASSIGN_OR_RETURN(Value lo, Eval(src->value, t, &ctx_));
  source_lo_key_ = index::IndexKeyOf(lo.ToPVal());
  source_hi_key_ = source_lo_key_;
  if (src->kind == OpKind::kIndexRangeScan) {
    POSEIDON_ASSIGN_OR_RETURN(Value hi, Eval(src->value2, t, &ctx_));
    source_hi_key_ = index::IndexKeyOf(hi.ToPVal());
  }
  source_matches_.clear();
  tree->ScanRange(index::BTreeKey{source_lo_key_, 0},
                  index::BTreeKey{source_hi_key_, ~0ull},
                  [&](const index::BTreeKey&, RecordId id) {
                    source_matches_.push_back(id);
                    return true;
                  });
  source_matches_valid_ = true;
  return Status::Ok();
}

uint64_t PipelineExecutor::SourceCardinality() const {
  const Op* src = ops_.empty() ? nullptr : ops_.front();
  if (src == nullptr) return 0;
  if (src->kind == OpKind::kNodeScan) return ctx_.store->nodes().NumSlots();
  if (IsIndexSource(src) && source_matches_valid_) {
    return source_matches_.size();
  }
  return 0;
}

Status PipelineExecutor::Run() {
  if (!prepared_) POSEIDON_RETURN_IF_ERROR(Prepare());
  const Op* src = ops_.empty() ? nullptr : ops_.front();
  if (src != nullptr && (src->kind == OpKind::kNodeScan ||
                         IsIndexSource(src))) {
    // Scannable source; an empty table / empty match set is a valid
    // zero-unit scan.
    Status s = RunSourceRange(0, SourceCardinality());
    if (!s.ok() && !IsStop(s)) return s;
  } else {
    Status s = RunNonScanSource();
    if (!s.ok() && !IsStop(s)) return s;
  }
  return Finish();
}

Status PipelineExecutor::RunMorsel(uint64_t begin, uint64_t end) {
  // Buffer terminal tuples locally; one collector lock per morsel.
  std::vector<Tuple> local;
  Status s;
  {
    ScopedSink sink(&local);
    s = RunSourceRange(begin, end);
  }
  collector_->AddBatch(std::move(local));
  if (IsStop(s)) return Status::Ok();
  return s;
}

Status PipelineExecutor::PushIndexMatch(const Op* src, RecordId id,
                                        Tuple& t) {
  // Re-validate against the snapshot: the index is a secondary structure
  // maintained post-commit.
  auto n = ctx_.tx->GetNode(id);
  if (!n.ok()) {
    if (n.status().IsNotFound()) return Status::Ok();
    return n.status();
  }
  if (src->label != kInvalidCode && n->rec.label != src->label) {
    return Status::Ok();
  }
  PVal p = n->from_snapshot
               ? [&] {
                   for (const auto& pr : n->snapshot) {
                     if (pr.key == src->key) return pr.value;
                   }
                   return PVal::Null();
                 }()
               : ctx_.store->properties().Get(n->rec.props, src->key);
  int64_t k = index::IndexKeyOf(p);
  if (p.is_null() || k < source_lo_key_ || k > source_hi_key_) {
    return Status::Ok();
  }
  t.clear();
  t.push_back(Value::Node(id));
  return Push(1, t);
}

Status PipelineExecutor::RunSourceRange(uint64_t begin, uint64_t end) {
  const Op* src = ops_.front();
  const storage::ScanOptions& opts = ctx_.scan;
  Tuple t;
  switch (src->kind) {
    case OpKind::kNodeScan: {
      // Two-stage kernel (DESIGN.md "Scan kernel"). Stage 1 walks the
      // gathered occupied ids: it keeps the node table PrefetchBlocks()
      // blocks ahead, resolves each record and checks its label. Fast-path
      // records join the group and start the fill of their property-chain
      // head. Stage 2 (drain) pushes the group's tuples, by which time those
      // fills are mostly done. The group drains once it holds ScanGroup()
      // records and the scan reaches a new node block, at occupancy-word
      // and batch ends, and before any slow-path record, so tuples still
      // leave in id order.
      auto& table = ctx_.store->nodes();
      const auto& prop_table = *ctx_.store->properties().table();
      const bool prefetch = opts.prefetch_distance != 0;
      const uint32_t group_size = opts.ScanGroup();
      // Hard bound on deferred records; without prefetching nothing is
      // gained by deferring, so every group holds one record.
      const uint32_t group_cap = prefetch ? pmem::kPrefetchSlots : 1;
      SourceHandle group[pmem::kPrefetchSlots];
      uint32_t grouped = 0;
      auto drain = [&]() -> Status {
        uint32_t n = grouped;
        grouped = 0;
        for (uint32_t k = 0; k < n; ++k) {
          ScopedHandle handle(&group[k]);
          t.clear();
          t.push_back(Value::Node(group[k].id));
          POSEIDON_RETURN_IF_ERROR(Push(1, t));
        }
        return Status::Ok();
      };
      storage::NodeTable::ReadAhead ahead(table, begin, end,
                                          opts.PrefetchBlocks());
      uint64_t cap = opts.batch_size == 0 ? 1 : opts.batch_size;
      std::vector<RecordId> ids(cap);
      RecordId cursor = begin;
      for (;;) {
        // Cancellation poll per gathered batch (<= batch_size records); the
        // group is always empty here.
        POSEIDON_RETURN_IF_ERROR(ctx_.tx->cancel_token()->Check());
        uint64_t count = table.ScanBatch(&cursor, end, ids.data(), cap);
        if (count == 0) return Status::Ok();
        for (uint64_t i = 0; i < count; ++i) {
          RecordId id = ids[i];
          bool new_block = ahead.Advance(id);
          if (grouped != 0 && ((new_block && grouped >= group_size) ||
                               id / 64 != group[0].id / 64)) {
            POSEIDON_RETURN_IF_ERROR(drain());
          }
          auto n = ctx_.tx->GetNode(id);
          if (!n.ok()) {
            if (n.status().IsNotFound()) continue;  // invisible to snapshot
            POSEIDON_RETURN_IF_ERROR(drain());
            return n.status();
          }
          if (src->label != kInvalidCode && n->rec.label != src->label) {
            continue;
          }
          if (n->from_snapshot) {
            // Slow path (own write set, DRAM version chain): inline, after
            // the records ahead of it.
            POSEIDON_RETURN_IF_ERROR(drain());
            t.clear();
            t.push_back(Value::Node(id));
            POSEIDON_RETURN_IF_ERROR(Push(1, t));
            continue;
          }
          group[grouped] = SourceHandle{ctx_.tx, id, n->rec};
          if (prefetch) prop_table.Prefetch(n->rec.props);
          if (++grouped == group_cap) {
            POSEIDON_RETURN_IF_ERROR(drain());
          }
        }
        POSEIDON_RETURN_IF_ERROR(drain());
      }
    }

    case OpKind::kIndexScan:
    case OpKind::kIndexRangeScan: {
      // Morsels address positions in the materialized match vector.
      if (!source_matches_valid_) {
        return Status::Internal("index matches not materialized");
      }
      uint64_t n = source_matches_.size();
      if (end > n) end = n;
      uint64_t d = opts.prefetch_distance;
      auto& table = ctx_.store->nodes();
      for (uint64_t i = begin; i < end; ++i) {
        if ((i & 63u) == 0) {
          POSEIDON_RETURN_IF_ERROR(ctx_.tx->cancel_token()->Check());
        }
        if (d != 0 && i + d < end) table.Prefetch(source_matches_[i + d]);
        Status s = PushIndexMatch(src, source_matches_[i], t);
        if (!s.ok()) return s;
      }
      return Status::Ok();
    }

    default:
      return Status::Internal("morsel execution requires a scannable source");
  }
}

Status PipelineExecutor::RunNonScanSource() {
  const Op* src = ops_.front();
  Tuple t;
  switch (src->kind) {
    case OpKind::kCreateNode: {
      // Create as an access path (paper §6.2: NodeScan and Create are the
      // two access paths): one empty input tuple.
      t.clear();
      return Push(0, t);
    }
    default:
      return Status::Unimplemented("unsupported source operator");
  }
}

Status PipelineExecutor::Push(size_t i, Tuple& t) {
  if (i >= ops_.size()) {
    if (tl_sink != nullptr) {
      tl_sink->push_back(t);
    } else {
      collector_->Add(t);
    }
    return Status::Ok();
  }
  if (tl_handle != nullptr && i >= handle_limit_) {
    // A write may change what the source node resolves to: operators from
    // here on resolve it again through the transaction.
    ScopedHandle none(nullptr);
    return Push(i, t);
  }
  const Op* op = ops_[i];
  OpState& state = *states_[i];
  switch (op->kind) {
    case OpKind::kNodeScan:
    case OpKind::kIndexScan:
    case OpKind::kIndexRangeScan:
      return Status::Internal("source operator mid-pipeline");

    case OpKind::kFilter: {
      if (op->label != kInvalidCode) {
        const Value& v = t[op->column];
        storage::DictCode label;
        if (v.kind() == Value::Kind::kNode) {
          if (const SourceHandle* h = HandleFor(&ctx_, v.AsRecordId())) {
            label = h->rec.label;
          } else {
            POSEIDON_ASSIGN_OR_RETURN(auto n,
                                      ctx_.tx->GetNode(v.AsRecordId()));
            label = n.rec.label;
          }
        } else {
          POSEIDON_ASSIGN_OR_RETURN(auto r,
                                    ctx_.tx->GetRelationship(v.AsRecordId()));
          label = r.rec.label;
        }
        if (label != op->label) return Status::Ok();
        return Push(i + 1, t);
      }
      if (op->key != kInvalidCode) {
        Expr prop = Expr::Property(op->column, op->key);
        POSEIDON_ASSIGN_OR_RETURN(Value lhs, Eval(prop, t, &ctx_));
        POSEIDON_ASSIGN_OR_RETURN(Value rhs, Eval(op->value, t, &ctx_));
        if (!Compare(op->cmp, lhs, rhs)) return Status::Ok();
        return Push(i + 1, t);
      }
      // Record-id comparison.
      POSEIDON_ASSIGN_OR_RETURN(Value rhs, Eval(op->value, t, &ctx_));
      Value lhs = Value::Int(static_cast<int64_t>(t[op->column].AsRecordId()));
      if (!Compare(op->cmp, lhs, rhs)) return Status::Ok();
      return Push(i + 1, t);
    }

    case OpKind::kExpand: {
      const Value& v = t[op->column];
      if (v.kind() != Value::Kind::kNode) {
        return Status::InvalidArgument("Expand requires a node column");
      }
      // Cancellation poll per expanded tuple (the scan loops cover the
      // per-record cadence; this bounds a hub node's full neighbor walk).
      POSEIDON_RETURN_IF_ERROR(ctx_.tx->cancel_token()->Check());
      Status inner = Status::Ok();
      auto visit = [&](RecordId rel_id, storage::DictCode rel_label,
                       RecordId neighbor) {
        if (op->label != kInvalidCode && rel_label != op->label) return true;
        if (op->label2 != kInvalidCode) {
          auto n = ctx_.tx->GetNode(neighbor);
          if (!n.ok()) {
            if (n.status().IsNotFound()) return true;
            inner = n.status();
            return false;
          }
          if (n->rec.label != op->label2) return true;
        }
        t.push_back(Value::Rel(rel_id));
        t.push_back(Value::Node(neighbor));
        Status s = Push(i + 1, t);
        t.resize(t.size() - 2);
        if (!s.ok()) {
          inner = s;
          return false;
        }
        return true;
      };
      // ForEachNeighbor serves the DRAM adjacency cache when eligible and
      // chain-walks otherwise; either way the visibility is this tx's.
      Status s = ctx_.tx->ForEachNeighbor(
          v.AsRecordId(),
          op->dir == Direction::kOut ? tx::AdjDir::kOut : tx::AdjDir::kIn,
          visit);
      if (!s.ok()) return s;
      return inner;
    }

    case OpKind::kExpandTransitive: {
      const Value& v = t[op->column];
      if (v.kind() != Value::Kind::kNode) {
        return Status::InvalidArgument("ExpandTransitive requires a node");
      }
      RecordId cur = v.AsRecordId();
      // Follow the first matching relationship per hop until a node with
      // the stop label is reached (e.g. replyOf* up to the root Post).
      for (int hop = 0; hop < 4096; ++hop) {
        POSEIDON_RETURN_IF_ERROR(ctx_.tx->cancel_token()->Check());
        POSEIDON_ASSIGN_OR_RETURN(auto n, ctx_.tx->GetNode(cur));
        if (n.rec.label == op->label2) {
          t.push_back(Value::Node(cur));
          Status s = Push(i + 1, t);
          t.pop_back();
          return s;
        }
        RecordId next = kNullId;
        Status s = ctx_.tx->ForEachNeighbor(
            cur,
            op->dir == Direction::kOut ? tx::AdjDir::kOut : tx::AdjDir::kIn,
            [&](RecordId, storage::DictCode rel_label, RecordId neighbor) {
              if (op->label != kInvalidCode && rel_label != op->label) {
                return true;
              }
              next = neighbor;
              return false;
            });
        if (!s.ok()) return s;
        if (next == kNullId) return Status::Ok();  // dead end: no emit
        cur = next;
      }
      return Status::Internal("transitive expansion exceeded hop limit");
    }

    case OpKind::kProject: {
      Tuple out;
      out.reserve(op->exprs.size());
      for (const Expr& e : op->exprs) {
        POSEIDON_ASSIGN_OR_RETURN(Value v, Eval(e, t, &ctx_));
        out.push_back(v);
      }
      return Push(i + 1, out);
    }

    case OpKind::kOrderBy: {
      std::lock_guard<std::mutex> lock(state.buffer_mu);
      state.buffer.push_back(t);
      return Status::Ok();
    }

    case OpKind::kLimit: {
      uint64_t seen = state.taken.fetch_add(1, std::memory_order_acq_rel);
      if (seen >= op->limit) return StopProducing();
      Status s = Push(i + 1, t);
      if (!s.ok()) return s;
      if (seen + 1 >= op->limit) return StopProducing();
      return Status::Ok();
    }

    case OpKind::kCount: {
      state.count.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    }

    case OpKind::kGroupBy: {
      POSEIDON_ASSIGN_OR_RETURN(Value group, Eval(op->exprs[0], t, &ctx_));
      POSEIDON_ASSIGN_OR_RETURN(Value v, Eval(op->exprs[1], t, &ctx_));
      std::lock_guard<std::mutex> lock(state.buffer_mu);
      auto key = std::make_pair(static_cast<uint8_t>(group.kind()),
                                group.raw());
      AggState& agg = state.groups[key];
      agg.group = group;
      ++agg.count;
      if (!v.is_null()) {
        if (v.kind() == Value::Kind::kDouble) {
          agg.sum += v.AsDouble();
          agg.any_double = true;
        } else {
          agg.sum += static_cast<double>(v.AsInt());
        }
        if (!agg.has_minmax) {
          agg.min = agg.max = v;
          agg.has_minmax = true;
        } else {
          if (v.Compare(agg.min) < 0) agg.min = v;
          if (v.Compare(agg.max) > 0) agg.max = v;
        }
      }
      return Status::Ok();
    }

    case OpKind::kHashJoin: {
      const Value& key = t[op->left_key_col];
      auto it = state.build_index.find(JoinKeyHash(key));
      if (it == state.build_index.end()) return Status::Ok();
      size_t base = t.size();
      for (size_t r : it->second) {
        const Tuple& row = state.build_rows[r];
        if (!(row[op->right_key_col] == key)) continue;  // hash collision
        t.insert(t.end(), row.begin(), row.end());
        Status s = Push(i + 1, t);
        t.resize(base);
        if (!s.ok()) return s;
      }
      return Status::Ok();
    }

    case OpKind::kCreateNode: {
      std::vector<Property> props;
      props.reserve(op->keys.size());
      for (size_t k = 0; k < op->keys.size(); ++k) {
        POSEIDON_ASSIGN_OR_RETURN(Value v, Eval(op->exprs[k], t, &ctx_));
        if (v.is_null()) continue;
        props.push_back(Property{op->keys[k], v.ToPVal()});
      }
      POSEIDON_ASSIGN_OR_RETURN(RecordId id,
                                ctx_.tx->CreateNode(op->label, props));
      t.push_back(Value::Node(id));
      Status s = Push(i + 1, t);
      t.pop_back();
      return s;
    }

    case OpKind::kCreateRel: {
      const Value& src = t[op->column];
      const Value& dst = t[op->left_key_col];
      if (src.kind() != Value::Kind::kNode ||
          dst.kind() != Value::Kind::kNode) {
        return Status::InvalidArgument("CreateRel requires node columns");
      }
      std::vector<Property> props;
      props.reserve(op->keys.size());
      for (size_t k = 0; k < op->keys.size(); ++k) {
        POSEIDON_ASSIGN_OR_RETURN(Value v, Eval(op->exprs[k], t, &ctx_));
        if (v.is_null()) continue;
        props.push_back(Property{op->keys[k], v.ToPVal()});
      }
      POSEIDON_ASSIGN_OR_RETURN(
          RecordId id, ctx_.tx->CreateRelationship(src.AsRecordId(),
                                                   dst.AsRecordId(),
                                                   op->label, props));
      t.push_back(Value::Rel(id));
      Status s = Push(i + 1, t);
      t.pop_back();
      return s;
    }

    case OpKind::kSetProperty: {
      const Value& target = t[op->column];
      POSEIDON_ASSIGN_OR_RETURN(Value v, Eval(op->value, t, &ctx_));
      if (op->on_node) {
        POSEIDON_RETURN_IF_ERROR(ctx_.tx->SetNodeProperty(
            target.AsRecordId(), op->key, v.ToPVal()));
      } else {
        POSEIDON_RETURN_IF_ERROR(ctx_.tx->SetRelationshipProperty(
            target.AsRecordId(), op->key, v.ToPVal()));
      }
      return Push(i + 1, t);
    }
  }
  return Status::Internal("unknown operator kind");
}

Status PipelineExecutor::Finish() {
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op* op = ops_[i];
    OpState& state = *states_[i];
    if (op->kind == OpKind::kOrderBy) {
      std::vector<Tuple> rows;
      {
        std::lock_guard<std::mutex> lock(state.buffer_mu);
        rows = std::move(state.buffer);
      }
      std::stable_sort(rows.begin(), rows.end(),
                       [&](const Tuple& a, const Tuple& b) {
                         int c = a[op->column].Compare(b[op->column]);
                         return op->desc ? c > 0 : c < 0;
                       });
      if (op->limit > 0 && rows.size() > op->limit) rows.resize(op->limit);
      for (Tuple& row : rows) {
        Status s = Push(i + 1, row);
        if (!s.ok() && !IsStop(s)) return s;
        if (IsStop(s)) break;
      }
    } else if (op->kind == OpKind::kCount) {
      Tuple t{Value::Int(
          static_cast<int64_t>(state.count.load(std::memory_order_relaxed)))};
      Status s = Push(i + 1, t);
      if (!s.ok() && !IsStop(s)) return s;
    } else if (op->kind == OpKind::kGroupBy) {
      std::map<std::pair<uint8_t, uint64_t>, AggState> groups;
      {
        std::lock_guard<std::mutex> lock(state.buffer_mu);
        groups = std::move(state.groups);
      }
      for (auto& [key, agg] : groups) {
        Value out;
        switch (op->agg) {
          case AggFn::kCount:
            out = Value::Int(static_cast<int64_t>(agg.count));
            break;
          case AggFn::kSum:
            out = agg.any_double ? Value::Double(agg.sum)
                                 : Value::Int(static_cast<int64_t>(agg.sum));
            break;
          case AggFn::kMin:
            out = agg.has_minmax ? agg.min : Value::Null();
            break;
          case AggFn::kMax:
            out = agg.has_minmax ? agg.max : Value::Null();
            break;
          case AggFn::kAvg:
            out = agg.count == 0
                      ? Value::Null()
                      : Value::Double(agg.sum /
                                      static_cast<double>(agg.count));
            break;
        }
        Tuple t{agg.group, out};
        Status s = Push(i + 1, t);
        if (!s.ok() && !IsStop(s)) return s;
        if (IsStop(s)) break;
      }
    }
  }
  return Status::Ok();
}

}  // namespace poseidon::query
