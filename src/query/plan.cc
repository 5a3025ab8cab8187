#include "query/plan.h"

#include <functional>
#include <utility>

#include "util/hash.h"

namespace poseidon::query {

namespace {

void AppendExprSignature(const Expr& e, std::string* out) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      out->append("lit:");
      out->append(std::to_string(static_cast<int>(e.literal.kind())));
      out->append(":");
      out->append(std::to_string(e.literal.raw()));
      break;
    case Expr::Kind::kParam:
      out->append("p");
      out->append(std::to_string(e.param));
      break;
    case Expr::Kind::kColumn:
      out->append("c");
      out->append(std::to_string(e.column));
      break;
    case Expr::Kind::kProperty:
      out->append("prop(c");
      out->append(std::to_string(e.column));
      out->append(",k");
      out->append(std::to_string(e.key));
      out->append(")");
      break;
    case Expr::Kind::kRecordId:
      out->append("id(c");
      out->append(std::to_string(e.column));
      out->append(")");
      break;
    case Expr::Kind::kLabel:
      out->append("label(c");
      out->append(std::to_string(e.column));
      out->append(")");
      break;
  }
}

void AppendOpSignature(const Op* op, std::string* out) {
  if (op == nullptr) return;
  AppendOpSignature(op->input.get(), out);
  out->append("|");
  out->append(std::to_string(static_cast<int>(op->kind)));
  out->append(",l");
  out->append(std::to_string(op->label));
  out->append(",l2:");
  out->append(std::to_string(op->label2));
  out->append(",d");
  out->append(std::to_string(static_cast<int>(op->dir)));
  out->append(",c");
  out->append(std::to_string(op->column));
  out->append(",k");
  out->append(std::to_string(op->key));
  out->append(",cmp");
  out->append(std::to_string(static_cast<int>(op->cmp)));
  out->append(",v[");
  AppendExprSignature(op->value, out);
  out->append("],v2[");
  AppendExprSignature(op->value2, out);
  out->append("],lim");
  out->append(std::to_string(op->limit));
  out->append(op->desc ? ",desc" : ",asc");
  out->append(op->on_node ? ",n" : ",r");
  out->append(",agg");
  out->append(std::to_string(static_cast<int>(op->agg)));
  for (auto k : op->keys) {
    out->append(",pk");
    out->append(std::to_string(k));
  }
  for (const auto& e : op->exprs) {
    out->append(",e[");
    AppendExprSignature(e, out);
    out->append("]");
  }
  if (op->right != nullptr) {
    out->append(",build{");
    AppendOpSignature(op->right.get(), out);
    out->append("}jk");
    out->append(std::to_string(op->left_key_col));
    out->append(":");
    out->append(std::to_string(op->right_key_col));
  }
}

int CountOpsRec(const Op* op) {
  if (op == nullptr) return 0;
  return 1 + CountOpsRec(op->input.get()) + CountOpsRec(op->right.get());
}

}  // namespace

Plan::Plan() : signature_hash_(HashString("")) {}

Plan::Plan(std::unique_ptr<Op> root)
    : root_(std::move(root)), signature_hash_(HashString(Signature())) {}

Plan::Plan(Plan&& other) noexcept
    : root_(std::move(other.root_)),
      signature_hash_(
          std::exchange(other.signature_hash_, HashString(""))) {}

Plan& Plan::operator=(Plan&& other) noexcept {
  root_ = std::move(other.root_);
  signature_hash_ = std::exchange(other.signature_hash_, HashString(""));
  return *this;
}

int Plan::CountOps() const { return CountOpsRec(root_.get()); }

std::string Plan::Signature() const {
  std::string s;
  AppendOpSignature(root_.get(), &s);
  return s;
}

namespace {

std::string CodeName(storage::DictCode code,
                     const storage::Dictionary* dict) {
  if (code == storage::kInvalidCode) return "*";
  if (dict != nullptr) {
    auto s = dict->Decode(code);
    if (s.ok()) return std::string(*s);
  }
  return "#" + std::to_string(code);
}

std::string ExprName(const Expr& e, const storage::Dictionary* dict) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal.ToString(dict);
    case Expr::Kind::kParam:
      return "$" + std::to_string(e.param);
    case Expr::Kind::kColumn:
      return "c" + std::to_string(e.column);
    case Expr::Kind::kProperty:
      return "c" + std::to_string(e.column) + "." + CodeName(e.key, dict);
    case Expr::Kind::kRecordId:
      return "id(c" + std::to_string(e.column) + ")";
    case Expr::Kind::kLabel:
      return "label(c" + std::to_string(e.column) + ")";
  }
  return "?";
}

const char* CmpName(CmpOp cmp) {
  switch (cmp) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

const char* AggName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount: return "count";
    case AggFn::kSum: return "sum";
    case AggFn::kMin: return "min";
    case AggFn::kMax: return "max";
    case AggFn::kAvg: return "avg";
  }
  return "?";
}

/// Execution-mode suffix attached to pipeline sources in EXPLAIN output.
std::string AnnotationSuffix(const ExplainAnnotation* ann) {
  if (ann == nullptr) return "";
  std::string out = " [parallel=" + std::to_string(ann->threads) +
                    ", morsel=" + std::to_string(ann->morsel);
  out += std::string(", rts=") + (ann->rts_coalesce ? "coalesced" : "eager") +
         " skip=" + std::to_string(ann->rts_skipped) +
         " defer=" + std::to_string(ann->rts_deferred);
  if (ann->snapshot_reuse) {
    out += " snapshot=" + std::to_string(ann->snapshot_ts);
  }
  if (ann->scrub_on) {
    out += " scrub=" + std::to_string(ann->scrub_verified) + "/" +
           std::to_string(ann->scrub_repaired) + "/" +
           std::to_string(ann->scrub_quarantined);
  }
  if (ann->overload) {
    out += " deadline=" + std::to_string(ann->deadline_ms) + "ms writers=" +
           std::to_string(ann->active_writers) + "/" +
           std::to_string(ann->max_writers) +
           " aborts=" + std::to_string(ann->aborts_conflict) + "/" +
           std::to_string(ann->aborts_deadline) + "/" +
           std::to_string(ann->aborts_cancelled) + "/" +
           std::to_string(ann->aborts_space) +
           " shed=" + std::to_string(ann->writers_shed) + "+" +
           std::to_string(ann->space_denied);
  }
  return out + "]";
}

/// Adjacency-cache suffix attached to Expand operators in EXPLAIN output.
std::string ExpandAnnotationSuffix(const ExplainAnnotation* ann) {
  if (ann == nullptr) return "";
  if (!ann->adj_cache) return " [adjcache=off]";
  return " [adjcache=on hits=" + std::to_string(ann->adj_hits) +
         " misses=" + std::to_string(ann->adj_misses) +
         " inval=" + std::to_string(ann->adj_invalidations) +
         " evict=" + std::to_string(ann->adj_evictions) + "]";
}

void PrintOp(const Op* op, const storage::Dictionary* dict,
             const ExplainAnnotation* ann, int indent, std::string* out) {
  if (op == nullptr) return;
  PrintOp(op->input.get(), dict, ann, indent, out);
  out->append(indent * 2, ' ');
  switch (op->kind) {
    case OpKind::kNodeScan:
      out->append("NodeScan(" + CodeName(op->label, dict) + ")" +
                  AnnotationSuffix(ann));
      break;
    case OpKind::kIndexScan:
      out->append("IndexScan(" + CodeName(op->label, dict) + "." +
                  CodeName(op->key, dict) + " = " +
                  ExprName(op->value, dict) + ")" + AnnotationSuffix(ann));
      break;
    case OpKind::kIndexRangeScan:
      out->append("IndexRangeScan(" + CodeName(op->label, dict) + "." +
                  CodeName(op->key, dict) + " in [" +
                  ExprName(op->value, dict) + ", " +
                  ExprName(op->value2, dict) + "])" + AnnotationSuffix(ann));
      break;
    case OpKind::kExpand:
      out->append("ForeachRelationship(c" + std::to_string(op->column) +
                  (op->dir == Direction::kOut ? " -[" : " <-[") +
                  CodeName(op->label, dict) + "]" +
                  (op->dir == Direction::kOut ? "-> " : "- ") +
                  CodeName(op->label2, dict) + ")" +
                  ExpandAnnotationSuffix(ann));
      break;
    case OpKind::kExpandTransitive:
      out->append("ExpandTransitive(c" + std::to_string(op->column) + " (" +
                  CodeName(op->label, dict) + ")* until " +
                  CodeName(op->label2, dict) + ")" +
                  ExpandAnnotationSuffix(ann));
      break;
    case OpKind::kFilter:
      if (op->label != storage::kInvalidCode) {
        out->append("Filter(label(c" + std::to_string(op->column) + ") = " +
                    CodeName(op->label, dict) + ")");
      } else if (op->key != storage::kInvalidCode) {
        out->append("Filter(c" + std::to_string(op->column) + "." +
                    CodeName(op->key, dict) + " " + CmpName(op->cmp) + " " +
                    ExprName(op->value, dict) + ")");
      } else {
        out->append("Filter(id(c" + std::to_string(op->column) + ") " +
                    CmpName(op->cmp) + " " + ExprName(op->value, dict) + ")");
      }
      break;
    case OpKind::kProject: {
      out->append("Project(");
      for (size_t i = 0; i < op->exprs.size(); ++i) {
        if (i > 0) out->append(", ");
        out->append(ExprName(op->exprs[i], dict));
      }
      out->append(")");
      break;
    }
    case OpKind::kOrderBy:
      out->append("OrderBy(c" + std::to_string(op->column) +
                  (op->desc ? " desc" : " asc") +
                  (op->limit > 0 ? ", limit " + std::to_string(op->limit)
                                 : "") +
                  ")");
      break;
    case OpKind::kLimit:
      out->append("Limit(" + std::to_string(op->limit) + ")");
      break;
    case OpKind::kCount:
      out->append("Count()");
      break;
    case OpKind::kGroupBy:
      out->append(std::string("GroupBy(") + ExprName(op->exprs[0], dict) +
                  ", " + AggName(op->agg) + "(" +
                  ExprName(op->exprs[1], dict) + "))");
      break;
    case OpKind::kHashJoin:
      out->append("HashJoin(c" + std::to_string(op->left_key_col) + " = c" +
                  std::to_string(op->right_key_col) + ") build:\n");
      // Build sides are materialized serially; no source annotation.
      PrintOp(op->right.get(), dict, nullptr, indent + 2, out);
      out->erase(out->find_last_not_of('\n') + 1);
      break;
    case OpKind::kCreateNode:
      out->append("CreateNode(" + CodeName(op->label, dict) + ")");
      break;
    case OpKind::kCreateRel:
      out->append("CreateRelationship(c" + std::to_string(op->column) +
                  " -[" + CodeName(op->label, dict) + "]-> c" +
                  std::to_string(op->left_key_col) + ")");
      break;
    case OpKind::kSetProperty:
      out->append("SetProperty(c" + std::to_string(op->column) + "." +
                  CodeName(op->key, dict) + " := " +
                  ExprName(op->value, dict) + ")");
      break;
  }
  out->append("\n");
}

}  // namespace

std::string Plan::ToString(const storage::Dictionary* dict,
                           const ExplainAnnotation* ann) const {
  std::string out;
  PrintOp(root_.get(), dict, ann, 0, &out);
  return out;
}

const Op* Plan::Source() const {
  const Op* op = root_.get();
  while (op != nullptr && op->input != nullptr) op = op->input.get();
  return op;
}

bool IsWriteOp(const Op& op) {
  return op.kind == OpKind::kCreateNode || op.kind == OpKind::kCreateRel ||
         op.kind == OpKind::kSetProperty;
}

namespace {
bool OpTreeWrites(const Op* op) {
  if (op == nullptr) return false;
  if (IsWriteOp(*op)) return true;
  return OpTreeWrites(op->input.get()) || OpTreeWrites(op->right.get());
}
}  // namespace

bool Plan::HasWrites() const { return OpTreeWrites(root_.get()); }

PlanBuilder&& PlanBuilder::Push(std::unique_ptr<Op> op) && {
  op->input = std::move(chain_);
  chain_ = std::move(op);
  return std::move(*this);
}

PlanBuilder&& PlanBuilder::NodeScan(storage::DictCode label) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kNodeScan;
  op->label = label;
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::IndexScan(storage::DictCode label,
                                     storage::DictCode key, Expr value) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kIndexScan;
  op->label = label;
  op->key = key;
  op->value = value;
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::IndexRangeScan(storage::DictCode label,
                                          storage::DictCode key, Expr lo,
                                          Expr hi) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kIndexRangeScan;
  op->label = label;
  op->key = key;
  op->value = lo;
  op->value2 = hi;
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::Expand(int column, Direction dir,
                                  storage::DictCode rel_label,
                                  storage::DictCode node_label) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kExpand;
  op->column = column;
  op->dir = dir;
  op->label = rel_label;
  op->label2 = node_label;
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::ExpandTransitive(int column, Direction dir,
                                            storage::DictCode rel_label,
                                            storage::DictCode stop_label) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kExpandTransitive;
  op->column = column;
  op->dir = dir;
  op->label = rel_label;
  op->label2 = stop_label;
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::FilterProperty(int column, storage::DictCode key,
                                          CmpOp cmp, Expr value) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kFilter;
  op->column = column;
  op->key = key;
  op->cmp = cmp;
  op->value = value;
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::FilterLabel(int column,
                                       storage::DictCode label) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kFilter;
  op->column = column;
  op->label = label;
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::FilterRecordId(int column, Expr value) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kFilter;
  op->column = column;
  op->cmp = CmpOp::kEq;
  // Neither label nor key set: the interpreter dispatches this as a
  // record-id comparison.
  op->value = value;
  op->key = storage::kInvalidCode;
  op->label = storage::kInvalidCode;
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::Project(std::vector<Expr> exprs) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kProject;
  op->exprs = std::move(exprs);
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::OrderBy(int column, bool desc, uint64_t limit) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kOrderBy;
  op->column = column;
  op->desc = desc;
  op->limit = limit;
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::Limit(uint64_t n) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kLimit;
  op->limit = n;
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::Count() && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kCount;
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::GroupBy(Expr group, AggFn fn, Expr value) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kGroupBy;
  op->agg = fn;
  op->exprs = {group, value};
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::HashJoin(Plan build_side, int left_key_col,
                                    int right_key_col) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kHashJoin;
  op->right = std::move(build_side.root_);
  op->left_key_col = left_key_col;
  op->right_key_col = right_key_col;
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::CreateNode(storage::DictCode label,
                                      std::vector<storage::DictCode> keys,
                                      std::vector<Expr> values) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kCreateNode;
  op->label = label;
  op->keys = std::move(keys);
  op->exprs = std::move(values);
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::CreateRel(int src_column, int dst_column,
                                     storage::DictCode label,
                                     std::vector<storage::DictCode> keys,
                                     std::vector<Expr> values) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kCreateRel;
  op->column = src_column;
  op->left_key_col = dst_column;  // reuse: dst column
  op->label = label;
  op->keys = std::move(keys);
  op->exprs = std::move(values);
  return std::move(*this).Push(std::move(op));
}

PlanBuilder&& PlanBuilder::SetProperty(int column, storage::DictCode key,
                                       Expr value, bool is_node) && {
  auto op = std::make_unique<Op>();
  op->kind = OpKind::kSetProperty;
  op->column = column;
  op->key = key;
  op->value = value;
  op->on_node = is_node;
  return std::move(*this).Push(std::move(op));
}

Plan PlanBuilder::Build() && { return Plan(std::move(chain_)); }

}  // namespace poseidon::query
