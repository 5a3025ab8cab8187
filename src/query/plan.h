// Graph algebra (paper §6.1): the declarative plan representation consumed
// by both the AOT interpreter and the JIT code generator.
//
// A plan is a chain (or tree, with joins) of operators. Execution is
// push-based: the source operator (deepest input) produces tuples and pushes
// them through the chain. Tuples are columnar-by-position: each operator
// appends/replaces columns as documented on its kind.

#ifndef POSEIDON_QUERY_PLAN_H_
#define POSEIDON_QUERY_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "query/value.h"
#include "storage/types.h"

namespace poseidon::query {

enum class OpKind : uint8_t {
  kNodeScan,         ///< source; emits [node] for each visible node (label opt)
  kIndexScan,        ///< source; B+-Tree point lookup -> [node]
  kIndexRangeScan,   ///< source; B+-Tree range scan -> [node]
  kExpand,           ///< appends [rel, neighbor] via adjacency traversal
  kExpandTransitive, ///< follows dir/label edges until a label2 node; appends [node]
  kFilter,           ///< predicate on a column ((property|label|id) cmp expr)
  kProject,          ///< replaces the tuple with evaluated expressions
  kOrderBy,          ///< pipeline breaker: sort by column, optional limit
  kLimit,            ///< stops the pipeline after N tuples
  kCount,            ///< sink aggregate: emits a single [count]
  kGroupBy,          ///< breaker: groups by exprs[0], aggregates exprs[1]
  kHashJoin,         ///< materializes right child, probes with left tuples
  kCreateNode,       ///< appends [node]; transactional insert
  kCreateRel,        ///< appends [rel]; transactional insert
  kSetProperty,      ///< transactional property update on a column
};

enum class Direction : uint8_t { kOut, kIn };
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class AggFn : uint8_t { kCount, kSum, kMin, kMax, kAvg };

/// Scalar expression evaluated against a tuple (used by Filter rhs, Project,
/// property values of Create/Set).
struct Expr {
  enum class Kind : uint8_t {
    kLiteral,   ///< constant value
    kParam,     ///< runtime parameter by index
    kColumn,    ///< tuple column as-is
    kProperty,  ///< property `key` of the node/rel in `column`
    kRecordId,  ///< physical record id of the node/rel in `column`
    kLabel,     ///< label code of the node/rel in `column`
  };

  Kind kind = Kind::kLiteral;
  Value literal;
  int param = -1;
  int column = -1;
  storage::DictCode key = storage::kInvalidCode;

  static Expr Literal(Value v) {
    Expr e;
    e.kind = Kind::kLiteral;
    e.literal = v;
    return e;
  }
  static Expr Param(int index) {
    Expr e;
    e.kind = Kind::kParam;
    e.param = index;
    return e;
  }
  static Expr Column(int column) {
    Expr e;
    e.kind = Kind::kColumn;
    e.column = column;
    return e;
  }
  static Expr Property(int column, storage::DictCode key) {
    Expr e;
    e.kind = Kind::kProperty;
    e.column = column;
    e.key = key;
    return e;
  }
  static Expr RecordId(int column) {
    Expr e;
    e.kind = Kind::kRecordId;
    e.column = column;
    return e;
  }
  static Expr Label(int column) {
    Expr e;
    e.kind = Kind::kLabel;
    e.column = column;
    return e;
  }
};

struct Op {
  OpKind kind;
  std::unique_ptr<Op> input;  ///< upstream operator (null for sources)
  std::unique_ptr<Op> right;  ///< hash-join build side

  // Operator parameters; which fields apply depends on `kind`.
  storage::DictCode label = storage::kInvalidCode;   ///< scan/expand rel label
  storage::DictCode label2 = storage::kInvalidCode;  ///< neighbor/stop label
  Direction dir = Direction::kOut;
  int column = -1;                                   ///< operand column
  storage::DictCode key = storage::kInvalidCode;     ///< property key
  CmpOp cmp = CmpOp::kEq;
  Expr value;         ///< filter rhs / index key / set-property value
  Expr value2;        ///< range scan upper bound
  std::vector<storage::DictCode> keys;  ///< create: property keys
  std::vector<Expr> exprs;              ///< project list / create prop values
  uint64_t limit = 0;
  bool desc = false;
  bool on_node = true;     ///< set-property target kind (node vs rel)
  AggFn agg = AggFn::kCount;  ///< group-by aggregate function
  int left_key_col = -1;   ///< hash join probe column
  int right_key_col = -1;  ///< hash join build column
};

/// Execution-mode annotation for EXPLAIN output: how the engine would run
/// the pipeline source (worker threads, morsel granularity).
struct ExplainAnnotation {
  size_t threads = 0;
  uint64_t morsel = 0;
  /// DRAM adjacency cache state, rendered on Expand operators:
  /// `[adjcache=on hits=... misses=... inval=... evict=...]`. The counters
  /// are the engine-lifetime totals at EXPLAIN time.
  bool adj_cache = false;
  uint64_t adj_hits = 0;
  uint64_t adj_misses = 0;
  uint64_t adj_invalidations = 0;
  uint64_t adj_evictions = 0;
  /// Read-path concurrency state, rendered on pipeline sources:
  /// `[... rts=coalesced skip=N defer=N snapshot=S]`. Counters are
  /// engine-lifetime totals at EXPLAIN time; S is the currently published
  /// shared read-only snapshot timestamp (0 = none yet).
  bool rts_coalesce = false;
  uint64_t rts_skipped = 0;
  uint64_t rts_deferred = 0;
  bool snapshot_reuse = false;
  uint64_t snapshot_ts = 0;
  /// Online integrity scrubbing, rendered on pipeline sources when the pool
  /// maintains checksums: `[scrub=verified/repaired/quarantined]`.
  /// verified/repaired are pool-lifetime totals at EXPLAIN time;
  /// quarantined is the number of currently quarantined lines.
  bool scrub_on = false;
  uint64_t scrub_verified = 0;
  uint64_t scrub_repaired = 0;
  uint64_t scrub_quarantined = 0;
  /// Overload governance, rendered on pipeline sources:
  /// `[... deadline=<ms> writers=<active>/<max>
  ///    aborts=conflict/deadline/cancel/space shed=N+M]`.
  /// The deadline is the manager-wide default (0 = none); the abort
  /// taxonomy and shed counters are engine-lifetime totals at EXPLAIN time
  /// (shed = admission-gate sheds + soft-watermark space denials).
  bool overload = false;  ///< gate or deadline configured: render the block
  int64_t deadline_ms = 0;
  int64_t active_writers = 0;
  int64_t max_writers = 0;
  uint64_t aborts_conflict = 0;
  uint64_t aborts_deadline = 0;
  uint64_t aborts_cancelled = 0;
  uint64_t aborts_space = 0;
  uint64_t writers_shed = 0;
  uint64_t space_denied = 0;
};

/// True for the operators that write (kCreateNode / kCreateRel /
/// kSetProperty).
bool IsWriteOp(const Op& op);

/// A complete query plan. It is immutable once built: only PlanBuilder sets
/// the operator tree, so the structural key computed by Build can never go
/// stale, and any number of threads may execute one Plan concurrently.
class Plan {
 public:
  /// The empty plan (no operators).
  Plan();
  /// A moved-from plan is left empty, with the empty plan's key.
  Plan(Plan&& other) noexcept;
  Plan& operator=(Plan&& other) noexcept;

  /// The sink-most operator (null for the empty plan).
  const Op* root() const { return root_.get(); }

  /// Number of operators in the chain (tree).
  int CountOps() const;

  /// Structural identifier used as the compiled-code cache key (§6.2
  /// "unique query identifier that comprises the operators' identifiers").
  /// Parameters contribute their index, not their value, so one compiled
  /// query serves all parameter bindings.
  std::string Signature() const;

  /// HashString(Signature()), computed once when the plan is built, so
  /// executions key the compiled-code cache without re-serializing the plan.
  uint64_t signature_hash() const { return signature_hash_; }

  /// The source operator of the main (left-most) pipeline.
  const Op* Source() const;

  /// True when any operator of the tree, hash-join build sides included,
  /// writes (kCreateNode / kCreateRel / kSetProperty): the plan needs a
  /// read-write transaction.
  bool HasWrites() const;

  /// Human-readable plan rendering (EXPLAIN). Labels and property keys are
  /// decoded through `dict` when provided, otherwise shown as codes. With
  /// `ann`, pipeline sources carry an execution-mode suffix:
  ///   `[parallel=<n threads>, morsel=<size>, rts=...]`.
  std::string ToString(const storage::Dictionary* dict = nullptr,
                       const ExplainAnnotation* ann = nullptr) const;

 private:
  friend class PlanBuilder;
  explicit Plan(std::unique_ptr<Op> root);

  std::unique_ptr<Op> root_;
  uint64_t signature_hash_;
};

/// Fluent construction of linear plans (joins attach via HashJoin(build)).
///
///   Plan p = PlanBuilder()
///                .NodeScan(person)
///                .FilterProperty(0, id_key, CmpOp::kEq, Expr::Param(0))
///                .Expand(0, Direction::kOut, knows)
///                .Project({Expr::Property(2, name_key)})
///                .Build();
class PlanBuilder {
 public:
  PlanBuilder() = default;

  PlanBuilder&& NodeScan(storage::DictCode label = storage::kInvalidCode) &&;
  PlanBuilder&& IndexScan(storage::DictCode label, storage::DictCode key,
                          Expr value) &&;
  PlanBuilder&& IndexRangeScan(storage::DictCode label, storage::DictCode key,
                               Expr lo, Expr hi) &&;
  PlanBuilder&& Expand(int column, Direction dir,
                       storage::DictCode rel_label = storage::kInvalidCode,
                       storage::DictCode node_label =
                           storage::kInvalidCode) &&;
  PlanBuilder&& ExpandTransitive(int column, Direction dir,
                                 storage::DictCode rel_label,
                                 storage::DictCode stop_label) &&;
  PlanBuilder&& FilterProperty(int column, storage::DictCode key, CmpOp cmp,
                               Expr value) &&;
  PlanBuilder&& FilterLabel(int column, storage::DictCode label) &&;
  PlanBuilder&& FilterRecordId(int column, Expr value) &&;
  PlanBuilder&& Project(std::vector<Expr> exprs) &&;
  PlanBuilder&& OrderBy(int column, bool desc, uint64_t limit = 0) &&;
  PlanBuilder&& Limit(uint64_t n) &&;
  PlanBuilder&& Count() &&;
  /// Groups tuples by `group`, aggregating `value` with `fn`; emits
  /// [group, aggregate] rows (a pipeline breaker).
  PlanBuilder&& GroupBy(Expr group, AggFn fn, Expr value) &&;
  PlanBuilder&& HashJoin(Plan build_side, int left_key_col,
                         int right_key_col) &&;
  PlanBuilder&& CreateNode(storage::DictCode label,
                           std::vector<storage::DictCode> keys,
                           std::vector<Expr> values) &&;
  PlanBuilder&& CreateRel(int src_column, int dst_column,
                          storage::DictCode label,
                          std::vector<storage::DictCode> keys,
                          std::vector<Expr> values) &&;
  PlanBuilder&& SetProperty(int column, storage::DictCode key, Expr value,
                            bool is_node = true) &&;

  Plan Build() &&;

 private:
  PlanBuilder&& Push(std::unique_ptr<Op> op) &&;

  std::unique_ptr<Op> chain_;
};

}  // namespace poseidon::query

#endif  // POSEIDON_QUERY_PLAN_H_
