#include "sql/executor.h"

#include <algorithm>

#include "net/wire.h"  // kOmittedTimestamp
#include "util/clock.h"

namespace lt {
namespace sql {
namespace {

bool EvalCompare(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq: return cmp == 0;
    case CompareOp::kNe: return cmp != 0;
    case CompareOp::kLt: return cmp < 0;
    case CompareOp::kLe: return cmp <= 0;
    case CompareOp::kGt: return cmp > 0;
    case CompareOp::kGe: return cmp >= 0;
  }
  return false;
}

/// A WHERE condition bound to a column index and typed value.
struct BoundCondition {
  size_t column_index;
  CompareOp op;
  Value value;
};

bool RowPasses(const Row& row, const std::vector<BoundCondition>& conds) {
  for (const BoundCondition& c : conds) {
    if (!EvalCompare(c.op, row[c.column_index].Compare(c.value))) return false;
  }
  return true;
}

/// Aggregate state for one select item within one group. COUNT needs none
/// (the group's row count serves), SUM/AVG keep sums, and MIN/MAX point at
/// the winning cell in the fetched rows, which outlive the aggregation.
struct AggState {
  int64_t int_sum = 0;
  double dbl_sum = 0;
  const Value* extreme = nullptr;
};

}  // namespace

std::string ResultSet::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); i++) {
    if (i) out += " | ";
    out += columns[i];
  }
  if (!columns.empty()) out += "\n";
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); i++) {
      if (i) out += " | ";
      out += row[i].ToString(types[i]);
    }
    out += "\n";
  }
  if (rows_affected > 0) {
    out += "(" + std::to_string(rows_affected) + " rows affected)\n";
  }
  return out;
}

Result<ResultSet> SqlSession::Execute(const std::string& statement) {
  LT_ASSIGN_OR_RETURN(Statement stmt, Parse(statement));
  if (auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    return ExecuteCreate(*create);
  }
  if (auto* drop = std::get_if<DropTableStmt>(&stmt)) {
    return ExecuteDrop(*drop);
  }
  if (auto* insert = std::get_if<InsertStmt>(&stmt)) {
    return ExecuteInsert(*insert);
  }
  return ExecuteSelect(std::get<SelectStmt>(stmt));
}

Result<ResultSet> SqlSession::ExecuteCreate(const CreateTableStmt& stmt) {
  // Reorder columns so the primary key leads, in declared key order — the
  // schema's physical layout is the clustering developers chose (§3.1).
  std::vector<Column> ordered;
  std::vector<Column> rest = stmt.columns;
  for (const std::string& key : stmt.key_names) {
    auto it = std::find_if(rest.begin(), rest.end(),
                           [&](const Column& c) { return c.name == key; });
    if (it == rest.end()) {
      return Status::InvalidArgument("PRIMARY KEY names unknown column: " + key);
    }
    ordered.push_back(*it);
    rest.erase(it);
  }
  size_t num_key = ordered.size();
  for (Column& c : rest) ordered.push_back(std::move(c));
  Schema schema(std::move(ordered), num_key);
  LT_RETURN_IF_ERROR(schema.Validate());
  LT_RETURN_IF_ERROR(backend_->CreateTable(stmt.table, schema, stmt.ttl));
  return ResultSet{};
}

Result<ResultSet> SqlSession::ExecuteDrop(const DropTableStmt& stmt) {
  LT_RETURN_IF_ERROR(backend_->DropTable(stmt.table));
  return ResultSet{};
}

Result<ResultSet> SqlSession::ExecuteInsert(const InsertStmt& stmt) {
  LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                      backend_->GetSchema(stmt.table));
  const Timestamp now = backend_->Now();

  // Map the statement's column list to schema indexes.
  std::vector<int> targets;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema->num_columns(); i++) {
      targets.push_back(static_cast<int>(i));
    }
  } else {
    for (const std::string& name : stmt.columns) {
      int idx = schema->FindColumn(name);
      if (idx < 0) return Status::InvalidArgument("unknown column: " + name);
      targets.push_back(idx);
    }
  }

  std::vector<Row> rows;
  rows.reserve(stmt.rows.size());
  for (const std::vector<Literal>& lits : stmt.rows) {
    if (lits.size() != targets.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    // Start from defaults; an unlisted ts column means "server assigns"
    // (§3.1), which the engine path resolves to now.
    Row row;
    std::vector<bool> provided(schema->num_columns(), false);
    for (size_t i = 0; i < schema->num_columns(); i++) {
      row.push_back(schema->columns()[i].default_value);
    }
    for (size_t i = 0; i < targets.size(); i++) {
      const Column& col = schema->columns()[targets[i]];
      LT_ASSIGN_OR_RETURN(Value v,
                          lits[i].Bind(col.type, now, col.default_value));
      row[targets[i]] = std::move(v);
      provided[targets[i]] = true;
    }
    // Unprovided key columns other than ts are an error; unprovided ts
    // means current time.
    for (size_t i = 0; i + 1 < schema->num_key_columns(); i++) {
      if (!provided[i]) {
        return Status::InvalidArgument("key column not provided: " +
                                       schema->columns()[i].name);
      }
    }
    if (!provided[schema->ts_index()] ||
        row[schema->ts_index()].AsInt() == wire::kOmittedTimestamp) {
      row[schema->ts_index()] = Value::Ts(now);
    }
    rows.push_back(std::move(row));
  }
  LT_RETURN_IF_ERROR(backend_->Insert(stmt.table, rows));
  ResultSet rs;
  rs.rows_affected = rows.size();
  return rs;
}

Result<ResultSet> SqlSession::ExecuteSelect(const SelectStmt& stmt) {
  const Timestamp select_start = MonotonicMicros();
  LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                      backend_->GetSchema(stmt.table));
  const Timestamp now = backend_->Now();

  // ---- Bind WHERE conditions. ----
  std::vector<BoundCondition> conds;
  for (const Condition& c : stmt.where) {
    int idx = schema->FindColumn(c.column);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + c.column);
    const Column& col = schema->columns()[idx];
    LT_ASSIGN_OR_RETURN(Value v, c.value.Bind(col.type, now, col.default_value));
    conds.push_back(BoundCondition{static_cast<size_t>(idx), c.op, std::move(v)});
  }

  // ---- Plan the 2-D bounding box. ----
  QueryBounds bounds;
  bounds.direction =
      stmt.order_descending ? Direction::kDescending : Direction::kAscending;

  // Timestamp dimension: every ts condition narrows the box. A tighter
  // endpoint replaces both the value and the inclusive flag; at an equal
  // value the exclusive one is tighter. The box is then exactly the ts
  // conditions' conjunction (`!=` aside), so they need no row filter.
  const size_t ts_idx = schema->ts_index();
  auto raise_min = [&](Timestamp v, bool inclusive) {
    if (v > bounds.min_ts || (v == bounds.min_ts && !inclusive)) {
      bounds.min_ts = v;
      bounds.min_ts_inclusive = inclusive;
    }
  };
  auto lower_max = [&](Timestamp v, bool inclusive) {
    if (v < bounds.max_ts || (v == bounds.max_ts && !inclusive)) {
      bounds.max_ts = v;
      bounds.max_ts_inclusive = inclusive;
    }
  };
  // absorbed[i]: the box enforces conds[i] exactly.
  std::vector<bool> absorbed(conds.size(), false);
  for (size_t i = 0; i < conds.size(); i++) {
    const BoundCondition& c = conds[i];
    if (c.column_index != ts_idx || c.op == CompareOp::kNe) continue;
    const Timestamp v = c.value.AsInt();
    switch (c.op) {
      case CompareOp::kEq:
        raise_min(v, true);
        lower_max(v, true);
        break;
      case CompareOp::kGe: raise_min(v, true); break;
      case CompareOp::kGt: raise_min(v, false); break;
      case CompareOp::kLe: lower_max(v, true); break;
      case CompareOp::kLt: lower_max(v, false); break;
      case CompareOp::kNe: break;
    }
    absorbed[i] = true;
  }

  // Key dimension: equality run over leading key columns, then one range
  // column.
  Key prefix;
  size_t key_col = 0;
  while (key_col + 1 < schema->num_key_columns()) {  // ts handled above.
    size_t eq = conds.size();
    for (size_t i = 0; i < conds.size(); i++) {
      if (conds[i].column_index == key_col && conds[i].op == CompareOp::kEq) {
        eq = i;
        break;
      }
    }
    if (eq == conds.size()) break;
    prefix.push_back(conds[eq].value);
    absorbed[eq] = true;
    key_col++;
  }
  KeyBound min_kb{prefix, true}, max_kb{prefix, true};
  bool has_min = !prefix.empty(), has_max = !prefix.empty();
  // One range condition per side on the first non-equality key column (it
  // has no equality, or the run above would have taken it).
  if (key_col + 1 < schema->num_key_columns()) {
    for (size_t i = 0; i < conds.size(); i++) {
      const BoundCondition& c = conds[i];
      if (c.column_index != key_col) continue;
      switch (c.op) {
        case CompareOp::kGe:
        case CompareOp::kGt:
          if (min_kb.prefix.size() == prefix.size()) {
            min_kb.prefix.push_back(c.value);
            min_kb.inclusive = c.op == CompareOp::kGe;
            has_min = true;
            absorbed[i] = true;
          }
          break;
        case CompareOp::kLe:
        case CompareOp::kLt:
          if (max_kb.prefix.size() == prefix.size()) {
            max_kb.prefix.push_back(c.value);
            max_kb.inclusive = c.op == CompareOp::kLe;
            has_max = true;
            absorbed[i] = true;
          }
          break;
        case CompareOp::kEq:
        case CompareOp::kNe:
          break;
      }
    }
  }
  if (has_min) bounds.min_key = min_kb;
  if (has_max) bounds.max_key = max_kb;

  const bool has_aggregates =
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& i) { return i.func != AggFunc::kNone; });

  // The row filter: the conditions the box does not enforce exactly.
  std::vector<BoundCondition> filters;
  for (size_t i = 0; i < conds.size(); i++) {
    if (!absorbed[i]) filters.push_back(conds[i]);
  }

  // Limit pushdown is only safe when no row filter can drop rows and no
  // aggregation consumes them.
  if (stmt.limit > 0 && filters.empty() && !has_aggregates) {
    bounds.limit = stmt.limit;
  }

  // ---- Validate the projection. ----
  if (!has_aggregates && !stmt.group_by.empty()) {
    return Status::InvalidArgument("GROUP BY requires aggregate functions");
  }
  std::vector<int> group_cols;
  for (const std::string& g : stmt.group_by) {
    int idx = schema->FindColumn(g);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + g);
    // Streaming GROUP BY relies on key order: the group columns must be a
    // leading run of the primary key.
    if (static_cast<size_t>(idx) != group_cols.size() ||
        static_cast<size_t>(idx) >= schema->num_key_columns()) {
      return Status::NotSupported(
          "GROUP BY columns must be a prefix of the primary key");
    }
    group_cols.push_back(idx);
  }
  if (has_aggregates) {
    for (const SelectItem& item : stmt.items) {
      if (item.func != AggFunc::kNone) continue;
      int idx = schema->FindColumn(item.column);
      if (item.star || idx < 0 ||
          std::find(group_cols.begin(), group_cols.end(), idx) ==
              group_cols.end()) {
        return Status::InvalidArgument(
            "non-aggregate select items must appear in GROUP BY");
      }
    }
  }

  // ---- Projection pushdown. ----
  // Unless some item is a plain `*`, the statement only reads the selected
  // columns plus every WHERE and GROUP BY column — hand the engine that set
  // so columnar tablets skip decoding everything else. COUNT(*) consumes no
  // value columns at all; key columns always materialize (the engine needs
  // them for bounds and ordering), so they anchor the otherwise-empty set.
  bool needs_all_columns = false;
  std::vector<uint32_t> referenced;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      if (item.func == AggFunc::kNone) needs_all_columns = true;
      continue;
    }
    int idx = schema->FindColumn(item.column);
    if (idx >= 0) referenced.push_back(static_cast<uint32_t>(idx));
  }
  for (const BoundCondition& c : filters) {
    referenced.push_back(static_cast<uint32_t>(c.column_index));
  }
  for (int g : group_cols) referenced.push_back(static_cast<uint32_t>(g));
  if (!needs_all_columns) {
    if (referenced.empty()) {
      referenced.push_back(static_cast<uint32_t>(ts_idx));
    }
    std::sort(referenced.begin(), referenced.end());
    referenced.erase(std::unique(referenced.begin(), referenced.end()),
                     referenced.end());
    bounds.projection = std::move(referenced);
  }

  // ---- Fetch and post-process. ----
  ResultSet rs;
  std::vector<Row> raw;
  LT_RETURN_IF_ERROR(backend_->QueryAll(stmt.table, bounds, &raw, &rs.trace));

  // Statement-level trace fields: the engine reports what it scanned; the
  // executor reports what the statement actually produced after filtering,
  // projection, and aggregation.
  auto finish_trace = [&]() {
    rs.trace.rows_returned = rs.rows.size();
    rs.trace.elapsed_micros = MonotonicMicros() - select_start;
  };
  if (!has_aggregates) {
    // Plain projection.
    std::vector<int> proj;
    for (const SelectItem& item : stmt.items) {
      if (item.star) {
        for (size_t i = 0; i < schema->num_columns(); i++) {
          proj.push_back(static_cast<int>(i));
          rs.columns.push_back(schema->columns()[i].name);
          rs.types.push_back(schema->columns()[i].type);
        }
      } else {
        int idx = schema->FindColumn(item.column);
        if (idx < 0) {
          return Status::InvalidArgument("unknown column: " + item.column);
        }
        proj.push_back(idx);
        rs.columns.push_back(item.column);
        rs.types.push_back(schema->columns()[idx].type);
      }
    }
    for (const Row& row : raw) {
      if (!RowPasses(row, filters)) continue;
      Row out;
      out.reserve(proj.size());
      for (int idx : proj) out.push_back(row[idx]);
      rs.rows.push_back(std::move(out));
      if (stmt.limit > 0 && rs.rows.size() >= stmt.limit) break;
    }
    finish_trace();
    return rs;
  }

  // ---- Aggregation (streaming over the key-sorted rows). ----
  struct ItemPlan {
    AggFunc func;
    int column = -1;  // Column index; -1 for COUNT(*).
    bool is_double = false;
  };
  std::vector<ItemPlan> plans;
  for (const SelectItem& item : stmt.items) {
    ItemPlan plan;
    plan.func = item.func;
    rs.columns.push_back(item.DisplayName());
    if (item.func == AggFunc::kNone) {
      plan.column = schema->FindColumn(item.column);
      rs.types.push_back(schema->columns()[plan.column].type);
    } else if (item.star) {
      rs.types.push_back(ColumnType::kInt64);  // COUNT(*).
    } else {
      plan.column = schema->FindColumn(item.column);
      if (plan.column < 0) {
        return Status::InvalidArgument("unknown column: " + item.column);
      }
      ColumnType ct = schema->columns()[plan.column].type;
      plan.is_double = ct == ColumnType::kDouble;
      if ((item.func == AggFunc::kSum || item.func == AggFunc::kAvg) &&
          (ct == ColumnType::kString || ct == ColumnType::kBlob)) {
        return Status::InvalidArgument("SUM/AVG require a numeric column");
      }
      switch (item.func) {
        case AggFunc::kCount:
          rs.types.push_back(ColumnType::kInt64);
          break;
        case AggFunc::kAvg:
          rs.types.push_back(ColumnType::kDouble);
          break;
        case AggFunc::kSum:
          rs.types.push_back(plan.is_double ? ColumnType::kDouble
                                            : ColumnType::kInt64);
          break;
        default:
          rs.types.push_back(ct);
      }
    }
    plans.push_back(plan);
  }

  // Rows stream through in key order and the group columns are the
  // leading key columns 0..g-1, so a group is a run of rows equal on them.
  // The current group is its first row in `raw`, compared in place.
  const size_t num_group_cols = group_cols.size();
  auto same_group = [num_group_cols](const Row& a, const Row& b) {
    for (size_t c = num_group_cols; c-- > 0;) {  // The last varies most.
      if (a[c].Compare(b[c]) != 0) return false;
    }
    return true;
  };
  std::vector<AggState> states(plans.size());
  const Row* group = nullptr;
  uint64_t group_rows = 0;

  auto emit_group = [&]() {
    Row out;
    out.reserve(plans.size());
    for (size_t i = 0; i < plans.size(); i++) {
      const ItemPlan& plan = plans[i];
      const AggState& st = states[i];
      switch (plan.func) {
        case AggFunc::kNone:
          out.push_back((*group)[plan.column]);
          break;
        case AggFunc::kCount:  // No NULLs: COUNT(col) counts every row.
          out.push_back(Value::Int64(static_cast<int64_t>(group_rows)));
          break;
        case AggFunc::kSum:
          out.push_back(plan.is_double ? Value::Double(st.dbl_sum)
                                       : Value::Int64(st.int_sum));
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:  // Over no rows: the column type's default.
          out.push_back(st.extreme ? *st.extreme
                                   : DefaultValueFor(rs.types[i]));
          break;
        case AggFunc::kAvg: {
          double total = plan.is_double ? st.dbl_sum
                                        : static_cast<double>(st.int_sum);
          out.push_back(
              Value::Double(group_rows == 0 ? 0.0 : total / group_rows));
          break;
        }
      }
    }
    rs.rows.push_back(std::move(out));
    std::fill(states.begin(), states.end(), AggState());
    group_rows = 0;
  };

  for (const Row& row : raw) {
    if (!RowPasses(row, filters)) continue;
    if (group != nullptr && !same_group(row, *group)) {
      emit_group();
      if (stmt.limit > 0 && rs.rows.size() >= stmt.limit) {
        group = nullptr;  // Stop before the group past the limit.
        break;
      }
    }
    if (group_rows == 0) group = &row;
    group_rows++;
    for (size_t i = 0; i < plans.size(); i++) {
      const ItemPlan& plan = plans[i];
      AggState& st = states[i];
      switch (plan.func) {
        case AggFunc::kSum:
        case AggFunc::kAvg:
          if (plan.is_double) {
            st.dbl_sum += row[plan.column].dbl();
          } else {
            // Two's-complement wrap, not signed-overflow UB.
            st.int_sum = static_cast<int64_t>(
                static_cast<uint64_t>(st.int_sum) +
                static_cast<uint64_t>(row[plan.column].AsInt()));
          }
          break;
        case AggFunc::kMin:
        case AggFunc::kMax: {
          const Value& v = row[plan.column];
          if (st.extreme == nullptr ||
              (plan.func == AggFunc::kMin ? v.Compare(*st.extreme) < 0
                                          : v.Compare(*st.extreme) > 0)) {
            st.extreme = &v;
          }
          break;
        }
        case AggFunc::kNone:
        case AggFunc::kCount:
          break;
      }
    }
  }
  if (group != nullptr) {
    emit_group();
  } else if (group_cols.empty() && rs.rows.empty()) {
    // Global aggregates (no GROUP BY) emit a row even for empty input;
    // grouped aggregates emit one row per observed group.
    emit_group();
  }
  finish_trace();
  return rs;
}

}  // namespace sql
}  // namespace lt
