#include "sql/exact_runner.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "constraints/constraint_parser.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "util/string_util.h"

namespace opcqa {
namespace sql {

namespace {

/// One EGD per non-key position of `key`: the two atoms share a variable
/// at every key position and assert equality position-wise elsewhere —
/// the textbook functional-dependency encoding, routed through the
/// constraint parser so it stays in lockstep with the repair core.
Status AppendKeyEgds(const Schema& schema, const TableKey& key,
                     ConstraintSet* constraints) {
  PredId pred = schema.FindRelation(key.table);
  if (pred == Schema::kNotFound) {
    return Status::NotFound("unknown table in keys: " + key.table);
  }
  size_t arity = schema.Arity(pred);
  if (key.key_positions.empty()) {
    return Status::InvalidArgument("empty key position list for " +
                                   key.table);
  }
  std::vector<bool> is_key(arity, false);
  for (size_t position : key.key_positions) {
    if (position >= arity) {
      return Status::OutOfRange("key position out of range for " +
                                key.table + ": " +
                                std::to_string(position));
    }
    is_key[position] = true;
  }
  auto atom = [&](char nonkey_prefix) {
    std::string text = key.table + "(";
    for (size_t i = 0; i < arity; ++i) {
      if (i > 0) text += ',';
      text += is_key[i] ? "x" + std::to_string(i)
                        : nonkey_prefix + std::to_string(i);
    }
    return text + ")";
  };
  for (size_t j = 0; j < arity; ++j) {
    if (is_key[j]) continue;
    std::string text = "key_" + key.table + "_" + std::to_string(j) + ": " +
                       atom('y') + ", " + atom('z') + " -> y" +
                       std::to_string(j) + " = z" + std::to_string(j);
    Result<Constraint> constraint = ParseConstraint(schema, text);
    if (!constraint.ok()) return constraint.status();
    constraints->push_back(std::move(constraint.value()));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// SQL → conjunctive-query bridge (the planner's front door for SQL).
//
// The translatable slice is one SELECT block over base tables whose WHERE
// is a conjunction of equalities — exactly the statements that are
// self-join-free CQs when no table repeats. Set operations, derived
// tables, aggregates, grouping, non-equality predicates and constant
// output columns all decline translation (the caller falls back to the
// walk, which handles the full fragment).
// ---------------------------------------------------------------------

/// A column slot: (FROM-item index, column position).
struct Slot {
  size_t item = 0;
  size_t position = 0;
  auto operator<=>(const Slot&) const = default;
};

/// Union-find over slots with an optional constant per class.
class SlotClasses {
 public:
  explicit SlotClasses(const std::vector<size_t>& arities) {
    for (size_t i = 0; i < arities.size(); ++i) {
      for (size_t j = 0; j < arities[i]; ++j) {
        size_t id = ids_.size();
        index_[Slot{i, j}] = id;
        ids_.push_back(id);
        constants_.emplace_back();
      }
    }
  }

  size_t Find(size_t id) {
    while (ids_[id] != id) id = ids_[id] = ids_[ids_[id]];
    return id;
  }
  size_t Of(const Slot& slot) { return Find(index_.at(slot)); }

  /// Merges two classes; false on a constant clash (unsatisfiable WHERE).
  bool Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return true;
    if (constants_[a] && constants_[b] && *constants_[a] != *constants_[b]) {
      return false;
    }
    if (!constants_[a]) constants_[a] = constants_[b];
    ids_[b] = a;
    return true;
  }
  /// Pins a class to a constant; false on a clash.
  bool Pin(size_t id, ConstId value) {
    id = Find(id);
    if (constants_[id] && *constants_[id] != value) return false;
    constants_[id] = value;
    return true;
  }
  const std::optional<ConstId>& ConstantOf(size_t id) {
    return constants_[Find(id)];
  }

 private:
  std::map<Slot, size_t> index_;
  std::vector<size_t> ids_;
  std::vector<std::optional<ConstId>> constants_;
};

/// Flattens a WHERE tree into kEq comparisons; false when anything else
/// (OR, NOT, non-equality) appears.
bool CollectEqualities(const ConditionPtr& condition,
                       std::vector<const Condition*>* out) {
  if (condition == nullptr) return true;
  switch (condition->kind) {
    case Condition::Kind::kCompare:
      if (condition->op != CompareOp::kEq) return false;
      out->push_back(condition.get());
      return true;
    case Condition::Kind::kAnd:
      for (const ConditionPtr& child : condition->children) {
        if (!CollectEqualities(child, out)) return false;
      }
      return true;
    default:
      return false;
  }
}

/// Translates `statement` into a conjunctive Query over `schema`, or
/// declines with a reason. Translation never guesses: ambiguous column
/// references and constant output columns decline rather than risk a
/// resolution that differs from the executor's.
std::optional<Query> TranslateToConjunctive(const Statement& statement,
                                            const Schema& schema,
                                            std::string* why) {
  if (statement.kind != Statement::Kind::kSelect) {
    *why = "set operations";
    return std::nullopt;
  }
  const SelectCore& core = statement.select;
  if (!core.group_by.empty()) {
    *why = "GROUP BY";
    return std::nullopt;
  }
  for (const SelectItem& item : core.items) {
    if (item.agg != AggregateFn::kNone) {
      *why = "aggregates";
      return std::nullopt;
    }
    if (!item.operand.is_column()) {
      *why = "literal SELECT item";
      return std::nullopt;
    }
  }
  std::vector<PredId> preds;
  std::vector<size_t> arities;
  for (const FromItem& item : core.from) {
    if (item.is_derived()) {
      *why = "derived tables";
      return std::nullopt;
    }
    PredId pred = schema.FindRelation(item.table);
    if (pred == Schema::kNotFound) {
      *why = StrCat("unknown table ", item.table);
      return std::nullopt;
    }
    preds.push_back(pred);
    arities.push_back(schema.Arity(pred));
  }

  // Resolve a column operand to its slot. Catalog::FromDatabase names
  // columns c0, c1, …; an unqualified name must match exactly one alias.
  auto resolve = [&](const Operand& operand) -> std::optional<Slot> {
    std::optional<Slot> found;
    for (size_t i = 0; i < core.from.size(); ++i) {
      if (!operand.table.empty() && operand.table != core.from[i].alias) {
        continue;
      }
      for (size_t j = 0; j < arities[i]; ++j) {
        if (operand.column != StrCat("c", j)) continue;
        if (found.has_value()) return std::nullopt;  // ambiguous
        found = Slot{i, j};
      }
    }
    return found;
  };

  SlotClasses classes(arities);
  std::vector<const Condition*> equalities;
  if (!CollectEqualities(core.where, &equalities)) {
    *why = "WHERE is not a conjunction of equalities";
    return std::nullopt;
  }
  for (const Condition* eq : equalities) {
    const Operand& lhs = eq->lhs;
    const Operand& rhs = eq->rhs;
    bool ok = true;
    if (lhs.is_column() && rhs.is_column()) {
      std::optional<Slot> a = resolve(lhs), b = resolve(rhs);
      if (!a || !b) {
        *why = "unresolvable column in WHERE";
        return std::nullopt;
      }
      ok = classes.Union(classes.Of(*a), classes.Of(*b));
    } else if (lhs.is_column() || rhs.is_column()) {
      const Operand& column = lhs.is_column() ? lhs : rhs;
      const Operand& literal = lhs.is_column() ? rhs : lhs;
      std::optional<Slot> slot = resolve(column);
      if (!slot) {
        *why = "unresolvable column in WHERE";
        return std::nullopt;
      }
      ok = classes.Pin(classes.Of(*slot), Const(literal.literal));
    } else if (lhs.literal != rhs.literal) {
      ok = false;
    }
    if (!ok) {
      *why = "unsatisfiable WHERE equalities";
      return std::nullopt;
    }
  }

  // One variable per (non-constant) class, named after its root slot.
  auto term_of = [&](const Slot& slot) {
    size_t root = classes.Of(slot);
    const std::optional<ConstId>& constant = classes.ConstantOf(root);
    if (constant.has_value()) return Term::MakeConst(*constant);
    return Term::MakeVar(Var(StrCat("sq", root)));
  };

  Conjunction body;
  for (size_t i = 0; i < core.from.size(); ++i) {
    std::vector<Term> terms;
    for (size_t j = 0; j < arities[i]; ++j) {
      terms.push_back(term_of(Slot{i, j}));
    }
    body.Add(Atom(preds[i], std::move(terms)));
  }

  std::vector<Operand> outputs;
  if (core.select_star) {
    for (size_t i = 0; i < core.from.size(); ++i) {
      for (size_t j = 0; j < arities[i]; ++j) {
        outputs.push_back(
            Operand::Column(core.from[i].alias, StrCat("c", j)));
      }
    }
  } else {
    for (const SelectItem& item : core.items) outputs.push_back(item.operand);
  }
  std::vector<VarId> head;
  for (const Operand& operand : outputs) {
    std::optional<Slot> slot = resolve(operand);
    if (!slot) {
      *why = StrCat("unresolvable output column ", operand.ToString());
      return std::nullopt;
    }
    Term term = term_of(*slot);
    if (!term.is_var()) {
      *why = "output column pinned to a constant";
      return std::nullopt;
    }
    // A CQ head lists distinct variables; a repeated output column (or
    // two columns equated by WHERE) would need a repeated one.
    if (std::find(head.begin(), head.end(), term.var()) != head.end()) {
      *why = StrCat("output column ", operand.ToString(),
                    " repeats head variable ", VarName(term.var()));
      return std::nullopt;
    }
    head.push_back(term.var());
  }

  std::vector<VarId> existential;
  for (VarId var : body.Variables()) {
    if (std::find(head.begin(), head.end(), var) == head.end()) {
      existential.push_back(var);
    }
  }
  FormulaPtr formula = Formula::FromConjunction(body);
  if (!existential.empty()) {
    formula = Formula::Exists(std::move(existential), std::move(formula));
  }
  return Query("CERTAIN", std::move(head), std::move(formula));
}

}  // namespace

Rational SqlExactResult::Probability(const engine::Row& row) const {
  auto it = probability.find(row);
  return it == probability.end() ? Rational(0) : it->second;
}

Result<SqlExactRunner> SqlExactRunner::Make(Database db,
                                            std::vector<TableKey> keys,
                                            engine::SessionOptions options) {
  if (keys.empty()) {
    return Status::InvalidArgument("no key constraints declared");
  }
  ConstraintSet constraints;
  for (const TableKey& key : keys) {
    Status appended = AppendKeyEgds(db.schema(), key, &constraints);
    if (!appended.ok()) return appended;
  }
  return SqlExactRunner(std::make_unique<engine::OcqaSession>(
      std::move(db), std::move(constraints), options));
}

Result<EnumerationResult> SqlExactRunner::Enumerate() {
  EnumerationResult enumeration = session_->Enumerate(generator_);
  if (enumeration.truncated) {
    return Status::ResourceExhausted(
        "chain too large for exact SQL answering");
  }
  return enumeration;
}

Result<SqlExactResult> SqlExactRunner::Run(std::string_view sql) {
  Result<StatementPtr> statement = Parse(sql);
  if (!statement.ok()) return statement.status();

  // Validate the statement (and learn its output columns) against the
  // dirty database before paying for the enumeration.
  Catalog dirty_catalog = Catalog::FromDatabase(database());
  Result<engine::Relation> dirty_run = Execute(**statement, dirty_catalog);
  if (!dirty_run.ok()) return dirty_run.status();

  Result<EnumerationResult> walked = Enumerate();
  if (!walked.ok()) return walked.status();
  const EnumerationResult& enumeration = *walked;

  SqlExactResult result;
  result.columns = dirty_run->columns();
  result.success_mass = enumeration.success_mass;
  result.failing_mass = enumeration.failing_mass;
  result.num_repairs = enumeration.repairs.size();
  result.memo_stats = enumeration.memo_stats;
  if (enumeration.success_mass.is_zero()) return result;

  for (const RepairInfo& info : enumeration.repairs) {
    Catalog catalog = Catalog::FromDatabase(
        MaterializeRepair(enumeration.initial, info));
    Result<engine::Relation> evaluated = Execute(**statement, catalog);
    if (!evaluated.ok()) return evaluated.status();
    for (const engine::Row& row : evaluated->rows()) {
      result.probability[row] += info.probability;
    }
  }
  for (auto& [row, mass] : result.probability) {
    mass /= enumeration.success_mass;
  }
  return result;
}

Result<SqlCertainResult> SqlExactRunner::RunCertain(std::string_view sql) {
  Result<StatementPtr> statement = Parse(sql);
  if (!statement.ok()) return statement.status();
  Catalog dirty_catalog = Catalog::FromDatabase(database());
  Result<engine::Relation> dirty_run = Execute(**statement, dirty_catalog);
  if (!dirty_run.ok()) return dirty_run.status();

  SqlCertainResult result;
  result.columns = dirty_run->columns();

  std::string why;
  std::optional<Query> query =
      TranslateToConjunctive(**statement, database().schema(), &why);
  if (query.has_value()) {
    Result<planner::QueryPlan> plan = session_->Plan(generator_, *query);
    if (!plan.ok()) return plan.status();  // forced-rewrite mismatch
    result.plan_reason = plan->reason;
    if (plan->kind == planner::PlanKind::kRewriting) {
      std::set<Tuple> certain =
          planner::EvaluateCertain(database(), *query, plan->rewritten);
      result.plan = planner::PlanKind::kRewriting;
      result.rows.assign(certain.begin(), certain.end());
      return result;
    }
  } else {
    result.plan_reason =
        StrCat("not translatable to a conjunctive query: ", why);
    if (session_->options().plan == planner::PlanMode::kRewrite) {
      return Status::InvalidArgument(
          StrCat("--plan=rewrite forced but the statement is ",
                 result.plan_reason));
    }
  }

  // Walk backend: certain rows = rows present in *every* operational
  // repair (intersection of per-repair row sets — set semantics, so a
  // duplicated row inside one repair cannot masquerade as certain).
  Result<EnumerationResult> walked = Enumerate();
  if (!walked.ok()) return walked.status();
  const EnumerationResult& enumeration = *walked;
  result.plan = planner::PlanKind::kMemoizedWalk;
  if (enumeration.success_mass.is_zero()) return result;

  std::set<engine::Row> certain;
  bool first = true;
  for (const RepairInfo& info : enumeration.repairs) {
    Result<engine::Relation> evaluated = Execute(
        **statement, Catalog::FromDatabase(
                         MaterializeRepair(enumeration.initial, info)));
    if (!evaluated.ok()) return evaluated.status();
    std::set<engine::Row> rows(evaluated->rows().begin(),
                               evaluated->rows().end());
    if (first) {
      certain = std::move(rows);
      first = false;
    } else {
      std::set<engine::Row> kept;
      std::set_intersection(certain.begin(), certain.end(), rows.begin(),
                            rows.end(), std::inserter(kept, kept.end()));
      certain = std::move(kept);
    }
    if (certain.empty()) break;
  }
  result.rows.assign(certain.begin(), certain.end());
  return result;
}

}  // namespace sql
}  // namespace opcqa
