#include "gen/workloads.h"

#include <algorithm>
#include <random>
#include <set>

#include "constraints/constraint_parser.h"
#include "logic/formula_parser.h"
#include "relational/fact_parser.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace opcqa {
namespace gen {

namespace {

// Builds a workload from schema declarations + textual facts/constraints.
// All fixture/generator code funnels through here so parsing is exercised
// constantly.
Workload Build(std::shared_ptr<Schema> schema, std::string_view facts,
               std::string_view constraints) {
  Result<Database> db = ParseDatabase(*schema, facts);
  OPCQA_CHECK(db.ok()) << db.status().ToString();
  Result<ConstraintSet> sigma = ParseConstraints(*schema, constraints);
  OPCQA_CHECK(sigma.ok()) << sigma.status().ToString();
  return Workload{std::move(schema), std::move(db).value(),
                  std::move(sigma).value()};
}

}  // namespace

Workload PaperPreferenceExample() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("Pref", 2);
  return Build(schema,
               "Pref(a,b). Pref(a,c). Pref(a,d). "
               "Pref(b,a). Pref(b,d). Pref(c,a).",
               "nosym: Pref(x,y), Pref(y,x) -> false");
}

Workload PaperExample1() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("S", 3);
  schema->AddRelation("T", 2);
  return Build(schema, "R(a,b). R(a,c). T(a,b).",
               "sigma: R(x,y) -> exists z: S(x,y,z)\n"
               "eta: R(x,y), R(x,z) -> y = z");
}

Workload PaperExample2() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("S", 3);
  schema->AddRelation("T", 2);
  return Build(schema, "R(a,b). R(a,c). T(a,b).",
               "sigma: T(x,y) -> R(x,y)\n"
               "eta: R(x,y), R(x,z) -> y = z");
}

Workload PaperFailingExample() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 1);
  schema->AddRelation("T", 1);
  return Build(schema, "R(a).",
               "grow: R(x) -> T(x)\n"
               "deny: T(x) -> false");
}

Workload PaperKeyPairExample() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  return Build(schema, "R(a,b). R(a,c).", "key: R(x,y), R(x,z) -> y = z");
}

Workload TinyInclusionExample() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("U", 1);
  schema->AddRelation("V", 1);
  return Build(schema, "U(a).", "incl: U(x) -> V(x)");
}

Workload MakePreferenceWorkload(size_t products, size_t edges,
                                double conflict_fraction, uint64_t seed) {
  OPCQA_CHECK_GE(products, 2u);
  auto schema = std::make_shared<Schema>();
  PredId pref = schema->AddRelation("Pref", 2);
  Database db(schema.get());
  Rng rng(seed);
  std::set<std::pair<size_t, size_t>> used;
  auto product = [](size_t i) { return Const(StrCat("p", i)); };
  size_t attempts = 0;
  while (used.size() < edges && attempts < edges * 50) {
    ++attempts;
    size_t u = rng.UniformInt(products);
    size_t v = rng.UniformInt(products);
    if (u == v) continue;
    // Never create a symmetric conflict by accident — conflicts are
    // injected explicitly below so that conflict_fraction = 0 yields a
    // consistent instance.
    if (used.count({v, u}) > 0) continue;
    if (!used.emplace(u, v).second) continue;
    db.Insert(Fact(pref, {product(u), product(v)}));
    // With the given probability also insert the symmetric conflict edge.
    if (rng.UniformDouble() < conflict_fraction &&
        used.emplace(v, u).second) {
      db.Insert(Fact(pref, {product(v), product(u)}));
    }
  }
  Result<ConstraintSet> sigma =
      ParseConstraints(*schema, "nosym: Pref(x,y), Pref(y,x) -> false");
  OPCQA_CHECK(sigma.ok());
  return Workload{std::move(schema), std::move(db),
                  std::move(sigma).value()};
}

Workload MakeKeyViolationWorkload(size_t keys, size_t violating_keys,
                                  size_t group_size, uint64_t seed) {
  OPCQA_CHECK_LE(violating_keys, keys);
  OPCQA_CHECK_GE(group_size, 2u);
  auto schema = std::make_shared<Schema>();
  PredId r = schema->AddRelation("R", 2);
  Database db(schema.get());
  Rng rng(seed);
  (void)rng;  // key/value layout is deterministic; rng reserved for shuffles
  for (size_t k = 0; k < keys; ++k) {
    ConstId key = Const(StrCat("k", k));
    size_t copies = k < violating_keys ? group_size : 1;
    for (size_t i = 0; i < copies; ++i) {
      db.Insert(Fact(r, {key, Const(StrCat("v", k, "_", i))}));
    }
  }
  Result<ConstraintSet> sigma =
      ParseConstraints(*schema, "key: R(x,y), R(x,z) -> y = z");
  OPCQA_CHECK(sigma.ok());
  return Workload{std::move(schema), std::move(db),
                  std::move(sigma).value()};
}

TrustWorkload MakeTrustWorkload(size_t keys, size_t violating_keys,
                                size_t group_size, uint64_t seed) {
  TrustWorkload result;
  result.workload =
      MakeKeyViolationWorkload(keys, violating_keys, group_size, seed);
  Rng rng(seed ^ 0x5eedULL);
  for (const Fact& fact : result.workload.db.AllFacts()) {
    int64_t tenths = 1 + static_cast<int64_t>(rng.UniformInt(9));
    result.trust.emplace(fact, Rational(tenths, 10));
  }
  return result;
}

Workload MakeInclusionWorkload(size_t r_facts, double missing_fraction,
                               uint64_t seed) {
  auto schema = std::make_shared<Schema>();
  PredId r = schema->AddRelation("R", 2);
  PredId s = schema->AddRelation("S", 2);
  Database db(schema.get());
  Rng rng(seed);
  for (size_t i = 0; i < r_facts; ++i) {
    ConstId x = Const(StrCat("x", i));
    ConstId y = Const(StrCat("y", i));
    db.Insert(Fact(r, {x, y}));
    if (rng.UniformDouble() >= missing_fraction) {
      db.Insert(Fact(s, {y, Const(StrCat("w", i))}));
    }
  }
  Result<ConstraintSet> sigma =
      ParseConstraints(*schema, "incl: R(x,y) -> exists z: S(y,z)");
  OPCQA_CHECK(sigma.ok());
  return Workload{std::move(schema), std::move(db),
                  std::move(sigma).value()};
}

Workload MakeDenialWorkload(uint64_t seed) {
  std::mt19937_64 rng(seed * 7919 + 11);
  auto below = [&](size_t bound) {
    return static_cast<size_t>(rng() % bound);
  };
  bool big = seed % 4 == 0;
  std::string facts;
  size_t groups = big ? 1 : 2 + below(2);
  for (size_t g = 0; g < groups; ++g) {
    // Only the first of two groups beside no big component may reach 4.
    size_t size = 1 + below(g == 0 && !big && groups == 2 ? 4 : 2);
    for (size_t i = 0; i < size; ++i) {
      std::string value = "v" + std::to_string(g) + "_" + std::to_string(i);
      facts += "R(k" + std::to_string(g) + "," + value + "). ";
      if (below(6) == 0) facts += "S(" + value + ",s). ";
    }
  }
  if (big) {
    // A path of five violations: key, denial, denial, key, denial.
    facts +=
        "R(p,b0). R(p,b1). S(b1,t). R(q,b1). R(q,b2). S(b2,t). ";
  }
  for (size_t i = below(3); i > 0; --i) {
    facts += "S(free" + std::to_string(i) + ",u). ";
  }
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("S", 2);
  Result<Database> db = ParseDatabase(*schema, facts);
  Result<ConstraintSet> constraints = ParseConstraints(
      *schema, "key: R(x,y), R(x,z) -> y = z\nR(x,y), S(y,z) -> false\n");
  OPCQA_CHECK(db.ok() && constraints.ok());
  return Workload{schema, std::move(db).value(),
                  std::move(constraints).value()};
}

Workload MakeJoinWorkload(size_t rows, size_t violating_keys, uint64_t seed) {
  auto schema = std::make_shared<Schema>();
  PredId r = schema->AddRelation("R", 2);
  PredId s = schema->AddRelation("S", 2);
  PredId t = schema->AddRelation("T", 2);
  Database db(schema.get());
  Rng rng(seed);
  auto fill = [&](PredId pred, const char* prefix_left,
                  const char* prefix_right) {
    for (size_t i = 0; i < rows; ++i) {
      ConstId left = Const(StrCat(prefix_left, i));
      // Chain joins: the right value of R matches the left value of S, etc.
      ConstId right = Const(StrCat(prefix_right, rng.UniformInt(rows)));
      db.Insert(Fact(pred, {left, right}));
      if (i < violating_keys) {
        // A second, conflicting tuple for the same key.
        db.Insert(Fact(
            pred, {left, Const(StrCat(prefix_right, rng.UniformInt(rows)))}));
      }
    }
  };
  fill(r, "a", "b");
  fill(s, "b", "c");
  fill(t, "c", "d");
  Result<ConstraintSet> sigma = ParseConstraints(
      *schema,
      "keyR: R(x,y), R(x,z) -> y = z\n"
      "keyS: S(x,y), S(x,z) -> y = z\n"
      "keyT: T(x,y), T(x,z) -> y = z");
  OPCQA_CHECK(sigma.ok());
  return Workload{std::move(schema), std::move(db),
                  std::move(sigma).value()};
}

namespace {

/// Shared scaffolding of the SAT gadgets: schema, Assign pairs with the
/// value key, and the Clause/Lit encoding of the given clause list. A
/// clause is a list of (variable index, sign) literals.
SatWorkload BuildSatWorkload(
    size_t vars, const std::vector<std::vector<std::pair<size_t, bool>>>&
                     clauses) {
  auto schema = std::make_shared<Schema>();
  PredId assign = schema->AddRelation("Assign", 2);
  PredId clause_rel = schema->AddRelation("Clause", 1);
  PredId lit = schema->AddRelation("Lit", 3);

  Database db(schema.get());
  for (size_t v = 0; v < vars; ++v) {
    ConstId var = Const(StrCat("var", v));
    db.Insert(Fact(assign, {var, Const("0")}));
    db.Insert(Fact(assign, {var, Const("1")}));
  }
  for (size_t c = 0; c < clauses.size(); ++c) {
    ConstId clause = Const(StrCat("cl", c));
    db.Insert(Fact(clause_rel, {clause}));
    for (const auto& [v, sign] : clauses[c]) {
      OPCQA_CHECK_LT(v, vars);
      db.Insert(Fact(
          lit, {clause, Const(StrCat("var", v)), Const(sign ? "1" : "0")}));
    }
  }
  Result<ConstraintSet> sigma = ParseConstraints(
      *schema, "value: Assign(x,y), Assign(x,z) -> y = z");
  OPCQA_CHECK(sigma.ok());

  SatWorkload result;
  result.workload = Workload{std::move(schema), std::move(db),
                             std::move(sigma).value()};
  result.num_vars = vars;
  result.num_clauses = clauses.size();
  return result;
}

}  // namespace

SatWorkload MakePlantedSatWorkload(size_t vars, size_t clauses,
                                   uint64_t seed) {
  OPCQA_CHECK_GE(vars, 3u) << "3-SAT clauses need at least 3 variables";
  Rng rng(seed);
  std::map<size_t, bool> assignment;
  for (size_t v = 0; v < vars; ++v) assignment[v] = rng.Bernoulli(0.5);

  std::vector<std::vector<std::pair<size_t, bool>>> clause_list;
  clause_list.reserve(clauses);
  for (size_t c = 0; c < clauses; ++c) {
    // Three distinct variables.
    std::set<size_t> chosen;
    while (chosen.size() < 3) chosen.insert(rng.UniformInt(vars));
    std::vector<std::pair<size_t, bool>> clause;
    for (size_t v : chosen) clause.emplace_back(v, rng.Bernoulli(0.5));
    // Plant satisfiability: force one literal true under the assignment.
    size_t witness = rng.UniformInt(3);
    clause[witness].second = assignment[clause[witness].first];
    clause_list.push_back(std::move(clause));
  }
  SatWorkload result = BuildSatWorkload(vars, clause_list);
  result.planted_assignment = std::move(assignment);
  return result;
}

SatWorkload MakeUnsatWorkload(size_t vars) {
  OPCQA_CHECK(vars >= 1 && vars <= 3) << "unsat gadget supports 1..3 vars";
  std::vector<std::vector<std::pair<size_t, bool>>> clause_list;
  for (size_t mask = 0; mask < (size_t{1} << vars); ++mask) {
    std::vector<std::pair<size_t, bool>> clause;
    for (size_t v = 0; v < vars; ++v) {
      // The clause falsified exactly by `mask`: literal asks for the
      // opposite of mask's bit.
      clause.emplace_back(v, (mask & (size_t{1} << v)) == 0);
    }
    clause_list.push_back(std::move(clause));
  }
  return BuildSatWorkload(vars, clause_list);
}

Query SatQuery(const Workload& workload) {
  Result<Query> q = ParseQuery(
      *workload.schema,
      "Q() := forall x1 (not Clause(x1) or "
      "exists x2 (exists x3 (Lit(x1,x2,x3), Assign(x2,x3))))");
  OPCQA_CHECK(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

}  // namespace gen
}  // namespace opcqa
