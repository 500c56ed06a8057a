#include "inputs.h"

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <utility>

#include "constraints/constraint_parser.h"
#include "relational/fact_parser.h"
#include "server/trace.h"
#include "util/logging.h"

namespace perfbench {

namespace {

using namespace opcqa;

constexpr char kSchema[] = "R/2\n";
constexpr char kKeyConstraint[] = "key: R(x,y), R(x,z) -> y = z\n";

class Draw {
 public:
  explicit Draw(uint64_t seed) : rng_(seed) {}
  size_t Below(size_t bound) { return static_cast<size_t>(rng_() % bound); }
  /// `count` distinct indices of [0, bound), in draw order.
  std::vector<size_t> Distinct(size_t bound, size_t count) {
    std::vector<size_t> all(bound);
    for (size_t i = 0; i < bound; ++i) all[i] = i;
    for (size_t i = 0; i < count; ++i) std::swap(all[i], all[i + Below(bound - i)]);
    all.resize(count);
    return all;
  }

 private:
  std::mt19937_64 rng_;
};

/// Facts R(k<i>, v) for `keys` keys, of which `conflicting` (drawn) get
/// two values and the rest one. Every value is a distinct constant with a
/// drawn name, so all databases of one shape cost the engine the same
/// work however the names fall.
std::string KeyViolationFacts(Draw& draw, size_t keys, size_t conflicting) {
  std::vector<bool> doubled(keys, false);
  for (size_t key : draw.Distinct(keys, conflicting)) doubled[key] = true;
  std::string facts;
  for (size_t k = 0; k < keys; ++k) {
    for (size_t i = 0; i < (doubled[k] ? 2u : 1u); ++i) {
      facts += "R(k" + std::to_string(k) + ",v" +
               std::to_string(draw.Below(1000000)) + "_" + std::to_string(k) +
               "_" + std::to_string(i) + "). ";
    }
  }
  facts += "\n";
  return facts;
}

/// Distinct (database, generator) chain roots the trace's reads touch —
/// each costs one chain walk however the trace is served.
size_t DistinctReadRoots(const std::vector<server::Request>& trace) {
  // A tenant's database is the base one, or the base plus the fact its
  // last unmatched insert added (inserts and erases alternate per tenant).
  std::map<std::string, size_t> inserted;  // tenant -> trace position
  std::set<std::pair<size_t, std::string>> roots;
  for (size_t i = 0; i < trace.size(); ++i) {
    const server::Request& request = trace[i];
    if (request.kind == server::RequestKind::kInsert) {
      inserted[request.tenant] = i + 1;
    } else if (request.kind == server::RequestKind::kErase) {
      inserted[request.tenant] = 0;
    } else {
      roots.emplace(inserted[request.tenant], request.generator);
    }
  }
  return roots.size();
}

}  // namespace

const std::vector<std::string>& QueryTexts() {
  static const auto* texts = new std::vector<std::string>{
      "Q(x,y) := R(x,y)",
      "Q(x) := exists y: R(x,y)",
      "Q(y) := exists x: R(x,y)",
      "Q(y) := R(k0, y)",
      "Q(y) := R(k1, y)",
      "Q(x,u) := exists y: (R(x,y), R(u,y))",
      "Q(x) := exists y: (R(x,y), R(k0, y))",
      "Q(x) := R(x, x)",
  };
  return *texts;
}

std::vector<CliMember> MakeCliFamily(uint64_t seed, size_t count) {
  Draw draw(seed ^ 0xc11fa3111ULL);
  std::vector<CliMember> family;
  for (size_t i = 0; i < count; ++i) {
    family.push_back(
        CliMember{kSchema, KeyViolationFacts(draw, 8, 6), kKeyConstraint});
  }
  return family;
}

ServeInputs MakeServeInputs(uint64_t seed, size_t requests) {
  Draw draw(seed ^ 0x5e7e1a7eULL);
  ServeInputs inputs;
  inputs.db_text = KeyViolationFacts(draw, 5, 4);
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  Result<Database> db = ParseDatabase(*schema, inputs.db_text);
  Result<ConstraintSet> constraints = ParseConstraints(*schema, kKeyConstraint);
  OPCQA_CHECK(db.ok() && constraints.ok());
  inputs.workload = gen::Workload{schema, std::move(db).value(),
                                  std::move(constraints).value()};

  server::TraceSpec spec;
  spec.tenants = 8;
  spec.requests = requests;
  spec.write_fraction = 0.10;
  spec.certain_fraction = 0.20;
  spec.topk_fraction = 0.05;
  spec.hot_root_fraction = 0.85;
  // Fresh roots are the serving cost that varies most between traces, so
  // of kTraceCandidates seeded traces keep the one with the median count.
  constexpr size_t kTraceCandidates = 15;
  std::vector<std::pair<size_t, uint64_t>> candidates;
  for (uint64_t j = 0; j < kTraceCandidates; ++j) {
    spec.seed = seed * kTraceCandidates + j;
    candidates.emplace_back(
        DistinctReadRoots(server::GenerateTrace(inputs.workload, spec)),
        spec.seed);
  }
  std::nth_element(candidates.begin(),
                   candidates.begin() + kTraceCandidates / 2,
                   candidates.end());
  spec.seed = candidates[kTraceCandidates / 2].second;
  inputs.trace = server::GenerateTrace(inputs.workload, spec);
  return inputs;
}

std::string FormatCliFamily(const std::vector<CliMember>& family) {
  std::string out;
  for (const CliMember& member : family) {
    out += member.schema + member.db + member.constraints;
  }
  return out;
}

std::string FormatServeInputs(const ServeInputs& inputs) {
  return inputs.db_text + server::FormatTrace(inputs.trace);
}

}  // namespace perfbench
