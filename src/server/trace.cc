#include "server/trace.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "logic/formula_parser.h"
#include "relational/fact_parser.h"
#include "server/ocqa_server.h"
#include "util/random.h"
#include "util/string_util.h"

namespace opcqa {
namespace server {

namespace {

struct QueryTemplate {
  const char* text;
};

// Templates over the key-violation relation R(k,v): the quantifier-free
// full table (inside the planner's FO-rewritable certain fragment), and
// two existential probes over the conflicted relation (outside it — they
// keep the walk path of CertainAnswers exercised).
constexpr QueryTemplate kTemplates[] = {
    {"QAll(x,y) := R(x,y)"},
    {"QKeys(x) := exists y R(x,y)"},
    {"QBool() := exists x exists y R(x,y)"},
};
constexpr size_t kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

Query MustParse(const Schema& schema, const char* text) {
  Result<Query> query = ParseQuery(schema, text);
  OPCQA_CHECK(query.ok()) << "bad trace query template '" << text
                          << "': " << query.status().ToString();
  return *query;
}

}  // namespace

const GeneratorRegistry& BuiltinGenerators() {
  static const auto* generators = new GeneratorRegistry{
      {"uniform", std::make_shared<UniformChainGenerator>()},
      {"uniform-deletions", std::make_shared<DeletionOnlyUniformGenerator>()},
  };
  return *generators;
}

std::vector<Request> GenerateTrace(const gen::Workload& workload,
                                   const TraceSpec& spec) {
  const Schema& schema = *workload.schema;
  std::vector<Query> templates;
  templates.reserve(kNumTemplates);
  for (const QueryTemplate& t : kTemplates) {
    templates.push_back(MustParse(schema, t.text));
  }

  Rng rng(spec.seed);
  std::vector<size_t> tenant_mutations(spec.tenants, 0);
  std::vector<Request> trace;
  trace.reserve(spec.requests);
  for (size_t i = 0; i < spec.requests; ++i) {
    Request request;
    request.id = i + 1;  // id 0 = unattributed (request.h)
    size_t tenant = rng.UniformInt(spec.tenants == 0 ? 1 : spec.tenants);
    request.tenant = StrCat("t", tenant);
    request.mode = spec.mode;
    if (rng.Bernoulli(spec.write_fraction)) {
      // Alternate insert/erase of per-tenant spare facts, so every erase
      // removes the fact the tenant inserted one mutation earlier.
      size_t m = tenant_mutations[tenant]++;
      request.kind = m % 2 == 0 ? RequestKind::kInsert : RequestKind::kErase;
      request.fact_text = StrCat("R(w", tenant, "_", m / 2, ",wv)");
      Result<Fact> fact = ParseFact(schema, request.fact_text);
      OPCQA_CHECK(fact.ok()) << fact.status().ToString();
      request.fact = *fact;
      trace.push_back(std::move(request));
      continue;
    }
    request.generator = rng.Bernoulli(spec.hot_root_fraction)
                            ? "uniform-deletions"
                            : "uniform";
    request.deadline_states = spec.deadline_states;
    if (rng.Bernoulli(spec.topk_fraction)) {
      request.kind = RequestKind::kTopK;
      request.top_k = 1 + rng.UniformInt(3);
      trace.push_back(std::move(request));
      continue;
    }
    size_t which = rng.UniformInt(kNumTemplates);
    request.query = templates[which];
    request.query_text = kTemplates[which].text;
    request.kind = rng.Bernoulli(spec.certain_fraction)
                       ? RequestKind::kCertain
                       : (rng.Bernoulli(0.5) ? RequestKind::kAnswer
                                             : RequestKind::kCount);
    trace.push_back(std::move(request));
  }
  return trace;
}

std::string FormatTrace(const std::vector<Request>& requests) {
  std::string out = "# opcqa serve trace v1\n";
  for (const Request& request : requests) {
    out += request.tenant;
    out += ' ';
    out += RequestKindName(request.kind);
    out += ' ';
    out += ExecModeName(request.mode);
    out += ' ';
    switch (request.kind) {
      case RequestKind::kInsert:
      case RequestKind::kErase:
        out += StrCat("- 0 ", request.fact_text);
        break;
      case RequestKind::kTopK:
        out += StrCat(request.generator, " ", request.deadline_states, " ",
                      request.top_k);
        break;
      default:
        out += StrCat(request.generator, " ", request.deadline_states, " ",
                      request.query_text);
        break;
    }
    out += '\n';
  }
  return out;
}

Result<std::vector<Request>> ParseTrace(const Schema& schema,
                                        std::string_view text) {
  std::vector<Request> requests;
  size_t line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    // Five whitespace-separated fields, then the rest of the line.
    std::vector<std::string> fields;
    std::string rest;
    size_t pos = 0;
    while (fields.size() < 5 && pos < line.size()) {
      size_t end = line.find(' ', pos);
      if (end == std::string::npos) end = line.size();
      if (end > pos) fields.push_back(line.substr(pos, end - pos));
      pos = end + 1;
    }
    if (pos < line.size()) rest = Trim(line.substr(pos));
    if (fields.size() < 5) {
      return Status::InvalidArgument(
          StrCat("trace line ", line_no,
                 ": expected '<tenant> <kind> <mode> <generator> "
                 "<deadline> <payload>'"));
    }
    Request request;
    request.id = requests.size() + 1;  // id 0 = unattributed (request.h)
    request.tenant = fields[0];
    Result<RequestKind> kind = ParseRequestKind(fields[1]);
    if (!kind.ok()) return kind.status();
    request.kind = *kind;
    Result<ExecMode> mode = ParseExecMode(fields[2]);
    if (!mode.ok()) return mode.status();
    request.mode = *mode;
    request.generator = fields[3];
    request.deadline_states =
        static_cast<size_t>(std::strtoull(fields[4].c_str(), nullptr, 10));
    switch (request.kind) {
      case RequestKind::kInsert:
      case RequestKind::kErase: {
        Result<Fact> fact = ParseFact(schema, rest);
        if (!fact.ok()) return fact.status();
        request.fact = *fact;
        request.fact_text = rest;
        break;
      }
      case RequestKind::kTopK: {
        request.top_k =
            static_cast<size_t>(std::strtoull(rest.c_str(), nullptr, 10));
        if (request.top_k == 0) {
          return Status::InvalidArgument(
              StrCat("trace line ", line_no, ": topk needs k >= 1"));
        }
        break;
      }
      default: {
        Result<Query> query = ParseQuery(schema, rest);
        if (!query.ok()) return query.status();
        request.query = *query;
        request.query_text = rest;
        break;
      }
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

std::string RenderResponses(std::vector<Response> responses) {
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });
  std::string out;
  for (const Response& response : responses) {
    out += StrCat("#", response.id, " tenant=", response.tenant,
                  " status=", response.status.ToString(),
                  " truncated=", response.truncated ? 1 : 0, "\n");
    out += response.payload;
  }
  return out;
}

std::vector<Response> ReplaySerial(const gen::Workload& workload,
                                   const std::vector<Request>& requests,
                                   ReplayMode mode,
                                   engine::SessionOptions session_options,
                                   const GeneratorRegistry& generators) {
  session_options.shared_cache = nullptr;  // the no-server baseline
  auto find_generator = [&](const std::string& name) -> const ChainGenerator* {
    auto it = generators.find(name);
    return it == generators.end() ? nullptr : it->second.get();
  };

  std::vector<Response> responses;
  responses.reserve(requests.size());
  if (mode == ReplayMode::kSessionPerTenant) {
    std::map<std::string, std::unique_ptr<engine::OcqaSession>> sessions;
    for (const Request& request : requests) {
      std::unique_ptr<engine::OcqaSession>& session = sessions[request.tenant];
      if (session == nullptr) {
        session = std::make_unique<engine::OcqaSession>(
            workload.db, workload.constraints, session_options);
      }
      responses.push_back(ExecuteOnSession(
          *session, find_generator(request.generator), request,
          {.max_states = request.deadline_states}));
    }
    return responses;
  }
  // kSessionPerRequest: each request pays a fresh session (cold private
  // cache); only the mutated database carries over per tenant.
  std::map<std::string, Database> databases;
  for (const Request& request : requests) {
    auto it = databases.emplace(request.tenant, workload.db).first;
    engine::OcqaSession session(it->second, workload.constraints,
                                session_options);
    responses.push_back(ExecuteOnSession(
        session, find_generator(request.generator), request,
        {.max_states = request.deadline_states}));
    if (request.kind == RequestKind::kInsert ||
        request.kind == RequestKind::kErase) {
      it->second = session.database();
    }
  }
  return responses;
}

}  // namespace server
}  // namespace opcqa
