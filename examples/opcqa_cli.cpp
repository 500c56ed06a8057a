// opcqa_cli — command-line operational consistent query answering.
//
// Schema, database and constraints come from files, the query from the
// command line; answering is exact (chain enumeration), approximate
// (Theorem 9 sampling), a request-log replay through OcqaServer, or the
// Section 5 SQL scheme. Every flag is one row of kFlags below, which
// drives the parser, `opcqa_cli --help` and the missing-flag message;
// docs/KNOBS.md is the normative knob table, and CI diffs its (flag,
// default) pairs against --help.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <variant>

#include "constraints/constraint_parser.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "obs/chrome_trace.h"
#include "obs/field_table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/planner.h"
#include "relational/fact_parser.h"
#include "repair/ocqa.h"
#include "repair/priority_generator.h"
#include "repair/repair_cache.h"
#include "repair/sampler.h"
#include "server/ocqa_server.h"
#include "server/trace.h"
#include "sql/approx_runner.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace {

using namespace opcqa;

struct Options {
  std::string schema_path, db_path, constraints_path;
  std::vector<std::string> query_texts;  // answered in order
  std::string sql_text, keys_spec;
  std::string generator = "uniform", mode = "exact";
  double eps = 0.1, delta = 0.1;
  uint64_t seed = 42, threads = 1;
  bool memo = false, memo_persist = false;
  uint64_t memo_bytes = 0, memo_disk_bytes = 0;
  std::string memo_dir;  // empty = memory only
  std::string plan;  // empty = no planner
  uint64_t serve_workers = 0;
  std::string serve_trace, serve_out;  // empty serve_out = stdout
  bool serve_baseline = false, show_repairs = false, show_chain = false;
  bool metrics = false, help = false;
  std::string trace_out;
  double slow_ms = -1;  // < 0 = off
};

// The typed value parsers a flag row can carry. A bare Field picks the
// parser by type: non-empty string, repeatable string, switch (no value)
// or non-negative integer; Choice and Real add a check.
template <class T>
using Field = T Options::*;
struct Choice {
  Field<std::string> field;
  const char* values;  // accepted values, '|'-separated
};
struct Real {
  Field<double> field;
  double min = -HUGE_VAL, max = HUGE_VAL;  // finite values in range only
  bool open = false;                       // both bounds exclusive
};
using Parser = std::variant<Field<bool>, Field<uint64_t>, Field<std::string>,
                            Field<std::vector<std::string>>, Choice, Real>;

struct Flag {
  const char* name;          // without the leading "--"
  const char* value;         // --help placeholder; "" for a switch
  const char* group;         // --help section
  const char* default_text;  // exactly as docs/KNOBS.md's default column
  const char* help;
  Parser parser;
};

// Every flag of the CLI, in --help order.
const Flag kFlags[] = {
    {"schema", "FILE", "input", "required",
     "relation declarations, one Name/arity per line", &Options::schema_path},
    {"db", "FILE", "input", "required", "facts \"R(a,b).\" separated by '.'",
     &Options::db_path},
    {"constraints", "FILE", "input", "required outside --mode=sql",
     "one constraint per line, e.g. \"key: R(x,y), R(x,z) -> y = z\"",
     &Options::constraints_path},
    {"query", "TEXT", "input", "—",
     "FO query 'Q(x) := R(x,y)'; repeatable, answered in order",
     &Options::query_texts},
    {"sql", "TEXT", "input", "—",
     "(--mode=sql) SELECT statement over columns c0, c1, ...",
     &Options::sql_text},
    {"keys", "SPEC", "input", "—", "(--mode=sql) key positions 'R:0;S:0,1'",
     &Options::keys_spec},
    {"generator", "NAME", "answering", "uniform", "repair distribution",
     Choice{&Options::generator, "uniform|deletions|minchange"}},
    {"mode", "NAME", "answering", "exact",
     "answering mode (approx returns estimates)",
     Choice{&Options::mode, "exact|approx|sql"}},
    {"eps", "X", "answering", "0.1", "approx/sql additive error bound",
     Real{&Options::eps, 0, HUGE_VAL, true}},
    {"delta", "X", "answering", "0.1", "approx/sql failure probability",
     Real{&Options::delta, 0, 1, true}},
    {"seed", "N", "answering", "42", "sampling seed", &Options::seed},
    {"threads", "N", "answering", "1",
     "enumeration and sampler threads; 0 = all cores", &Options::threads},
    {"plan", "NAME", "answering", "unset",
     "exact-mode planner dispatch; rewrite errors outside the "
     "proven-coincident fragment",
     Choice{&Options::plan, "auto|walk|rewrite"}},
    {"memo", "", "repair-space cache", "off",
     "memoize shared repair-space suffixes", &Options::memo},
    {"memo-persist", "", "repair-space cache", "off",
     "share the repair space across the --query list; implies --memo",
     &Options::memo_persist},
    {"memo-bytes", "N", "repair-space cache", "0",
     "byte budget per memo table / cache root; 0 = entries-only",
     &Options::memo_bytes},
    {"memo-dir", "PATH", "repair-space cache", "unset",
     "disk tier directory; implies --memo-persist", &Options::memo_dir},
    {"memo-disk-bytes", "N", "repair-space cache", "0",
     "byte budget for --memo-dir; 0 = unbounded",
     &Options::memo_disk_bytes},
    {"serve-trace", "FILE", "serve-trace", "—",
     "replay a request log through OcqaServer (format: server/trace.h)",
     &Options::serve_trace},
    {"serve-workers", "N", "serve-trace", "0",
     "server worker threads; 0 = all cores", &Options::serve_workers},
    {"serve-out", "PATH", "serve-trace", "stdout",
     "write canonical responses to PATH", &Options::serve_out},
    {"serve-baseline", "", "serve-trace", "off",
     "serial per-tenant replay instead of the server",
     &Options::serve_baseline},
    {"metrics", "", "observability", "off",
     "print the merged metrics registry snapshot on stderr (serve mode "
     "always prints it)",
     &Options::metrics},
    {"trace-out", "FILE", "observability", "unset",
     "write a Chrome trace_event JSON of the run's spans (needs a tracing "
     "build, -DOPCQA_TRACING=ON)",
     &Options::trace_out},
    {"slow-ms", "N", "observability", "unset",
     "print the span tree of every request slower than N ms to stderr "
     "(tracing builds)",
     Real{&Options::slow_ms, 0}},
    {"show-repairs", "", "output", "off", "print the repair distribution",
     &Options::show_repairs},
    {"show-chain", "", "output", "off", "print the repairing chain tree",
     &Options::show_chain},
    {"help", "", "output", "—", "print this reference and exit 0",
     &Options::help},
};

// The three invocation shapes, as the flags each one requires ("name=x"
// entries are literal). The first applies unless --mode=sql or
// --serve-trace selects another.
const std::vector<std::vector<const char*>> kForms = {
    {"schema", "db", "constraints", "query"},
    {"schema", "db", "constraints", "serve-trace"},
    {"schema", "db", "mode=sql", "sql", "keys"},
};

const Flag* FindFlag(const std::string& name) {
  for (const Flag& flag : kFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

/// "--name=VALUE" (or "--name" for a switch, or a literal "name=x").
std::string Spell(const std::string& name) {
  const Flag* flag = FindFlag(name);
  if (flag == nullptr || *flag->value == '\0') return "--" + name;
  return "--" + name + "=" + flag->value;
}

std::string UsageLines() {
  std::vector<std::string> lines;
  for (const std::vector<const char*>& form : kForms) {
    std::string line = lines.empty() ? "usage: opcqa_cli" : "   or: opcqa_cli";
    for (const char* name : form) line += " " + Spell(name);
    lines.push_back(line + " [flags]");
  }
  return Join(lines, "\n");
}

/// "a number > 0", "a number in (0,1)", ... — Real's accepted range.
std::string Describe(const Real& real) {
  if (real.min == -HUGE_VAL) return "a number";
  if (real.max == HUGE_VAL) {
    return StrCat("a number ", real.open ? "> " : ">= ", real.min);
  }
  const char* brackets = real.open ? "()" : "[]";
  return StrCat("a number in ", brackets[0], real.min, ",", real.max,
                brackets[1]);
}

/// `text` as a whole-string decimal integer: "abc", "", "-5" or "1x" are
/// nullopt, never a silent 0 or a wrapped 2^64-5.
std::optional<uint64_t> ParseNonNegative(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || errno != 0 ||
      *end != '\0') {
    return std::nullopt;
  }
  return value;
}

/// Stores one flag value into an Options — std::visit over the row's
/// Parser; a bad value is a usage error naming the flag.
struct ApplyValue {
  const std::string& name;  // "--flag", for error messages
  const std::string& text;  // the value after '='
  Options* opt;

  Status Bad(const std::string& want) const {
    return Status::InvalidArgument(name + " must be " + want + ", got '" +
                                   text + "'");
  }
  Status operator()(Field<bool> field) const {
    opt->*field = true;
    return Status::Ok();
  }
  Status operator()(Field<std::string> field) const {
    if (text.empty()) return Bad("non-empty");
    opt->*field = text;
    return Status::Ok();
  }
  Status operator()(Field<std::vector<std::string>> field) const {
    if (text.empty()) return Bad("non-empty");
    (opt->*field).push_back(text);
    return Status::Ok();
  }
  Status operator()(Field<uint64_t> field) const {
    std::optional<uint64_t> value = ParseNonNegative(text);
    if (!value) return Bad("a non-negative integer");
    opt->*field = *value;
    return Status::Ok();
  }
  Status operator()(const Choice& choice) const {
    for (const std::string& value : Split(choice.values, '|')) {
      if (text != value) continue;
      opt->*choice.field = text;
      return Status::Ok();
    }
    return Bad(std::string("one of ") + choice.values);
  }
  Status operator()(const Real& real) const {
    char* end = nullptr;
    errno = 0;
    double value = std::strtod(text.c_str(), &end);
    bool in_range = real.open ? value > real.min && value < real.max
                              : value >= real.min && value <= real.max;
    if (text.empty() || errno != 0 || *end != '\0' || !std::isfinite(value) ||
        !in_range) {
      return Bad(Describe(real));
    }
    opt->*real.field = value;
    return Status::Ok();
  }
};

/// Applies one "--name[=value]" argument to `opt`.
Status ParseArg(const std::string& arg, Options* opt,
                std::set<std::string>* given) {
  size_t eq = arg.find('=');
  std::string name = arg.substr(0, eq);
  const Flag* flag = FindFlag(name.rfind("--", 0) == 0 ? name.substr(2) : "");
  if (flag == nullptr) {
    return Status::InvalidArgument("unknown argument: " + arg);
  }
  given->insert(flag->name);
  bool is_switch = std::holds_alternative<Field<bool>>(flag->parser);
  bool has_value = eq != std::string::npos;
  if (is_switch && has_value) {
    return Status::InvalidArgument(name + " takes no value");
  }
  if (!is_switch && !has_value) {
    return Status::InvalidArgument(name + " needs a value: " +
                                   Spell(flag->name));
  }
  std::string text = has_value ? arg.substr(eq + 1) : "";
  return std::visit(ApplyValue{name, text, opt}, flag->parser);
}

/// Parses argv into `opt`: stops at the first bad argument or at --help,
/// then checks the required flags of the selected invocation shape and
/// derives the implied flags.
Status ParseArgs(int argc, char** argv, Options* opt) {
  std::set<std::string> given;
  for (int i = 1; i < argc && !opt->help; ++i) {
    std::string arg = argv[i];
    Status parsed = ParseArg(arg == "-h" ? "--help" : arg, opt, &given);
    if (!parsed.ok()) return parsed;
  }
  if (opt->help) return Status::Ok();
  const std::vector<const char*>& form =
      kForms[opt->mode == "sql" ? 2 : given.count("serve-trace") ? 1 : 0];
  std::string missing;
  for (const char* name : form) {
    if (FindFlag(name) != nullptr && given.count(name) == 0) {
      missing += " " + Spell(name);
    }
  }
  if (!missing.empty()) {
    return Status::InvalidArgument("missing" + missing + "\n" + UsageLines());
  }
  // Checked here, before any input is read: the sampler (--mode=approx)
  // and the SQL runner (--mode=sql) size their walks from this pair.
  if ((opt->mode == "approx" || opt->mode == "sql") &&
      !(Sampler::SampleBound(opt->eps, opt->delta) <= Sampler::kMaxSamples)) {
    return Status::InvalidArgument(
        "--eps/--delta need more than 2^53 walks; raise --eps or --delta");
  }
  // A disk tier needs the persistent cache, which needs the memo.
  opt->memo_persist = opt->memo_persist || !opt->memo_dir.empty();
  opt->memo = opt->memo || opt->memo_persist;
  return Status::Ok();
}

// The complete flag reference, printed by --help (exit 0): one line per
// kFlags row, "  --name=VALUE  (default: X)  what it does".
void PrintHelp() {
  std::printf("opcqa_cli — operational consistent query answering "
              "(Calautti–Libkin–Pieris, PODS 2018)\n\n%s\n",
              UsageLines().c_str());
  std::string group;
  for (const Flag& flag : kFlags) {
    if (flag.group != group) {
      group = flag.group;
      std::printf("\n%s flags:\n", flag.group);
    }
    std::string help = flag.help;
    if (const Choice* choice = std::get_if<Choice>(&flag.parser)) {
      help = std::string(choice->values) + " — " + help;
    }
    std::printf("  %-24s (default: %s)  %s\n", Spell(flag.name).c_str(),
                flag.default_text, help.c_str());
  }
  std::printf(
      "\nexit codes: 0 = answered (degraded runs warn on stderr), 1 = hard "
      "failure, 2 = usage error\n");
}

/// The repair-space cache knobs, shared by the FO and serve-trace paths.
RepairCacheOptions CacheOptions(const Options& opt) {
  RepairCacheOptions cache;
  cache.max_bytes_per_root = opt.memo_bytes;
  cache.snapshot_dir = opt.memo_dir;
  cache.max_disk_bytes = opt.memo_disk_bytes;
  return cache;
}

/// Parses "R:0;S:0,1" into SQL table keys against `schema`.
Result<std::vector<sql::TableKey>> ParseKeysSpec(const Schema& schema,
                                                 const std::string& spec) {
  std::vector<sql::TableKey> keys;
  for (const std::string& piece : Split(spec, ';')) {
    std::string entry = Trim(piece);
    if (entry.empty()) continue;
    size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("--keys needs table:positions — " + entry);
    }
    sql::TableKey key;
    key.table = Trim(entry.substr(0, colon));
    PredId pred = schema.FindRelation(key.table);
    if (pred == Schema::kNotFound) {
      return Status::NotFound("unknown relation in --keys: " + key.table);
    }
    for (const sql::TableKey& earlier : keys) {
      if (earlier.table == key.table) {
        return Status::InvalidArgument("--keys names table " + key.table +
                                       " twice");
      }
    }
    for (const std::string& pos_text :
         Split(entry.substr(colon + 1), ',')) {
      std::optional<uint64_t> position = ParseNonNegative(Trim(pos_text));
      if (!position) {
        return Status::InvalidArgument(
            "--keys positions must be non-negative integers, got '" +
            pos_text + "' for " + key.table);
      }
      if (*position >= schema.Arity(pred)) {
        return Status::OutOfRange("--keys position out of range: " + pos_text);
      }
      key.key_positions.push_back(static_cast<size_t>(*position));
    }
    keys.push_back(std::move(key));
  }
  if (keys.empty()) {
    return Status::InvalidArgument("--keys declared no key constraints");
  }
  return keys;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<Schema> ParseSchemaFile(const std::string& text) {
  Schema schema;
  for (const std::string& raw_line : Split(text, '\n')) {
    std::string line = Trim(raw_line);
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = Trim(line.substr(0, hash));
    if (line.empty()) continue;
    size_t slash = line.find('/');
    if (slash == std::string::npos) {
      return Status::InvalidArgument("schema line must be Name/arity: " +
                                     line);
    }
    std::string name = Trim(line.substr(0, slash));
    std::string arity_text = Trim(line.substr(slash + 1));
    if (!IsIdentifier(name)) {
      return Status::InvalidArgument("bad relation name: " + name);
    }
    std::optional<uint64_t> arity = ParseNonNegative(arity_text);
    constexpr uint64_t kMaxArity = std::numeric_limits<uint32_t>::max();
    if (!arity || *arity == 0 || *arity > kMaxArity) {
      return Status::InvalidArgument("bad arity in schema line: " + line);
    }
    if (schema.FindRelation(name) != Schema::kNotFound) {
      return Status::AlreadyExists("relation declared twice: " + name);
    }
    schema.AddRelation(name, static_cast<uint32_t>(*arity));
  }
  if (schema.size() == 0) {
    return Status::InvalidArgument("schema file declares no relations");
  }
  return schema;
}

// Exit-code policy, kept consistent across the FO/SQL/serve-trace modes
// and asserted by the CI e2e:
//   0  answered — including *degraded* runs (failed spills, tripped disk
//      breaker, quarantined snapshots, isolated worker panics) which
//      additionally print a "warning: degraded ..." line on stderr;
//   1  hard failure — missing/unparseable input files, unwritable
//      --serve-out, a chain too large for --mode=exact;
//   2  usage — unknown flags, bad flag *values* (every kFlags parser
//      rejects before any input file is read; --keys after the schema),
//      missing required flags. Nothing is printed on stdout.

/// printf's %llu argument for a uint64_t counter.
unsigned long long U(uint64_t value) { return value; }

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int UsageFail(const Status& status) {
  std::fprintf(stderr,
               "error: %s\nrun opcqa_cli --help for the full flag reference\n",
               status.ToString().c_str());
  return 2;
}

/// End-of-run observability artifacts: the Chrome trace (--trace-out),
/// the slow-query span trees (--slow-ms) and, when `print_metrics`, the
/// registry snapshot — all on stderr / side files, never stdout, so the
/// canonical answer stream stays byte-diffable. Returns the exit code.
int FlushObservability(const Options& opt, bool print_metrics) {
#ifdef OPCQA_TRACING
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  if (tracer.enabled()) {
    std::vector<obs::SpanRecord> spans = tracer.Collect();
    if (opt.slow_ms >= 0) {
      for (uint64_t id : obs::TraceRequestIds(spans)) {
        if (obs::RequestWallMs(spans, id) < opt.slow_ms) continue;
        std::fprintf(stderr, "slow request:\n%s",
                     obs::RenderSpanTree(spans, id).c_str());
      }
    }
    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out, std::ios::binary);
      if (!out) {
        return Fail(Status::Internal("cannot write " + opt.trace_out));
      }
      out << obs::ExportChromeTrace(spans);
    }
  }
#endif
  if (print_metrics) {
    std::fputs(obs::MetricsRegistry::Global().Snapshot().RenderText().c_str(),
               stderr);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Status parsed = ParseArgs(argc, argv, &opt);
  if (opt.help) {
    PrintHelp();
    return 0;
  }
  if (!parsed.ok()) return UsageFail(parsed);
  if (opt.memo_disk_bytes != 0 && opt.memo_dir.empty()) {
    std::fprintf(stderr,
                 "warning: --memo-disk-bytes has no effect without "
                 "--memo-dir (no disk tier configured)\n");
  }
  if (!opt.plan.empty() && opt.mode != "exact") {
    std::fprintf(stderr,
                 "warning: --plan only affects --mode=exact (the sampler "
                 "and SQL modes always walk)\n");
  }
  bool sql_mode = opt.mode == "sql";
  bool serve_mode = !opt.serve_trace.empty();

  if (!opt.trace_out.empty() || opt.slow_ms >= 0) {
#ifdef OPCQA_TRACING
    obs::SpanTracer::Global().Enable();
#else
    std::fprintf(stderr,
                 "warning: --trace-out/--slow-ms need a tracing build "
                 "(-DOPCQA_TRACING=ON); continuing without spans\n");
#endif
  }

  Result<std::string> schema_text = ReadFile(opt.schema_path);
  if (!schema_text.ok()) return Fail(schema_text.status());
  Result<Schema> schema = ParseSchemaFile(*schema_text);
  if (!schema.ok()) return Fail(schema.status());

  Result<std::string> db_text = ReadFile(opt.db_path);
  if (!db_text.ok()) return Fail(db_text.status());
  Result<Database> db = ParseDatabase(*schema, *db_text);
  if (!db.ok()) return Fail(db.status());

  if (sql_mode) {
    Result<std::vector<sql::TableKey>> keys =
        ParseKeysSpec(*schema, opt.keys_spec);
    if (!keys.ok()) return UsageFail(keys.status());
    sql::Catalog catalog = sql::Catalog::FromDatabase(*db);
    sql::SqlApproxRunner runner(std::move(catalog), keys.value(),
                                opt.seed);
    Result<sql::SqlApproxResult> result =
        runner.RunWithGuarantee(opt.sql_text, opt.eps, opt.delta);
    if (!result.ok()) return Fail(result.status());
    std::printf("rewritten SQL: %s\n", result->rewritten_sql.c_str());
    std::printf("answer frequencies over %zu rounds (additive error ≤ "
                "%.3f with confidence ≥ %.3f, per tuple):\n",
                result->rounds, opt.eps, 1 - opt.delta);
    for (const auto& [row, frequency] : result->frequency) {
      std::string rendered = "(";
      for (size_t i = 0; i < row.size(); ++i) {
        rendered += (i ? "," : "") + ConstName(row[i]);
      }
      rendered += ")";
      std::printf("  %-24s ≈ %.4f\n", rendered.c_str(), frequency);
    }
    return FlushObservability(opt, opt.metrics);
  }

  Result<std::string> constraints_text = ReadFile(opt.constraints_path);
  if (!constraints_text.ok()) return Fail(constraints_text.status());
  Result<ConstraintSet> constraints =
      ParseConstraints(*schema, *constraints_text);
  if (!constraints.ok()) return Fail(constraints.status());

  if (serve_mode) {
    Result<std::string> trace_text = ReadFile(opt.serve_trace);
    if (!trace_text.ok()) return Fail(trace_text.status());
    Result<std::vector<server::Request>> requests =
        server::ParseTrace(*schema, *trace_text);
    if (!requests.ok()) return Fail(requests.status());

    std::vector<server::Response> responses;
    if (opt.serve_baseline) {
      // The reference timeline: every tenant's requests on one private
      // session, strictly in trace order. Concurrent serving must
      // reproduce this output byte-for-byte.
      gen::Workload workload;
      workload.schema = std::make_shared<Schema>(*schema);
      workload.db = *db;
      workload.constraints = *constraints;
      engine::SessionOptions session_options;
      session_options.enumeration.threads = opt.threads;
      session_options.enumeration.memoize = true;
      responses = server::ReplaySerial(
          workload, *requests, server::ReplayMode::kSessionPerTenant,
          session_options);
      std::fprintf(stderr,
                   "serve-trace baseline: %zu requests replayed serially "
                   "(one session per tenant)\n",
                   requests->size());
    } else {
      server::ServerOptions server_options;
      server_options.workers = opt.serve_workers;
      server_options.enumeration.threads = opt.threads;
      server_options.cache = CacheOptions(opt);
      if (!opt.plan.empty()) {
        server_options.plan = planner::ParsePlanMode(opt.plan).value();
      }
      server::OcqaServer ocqa_server(*db, *constraints, server_options);
      responses = ocqa_server.SubmitAll(*requests);

      // Flush the disk tier before reporting, so the spill counters (and
      // the degraded-run warning) describe what actually reached disk
      // instead of deferring to destructor-time spills nobody observes.
      if (!opt.memo_dir.empty()) ocqa_server.PersistCache();

      // The aggregated snapshot — queue, shared cache, disk tier, every
      // tenant's planner, plus the registry's latency histograms — as ONE
      // merged RenderText() on stderr, so stdout stays a canonical
      // byte-diffable response stream. (This replaced the hand-rolled
      // serve:/cache:/disk:/plan: counter lines.)
      server::ServerStats stats = ocqa_server.Stats();
      obs::MetricsSnapshot merged = obs::MetricsRegistry::Global().Snapshot();
      obs::Export(stats, &merged);
      std::fputs(merged.RenderText().c_str(), stderr);
      // Degraded-but-answered: every request got a canonical response
      // (possibly an error status that serial replay reproduces), but a
      // hardening path fired along the way. Warn loudly, exit 0 — the
      // CI e2e asserts this split against hard failures (1).
      if (stats.panics > 0 || stats.disk.failed_spills > 0 ||
          stats.disk.breaker_trips > 0 || stats.disk.quarantined > 0) {
        std::fprintf(stderr,
                     "warning: degraded serve run — %llu isolated "
                     "panic(s), %llu failed spill(s), %llu breaker "
                     "trip(s), %llu quarantined snapshot(s); responses "
                     "are complete and canonical\n",
                     U(stats.panics), U(stats.disk.failed_spills),
                     U(stats.disk.breaker_trips), U(stats.disk.quarantined));
      }
    }

    std::string rendered = server::RenderResponses(std::move(responses));
    if (opt.serve_out.empty()) {
      std::fwrite(rendered.data(), 1, rendered.size(), stdout);
    } else {
      std::ofstream out(opt.serve_out, std::ios::binary);
      if (!out) {
        return Fail(Status::Internal("cannot write " + opt.serve_out));
      }
      out << rendered;
    }
    // The serve summary above already is the merged metrics snapshot, so
    // --metrics needs a separate print only on the baseline path.
    return FlushObservability(opt, opt.metrics && opt.serve_baseline);
  }

  std::vector<Query> queries;
  for (const std::string& query_text : opt.query_texts) {
    Result<Query> query = ParseQuery(*schema, query_text);
    if (!query.ok()) return Fail(query.status());
    queries.push_back(std::move(query.value()));
  }

  std::printf("schema:      %s\n", schema->ToString().c_str());
  std::printf("database:    %zu facts, consistent: %s\n", db->size(),
              Satisfies(*db, *constraints) ? "yes" : "no");
  std::printf("constraints: %zu\n", constraints->size());
  for (const Query& query : queries) {
    std::printf("query:       %s\n", query.ToString(*schema).c_str());
  }
  std::printf("\n");

  UniformChainGenerator uniform;
  DeletionOnlyUniformGenerator deletions;
  PriorityChainGenerator minchange = PriorityChainGenerator::MinimalChange();
  const ChainGenerator* generator = &minchange;
  if (opt.generator == "uniform") generator = &uniform;
  if (opt.generator == "deletions") generator = &deletions;

  if (opt.show_chain) {
    std::printf("repairing chain:\n%s\n",
                RenderChainTree(*db, *constraints, *generator).c_str());
  }

  if (opt.mode == "exact") {
    // --memo-persist: one cache shared by the whole --query list, so the
    // first query pays for the chain walk and the rest replay it.
    // --memo-dir additionally restores/spills the repair space from/to a
    // snapshot directory, so a rerun in a fresh process starts warm.
    RepairSpaceCache cache(CacheOptions(opt));
    EnumerationOptions enum_options;
    enum_options.threads = opt.threads;
    enum_options.memoize = opt.memo;
    enum_options.memo_max_bytes = opt.memo_bytes;
    if (opt.memo_persist) enum_options.cache = &cache;
    // --plan: dispatch each query through the planner. Without the flag
    // the CLI behaves (and prints) exactly as before the planner existed.
    bool use_planner = !opt.plan.empty();
    planner::QueryPlanner planner;
    if (use_planner) {
      planner.set_mode(planner::ParsePlanMode(opt.plan).value());
    }
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Query& query = queries[qi];
      OPCQA_TRACE_REQUEST(qi + 1, "cli");
      OPCQA_TRACE_SPAN("cli.query");
      if (queries.size() > 1) {
        std::printf("== query %zu: %s\n", qi + 1,
                    query.ToString(*schema).c_str());
      }
      if (use_planner) {
        Result<planner::QueryPlan> plan =
            planner.Plan(*db, *constraints, *generator, query);
        if (!plan.ok()) return Fail(plan.status());
        std::printf("plan:        %s — %s\n",
                    planner::PlanKindName(plan->kind),
                    plan->reason.c_str());
        if (plan->kind == planner::PlanKind::kRewriting) {
          std::set<Tuple> certain =
              planner::EvaluateCertain(*db, query, plan->rewritten);
          std::printf("certain operational answers (CP = 1, FO rewriting "
                      "— no chain walk):\n");
          for (const Tuple& tuple : certain) {
            std::printf("  %s\n", TupleToString(tuple).c_str());
          }
          if (certain.empty()) std::printf("  (no certain tuple)\n");
          continue;
        }
      }
      // --show-repairs lists the repairs, so it enumerates them; every
      // other run lets ComputeOca answer a local root from its marginals.
      OcaResult oca =
          opt.show_repairs
              ? OcaFromEnumeration(EnumerateRepairs(*db, *constraints,
                                                    *generator, enum_options),
                                   query)
              : ComputeOca(*db, *constraints, *generator, query,
                           enum_options);
      if (oca.enumeration.truncated) {
        return Fail(Status::ResourceExhausted(
            "chain too large for exact answering; use --mode=approx"));
      }
      if (opt.memo) {
        const MemoStats& memo = oca.enumeration.memo_stats;
        uint64_t probes = memo.hits + memo.misses;
        std::printf("memoization: %zu states visited, %llu replayed hits "
                    "(%.1f%% hit rate), %zu table entries, %llu hash "
                    "collisions, %llu evictions, %zu bytes\n",
                    oca.enumeration.states_visited, U(memo.hits),
                    probes == 0 ? 0.0 : 100.0 * memo.hits / probes,
                    memo.entries, U(memo.collisions), U(memo.evictions),
                    memo.bytes);
      }
      std::printf("exact operational consistent answers "
                  "(success mass %s, failing mass %s):\n",
                  oca.success_mass.ToString().c_str(),
                  oca.failing_mass.ToString().c_str());
      for (const auto& [tuple, p] : oca.answers) {
        std::printf("  %-24s %s  (≈ %.6f)\n", TupleToString(tuple).c_str(),
                    p.ToString().c_str(), p.ToDouble());
      }
      if (oca.answers.empty()) std::printf("  (no tuple has CP > 0)\n");
      if (opt.show_repairs) {
        std::printf("\nrepair distribution:\n");
        for (const RepairInfo& info : oca.enumeration.repairs) {
          std::printf("  p = %-10s { %s }\n",
                      info.probability.ToString().c_str(),
                      MaterializeRepair(oca.enumeration.initial, info)
                          .ToString()
                          .c_str());
        }
      }
    }
    if (use_planner) {
      const planner::PlannerStats& stats = planner.stats();
      std::printf("\nplanner: %llu rewriting / %llu walk plans, "
                  "%llu plan-cache hits, %llu misses\n",
                  U(stats.rewrite_plans), U(stats.walk_plans),
                  U(stats.plan_cache_hits), U(stats.plan_cache_misses));
    }
    if (opt.memo_persist) {
      // Make this run's chain walks durable before reporting, so the
      // printed spill counters describe what the next process will find.
      if (!opt.memo_dir.empty()) cache.Persist();
      MemoStats total = cache.TotalStats();
      std::printf("\npersistent cache: %zu roots, %zu entries, %zu bytes, "
                  "%llu hits / %llu misses across %zu queries\n",
                  cache.roots(), total.entries, total.bytes, U(total.hits),
                  U(total.misses), queries.size());
      if (!opt.memo_dir.empty()) {
        DiskTierStats disk = cache.disk_stats();
        std::printf("disk tier (%s): %llu spills (%llu bytes), "
                    "%llu restores (%llu bytes), %llu rejected snapshots"
                    "%s\n",
                    opt.memo_dir.c_str(), U(disk.spills),
                    U(disk.compressed_bytes), U(disk.restores),
                    U(disk.restore_bytes), U(disk.rejected_snapshots),
                    disk.failed_spills == 0 ? "" : " [SPILLS FAILING]");
        if (disk.failed_spills > 0 || disk.breaker_trips > 0 ||
            disk.quarantined > 0) {
          std::fprintf(stderr,
                       "warning: degraded run — %llu spill(s) failed to "
                       "write to %s (%llu breaker trip(s), %llu "
                       "quarantined snapshot(s)); answers are exact, but "
                       "the next process will compute cold\n",
                       U(disk.failed_spills), opt.memo_dir.c_str(),
                       U(disk.breaker_trips), U(disk.quarantined));
        }
      }
    }
  } else {  // --mode=approx
    SamplerOptions sampler_options;
    sampler_options.threads = opt.threads;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Query& query = queries[qi];
      OPCQA_TRACE_REQUEST(qi + 1, "cli");
      OPCQA_TRACE_SPAN("cli.query");
      std::string text = query.ToString(*schema);
      if (queries.size() > 1) {
        std::printf("== query %zu: %s\n", qi + 1, text.c_str());
      }
      // Each query walks its own streams, derived from (--seed, query
      // text), so its estimates do not depend on its --query position.
      Sampler sampler(*db, *constraints, generator,
                      HashMix64(HashCombine(opt.seed, FnvHash(text))),
                      sampler_options);
      ApproxOcaResult approx =
          sampler.EstimateOca(query, opt.eps, opt.delta);
      if (approx.exact()) {
        std::printf("approximate answers (n = 0 walks; exact from %zu "
                    "repairs of %zu conflict component%s, additive error "
                    "0, per tuple):\n",
                    approx.exact_repairs, approx.exact_components,
                    approx.exact_components == 1 ? "" : "s");
      } else {
        std::printf("approximate answers (n = %zu walks, additive error ≤ "
                    "%.3f with confidence ≥ %.3f, per tuple):\n",
                    approx.walks, opt.eps, 1 - opt.delta);
      }
      for (const auto& [tuple, estimate] : approx.estimates) {
        std::printf("  %-24s ≈ %.4f\n", TupleToString(tuple).c_str(),
                    estimate);
      }
      if (approx.failing_walks > 0) {
        std::printf("warning: %zu/%zu walks hit failing sequences; "
                    "estimates are for the unconditioned numerator (use a "
                    "non-failing generator such as "
                    "--generator=deletions)\n",
                    approx.failing_walks, approx.walks);
      }
    }
  }
  return FlushObservability(opt, opt.metrics);
}
