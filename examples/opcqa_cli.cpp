// opcqa_cli — command-line operational consistent query answering.
//
// A downstream-user-facing driver: schema, database and constraints come
// from files, the query from the command line; answering is exact (chain
// enumeration) or approximate (Theorem 9 sampling).
//
// Usage (FO query modes):
//   opcqa_cli --schema=s.txt --db=d.txt --constraints=c.txt
//             --query='Q(x) := R(x,y)'  (repeatable: each --query is
//             answered in turn over the same database)
//             [--generator=uniform|deletions|minchange]
//             [--mode=exact|approx] [--eps=0.1] [--delta=0.1] [--seed=42]
//             [--threads=N]  (0 = all cores; answers are identical for
//             every thread count)
//             [--memo]  (exact mode: transposition-table memoization of
//             shared repair-space suffixes; answers are identical with it
//             on or off — it only changes how fast they arrive)
//             [--memo-persist]  (exact mode: keep the repair space cached
//             across the --query list — repair/repair_cache.h — so every
//             query after the first replays the first one's chain walk;
//             implies --memo)
//             [--memo-bytes=N]  (byte budget for the memo table / each
//             cache root; 0 = entries-only budget)
//             [--memo-dir=PATH]  (disk tier, src/storage/: restore the
//             repair space from PATH's canonical snapshots on start and
//             spill it back on exit, so a *fresh process* over the same
//             database warm-starts from this run's chain walks; implies
//             --memo-persist)
//             [--memo-disk-bytes=N]  (byte budget for --memo-dir — base
//             snapshots plus delta logs, whole roots deleted oldest
//             first; 0 = unbounded)
//             [--memo-delta=0|1]  (default 1: once a root's base
//             snapshot exists, spills append only the newly admitted
//             entries to its delta log; 0 rewrites the whole base every
//             spill — the PR-5 behavior)
//             [--memo-compact-ratio=X]  (compact a delta log into a
//             fresh base once it exceeds X times the base size;
//             default 0.5, <= 0 compacts on every spill)
//             [--memo-memory-bytes=N]  (memory-tier byte budget across
//             all cache roots: overflow demotes the lowest-retention
//             root to the disk tier early; 0 = off)
//             [--plan=auto|walk|rewrite]  (exact mode: route each query
//             through the query planner — src/planner/ — and print the
//             decision. `auto` answers FO-rewritable queries inside the
//             proven-coincident fragment with the Koutris–Wijsen
//             rewriting, skipping the chain walk entirely; `walk` forces
//             the walk; `rewrite` errors on out-of-fragment queries
//             instead of silently walking. Rewriting reports *certain*
//             answers (CP = 1) — the full CP distribution needs a walk)
//             [--show-repairs] [--show-chain]
//             [--metrics]  (print the merged metrics-registry snapshot —
//             src/obs/ — on stderr; serve mode always prints it)
//             [--trace-out=FILE]  (tracing builds: Chrome trace_event
//             JSON of the run's spans, loadable in Perfetto / about:tracing)
//             [--slow-ms=N]  (tracing builds: span tree of every request
//             slower than N ms, on stderr)
//
// Usage (serve-trace mode — replay a request log through OcqaServer,
// src/server/; trace format in server/trace.h):
//   opcqa_cli --schema=s.txt --db=d.txt --constraints=c.txt
//             --serve-trace=t.trace
//             [--serve-workers=N]  (server worker threads; 0 = all cores)
//             [--serve-out=PATH]  (write rendered responses to PATH
//             instead of stdout; stdout/PATH carry *only* the canonical
//             responses, so two runs diff byte-for-byte — the serving
//             summary goes to stderr)
//             [--serve-baseline]  (replay the same trace serially on one
//             session per tenant instead of the server — the reference
//             output concurrent serving must reproduce exactly)
//             [--memo-bytes --memo-dir --memo-disk-bytes --threads
//             --plan]  (shared-cache / per-session knobs, as above; with
//             --memo-dir the server's shared cache restores from and
//             spills to the snapshot directory, so a rerun serves warm)
//
// Usage (SQL mode — the Section 5 scheme; keys as table:pos[,pos...],
// ';'-separated):
//   opcqa_cli --schema=s.txt --db=d.txt --mode=sql
//             --sql='SELECT c0 FROM R' --keys='R:0'
//             [--eps --delta --seed]
//
// File formats:
//   schema:       one "Name/arity" per line, '#' comments
//   database:     facts "R(a,b)." separated by '.', '#' comments
//   constraints:  one per line, e.g. "key: R(x,y), R(x,z) -> y = z"
//
// SQL-mode tables expose columns c0, c1, ... per relation position.
//
// Exit codes: 0 = answered (including degraded runs, which warn on
// stderr), 1 = hard failure, 2 = usage error. `--help` prints the full
// flag table (the normative list docs/KNOBS.md is CI-checked against)
// and exits 0.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "constraints/constraint_parser.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/stats_export.h"
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
#include "util/string_util.h"

namespace {

using namespace opcqa;

struct Options {
  std::string schema_path, db_path, constraints_path;
  std::vector<std::string> query_texts;  // answered in order
  std::string sql_text, keys_spec;
  std::string generator = "uniform";
  std::string mode = "exact";
  double eps = 0.1, delta = 0.1;
  uint64_t seed = 42;
  size_t threads = 1;  // 0 = all cores; results identical either way
  bool memo = false;   // exact mode: memoize shared repair-space suffixes
  bool memo_persist = false;  // share the repair space across --query list
  size_t memo_bytes = 0;      // byte budget (0 = entries-only budget)
  std::string memo_dir;       // disk tier directory (empty = memory only)
  size_t memo_disk_bytes = 0;  // disk budget for --memo-dir (0 = unbounded)
  bool memo_delta = true;      // delta spills (0 = always rewrite the base)
  double memo_compact_ratio = 0.5;  // log/base compaction threshold
  size_t memo_memory_bytes = 0;  // cross-root memory budget (0 = off)
  std::string plan;  // exact mode: planner dispatch (empty = flag unset,
                     // behave exactly as before the planner existed)
  std::string serve_trace;      // request-log path — serve-trace mode
  size_t serve_workers = 0;     // server worker threads (0 = all cores)
  std::string serve_out;        // rendered responses file (empty = stdout)
  bool serve_baseline = false;  // serial per-tenant replay, not the server
  bool show_repairs = false;
  bool show_chain = false;
  bool metrics = false;    // print the merged registry snapshot on stderr
  std::string trace_out;   // Chrome trace JSON path (tracing builds)
  double slow_ms = -1;     // slow-query span-tree threshold (< 0 = off)
};

/// Parses "R:0;S:0,1" into SQL table keys against `schema`.
Result<std::vector<sql::TableKey>> ParseKeysSpec(const Schema& schema,
                                                 const std::string& spec) {
  std::vector<sql::TableKey> keys;
  for (const std::string& piece : Split(spec, ';')) {
    std::string entry = Trim(piece);
    if (entry.empty()) continue;
    size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("key spec needs table:positions — " +
                                     entry);
    }
    sql::TableKey key;
    key.table = Trim(entry.substr(0, colon));
    PredId pred = schema.FindRelation(key.table);
    if (pred == Schema::kNotFound) {
      return Status::NotFound("unknown relation in --keys: " + key.table);
    }
    for (const std::string& pos_text :
         Split(entry.substr(colon + 1), ',')) {
      int position = std::atoi(Trim(pos_text).c_str());
      if (position < 0 ||
          static_cast<uint32_t>(position) >= schema.Arity(pred)) {
        return Status::OutOfRange("key position out of range: " +
                                  pos_text);
      }
      key.key_positions.push_back(static_cast<size_t>(position));
    }
    if (key.key_positions.empty()) {
      return Status::InvalidArgument("empty key position list for " +
                                     key.table);
    }
    keys.push_back(std::move(key));
  }
  if (keys.empty()) {
    return Status::InvalidArgument("--keys declared no key constraints");
  }
  return keys;
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* out) {
  std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

/// Whole-string numeric flag values: "abc", "" or "0.1x" are usage
/// errors, never a silent 0 (atof/strtoull would read them as 0).
bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool ParseUint64(const std::string& text, uint64_t* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
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
    int arity = std::atoi(arity_text.c_str());
    if (arity <= 0) {
      return Status::InvalidArgument("bad arity in schema line: " + line);
    }
    if (schema.FindRelation(name) != Schema::kNotFound) {
      return Status::AlreadyExists("relation declared twice: " + name);
    }
    schema.AddRelation(name, static_cast<uint32_t>(arity));
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
//   2  usage — unknown flags or bad flag *values* (generator, mode,
//      plan, keys, non-numeric or out-of-range --eps/--delta/--seed/
//      --threads), missing required flags.

// The complete flag reference, printed by --help (exit 0). One line per
// flag: "  --name=VALUE  (default/required)  what it does". docs/KNOBS.md
// is the normative knob table and CI diffs the flag names listed here
// against it — add new flags in both places.
void PrintHelp() {
  std::printf(
      "opcqa_cli — operational consistent query answering "
      "(Calautti–Libkin–Pieris, PODS 2018)\n"
      "\n"
      "usage: opcqa_cli --schema=F --db=F --constraints=F "
      "--query='Q(x) := R(x,y)' [flags]\n"
      "   or: opcqa_cli --schema=F --db=F --constraints=F "
      "--serve-trace=F [flags]\n"
      "   or: opcqa_cli --schema=F --db=F --mode=sql --sql='SELECT ...' "
      "--keys='R:0;S:0,1' [flags]\n"
      "\n"
      "input flags:\n"
      "  --schema=FILE        (required) relation declarations, one "
      "Name/arity per line\n"
      "  --db=FILE            (required) facts \"R(a,b).\" separated by "
      "'.'\n"
      "  --constraints=FILE   (required outside --mode=sql) one "
      "constraint per line\n"
      "  --query=TEXT         FO query 'Q(x) := R(x,y)'; repeatable, "
      "answered in order\n"
      "  --sql=TEXT           (--mode=sql) SELECT statement over columns "
      "c0, c1, ...\n"
      "  --keys=SPEC          (--mode=sql) key positions "
      "'R:0;S:0,1'\n"
      "\n"
      "answering flags:\n"
      "  --generator=NAME     (default: uniform) uniform | deletions | "
      "minchange\n"
      "  --mode=NAME          (default: exact) exact | approx | sql\n"
      "  --eps=X              (default: 0.1) approx/sql additive error "
      "bound\n"
      "  --delta=X            (default: 0.1) approx/sql failure "
      "probability\n"
      "  --seed=N             (default: 42) sampling seed\n"
      "  --threads=N          (default: 1) enumeration threads; 0 = all "
      "cores\n"
      "  --plan=NAME          (default: unset) auto | walk | rewrite — "
      "planner dispatch\n"
      "\n"
      "repair-space cache flags:\n"
      "  --memo               (default: off) memoize shared repair-space "
      "suffixes\n"
      "  --memo-persist       (default: off) share the repair space "
      "across the --query list; implies --memo\n"
      "  --memo-bytes=N       (default: 0) byte budget per memo table / "
      "cache root; 0 = entries-only\n"
      "  --memo-dir=PATH      (default: unset) disk tier directory; "
      "implies --memo-persist\n"
      "  --memo-disk-bytes=N  (default: 0) byte budget for --memo-dir "
      "(bases + delta logs); 0 = unbounded\n"
      "  --memo-delta=0|1     (default: 1) append-only delta spills once "
      "a base snapshot exists; 0 = always rewrite the base\n"
      "  --memo-compact-ratio=X  (default: 0.5) compact the delta log "
      "into a fresh base once it exceeds this fraction of the base; <= 0 "
      "compacts every spill\n"
      "  --memo-memory-bytes=N   (default: 0) memory-tier byte budget "
      "across all cache roots; overflow demotes the lowest-retention "
      "root to disk; 0 = off\n"
      "\n"
      "serve-trace flags:\n"
      "  --serve-trace=FILE   replay a request log through OcqaServer "
      "(format: server/trace.h)\n"
      "  --serve-workers=N    (default: 0) server worker threads; 0 = "
      "all cores\n"
      "  --serve-out=PATH     (default: stdout) write canonical "
      "responses to PATH\n"
      "  --serve-baseline     (default: off) serial per-tenant replay "
      "instead of the server\n"
      "\n"
      "observability flags:\n"
      "  --metrics            (default: off) print the merged metrics "
      "registry snapshot on stderr (serve mode always prints it)\n"
      "  --trace-out=FILE     (default: unset) write a Chrome "
      "trace_event JSON of the run's spans (needs a tracing build, "
      "-DOPCQA_TRACING=ON)\n"
      "  --slow-ms=N          (default: unset) print the span tree of "
      "every request slower than N ms to stderr (tracing builds)\n"
      "\n"
      "output flags:\n"
      "  --show-repairs       (default: off) print the repair "
      "distribution\n"
      "  --show-chain         (default: off) print the repairing chain "
      "tree\n"
      "  --help               print this reference and exit 0\n"
      "\n"
      "exit codes: 0 = answered (degraded runs warn on stderr), 1 = hard "
      "failure, 2 = usage error\n");
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int UsageFail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
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
  std::string value;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintHelp();
      return 0;
    }
    if (ParseFlag(arg, "schema", &opt.schema_path)) continue;
    if (ParseFlag(arg, "db", &opt.db_path)) continue;
    if (ParseFlag(arg, "constraints", &opt.constraints_path)) continue;
    if (ParseFlag(arg, "query", &value)) {
      opt.query_texts.push_back(value);
      continue;
    }
    if (ParseFlag(arg, "sql", &opt.sql_text)) continue;
    if (ParseFlag(arg, "keys", &opt.keys_spec)) continue;
    if (ParseFlag(arg, "generator", &opt.generator)) continue;
    if (ParseFlag(arg, "mode", &opt.mode)) continue;
    // The sampler's guarantee needs ε > 0 and δ ∈ (0,1) (Hoeffding's
    // n(ε,δ) = ⌈ln(2/δ) / 2ε²⌉); reject anything else here, as a usage
    // error, instead of aborting inside Sampler::NumSamples.
    if (ParseFlag(arg, "eps", &value)) {
      if (!ParseDouble(value, &opt.eps) || opt.eps <= 0) {
        return UsageFail(Status::InvalidArgument(
            "--eps must be a number > 0, got '" + value + "'"));
      }
      continue;
    }
    if (ParseFlag(arg, "delta", &value)) {
      if (!ParseDouble(value, &opt.delta) || opt.delta <= 0 ||
          opt.delta >= 1) {
        return UsageFail(Status::InvalidArgument(
            "--delta must be a number in (0,1), got '" + value + "'"));
      }
      continue;
    }
    if (ParseFlag(arg, "seed", &value)) {
      if (!ParseUint64(value, &opt.seed)) {
        return UsageFail(Status::InvalidArgument(
            "--seed must be a non-negative integer, got '" + value + "'"));
      }
      continue;
    }
    if (ParseFlag(arg, "threads", &value)) {
      uint64_t threads = 0;
      if (!ParseUint64(value, &threads)) {
        return UsageFail(Status::InvalidArgument(
            "--threads must be a non-negative integer, got '" + value + "'"));
      }
      opt.threads = static_cast<size_t>(threads);
      continue;
    }
    if (arg == "--memo") {
      opt.memo = true;
      continue;
    }
    if (arg == "--memo-persist") {
      opt.memo_persist = true;
      opt.memo = true;
      continue;
    }
    if (ParseFlag(arg, "memo-bytes", &value)) {
      opt.memo_bytes = static_cast<size_t>(
          std::strtoull(value.c_str(), nullptr, 10));
      continue;
    }
    if (ParseFlag(arg, "memo-dir", &value)) {
      opt.memo_dir = value;
      opt.memo_persist = true;  // a disk tier needs the persistent cache
      opt.memo = true;
      continue;
    }
    if (ParseFlag(arg, "memo-disk-bytes", &value)) {
      opt.memo_disk_bytes = static_cast<size_t>(
          std::strtoull(value.c_str(), nullptr, 10));
      continue;
    }
    if (ParseFlag(arg, "memo-delta", &value)) {
      opt.memo_delta = value != "0";
      continue;
    }
    if (ParseFlag(arg, "memo-compact-ratio", &value)) {
      opt.memo_compact_ratio = std::atof(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "memo-memory-bytes", &value)) {
      opt.memo_memory_bytes = static_cast<size_t>(
          std::strtoull(value.c_str(), nullptr, 10));
      continue;
    }
    if (ParseFlag(arg, "plan", &opt.plan)) continue;
    if (ParseFlag(arg, "serve-trace", &opt.serve_trace)) continue;
    if (ParseFlag(arg, "serve-workers", &value)) {
      opt.serve_workers = static_cast<size_t>(
          std::strtoull(value.c_str(), nullptr, 10));
      continue;
    }
    if (ParseFlag(arg, "serve-out", &opt.serve_out)) continue;
    if (arg == "--serve-baseline") {
      opt.serve_baseline = true;
      continue;
    }
    if (arg == "--show-repairs") {
      opt.show_repairs = true;
      continue;
    }
    if (arg == "--show-chain") {
      opt.show_chain = true;
      continue;
    }
    if (arg == "--metrics") {
      opt.metrics = true;
      continue;
    }
    if (ParseFlag(arg, "trace-out", &opt.trace_out)) continue;
    if (ParseFlag(arg, "slow-ms", &value)) {
      opt.slow_ms = std::atof(value.c_str());
      continue;
    }
    std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
    return 2;
  }
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
  bool fo_inputs_ok = !opt.constraints_path.empty() &&
                      (!opt.query_texts.empty() || serve_mode);
  bool sql_inputs_ok = !opt.sql_text.empty() && !opt.keys_spec.empty();
  if (opt.schema_path.empty() || opt.db_path.empty() ||
      (sql_mode ? !sql_inputs_ok : !fo_inputs_ok)) {
    std::fprintf(stderr,
                 "usage: opcqa_cli --schema=F --db=F --constraints=F "
                 "--query='Q(x) := ...' [--query=... more] "
                 "[--generator=uniform|deletions|minchange] "
                 "[--mode=exact|approx] [--eps --delta --seed --threads "
                 "--memo --memo-persist --memo-bytes=N --memo-dir=PATH "
                 "--memo-disk-bytes=N --memo-delta=0|1 "
                 "--memo-compact-ratio=X --memo-memory-bytes=N "
                 "--plan=auto|walk|rewrite] "
                 "[--show-repairs] [--show-chain]\n"
                 "   or: opcqa_cli --schema=F --db=F --constraints=F "
                 "--serve-trace=F [--serve-workers=N --serve-out=PATH "
                 "--serve-baseline --memo-bytes --memo-dir "
                 "--memo-disk-bytes --threads --plan]\n"
                 "   or: opcqa_cli --schema=F --db=F --mode=sql "
                 "--sql='SELECT ...' --keys='R:0;S:0,1' "
                 "[--eps --delta --seed]\n"
                 "run opcqa_cli --help for the full flag reference\n");
    return 2;
  }

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
      server_options.cache.max_bytes_per_root = opt.memo_bytes;
      server_options.cache.snapshot_dir = opt.memo_dir;
      server_options.cache.max_disk_bytes = opt.memo_disk_bytes;
      server_options.cache.delta_spill = opt.memo_delta;
      server_options.cache.log_compaction_ratio = opt.memo_compact_ratio;
      server_options.cache.max_memory_bytes = opt.memo_memory_bytes;
      if (!opt.plan.empty()) {
        Result<planner::PlanMode> plan_mode =
            planner::ParsePlanMode(opt.plan);
        if (!plan_mode.ok()) return UsageFail(plan_mode.status());
        server_options.plan = *plan_mode;
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
      auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
      obs::MetricsSnapshot merged = obs::MetricsRegistry::Global().Snapshot();
      obs::ExportServerStats(stats, &merged);
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
                     u(stats.panics), u(stats.disk.failed_spills),
                     u(stats.disk.breaker_trips),
                     u(stats.disk.quarantined));
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
  const ChainGenerator* generator = nullptr;
  if (opt.generator == "uniform") {
    generator = &uniform;
  } else if (opt.generator == "deletions") {
    generator = &deletions;
  } else if (opt.generator == "minchange") {
    generator = &minchange;
  } else {
    return UsageFail(Status::InvalidArgument("unknown generator: " +
                                             opt.generator));
  }

  if (opt.show_chain) {
    std::printf("repairing chain:\n%s\n",
                RenderChainTree(*db, *constraints, *generator).c_str());
  }

  if (opt.mode == "exact") {
    // --memo-persist: one cache shared by the whole --query list, so the
    // first query pays for the chain walk and the rest replay it.
    // --memo-dir additionally restores/spills the repair space from/to a
    // snapshot directory, so a rerun in a fresh process starts warm.
    RepairCacheOptions cache_options;
    cache_options.max_bytes_per_root = opt.memo_bytes;
    cache_options.snapshot_dir = opt.memo_dir;
    cache_options.max_disk_bytes = opt.memo_disk_bytes;
    cache_options.delta_spill = opt.memo_delta;
    cache_options.log_compaction_ratio = opt.memo_compact_ratio;
    cache_options.max_memory_bytes = opt.memo_memory_bytes;
    RepairSpaceCache cache(cache_options);
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
      Result<planner::PlanMode> plan_mode = planner::ParsePlanMode(opt.plan);
      if (!plan_mode.ok()) return UsageFail(plan_mode.status());
      planner.set_mode(*plan_mode);
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
      OcaResult oca =
          ComputeOca(*db, *constraints, *generator, query, enum_options);
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
                    oca.enumeration.states_visited,
                    static_cast<unsigned long long>(memo.hits),
                    probes == 0 ? 0.0 : 100.0 * memo.hits / probes,
                    memo.entries,
                    static_cast<unsigned long long>(memo.collisions),
                    static_cast<unsigned long long>(memo.evictions),
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
                      info.repair.ToString().c_str());
        }
      }
    }
    if (use_planner) {
      const planner::PlannerStats& stats = planner.stats();
      std::printf("\nplanner: %llu rewriting / %llu walk plans, "
                  "%llu plan-cache hits, %llu misses\n",
                  static_cast<unsigned long long>(stats.rewrite_plans),
                  static_cast<unsigned long long>(stats.walk_plans),
                  static_cast<unsigned long long>(stats.plan_cache_hits),
                  static_cast<unsigned long long>(stats.plan_cache_misses));
    }
    if (opt.memo_persist) {
      // Make this run's chain walks durable before reporting, so the
      // printed spill counters describe what the next process will find.
      if (!opt.memo_dir.empty()) cache.Persist();
      MemoStats total = cache.TotalStats();
      std::printf("\npersistent cache: %zu roots, %zu entries, %zu bytes "
                  "(delta payloads %.1fx smaller than full copies), "
                  "%llu hits / %llu misses across %zu queries\n",
                  cache.roots(), total.entries, total.bytes,
                  total.payload_bytes == 0
                      ? 1.0
                      : static_cast<double>(total.full_payload_bytes) /
                            static_cast<double>(total.payload_bytes),
                  static_cast<unsigned long long>(total.hits),
                  static_cast<unsigned long long>(total.misses),
                  queries.size());
      if (!opt.memo_dir.empty()) {
        DiskTierStats disk = cache.disk_stats();
        std::printf("disk tier (%s): %llu spills (%llu bytes), "
                    "%llu restores (%llu bytes), %llu rejected snapshots"
                    "%s\n",
                    opt.memo_dir.c_str(),
                    static_cast<unsigned long long>(disk.spills),
                    static_cast<unsigned long long>(disk.spill_bytes),
                    static_cast<unsigned long long>(disk.restores),
                    static_cast<unsigned long long>(disk.restore_bytes),
                    static_cast<unsigned long long>(
                        disk.rejected_snapshots),
                    disk.failed_spills == 0 ? "" : " [SPILLS FAILING]");
        std::printf("disk tier v2: %llu delta appends, %llu compactions, "
                    "%llu compressed bytes written, %llu promotions / "
                    "%llu demotions\n",
                    static_cast<unsigned long long>(disk.delta_appends),
                    static_cast<unsigned long long>(disk.compactions),
                    static_cast<unsigned long long>(disk.compressed_bytes),
                    static_cast<unsigned long long>(disk.promotions),
                    static_cast<unsigned long long>(disk.demotions));
        if (disk.failed_spills > 0 || disk.breaker_trips > 0 ||
            disk.quarantined > 0) {
          std::fprintf(stderr,
                       "warning: degraded run — %llu spill(s) failed to "
                       "write to %s (%llu breaker trip(s), %llu "
                       "quarantined snapshot(s)); answers are exact, but "
                       "the next process will compute cold\n",
                       static_cast<unsigned long long>(disk.failed_spills),
                       opt.memo_dir.c_str(),
                       static_cast<unsigned long long>(disk.breaker_trips),
                       static_cast<unsigned long long>(disk.quarantined));
        }
      }
    }
  } else if (opt.mode == "approx") {
    SamplerOptions sampler_options;
    sampler_options.threads = opt.threads;
    Sampler sampler(*db, *constraints, generator, opt.seed, sampler_options);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Query& query = queries[qi];
      OPCQA_TRACE_REQUEST(qi + 1, "cli");
      OPCQA_TRACE_SPAN("cli.query");
      if (queries.size() > 1) {
        std::printf("== query %zu: %s\n", qi + 1,
                    query.ToString(*schema).c_str());
      }
      ApproxOcaResult approx =
          sampler.EstimateOca(query, opt.eps, opt.delta);
      std::printf("approximate answers (n = %zu walks, additive error ≤ "
                  "%.3f with confidence ≥ %.3f, per tuple):\n",
                  approx.walks, opt.eps, 1 - opt.delta);
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
  } else {
    return UsageFail(Status::InvalidArgument("unknown mode: " + opt.mode));
  }
  return FlushObservability(opt, opt.metrics);
}
