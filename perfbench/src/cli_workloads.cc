// cli_cold, cli_warm and approx_sample: opcqa_cli as a user runs it,
// fork+exec'd and timed from process start to exit, on a seeded family
// of key-violation databases.
//
//   cli_cold       --memo-dir on an empty directory: chain walk, memo,
//                  then the spill.
//   cli_warm       --memo-dir on the directory a cold run (the set-up)
//                  filled: restore and replay.
//   approx_sample  --mode=approx --eps=0.01 --delta=0.05: sampler walks.
//
// Every run checks its answers against a no-disk `--memo` reference that
// the set-up computes per database (its time is reported as reference_s,
// outside setup_s). A traced run repeats the same sequence in-process —
// parse, cache open and TableFor, ComputeOca per query, Persist; or the
// Sampler and EstimateOca — with spans around each call.

#include <chrono>
#include <cmath>
#include <filesystem>
#include <optional>
#include <sstream>

#include "constraints/constraint_parser.h"
#include "inputs.h"
#include "logic/formula_parser.h"
#include "process.h"
#include "relational/fact_parser.h"
#include "repair/chain_generator.h"
#include "repair/ocqa.h"
#include "repair/repair_cache.h"
#include "repair/sampler.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace opcqa;

constexpr size_t kFamilySize = 3;
constexpr size_t kThreads = 4;
constexpr double kEps = 0.01;
constexpr double kDelta = 0.05;

enum class CliKind { kCold, kWarm, kApprox };

/// Calls `op(i)` for i = 0, 1, ... until `seconds` have passed and at
/// least `min_ops` calls were made.
template <typename Op>
void RunFor(double seconds, size_t min_ops, Op op) {
  auto start = Clock::now();
  for (size_t i = 0; i < min_ops || MsSince(start) < 1000 * seconds; ++i) {
    op(i);
  }
}

/// One query's exact answer block as opcqa_cli prints it.
struct ExactBlock {
  std::string success_mass;
  std::string failing_mass;
  std::map<std::string, std::string> cp;  // tuple -> exact CP
  std::map<std::string, double> value;    // tuple -> CP as a double

  bool operator==(const ExactBlock& other) const {
    return success_mass == other.success_mass &&
           failing_mass == other.failing_mass && cp == other.cp;
  }
};
using ExactAnswers = std::vector<ExactBlock>;
using ApproxAnswers = std::vector<std::map<std::string, double>>;

bool StartsWith(const std::string& line, const std::string& prefix) {
  return line.compare(0, prefix.size(), prefix) == 0;
}

ExactAnswers ParseExact(const std::string& out) {
  const std::string header =
      "exact operational consistent answers (success mass ";
  const std::string failing = ", failing mass ";
  ExactAnswers blocks;
  bool in_block = false;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    if (StartsWith(line, header)) {
      size_t sep = line.find(failing, header.size());
      size_t end = line.rfind("):");
      if (sep == std::string::npos || end == std::string::npos || end < sep) {
        WrongAnswer("malformed answer header: " + line);
      }
      ExactBlock block;
      block.success_mass = line.substr(header.size(), sep - header.size());
      block.failing_mass =
          line.substr(sep + failing.size(), end - sep - failing.size());
      blocks.push_back(std::move(block));
      in_block = true;
    } else if (in_block && StartsWith(line, "  (")) {
      // "  (k0,a)   1/3  (≈ 0.333333)", or "  (no tuple has CP > 0)".
      std::istringstream fields(line);
      std::string tuple, cp, mark, approx;
      fields >> tuple >> cp >> mark >> approx;
      if (tuple == "(no") continue;
      blocks.back().cp[tuple] = cp;
      blocks.back().value[tuple] = std::strtod(approx.c_str(), nullptr);
    } else {
      in_block = false;
    }
  }
  return blocks;
}

ApproxAnswers ParseApprox(const std::string& out) {
  ApproxAnswers blocks;
  bool in_block = false;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    if (StartsWith(line, "approximate answers (n = ")) {
      blocks.emplace_back();
      in_block = true;
    } else if (in_block && StartsWith(line, "  (")) {
      std::istringstream fields(line);  // "  (k0,a)   ≈ 0.3331"
      std::string tuple, mark, estimate;
      fields >> tuple >> mark >> estimate;
      blocks.back()[tuple] = std::strtod(estimate.c_str(), nullptr);
    } else {
      in_block = false;
    }
  }
  return blocks;
}

void CheckExact(const ExactAnswers& got, const ExactAnswers& want,
                const std::string& what) {
  if (got.size() != want.size() || !(got == want)) {
    WrongAnswer(what + ": answers differ from the no-disk --memo reference");
  }
}

struct ApproxCheck {
  double max_err = 0;
  size_t misses = 0;  // tuples estimated off by more than eps
  size_t tuples = 0;

  /// An (eps, delta) scheme may miss a delta share of its estimates.
  bool WithinGuarantee() const {
    return static_cast<double>(misses) <=
           std::floor(kDelta * static_cast<double>(tuples));
  }
};

/// Compares estimates with the exact CPs over every tuple either side
/// names (a missing estimate or CP is 0). An estimate more than 10 eps off
/// — beyond any plausible sampling error — is a wrong answer.
ApproxCheck CompareApprox(const ApproxAnswers& got, const ExactAnswers& exact) {
  if (got.size() != exact.size()) {
    WrongAnswer("approx run answered " + std::to_string(got.size()) + " of " +
                std::to_string(exact.size()) + " queries");
  }
  ApproxCheck check;
  for (size_t q = 0; q < got.size(); ++q) {
    std::map<std::string, double> both = exact[q].value;
    for (const auto& [tuple, estimate] : got[q]) both.emplace(tuple, 0.0);
    for (const auto& [tuple, cp] : both) {
      auto it = got[q].find(tuple);
      double err = std::fabs((it == got[q].end() ? 0.0 : it->second) - cp);
      if (err > 10 * kEps) {
        WrongAnswer("approx estimate of " + tuple + " is off by " +
                    std::to_string(err));
      }
      check.max_err = std::max(check.max_err, err);
      check.misses += err > kEps ? 1 : 0;
      ++check.tuples;
    }
  }
  return check;
}

struct Member {
  std::string dir;
  std::string schema, db, constraints;  // input file paths
  std::string memo_dir;
  ExactAnswers reference;
};

struct Family {
  std::vector<Member> members;
  std::vector<double> setup_ms;
  double reference_ms = 0;
};

std::vector<std::string> CliArgs(const Options& options, const Member& m,
                                 const std::string& db_path,
                                 std::vector<std::string> extra) {
  std::vector<std::string> args = {options.cli, "--schema=" + m.schema,
                                   "--db=" + db_path,
                                   "--constraints=" + m.constraints};
  for (const std::string& query : QueryTexts()) args.push_back("--query=" + query);
  for (std::string& flag : extra) args.push_back(std::move(flag));
  return args;
}

std::vector<std::string> ModeFlags(CliKind kind, const Member& m,
                                   uint64_t sampler_seed) {
  std::string threads = "--threads=" + std::to_string(kThreads);
  if (kind == CliKind::kApprox) {
    return {"--mode=approx", "--eps=0.01", "--delta=0.05", threads,
            "--seed=" + std::to_string(sampler_seed)};
  }
  return {"--memo-dir=" + m.memo_dir, threads};
}

/// Writes the family's files, computes each reference, and times each
/// member's set-up: writing its inputs, then the cold run that fills the
/// snapshot directory (cli_warm) or a first `--help` launch that loads
/// the binary (the other workloads; repeated, as it takes milliseconds).
Family PrepareFamily(const Options& options, CliKind kind) {
  Family family;
  std::vector<CliMember> inputs = MakeCliFamily(options.seed, kFamilySize);
  for (size_t i = 0; i < inputs.size(); ++i) {
    Member m;
    m.dir = options.work_dir + "/m" + std::to_string(i);
    m.schema = m.dir + "/schema.txt";
    m.db = m.dir + "/db.txt";
    m.constraints = m.dir + "/constraints.txt";
    m.memo_dir = m.dir + "/memo";
    RemoveAll(m.dir);
    std::filesystem::create_directories(m.dir);
    auto write_inputs = [&] {
      WriteFileOrDie(m.schema, inputs[i].schema);
      WriteFileOrDie(m.db, inputs[i].db);
      WriteFileOrDie(m.constraints, inputs[i].constraints);
    };
    write_inputs();

    auto start = Clock::now();
    ProcessRun reference = RunProcess(
        CliArgs(options, m, m.db,
                {"--memo", "--threads=" + std::to_string(kThreads)}),
        m.dir + "/reference.txt");
    family.reference_ms += MsSince(start);
    OPCQA_CHECK(reference.exit_code == 0)
        << "reference run failed for " << m.db;
    m.reference = ParseExact(reference.out);
    OPCQA_CHECK(m.reference.size() == QueryTexts().size())
        << "reference run printed " << m.reference.size() << " answer blocks";

    if (kind == CliKind::kWarm) {
      start = Clock::now();
      write_inputs();
      ProcessRun cold = RunProcess(
          CliArgs(options, m, m.db, ModeFlags(CliKind::kCold, m, 0)),
          m.dir + "/setup.txt");
      OPCQA_CHECK(cold.exit_code == 0) << "set-up cold run failed";
      family.setup_ms.push_back(MsSince(start));
      CheckExact(ParseExact(cold.out), m.reference,
                 "set-up cold run of " + m.db);
    } else {
      for (int repeat = 0; repeat < 5; ++repeat) {
        start = Clock::now();
        write_inputs();
        ProcessRun launch = RunProcess({options.cli, "--help"},
                                       m.dir + "/setup.txt");
        OPCQA_CHECK(launch.exit_code == 0) << "opcqa_cli --help failed";
        family.setup_ms.push_back(MsSince(start));
      }
    }
    family.members.push_back(std::move(m));
  }
  if (options.inject == "wrong") {
    // Corrupt one reference probability: the first check must abort.
    ExactBlock& block = family.members[0].reference[0];
    block.success_mass += "0";
    for (auto& [tuple, value] : block.value) value = 1 - value;
  }
  return family;
}

struct OpSample {
  double ms = 0;
  double snapshot_kb = 0;
  ApproxCheck approx;
};

/// One timed opcqa_cli run on member `index` mod family size. Returns
/// false when it failed (it is counted in `tally`, not timed).
bool RunOp(const Options& options, CliKind kind, Family& family,
           size_t index, Tally* tally, OpSample* sample) {
  Member& m = family.members[index % family.members.size()];
  if (kind == CliKind::kCold) RemoveAll(m.memo_dir);
  bool inject_failure = options.inject == "fail" && index == 0;
  std::vector<std::string> args = CliArgs(
      options, m, inject_failure ? m.db + ".missing" : m.db,
      ModeFlags(kind, m, options.seed * 1000 + index));
  ProcessRun run = RunProcess(args, m.dir + "/out.txt");
  ++tally->attempted;
  if (run.exit_code != 0) {
    ++tally->failed;
    return false;
  }
  sample->ms = run.ms;
  std::string what = "run " + std::to_string(index) + " on " + m.db;
  if (kind == CliKind::kApprox) {
    sample->approx = CompareApprox(ParseApprox(run.out), m.reference);
    if (!sample->approx.WithinGuarantee()) {
      ++tally->failed;
      return false;
    }
    return true;
  }
  CheckExact(ParseExact(run.out), m.reference, what);
  if (kind == CliKind::kCold) {
    sample->snapshot_kb = static_cast<double>(DirBytes(m.memo_dir)) / 1024;
  }
  return true;
}

ExactBlock ToBlock(const OcaResult& oca) {
  ExactBlock block;
  block.success_mass = oca.success_mass.ToString();
  block.failing_mass = oca.failing_mass.ToString();
  for (const auto& [tuple, p] : oca.answers) {
    block.cp[TupleToString(tuple)] = p.ToString();
    block.value[TupleToString(tuple)] = p.ToDouble();
  }
  return block;
}

/// Counters of the traced in-process sequences, summed over them.
struct SeqCounters {
  double walk_states = 0;
  double walk_calls = 0;
  double read_kb = 0;
  double write_kb = 0;
  double snapshot_kb = 0;
  double cache_bytes = 0;
  uint64_t hits = 0;
  uint64_t probes = 0;
  double sampler_walks = 0;
  std::vector<double> max_err;
};

/// What opcqa_cli does for one run, in-process, with a span around each
/// call into a layer. Returns the sequence's wall time; answers are
/// checked after the timed part.
double InProcessSequence(CliKind kind, const Member& m, uint64_t sampler_seed,
                         Tracer& tracer, SeqCounters* counters) {
  if (kind == CliKind::kCold) RemoveAll(m.memo_dir);
  ExactAnswers exact;
  ApproxAnswers approx;
  auto start = Clock::now();
  {
    Span op(tracer, "op");
    auto schema = std::make_shared<Schema>();
    std::optional<Database> db;
    std::optional<ConstraintSet> constraints;
    std::vector<Query> queries;
    {
      Span span(tracer, "parse.ms");
      schema->AddRelation("R", 2);  // every member's schema file is "R/2"
      Result<Database> parsed_db = ParseDatabase(*schema, ReadFileOrDie(m.db));
      Result<ConstraintSet> parsed_constraints =
          ParseConstraints(*schema, ReadFileOrDie(m.constraints));
      OPCQA_CHECK(parsed_db.ok() && parsed_constraints.ok());
      db.emplace(std::move(parsed_db).value());
      constraints.emplace(std::move(parsed_constraints).value());
      for (const std::string& text : QueryTexts()) {
        Result<Query> query = ParseQuery(*schema, text);
        OPCQA_CHECK(query.ok()) << text;
        queries.push_back(std::move(query).value());
      }
    }
    UniformChainGenerator generator;
    if (kind == CliKind::kApprox) {
      SamplerOptions sampler_options;
      sampler_options.threads = kThreads;
      std::optional<Sampler> sampler;
      {
        Span span(tracer, "sampler.walk_ms");
        sampler.emplace(*db, *constraints, &generator, sampler_seed,
                        sampler_options);
      }
      for (const Query& query : queries) {
        Span span(tracer, "sampler.walk_ms");
        ApproxOcaResult result = sampler->EstimateOca(query, kEps, kDelta);
        if (counters) counters->sampler_walks += result.walks;
        std::map<std::string, double>& block = approx.emplace_back();
        for (const auto& [tuple, estimate] : result.estimates) {
          block[TupleToString(tuple)] = estimate;
        }
      }
    } else {
      RepairCacheOptions cache_options;
      cache_options.snapshot_dir = m.memo_dir;
      std::optional<RepairSpaceCache> cache;
      {
        Span span(tracer, "storage.restore_ms");
        cache.emplace(cache_options);
        cache->TableFor(*db, *constraints, generator,
                        /*prune_zero_probability=*/true);
      }
      EnumerationOptions enumeration;
      enumeration.threads = kThreads;
      enumeration.memoize = true;
      enumeration.cache = &*cache;
      for (const Query& query : queries) {
        Span span(tracer, "walk.ms");
        OcaResult oca =
            ComputeOca(*db, *constraints, generator, query, enumeration);
        if (oca.enumeration.memo_stats.misses == 0) {
          span.set_layer("cache.replay_ms");
        } else if (counters) {
          counters->walk_calls += 1;
          counters->walk_states += oca.enumeration.memo_stats.misses;
        }
        exact.push_back(ToBlock(oca));
      }
      MemoStats total = cache->TotalStats();
      DiskTierStats disk;
      {
        Span span(tracer, "storage.spill_ms");
        cache->Persist();
        disk = cache->disk_stats();
        cache.reset();
      }
      if (counters) {
        counters->hits += total.hits;
        counters->probes += total.hits + total.misses;
        counters->cache_bytes += static_cast<double>(total.bytes);
        counters->read_kb += static_cast<double>(disk.restore_bytes) / 1024;
        counters->write_kb += static_cast<double>(disk.compressed_bytes) / 1024;
      }
    }
  }
  double wall_ms = MsSince(start);
  if (kind == CliKind::kApprox) {
    ApproxCheck check = CompareApprox(approx, m.reference);
    if (counters) counters->max_err.push_back(check.max_err);
  } else {
    CheckExact(exact, m.reference, "in-process run on " + m.db);
    if (counters) {
      counters->snapshot_kb += static_cast<double>(DirBytes(m.memo_dir)) / 1024;
    }
  }
  return wall_ms;
}

/// The traced half of a --trace 1 run: pairs of in-process sequences on
/// one member, one with spans off and one on (alternating which runs
/// first), so trace.overhead_frac compares the same work.
void TraceCli(const Options& options, CliKind kind, const Family& family,
              double e2e_mean_ms, Report* report) {
  Tracer traced(true);
  Tracer untraced(false);
  SeqCounters counters;
  std::vector<double> on_ms, off_ms;
  RunFor(options.seconds / 2, 2, [&](size_t i) {
    size_t pair = i / 2;
    const Member& m = family.members[pair % family.members.size()];
    uint64_t sampler_seed = options.seed * 1000 + pair;
    if ((i + pair) % 2 == 0) {
      off_ms.push_back(
          InProcessSequence(kind, m, sampler_seed, untraced, nullptr));
    } else {
      on_ms.push_back(
          InProcessSequence(kind, m, sampler_seed, traced, &counters));
    }
  });
  double ops = static_cast<double>(on_ms.size());
  size_t n = on_ms.size();
  AddLayerTimes(traced, ops, e2e_mean_ms, 0, report);
  report->Add("walk.states", counters.walk_states / ops, "count", n);
  report->Add("walk.calls", counters.walk_calls / ops, "count", n);
  report->Add("cache.hit_rate",
              counters.probes == 0 ? 0.0
                                   : static_cast<double>(counters.hits) /
                                         static_cast<double>(counters.probes),
              "frac", n);
  report->Add("cache.bytes", counters.cache_bytes / ops, "bytes", n);
  report->Add("storage.read_kb", counters.read_kb / ops, "kB", n);
  report->Add("storage.write_kb", counters.write_kb / ops, "kB", n);
  report->Add("storage.snapshot_kb", counters.snapshot_kb / ops, "kB", n);
  report->Add("sampler.walks", counters.sampler_walks / ops, "count", n);
  report->Add("sampler.max_err", Median(counters.max_err), "prob",
              counters.max_err.size());
  report->Add("trace.overhead_frac", Median(on_ms) / Median(off_ms) - 1,
              "frac", n);
  traced.WriteChromeTrace(options.work_dir + "/spans.json");
}

void RunCliWorkload(const Options& options, CliKind kind, Report* report,
                    Tally* tally) {
  Family family = PrepareFamily(options, kind);
  std::vector<double> ms, snapshot_kb, max_err;
  size_t misses = 0;
  RunFor(options.trace ? options.seconds / 2 : options.seconds, 1,
         [&](size_t i) {
           OpSample sample;
           bool ok = RunOp(options, kind, family, i, tally, &sample);
           if (kind == CliKind::kApprox && sample.approx.tuples > 0) {
             max_err.push_back(sample.approx.max_err);
             misses += sample.approx.misses;
           }
           if (!ok) return;
           ms.push_back(sample.ms);
           if (kind == CliKind::kCold) snapshot_kb.push_back(sample.snapshot_kb);
         });

  report->Add("setup_s", Median(family.setup_ms) / 1000, "s",
              family.setup_ms.size());
  report->Add("p50_ms", Median(ms), "ms", ms.size());
  report->Add("ops_per_s", ms.empty() ? 0.0 : 1000 / Mean(ms), "1/s",
              ms.size());
  report->Add("reference_s", family.reference_ms / 1000, "s",
              family.members.size());
  switch (kind) {
    case CliKind::kCold:
      report->Add("cold_ms", Median(ms), "ms", ms.size());
      report->Add("snapshot_kb", Median(snapshot_kb), "kB", snapshot_kb.size());
      break;
    case CliKind::kWarm:
      report->Add("warm_ms", Median(ms), "ms", ms.size());
      break;
    case CliKind::kApprox:
      report->Add("approx_ms", Median(ms), "ms", ms.size());
      report->Add("approx_err", Median(max_err), "prob", max_err.size());
      report->Add("approx_misses", static_cast<double>(misses), "count",
                  max_err.size());
      break;
  }
  if (options.trace) TraceCli(options, kind, family, Mean(ms), report);
}

}  // namespace

void RunCliCold(const Options& options, Report* report, Tally* tally) {
  RunCliWorkload(options, CliKind::kCold, report, tally);
}

void RunCliWarm(const Options& options, Report* report, Tally* tally) {
  RunCliWorkload(options, CliKind::kWarm, report, tally);
}

void RunApproxSample(const Options& options, Report* report, Tally* tally) {
  RunCliWorkload(options, CliKind::kApprox, report, tally);
}

}  // namespace perfbench
