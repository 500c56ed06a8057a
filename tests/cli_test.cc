// End-to-end checks of the opcqa_cli binary (fork + exec): the exit-code
// contract for bad flag values, relations wider than 16, the sampler's
// metrics rows, the --show-repairs distribution and the --mode=sql
// stdout.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

/// A fresh temp directory holding a small key-violation instance, removed
/// on destruction.
class CliInputs {
 public:
  CliInputs() {
    std::string pattern =
        (fs::temp_directory_path() / "opcqa_cli_XXXXXX").string();
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    char* made = ::mkdtemp(buffer.data());
    EXPECT_NE(made, nullptr);
    dir_ = made == nullptr ? std::string() : made;
    Write("schema.txt", "R/2\n");
    Write("db.txt", "R(a,b). R(a,c). R(d,e).\n");
    Write("constraints.txt", "key: R(x,y), R(x,z) -> y = z\n");
  }
  ~CliInputs() {
    std::error_code ignored;
    if (!dir_.empty()) fs::remove_all(dir_, ignored);
  }

  std::vector<std::string> Args() const {
    return {"--schema=" + dir_ + "/schema.txt", "--db=" + dir_ + "/db.txt",
            "--constraints=" + dir_ + "/constraints.txt",
            "--query=Q(x,y) := R(x,y)"};
  }
  std::string Path(const std::string& name) const {
    return dir_ + "/" + name;
  }
  void Write(const std::string& name, const std::string& text) const {
    std::ofstream(dir_ + "/" + name) << text;
  }

 private:
  std::string dir_;
};

struct CliRun {
  int exit_code = -1;  // -1 when the process did not exit normally
  std::string out;     // everything it wrote to stdout
  std::string err;     // everything it wrote to stderr
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs opcqa_cli with `args`, capturing stdout and stderr in `inputs`.
CliRun RunCli(const std::vector<std::string>& args, const CliInputs& inputs) {
  std::string out_path = inputs.Path("out.txt");
  std::string err_path = inputs.Path("err.txt");
  pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(OPCQA_CLI_PATH));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    if (!std::freopen(out_path.c_str(), "w", stdout) ||
        !std::freopen(err_path.c_str(), "w", stderr)) {
      std::_Exit(126);
    }
    ::execv(OPCQA_CLI_PATH, argv.data());
    std::_Exit(127);  // exec failed
  }
  CliRun run;
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return run;
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  run.out = ReadAll(out_path);
  run.err = ReadAll(err_path);
  return run;
}

TEST(CliTest, BadSamplerFlagValuesAreUsageErrors) {
  // The CLI contract: a bad flag value is a usage error (exit 2), caught
  // before any input is read, so nothing reaches stdout.
  CliInputs inputs;
  const std::vector<std::string> bad = {
      "--eps=0",
      "--eps=-0.1",
      "--eps=abc",
      "--eps=",
      "--eps=0.1x",
      "--eps=nan",
      "--eps=1e-10",   // n(ε,δ) past 2^53 walks
      "--eps=1e-300",  // 2ε² underflows: n(ε,δ) = inf
      "--delta=0",
      "--delta=1",
      "--delta=1.5",
      "--delta=abc",
      "--delta=inf",
      "--seed=abc",
      "--seed=-3",
      "--seed=",
      "--threads=x",
      "--memo-bytes=abc",
      "--serve-workers=x",
      "--memo-compact-ratio=abc",
      "--slow-ms=abc",
      "--memo-disk-bytes=-5",
      "--mode=bogus",
      "--generator=bogus",
      "--plan=bogus",
  };
  for (const std::string& flag : bad) {
    std::vector<std::string> args = inputs.Args();
    args.push_back("--mode=approx");
    args.push_back(flag);
    CliRun run = RunCli(args, inputs);
    EXPECT_EQ(run.exit_code, 2) << flag << "\n" << run.err;
    EXPECT_EQ(run.out, "") << flag;
    std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(run.err.find(name), std::string::npos) << run.err;
  }
}

TEST(CliTest, ExactModeIgnoresTheSampleBound) {
  // Only --mode=approx and --mode=sql size a sample from --eps/--delta.
  CliInputs inputs;
  std::vector<std::string> args = inputs.Args();
  args.push_back("--mode=exact");
  args.push_back("--eps=1e-10");
  CliRun run = RunCli(args, inputs);
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out, "");
}

TEST(CliTest, MissingRequiredFlagsAreNamedOnStderr) {
  CliInputs inputs;
  CliRun run = RunCli({inputs.Args()[0], "--mode=sql"}, inputs);
  EXPECT_EQ(run.exit_code, 2) << run.err;
  EXPECT_EQ(run.out, "");
  EXPECT_NE(run.err.find("missing --db=FILE --sql=TEXT --keys=SPEC"),
            std::string::npos)
      << run.err;
}

TEST(CliTest, RepeatedHeadVariableIsAHardFailure) {
  // A malformed query is bad input (exit 1 with an error line), whether
  // it comes from --query or from a --serve-trace line — never an abort.
  CliInputs inputs;
  std::vector<std::string> args = inputs.Args();
  args.back() = "--query=Q(x,x) := exists y (R(x,y))";
  CliRun run = RunCli(args, inputs);
  EXPECT_EQ(run.exit_code, 1) << run.err;
  EXPECT_NE(run.err.find("error:"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("duplicate head variable: x"), std::string::npos)
      << run.err;

  std::ofstream(inputs.Path("dup.trace"))
      << "t0 answer exact uniform 0 Q(x,x) := exists y (R(x,y))\n";
  args.back() = "--serve-trace=" + inputs.Path("dup.trace");
  run = RunCli(args, inputs);
  EXPECT_EQ(run.exit_code, 1) << run.err;
  EXPECT_NE(run.err.find("error:"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("duplicate head variable: x"), std::string::npos)
      << run.err;
}

TEST(CliTest, DeeplyNestedQueryIsAHardFailure) {
  // Nesting past the parser's limit is bad input, from --query or from a
  // --serve-trace line — never a stack overflow.
  CliInputs inputs;
  const std::string query = "Q(x,y) := " + std::string(5000, '(') +
                            "R(x,y)" + std::string(5000, ')');
  std::vector<std::string> args = inputs.Args();
  args.back() = "--query=" + query;
  CliRun run = RunCli(args, inputs);
  EXPECT_EQ(run.exit_code, 1) << run.err;
  EXPECT_NE(run.err.find("error:"), std::string::npos) << run.err;

  std::ofstream(inputs.Path("deep.trace"))
      << "t0 answer exact uniform 0 " << query << "\n";
  args.back() = "--serve-trace=" + inputs.Path("deep.trace");
  run = RunCli(args, inputs);
  EXPECT_EQ(run.exit_code, 1) << run.err;
  EXPECT_NE(run.err.find("error:"), std::string::npos) << run.err;
}

TEST(CliTest, MalformedSchemaArityIsAHardFailure) {
  // An arity is a whole decimal number in [1, 2^32 - 1]: a trailing
  // suffix, a fraction or a value past 32 bits is bad input, never
  // silently read as a smaller arity (all three once parsed as R/2).
  for (const char* arity : {"2x", "2.5", "4294967298", "0", "-1", ""}) {
    SCOPED_TRACE(arity);
    CliInputs inputs;
    inputs.Write("schema.txt", std::string("R/") + arity + "\n");
    CliRun run = RunCli(inputs.Args(), inputs);
    EXPECT_EQ(run.exit_code, 1) << run.err;
    EXPECT_EQ(run.out, "");
    EXPECT_NE(run.err.find("error:"), std::string::npos) << run.err;
    EXPECT_NE(run.err.find("bad arity in schema line: R/"), std::string::npos)
        << run.err;
  }
  CliInputs inputs;
  CliRun run = RunCli(inputs.Args(), inputs);
  EXPECT_EQ(run.exit_code, 0) << run.err;
}

TEST(CliTest, RelationsWiderThanSixteenAnswer) {
  // A constrained relation of arity 17 once aborted while interning a
  // violation's body image; it answers like any other: the key conflict
  // leaves each fact in one of the three repairs.
  auto terms = [](const std::string& head, const std::string& stem) {
    std::string text = head;
    for (int i = 1; i <= 16; ++i) text += "," + stem + std::to_string(i);
    return text;
  };
  CliInputs inputs;
  inputs.Write("schema.txt", "R/17\n");
  inputs.Write("db.txt", "R(" + terms("a", "b") + "). R(" + terms("a", "c") +
                             ").\n");
  inputs.Write("constraints.txt", "key: R(" + terms("x", "y") + "), R(" +
                                      terms("x", "z") + ") -> y1 = z1\n");
  std::vector<std::string> args = inputs.Args();
  args.back() = "--query=Q(" + terms("x", "y") + ") := R(" +
                terms("x", "y") + ")";
  CliRun run = RunCli(args, inputs);
  ASSERT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("(" + terms("a", "b") + ") 1/3"), std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("(" + terms("a", "c") + ") 1/3"), std::string::npos)
      << run.out;
}

TEST(CliTest, ShowRepairsStdoutIsPinned) {
  // The repair distribution, byte for byte, at every thread count and
  // with or without memoization (the `memoization:` counter line aside):
  // most probable first, ties in database order. The key instance is all
  // ties; Example 1's TGD makes repairs that add S facts.
  CliInputs inputs;
  inputs.Write("tie_db.txt", "R(a,b). R(a,c). R(d,e). R(d,f).\n");
  inputs.Write("tgd_schema.txt", "R/2\nS/3\nT/2\n");
  inputs.Write("tgd_db.txt", "R(a,b). R(a,c). T(a,b).\n");
  inputs.Write("tgd_constraints.txt",
               "sigma: R(x,y) -> exists z: S(x,y,z)\n"
               "eta: R(x,y), R(x,z) -> y = z\n");
  const std::string answers_header =
      "query:       Q(x,y) := R(x,y)\n"
      "\n";
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"--schema=" + inputs.Path("schema.txt"),
         "--db=" + inputs.Path("tie_db.txt"),
         "--constraints=" + inputs.Path("constraints.txt")},
        "schema:      {R/2}\n"
        "database:    4 facts, consistent: no\n"
        "constraints: 1\n" +
            answers_header +
            "exact operational consistent answers (success mass 1, failing "
            "mass 0):\n"
            "  (a,b)                    1/3  (≈ 0.333333)\n"
            "  (a,c)                    1/3  (≈ 0.333333)\n"
            "  (d,e)                    1/3  (≈ 0.333333)\n"
            "  (d,f)                    1/3  (≈ 0.333333)\n"
            "\n"
            "repair distribution:\n"
            "  p = 1/9        {  }\n"
            "  p = 1/9        { R(a,b). }\n"
            "  p = 1/9        { R(a,b). R(d,e). }\n"
            "  p = 1/9        { R(a,b). R(d,f). }\n"
            "  p = 1/9        { R(a,c). }\n"
            "  p = 1/9        { R(a,c). R(d,e). }\n"
            "  p = 1/9        { R(a,c). R(d,f). }\n"
            "  p = 1/9        { R(d,e). }\n"
            "  p = 1/9        { R(d,f). }\n"},
       {{"--schema=" + inputs.Path("tgd_schema.txt"),
         "--db=" + inputs.Path("tgd_db.txt"),
         "--constraints=" + inputs.Path("tgd_constraints.txt")},
        "schema:      {R/2, S/3, T/2}\n"
        "database:    3 facts, consistent: no\n"
        "constraints: 2\n" +
            answers_header +
            "exact operational consistent answers (success mass 1/2, "
            "failing mass 1/2):\n"
            "  (a,b)                    1/3  (≈ 0.333333)\n"
            "  (a,c)                    1/3  (≈ 0.333333)\n"
            "\n"
            "repair distribution:\n"
            "  p = 1/6        { T(a,b). }\n"
            "  p = 1/18       { R(a,b). S(a,b,a). T(a,b). }\n"
            "  p = 1/18       { R(a,b). S(a,b,b). T(a,b). }\n"
            "  p = 1/18       { R(a,b). S(a,b,c). T(a,b). }\n"
            "  p = 1/18       { R(a,c). S(a,c,a). T(a,b). }\n"
            "  p = 1/18       { R(a,c). S(a,c,b). T(a,b). }\n"
            "  p = 1/18       { R(a,c). S(a,c,c). T(a,b). }\n"}};
  for (const auto& [files, golden] : cases) {
    for (const char* threads : {"--threads=1", "--threads=4"}) {
      for (bool memo : {false, true}) {
        std::vector<std::string> args = files;
        args.push_back("--query=Q(x,y) := R(x,y)");
        args.push_back("--show-repairs");
        args.push_back(threads);
        if (memo) args.push_back("--memo");
        CliRun run = RunCli(args, inputs);
        SCOPED_TRACE(files[1] + " " + threads + (memo ? " --memo" : ""));
        EXPECT_EQ(run.exit_code, 0) << run.err;
        std::istringstream lines(run.out);
        std::string out, line;
        size_t memo_lines = 0;
        while (std::getline(lines, line)) {
          if (line.rfind("memoization:", 0) == 0) {
            ++memo_lines;
          } else {
            out += line + "\n";
          }
        }
        EXPECT_EQ(memo_lines, memo ? 1u : 0u);
        EXPECT_EQ(out, golden);
      }
    }
  }
}

TEST(CliTest, SqlModeStdoutIsPinned) {
  // --mode=sql stdout, byte for byte: the rewritten statement and the
  // per-row frequencies of the R_del loop, seeded by (--seed, statement).
  CliInputs inputs;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"SELECT c1 FROM R",
       "rewritten SQL: SELECT c1 FROM (SELECT * FROM R EXCEPT SELECT * FROM "
       "R__del) AS R\n"
       "answer frequencies over 150 rounds (additive error ≤ 0.100 with "
       "confidence ≥ 0.900, per tuple):\n"
       "  (b)                      ≈ 0.5400\n"
       "  (c)                      ≈ 0.4600\n"
       "  (e)                      ≈ 1.0000\n"},
      {"SELECT c0 FROM R WHERE c1 = 'b' UNION "
       "SELECT c0 FROM R WHERE c1 = 'e'",
       "rewritten SQL: SELECT c0 FROM (SELECT * FROM R EXCEPT SELECT * FROM "
       "R__del) AS R WHERE c1 = 'b' UNION SELECT c0 FROM (SELECT * FROM R "
       "EXCEPT SELECT * FROM R__del) AS R WHERE c1 = 'e'\n"
       "answer frequencies over 150 rounds (additive error ≤ 0.100 with "
       "confidence ≥ 0.900, per tuple):\n"
       "  (a)                      ≈ 0.4400\n"
       "  (d)                      ≈ 1.0000\n"},
  };
  for (const auto& [sql, golden] : cases) {
    std::vector<std::string> args = inputs.Args();
    for (const char* flag : {"--mode=sql", "--keys=R:0", "--seed=3"}) {
      args.push_back(flag);
    }
    args.push_back("--sql=" + sql);
    CliRun run = RunCli(args, inputs);
    EXPECT_EQ(run.exit_code, 0) << sql << "\n" << run.err;
    EXPECT_EQ(run.out, golden) << sql;
  }
}

TEST(CliTest, BadKeysSpecsAreUsageErrors) {
  // Key positions are whole non-negative integers, like every integer
  // flag: a malformed one never silently selects a key column.
  CliInputs inputs;
  for (const char* keys : {"--keys=R:x", "--keys=R:", "--keys=R:0,",
                           "--keys=R:-0", "--keys=R:1x", "--keys=R:2",
                           "--keys=R", "--keys=S:0"}) {
    std::vector<std::string> args = inputs.Args();
    args.push_back("--mode=sql");
    args.push_back("--sql=SELECT c1 FROM R");
    args.push_back(keys);
    CliRun run = RunCli(args, inputs);
    EXPECT_EQ(run.exit_code, 2) << keys << "\n" << run.err;
    EXPECT_EQ(run.out, "") << keys;
    EXPECT_NE(run.err.find("--keys"), std::string::npos) << run.err;
  }
}

TEST(CliTest, TableKeyedTwiceIsAUsageError) {
  // One sampled deletion table per keyed table: a second key would be
  // silently dropped.
  CliInputs inputs;
  std::vector<std::string> args = inputs.Args();
  args.push_back("--mode=sql");
  args.push_back("--sql=SELECT c0, c1 FROM R");
  args.push_back("--keys=R:1;R:0");
  CliRun run = RunCli(args, inputs);
  EXPECT_EQ(run.exit_code, 2) << run.err;
  EXPECT_EQ(run.out, "");
  EXPECT_NE(run.err.find("--keys names table R twice"), std::string::npos)
      << run.err;
}

TEST(CliTest, ApproxRunReportsSamplerMetrics) {
  CliInputs inputs;
  std::vector<std::string> args = inputs.Args();
  // minchange is not local, so the estimate walks (uniform is exact here).
  for (const char* flag : {"--mode=approx", "--eps=0.1", "--delta=0.1",
                           "--seed=7", "--metrics", "--generator=minchange"}) {
    args.push_back(flag);
  }
  CliRun run = RunCli(args, inputs);
  ASSERT_EQ(run.exit_code, 0) << run.err;
  // n(0.1, 0.1) = 150 walks, recorded once per estimation call.
  EXPECT_NE(run.err.find("sampler.walks"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find(" 150\n"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("sampler.steps"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("sampler.estimate_ms"), std::string::npos)
      << run.err;
  EXPECT_NE(run.err.find("count=1 "), std::string::npos) << run.err;
}

TEST(CliTest, ApproxRunOnALocalRootIsExact) {
  // R(a,b), R(a,c) is one conflict component: 4 chain states and 3
  // repairs fit the 150 walks of ε = δ = 0.1, so no walk runs.
  CliInputs inputs;
  std::vector<std::string> args = inputs.Args();
  for (const char* flag :
       {"--mode=approx", "--eps=0.1", "--delta=0.1", "--metrics"}) {
    args.push_back(flag);
  }
  CliRun run = RunCli(args, inputs);
  ASSERT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("approximate answers (n = 0 walks; exact from 3 "
                         "repairs of 1 conflict component, additive error "
                         "0, per tuple):\n"
                         "  (a,b)                    ≈ 0.3333\n"
                         "  (a,c)                    ≈ 0.3333\n"
                         "  (d,e)                    ≈ 1.0000\n"),
            std::string::npos)
      << run.out;
  size_t counter = run.err.find("sampler.exact_estimates ");
  ASSERT_NE(counter, std::string::npos) << run.err;
  EXPECT_EQ(run.err.substr(run.err.find('\n', counter) - 2, 3), " 1\n")
      << run.err;
  // Another seed or thread count prints the same answers.
  args.push_back("--seed=99");
  args.push_back("--threads=4");
  EXPECT_EQ(RunCli(args, inputs).out, run.out);
}

TEST(CliTest, ApproxEstimatesDoNotDependOnQueryPosition) {
  // Each query draws its walks from (--seed, query text): the same query
  // as query 1 and as query 2 prints the same estimates.
  CliInputs inputs;
  inputs.Write("db.txt", "R(a,a). R(b,c). R(b,d).\n");
  std::vector<std::string> args = inputs.Args();
  for (const char* flag : {"--mode=approx", "--generator=minchange",
                           "--seed=7", "--query=Q(x) := R(x,x)"}) {
    args.push_back(flag);
  }
  CliRun first = RunCli(args, inputs);
  ASSERT_EQ(first.exit_code, 0) << first.err;
  args.erase(args.begin() + 3);  // the leading --query=Q(x,y) := R(x,y)
  args.push_back("--query=Q(x,y) := R(x,y)");
  CliRun second = RunCli(args, inputs);
  ASSERT_EQ(second.exit_code, 0) << second.err;
  auto block = [](const std::string& out, const std::string& query) {
    size_t begin = out.find(query + "\napproximate answers");
    size_t end = out.find("== query", begin + 1);
    return begin == std::string::npos ? std::string()
                                      : out.substr(begin, end - begin);
  };
  std::string at_1 = block(first.out, "== query 1: Q(x,y) := R(x,y)");
  std::string at_2 = block(second.out, "== query 2: Q(x,y) := R(x,y)");
  ASSERT_NE(at_1, "") << first.out;
  EXPECT_EQ(at_1.substr(at_1.find('\n')), at_2.substr(at_2.find('\n')));
  EXPECT_NE(at_1.find("walks"), std::string::npos);
}

}  // namespace
