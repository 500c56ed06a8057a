// Child processes and files for the CLI workloads.

#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

#include <string>
#include <vector>

namespace perfbench {

struct ProcessRun {
  int exit_code = -1;  // -1 when the child did not exit normally
  double ms = 0;       // spawn to reaped exit, steady clock
  std::string out;     // everything the child wrote to stdout
};

/// Runs argv[0] (a path) with `argv`, stdout into `stdout_path` and
/// stderr into `stdout_path` + ".err", waits for it, and returns its exit
/// status, wall time and stdout. The timed interval is process start to
/// exit as a caller sees it: spawn, run, reap.
ProcessRun RunProcess(const std::vector<std::string>& argv,
                      const std::string& stdout_path);

std::string ReadFileOrDie(const std::string& path);
void WriteFileOrDie(const std::string& path, const std::string& text);

/// Total size of the regular files under `dir` (0 when it is missing).
size_t DirBytes(const std::string& dir);
void RemoveAll(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
