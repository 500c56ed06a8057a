#include "process.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/logging.h"

extern char** environ;

namespace perfbench {

ProcessRun RunProcess(const std::vector<std::string>& argv,
                      const std::string& stdout_path) {
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::string err_path = stdout_path + ".err";
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);

  ProcessRun run;
  auto start = std::chrono::steady_clock::now();
  pid_t pid = 0;
  int spawn_error = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                                environ);
  posix_spawn_file_actions_destroy(&actions);
  OPCQA_CHECK(spawn_error == 0) << "cannot spawn " << argv[0];
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    OPCQA_CHECK(errno == EINTR) << "waitpid failed for " << argv[0];
  }
  run.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count();
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.out = ReadFileOrDie(stdout_path);
  return run;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  OPCQA_CHECK(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileOrDie(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  OPCQA_CHECK(out.good()) << "cannot write " << path;
}

size_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  size_t bytes = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += it->file_size(ec);
  }
  return bytes;
}

void RemoveAll(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  OPCQA_CHECK(!ec) << "cannot remove " << path << ": " << ec.message();
}

}  // namespace perfbench
