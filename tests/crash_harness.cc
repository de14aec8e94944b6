#include "crash_harness.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

extern char** environ;

namespace gputc {
namespace testing {
namespace {

/// Reads the child's stdout and stderr together until both close, SIGKILLs
/// the child at the deadline, and returns true if it had to. Pipes held open
/// past the kill (by a grandchild) get a few more seconds, then are dropped.
bool DrainChild(pid_t pid, int out_fd, int err_fd, ChildResult* result) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(kChildDeadlineSeconds);
  bool killed = false;
  pollfd fds[2] = {{out_fd, POLLIN, 0}, {err_fd, POLLIN, 0}};
  std::string* sinks[2] = {&result->stdout_text, &result->stderr_text};
  while (fds[0].fd >= 0 || fds[1].fd >= 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      if (killed) break;
      ::kill(pid, SIGKILL);
      killed = true;
      deadline = Clock::now() + std::chrono::seconds(5);
      continue;
    }
    if (::poll(fds, 2, static_cast<int>(left.count())) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < 2; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      char buf[4096];
      const ssize_t n = ::read(fds[i].fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        fds[i].fd = -1;  // poll(2) skips negative descriptors.
        continue;
      }
      sinks[i]->append(buf, static_cast<size_t>(n));
    }
  }
  return killed;
}

}  // namespace

std::string GputcBinaryPath() {
#ifdef GPUTC_CLI_PATH
  return GPUTC_CLI_PATH;
#else
  return "gputc";
#endif
}

ChildResult RunGputc(const std::vector<std::string>& args,
                     const std::vector<std::string>& env_extra) {
  ChildResult result;

  int out_pipe[2];
  int err_pipe[2];
  if (::pipe(out_pipe) != 0 || ::pipe(err_pipe) != 0) {
    std::perror("pipe");
    return result;
  }

  // argv: binary + args + nullptr.
  const std::string binary = GputcBinaryPath();
  std::vector<std::string> argv_store;
  argv_store.reserve(args.size() + 1);
  argv_store.push_back(binary);
  for (const std::string& a : args) argv_store.push_back(a);
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  // env: parent's environment minus GPUTC_FAILPOINTS, plus env_extra. The
  // strip matters: CI chaos jobs run the whole test suite under an ambient
  // schedule, and the harness must control exactly which child crashes.
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GPUTC_FAILPOINTS=", 17) == 0) continue;
    env_store.emplace_back(*e);
  }
  for (const std::string& e : env_extra) env_store.push_back(e);
  std::vector<char*> envp;
  for (std::string& e : env_store) envp.push_back(e.data());
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    return result;
  }
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    ::execve(binary.c_str(), argv.data(), envp.data());
    std::perror("execve");
    std::_Exit(127);
  }

  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  const bool killed = DrainChild(pid, out_pipe[0], err_pipe[0], &result);
  ::close(out_pipe[0]);
  ::close(err_pipe[0]);

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (killed) {
    // Not 137: that is also what a crash fail point exits with.
    result.exit_code = -1;
    result.stderr_text += "\n[crash_harness] child still running after " +
                          std::to_string(kChildDeadlineSeconds) +
                          " s; SIGKILLed\n";
  } else if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.exit_code = 128 + WTERMSIG(status);
  }
  return result;
}

}  // namespace testing
}  // namespace gputc
