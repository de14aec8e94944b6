#ifndef GPUTC_TESTS_CRASH_HARNESS_H_
#define GPUTC_TESTS_CRASH_HARNESS_H_

#include <string>
#include <vector>

namespace gputc {
namespace testing {

/// Result of running the gputc CLI as a child process.
struct ChildResult {
  /// Exit code, or 128+signal if the child died to a signal it did not
  /// convert into an exit code itself, or -1 if it outlived the harness
  /// deadline (kChildDeadlineSeconds) and the harness SIGKILLed it.
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

/// Absolute path of the gputc binary under test, baked in by CMake as
/// GPUTC_CLI_PATH.
std::string GputcBinaryPath();

/// A child still running this long is wedged: the harness SIGKILLs it, so
/// a hang fails its test with the child's stderr instead of at ctest's
/// per-test timeout.
inline constexpr int kChildDeadlineSeconds = 120;

/// fork/execs the gputc binary with `args` (argv[1..]) and waits for it, at
/// most kChildDeadlineSeconds.
///
/// The child's environment is the parent's MINUS any inherited
/// GPUTC_FAILPOINTS (CI chaos jobs export an ambient schedule that would
/// otherwise contaminate every child) PLUS the entries of `env_extra`
/// ("KEY=VALUE"). To arm a crash schedule in the child, pass it explicitly:
///   RunGputc({"batch", ...}, {"GPUTC_FAILPOINTS=wal.done=crash@1"});
ChildResult RunGputc(const std::vector<std::string>& args,
                     const std::vector<std::string>& env_extra = {});

}  // namespace testing
}  // namespace gputc

#endif  // GPUTC_TESTS_CRASH_HARNESS_H_
