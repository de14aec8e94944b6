#ifndef GPUTC_UTIL_LOGGING_H_
#define GPUTC_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace gputc {

/// Severity levels for LogMessage. kFatal aborts the process after the
/// message is flushed.
enum class LogSeverity { kInfo, kWarning, kError, kFatal };

/// Minimal streaming logger used by the GPUTC_LOG / GPUTC_CHECK macros.
/// The message is emitted to stderr when the temporary is destroyed.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line)
      : severity_(severity) {
    stream_ << "[" << SeverityName(severity) << " " << Basename(file) << ":"
            << line << "] ";
  }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  ~LogMessage() {
    stream_ << "\n";
    std::cerr << stream_.str();
    if (severity_ == LogSeverity::kFatal) {
      std::cerr.flush();
      std::abort();
    }
  }

  std::ostream& stream() { return stream_; }

 private:
  static const char* SeverityName(LogSeverity severity) {
    switch (severity) {
      case LogSeverity::kInfo:
        return "INFO";
      case LogSeverity::kWarning:
        return "WARN";
      case LogSeverity::kError:
        return "ERROR";
      case LogSeverity::kFatal:
        return "FATAL";
    }
    return "UNKNOWN";
  }

  static const char* Basename(const char* path) {
    const char* base = path;
    for (const char* p = path; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    return base;
  }

  LogSeverity severity_;
  std::ostringstream stream_;
};

}  // namespace gputc

#define GPUTC_LOG(severity)                                          \
  ::gputc::LogMessage(::gputc::LogSeverity::k##severity, __FILE__, \
                      __LINE__)                                      \
      .stream()

/// Aborts with a message when `condition` is false. Used for internal
/// invariants; user-facing errors should be reported through return values.
#define GPUTC_CHECK(condition)                                   \
  if (!(condition))                                              \
  GPUTC_LOG(Fatal) << "Check failed: " #condition " "

#define GPUTC_CHECK_OP(op, a, b)                                          \
  if (!((a)op(b)))                                                        \
  GPUTC_LOG(Fatal) << "Check failed: " #a " " #op " " #b " (" << (a)      \
                   << " vs " << (b) << ") "

#define GPUTC_CHECK_EQ(a, b) GPUTC_CHECK_OP(==, a, b)
#define GPUTC_CHECK_NE(a, b) GPUTC_CHECK_OP(!=, a, b)
#define GPUTC_CHECK_LT(a, b) GPUTC_CHECK_OP(<, a, b)
#define GPUTC_CHECK_LE(a, b) GPUTC_CHECK_OP(<=, a, b)
#define GPUTC_CHECK_GT(a, b) GPUTC_CHECK_OP(>, a, b)
#define GPUTC_CHECK_GE(a, b) GPUTC_CHECK_OP(>=, a, b)

/// GPUTC_CHECK in builds without NDEBUG; compiled out (condition unevaluated)
/// otherwise. For invariants checked inside per-vertex loops.
#ifdef NDEBUG
#define GPUTC_DCHECK(condition) \
  while (false) GPUTC_CHECK(condition)
#else
#define GPUTC_DCHECK(condition) GPUTC_CHECK(condition)
#endif

#endif  // GPUTC_UTIL_LOGGING_H_
