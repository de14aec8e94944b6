// Tests for the network serving layer: the AIMD adaptive concurrency
// limiter, listen-spec parsing, the version stamp, and the Server end to
// end over unix-domain sockets — request/response happy path, the hostile
// client corpus (oversized lines, garbage bytes, slowloris, mid-request
// disconnects), overload rejections with retry hints, the graceful-drain
// ladder, health/readiness/metrics probes, and fd hygiene under connection
// churn. The whole file runs under TSan/ASan in CI.

#include "service/server.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/overload.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/net_io.h"
#include "util/version.h"

namespace gputc {
namespace {

// -- AdaptiveLimiter --------------------------------------------------------

TEST(AdaptiveLimiterTest, AcquiresUpToLimitThenRejects) {
  AdaptiveLimiterOptions options;
  options.initial_limit = 2;
  options.min_limit = 1;
  options.max_limit = 4;
  AdaptiveLimiter limiter(options);
  EXPECT_TRUE(limiter.TryAcquire().ok());
  EXPECT_TRUE(limiter.TryAcquire().ok());
  const Status full = limiter.TryAcquire();
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(limiter.inflight(), 2);
  limiter.Release(5.0);
  EXPECT_TRUE(limiter.TryAcquire().ok());
}

TEST(AdaptiveLimiterTest, SlowWindowShrinksTheLimit) {
  AdaptiveLimiterOptions options;
  options.initial_limit = 4;
  options.min_limit = 1;
  options.max_limit = 8;
  options.target_ms = 10.0;
  options.window = 4;
  options.decrease_factor = 0.7;
  AdaptiveLimiter limiter(options);
  // One full window of latencies far over target: multiplicative decrease.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(limiter.TryAcquire().ok());
    limiter.Release(100.0);
  }
  EXPECT_EQ(limiter.limit(), 2) << "floor(4 * 0.7)";
  EXPECT_EQ(limiter.overloaded_windows(), 1);
  // RetryAfterMs now tracks the observed p99, not the static target.
  EXPECT_EQ(limiter.RetryAfterMs(), 100);
}

TEST(AdaptiveLimiterTest, HealthyWindowProbesUpwardOneSlot) {
  AdaptiveLimiterOptions options;
  options.initial_limit = 2;
  options.min_limit = 1;
  options.max_limit = 3;
  options.target_ms = 1000.0;
  options.window = 2;
  AdaptiveLimiter limiter(options);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(limiter.TryAcquire().ok());
    limiter.Release(1.0);
  }
  EXPECT_EQ(limiter.limit(), 3);
  // Additive increase saturates at max_limit.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(limiter.TryAcquire().ok());
    limiter.Release(1.0);
  }
  EXPECT_EQ(limiter.limit(), 3);
  EXPECT_EQ(limiter.overloaded_windows(), 0);
}

TEST(AdaptiveLimiterTest, RetryAfterDefaultsToTargetAndClamps) {
  AdaptiveLimiterOptions options;
  options.target_ms = 400.0;
  options.window = 2;
  AdaptiveLimiter limiter(options);
  // No window observed yet: fall back to the target.
  EXPECT_EQ(limiter.RetryAfterMs(), 400);
  // A pathological window is clamped so clients never sleep forever.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(limiter.TryAcquire().ok());
    limiter.Release(60000.0);
  }
  EXPECT_EQ(limiter.RetryAfterMs(), 5000);
}

TEST(AdaptiveLimiterTest, ReleaseSlotReturnsTheSlotWithoutASample) {
  AdaptiveLimiterOptions options;
  options.initial_limit = 2;
  options.min_limit = 1;
  options.max_limit = 4;
  options.target_ms = 10.0;
  options.window = 1;  // Any sample would adapt immediately.
  AdaptiveLimiter limiter(options);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(limiter.TryAcquire().ok());
    limiter.ReleaseSlot();
  }
  // A storm of door rejections feeds the controller nothing: the limit must
  // not climb on fake-fast samples exactly when the service is saturated.
  EXPECT_EQ(limiter.limit(), 2);
  EXPECT_EQ(limiter.inflight(), 0);
  EXPECT_EQ(limiter.overloaded_windows(), 0);
}

TEST(AdaptiveLimiterTest, LimitNeverLeavesTheConfiguredBounds) {
  AdaptiveLimiterOptions options;
  options.initial_limit = 2;
  options.min_limit = 2;
  options.max_limit = 4;
  options.target_ms = 10.0;
  options.window = 1;
  AdaptiveLimiter limiter(options);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(limiter.TryAcquire().ok());
    limiter.Release(500.0);  // Every window unhealthy.
    EXPECT_GE(limiter.limit(), 2);
  }
  EXPECT_EQ(limiter.limit(), 2);
}

// -- ListenSpec -------------------------------------------------------------

TEST(ListenSpecTest, ParsesTcpHostPort) {
  const StatusOr<ListenSpec> spec = ParseListenSpec("127.0.0.1:7171");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->is_unix);
  EXPECT_EQ(spec->host, "127.0.0.1");
  EXPECT_EQ(spec->port, 7171);
  EXPECT_EQ(spec->ToString(), "127.0.0.1:7171");
}

TEST(ListenSpecTest, ParsesPortZeroForEphemeralBind) {
  const StatusOr<ListenSpec> spec = ParseListenSpec("0.0.0.0:0");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->port, 0);
}

TEST(ListenSpecTest, ParsesUnixPath) {
  const StatusOr<ListenSpec> spec = ParseListenSpec("unix:/tmp/gputc.sock");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->is_unix);
  EXPECT_EQ(spec->path, "/tmp/gputc.sock");
  EXPECT_EQ(spec->ToString(), "unix:/tmp/gputc.sock");
}

TEST(ListenSpecTest, RejectsMalformedSpecs) {
  for (const char* bad : {"localhost", "host:", ":1234x", "host:notaport",
                          "host:70000", "unix:"}) {
    const StatusOr<ListenSpec> spec = ParseListenSpec(bad);
    EXPECT_FALSE(spec.ok()) << bad;
    if (!spec.ok()) {
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

TEST(ListenSpecTest, RejectsOverlongUnixPath) {
  const StatusOr<ListenSpec> spec =
      ParseListenSpec("unix:/tmp/" + std::string(200, 'x'));
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

// -- Version stamp ----------------------------------------------------------

TEST(VersionTest, StringCarriesEveryIdentityComponent) {
  const std::string v = VersionString();
  EXPECT_EQ(v.rfind("gputc ", 0), 0u) << v;
  EXPECT_NE(v.find(VersionNumber()), std::string::npos) << v;
  EXPECT_NE(v.find(BuildType()), std::string::npos) << v;
  EXPECT_NE(v.find("sanitizer="), std::string::npos) << v;
  EXPECT_NE(v.find(SanitizerConfig()), std::string::npos) << v;
}

// -- End-to-end server fixture ----------------------------------------------

int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

/// A blocking protocol client with bounded reads, so a server bug can never
/// wedge the test past its own deadline.
class Client {
 public:
  explicit Client(const ListenSpec& spec) {
    StatusOr<int> fd = ConnectToListener(spec);
    GPUTC_CHECK(fd.ok()) << fd.status().ToString();
    fd_ = *fd;
  }
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void Send(const std::string& bytes) {
    size_t done = 0;
    while (done < bytes.size()) {
      const StatusOr<size_t> n =
          SendRetry(fd_, bytes.data() + done, bytes.size() - done);
      if (!n.ok()) return;  // Peer-close races are expected in these tests.
      done += *n;
    }
  }

  /// Next newline-terminated line ('\n' and '\r' stripped), or "" once EOF
  /// or the timeout is reached.
  std::string ReadLine(int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        buf_.erase(0, nl + 1);
        return line;
      }
      if (eof_ || !FillBuffer(deadline)) return "";
    }
  }

  /// Everything until EOF (or the timeout), for HTTP-framed responses.
  std::string ReadAll(int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!eof_ && FillBuffer(deadline)) {
    }
    std::string out;
    out.swap(buf_);
    return out;
  }

  /// True when the server closed its end within the timeout.
  bool WaitForEof(int timeout_ms = 10000) {
    (void)ReadAll(timeout_ms);
    return eof_;
  }

  void CloseWrite() { ::shutdown(fd_, SHUT_WR); }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  /// One buffered read before `deadline`; false on timeout/error/EOF.
  bool FillBuffer(std::chrono::steady_clock::time_point deadline) {
    for (;;) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline -
                                     std::chrono::steady_clock::now());
      if (remaining.count() <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      const StatusOr<int> ready = PollRetry(
          &pfd, 1, static_cast<int>(std::min<int64_t>(remaining.count(), 50)));
      if (!ready.ok()) return false;
      if (*ready == 0) continue;
      char chunk[1024];
      const StatusOr<size_t> n = ReadRetry(fd_, chunk, sizeof(chunk));
      if (!n.ok() || *n == 0) {
        eof_ = true;
        return false;
      }
      buf_.append(chunk, *n);
      return true;
    }
  }

  int fd_ = -1;
  std::string buf_;
  bool eof_ = false;
};

constexpr char kSmallGen[] = "gen:er:nodes=60,edges=150,seed=1";

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The test binary plays both client and server on unix sockets; a race
    // against a departing peer must stay an EPIPE status, not a signal.
    std::signal(SIGPIPE, SIG_IGN);
    FailPointRegistry::Instance().Reset();
    static int counter = 0;
    instance_ = counter++;
  }

  void TearDown() override {
    StopServer();
    FailPointRegistry::Instance().Reset();
  }

  ServerOptions BaseOptions() {
    ServerOptions options;
    options.listen.is_unix = true;
    options.listen.path =
        ::testing::TempDir() + "/gts" + std::to_string(instance_) + ".sock";
    options.batch.jobs = 2;
    return options;
  }

  /// Adds a health listener next to the data socket.
  static void WithHealth(ServerOptions* options) {
    options->has_health = true;
    options->health.is_unix = true;
    options->health.path = options->listen.path + ".health";
  }

  void StartServer(ServerOptions options) {
    options.on_report = [this](const RequestReport& report) {
      std::lock_guard<std::mutex> lock(reports_mu_);
      reports_.push_back(report);
    };
    server_ = std::make_unique<Server>(std::move(options));
    const Status started = server_->Start();
    GPUTC_CHECK(started.ok()) << started.ToString();
    run_thread_ = std::thread([this] { summary_ = server_->Run(); });
  }

  /// Requests shutdown (first reason wins) and joins the poll loop.
  const ServerSummary& StopServer(const std::string& reason = "test done") {
    if (server_ != nullptr && run_thread_.joinable()) {
      server_->RequestShutdown(reason);
      run_thread_.join();
    }
    return summary_;
  }

  /// True once the journal hook saw a report with `id`.
  bool WaitForReport(const std::string& id, int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard<std::mutex> lock(reports_mu_);
        for (const RequestReport& r : reports_) {
          if (r.id == id) return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  int instance_ = 0;
  std::unique_ptr<Server> server_;
  std::thread run_thread_;
  ServerSummary summary_;
  std::mutex reports_mu_;
  std::vector<RequestReport> reports_;
};

TEST_F(ServerTest, AnswersOneRequestWithOneJournalLine) {
  ServerOptions options = BaseOptions();
  const ListenSpec listen = options.listen;
  StartServer(std::move(options));

  Client client(listen);
  const std::string hello = client.ReadLine();
  EXPECT_NE(hello.find("\"hello\":\"gputc\""), std::string::npos) << hello;
  EXPECT_NE(hello.find(VersionNumber()), std::string::npos) << hello;
  EXPECT_NE(hello.find("\"proto\":1"), std::string::npos) << hello;

  client.Send(std::string(kSmallGen) + "\n");
  const std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"id\":\"net-1-1\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"outcome\":\"ok\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"triangles\":"), std::string::npos) << response;

  client.CloseWrite();
  EXPECT_TRUE(client.WaitForEof());
  const ServerSummary& summary = StopServer();
  EXPECT_EQ(summary.requests_received, 1);
  EXPECT_EQ(summary.responses_sent, 1);
  EXPECT_GE(summary.connections_accepted, 1);
  EXPECT_EQ(summary.overload_rejections, 0);
}

TEST_F(ServerTest, BlankAndCommentLinesGetNoResponse) {
  ServerOptions options = BaseOptions();
  const ListenSpec listen = options.listen;
  StartServer(std::move(options));

  Client client(listen);
  (void)client.ReadLine();  // hello
  client.Send("# a comment\n\n   \n" + std::string(kSmallGen) + "\n");
  const std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"outcome\":\"ok\""), std::string::npos)
      << response;
  client.CloseWrite();
  EXPECT_TRUE(client.WaitForEof());
  EXPECT_EQ(StopServer().requests_received, 1);
}

// -- Hostile-client corpus --------------------------------------------------

TEST_F(ServerTest, GarbageLineYieldsStructuredErrorAndKeepsConnection) {
  ServerOptions options = BaseOptions();
  const ListenSpec listen = options.listen;
  StartServer(std::move(options));

  Client client(listen);
  (void)client.ReadLine();  // hello
  client.Send("gen:nosuchfamily:nodes=10\n");
  const std::string error = client.ReadLine();
  EXPECT_NE(error.find("\"outcome\":\"rejected\""), std::string::npos)
      << error;
  EXPECT_NE(error.find("\"code\":\"INVALID_ARGUMENT\""), std::string::npos)
      << error;
  // The connection survives a bad request; the next good one still works.
  client.Send(std::string(kSmallGen) + "\n");
  const std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"outcome\":\"ok\""), std::string::npos)
      << response;
  client.Close();
  const ServerSummary& summary = StopServer();
  EXPECT_GE(summary.protocol_errors, 1);
}

TEST_F(ServerTest, OversizedLineIsRejectedAndReadSideClosed) {
  ServerOptions options = BaseOptions();
  options.max_line_bytes = 128;
  const ListenSpec listen = options.listen;
  StartServer(std::move(options));

  Client client(listen);
  (void)client.ReadLine();  // hello
  client.Send(std::string(1024, 'a'));  // No newline; cap must still fire.
  const std::string error = client.ReadLine();
  EXPECT_NE(error.find("exceeds 128 bytes"), std::string::npos) << error;
  EXPECT_NE(error.find("\"outcome\":\"rejected\""), std::string::npos)
      << error;
  EXPECT_TRUE(client.WaitForEof());
  EXPECT_GE(StopServer().protocol_errors, 1);
}

TEST_F(ServerTest, SlowlorisTripsTheIoDeadline) {
  ServerOptions options = BaseOptions();
  options.io_timeout_ms = 100.0;
  const ListenSpec listen = options.listen;
  StartServer(std::move(options));

  Client client(listen);
  (void)client.ReadLine();  // hello
  client.Send("gen:er:nodes=");  // Forever-unfinished request line.
  const std::string error = client.ReadLine(5000);
  EXPECT_NE(error.find("not completed within"), std::string::npos) << error;
  EXPECT_TRUE(client.WaitForEof(5000));
  EXPECT_GE(StopServer().protocol_errors, 1);
}

TEST_F(ServerTest, MidRequestDisconnectLeavesServerServing) {
  ServerOptions options = BaseOptions();
  const ListenSpec listen = options.listen;
  StartServer(std::move(options));
  {
    Client torn(listen);
    (void)torn.ReadLine();  // hello
    torn.Send("gen:er:nodes=60,ed");
    torn.Close();  // Disconnect mid-line.
  }
  {
    // A submitted request whose client vanishes must still be journaled.
    Client gone(listen);
    (void)gone.ReadLine();  // hello
    gone.Send(std::string(kSmallGen) + "\n");
    gone.Close();
  }
  EXPECT_TRUE(WaitForReport("net-2-1"));
  // The server is unharmed: a fresh client gets normal service.
  Client client(listen);
  (void)client.ReadLine();  // hello
  client.Send(std::string(kSmallGen) + "\n");
  EXPECT_NE(client.ReadLine().find("\"outcome\":\"ok\""), std::string::npos);
  client.Close();
  const ServerSummary& summary = StopServer();
  EXPECT_GE(summary.protocol_errors, 1);
  // The vanished client's response was dropped, not sent.
  EXPECT_EQ(summary.requests_received, 2);
}

TEST_F(ServerTest, ConnectionChurnLeaksNoDescriptors) {
  ServerOptions options = BaseOptions();
  const ListenSpec listen = options.listen;
  StartServer(std::move(options));
  // Warm up allocator/registry paths before the baseline count.
  {
    Client warm(listen);
    (void)warm.ReadLine();
    warm.Send(std::string(kSmallGen) + "\n");
    (void)warm.ReadLine();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int before = CountOpenFds();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 20; ++i) {
    Client churn(listen);
    switch (i % 3) {
      case 0:
        churn.Send("complete garbage that cannot parse\n");
        (void)churn.ReadLine();
        break;
      case 1:
        churn.Send("gen:er:torn");  // Mid-line disconnect.
        break;
      case 2:
        break;  // Connect-and-vanish.
    }
    churn.Close();
  }
  // Give the poll loop time to reap every closed peer.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const int after = CountOpenFds();
  EXPECT_LE(after, before + 2) << "descriptor leak across connection churn";
  StopServer();
}

// -- Overload gates ---------------------------------------------------------

TEST_F(ServerTest, ConcurrencyLimitShedsWithRetryHint) {
  ServerOptions options = BaseOptions();
  options.limiter.initial_limit = 1;
  options.limiter.min_limit = 1;
  options.limiter.max_limit = 1;
  const ListenSpec listen = options.listen;

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FailPointRegistry::Instance().SetObserver("service.worker", [&](int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  StartServer(std::move(options));

  Client client(listen);
  (void)client.ReadLine();  // hello
  client.Send(std::string(kSmallGen) + "\n");
  while (FailPointRegistry::Instance().hits("service.worker") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The lone slot is held; the second request must shed at the door.
  client.Send(std::string(kSmallGen) + "\n");
  const std::string shed = client.ReadLine();
  EXPECT_NE(shed.find("\"id\":\"net-1-2\""), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"outcome\":\"rejected\""), std::string::npos) << shed;
  EXPECT_NE(shed.find("adaptive concurrency limit"), std::string::npos)
      << shed;
  EXPECT_NE(shed.find("\"retry_after_ms\":"), std::string::npos) << shed;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  const std::string first = client.ReadLine();
  EXPECT_NE(first.find("\"id\":\"net-1-1\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"outcome\":\"ok\""), std::string::npos) << first;
  client.Close();
  EXPECT_EQ(StopServer().overload_rejections, 1);
}

TEST_F(ServerTest, QueueBoundShedsBeforeSubmitCanBlock) {
  ServerOptions options = BaseOptions();
  options.batch.jobs = 1;
  options.batch.queue_depth = 1;
  options.limiter.initial_limit = 8;
  options.limiter.max_limit = 8;
  const ListenSpec listen = options.listen;

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FailPointRegistry::Instance().SetObserver("service.worker", [&](int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  StartServer(std::move(options));

  Client client(listen);
  (void)client.ReadLine();  // hello
  // Both lines land in one segment: the poll thread handles them back to
  // back, so the second deterministically sees one request in flight.
  client.Send(std::string(kSmallGen) + "\n" + std::string(kSmallGen) + "\n");
  const std::string shed = client.ReadLine();
  EXPECT_NE(shed.find("\"id\":\"net-1-2\""), std::string::npos) << shed;
  EXPECT_NE(shed.find("work queue is full"), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"retry_after_ms\":"), std::string::npos) << shed;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_NE(client.ReadLine().find("\"outcome\":\"ok\""), std::string::npos);
  client.Close();
  EXPECT_EQ(StopServer().overload_rejections, 1);
}

// -- Drain ladder -----------------------------------------------------------

TEST_F(ServerTest, DrainDeliversInflightResponsesBeforeClosing) {
  ServerOptions options = BaseOptions();
  options.drain_grace_ms = 10000.0;  // The test releases the worker itself.
  const ListenSpec listen = options.listen;

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FailPointRegistry::Instance().SetObserver("service.worker", [&](int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  StartServer(std::move(options));

  Client client(listen);
  (void)client.ReadLine();  // hello
  client.Send(std::string(kSmallGen) + "\n");
  while (FailPointRegistry::Instance().hits("service.worker") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->RequestShutdown("drain test");
  EXPECT_FALSE(server_->ready());
  // New connections are refused once draining: the listener is closed.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(ConnectToListener(listen).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // The in-flight response still arrives, then the server closes cleanly.
  const std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"outcome\":\"ok\""), std::string::npos)
      << response;
  EXPECT_TRUE(client.WaitForEof());
  const ServerSummary& summary = StopServer("late reason loses");
  EXPECT_EQ(summary.drain_reason, "drain test");
  EXPECT_EQ(summary.responses_sent, 1);
  EXPECT_TRUE(summary.batch.drained || summary.batch.Total() == 1);
}

TEST_F(ServerTest, RecoveredRequestResolvesWithoutAConnection) {
  ServerOptions options = BaseOptions();
  StartServer(std::move(options));
  // What serve --resume does for WAL-pending intents: re-admit under the
  // recovered id; the outcome lands in the journal hook, nowhere else.
  ASSERT_TRUE(server_->SubmitRecovered("net-0-7", kSmallGen).ok());
  EXPECT_TRUE(WaitForReport("net-0-7"));
  const ServerSummary& summary = StopServer();
  EXPECT_EQ(summary.batch.Total(), 1);
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_EQ(reports_[0].id, "net-0-7");
  EXPECT_EQ(summary.responses_sent, 0);
}

TEST_F(ServerTest, RecoveredLineThatIsNotOneRequestIsRefused) {
  StartServer(BaseOptions());
  EXPECT_EQ(server_->SubmitRecovered("net-0-1", "gen:bogus:nodes=x").ok(),
            false);
  EXPECT_FALSE(
      server_->ValidateRecovered("net-0-1", "gen:bogus:nodes=x").ok());
  EXPECT_TRUE(server_->ValidateRecovered("net-0-2", kSmallGen).ok());
  const Status two = server_->SubmitRecovered(
      "net-0-2", std::string(kSmallGen));
  EXPECT_TRUE(two.ok());
  EXPECT_TRUE(WaitForReport("net-0-2"));
  StopServer();
}

TEST_F(ServerTest, RunEpochKeepsGeneratedIdsDisjointFromRecoveredOnes) {
  ServerOptions options = BaseOptions();
  options.run_epoch = 2;
  const ListenSpec listen = options.listen;
  StartServer(std::move(options));
  // A WAL-recovered pending request registered under the id the PREVIOUS
  // run generated — exactly what a resumed run's first request would
  // collide with if generated ids restarted at net-1-1.
  ASSERT_TRUE(server_->SubmitRecovered("net-1-1", kSmallGen).ok());

  Client client(listen);
  (void)client.ReadLine();  // hello
  client.Send(std::string(kSmallGen) + "\n");
  const std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"id\":\"net-r2-1-1\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"outcome\":\"ok\""), std::string::npos)
      << response;
  EXPECT_TRUE(WaitForReport("net-1-1"));
  EXPECT_TRUE(WaitForReport("net-r2-1-1"));
  client.Close();
  const ServerSummary& summary = StopServer();
  // The recovered request resolved into the journal only; the client got
  // exactly its own response, never the recovered one.
  EXPECT_EQ(summary.responses_sent, 1);
  EXPECT_EQ(summary.batch.Total(), 2);
}

TEST_F(ServerTest, DuplicateRecoveredIdIsRefusedWhileRegistered) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FailPointRegistry::Instance().SetObserver("service.worker", [&](int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  StartServer(BaseOptions());
  ASSERT_TRUE(server_->SubmitRecovered("net-0-1", kSmallGen).ok());
  // While the first registration is pending, the same id must be refused —
  // clobbering it would misroute the first report and leak its slot.
  const Status dup = server_->SubmitRecovered("net-0-1", kSmallGen);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(WaitForReport("net-0-1"));
  const ServerSummary& summary = StopServer();
  EXPECT_EQ(summary.batch.Total(), 1);
}

// -- Health listener --------------------------------------------------------

TEST_F(ServerTest, HealthEndpointsAnswerRawAndHttpProbes) {
  ServerOptions options = BaseOptions();
  WithHealth(&options);
  const ListenSpec listen = options.listen;
  const ListenSpec health = options.health;
  StartServer(std::move(options));

  {
    // One real request first so the pressure gauges exist in the registry.
    Client client(listen);
    (void)client.ReadLine();
    client.Send(std::string(kSmallGen) + "\n");
    (void)client.ReadLine();
  }
  {
    Client probe(health);
    probe.Send("healthz\n");
    EXPECT_EQ(probe.ReadLine(), "ok");
    EXPECT_TRUE(probe.WaitForEof());
  }
  {
    Client probe(health);
    probe.Send("GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n");
    const std::string response = probe.ReadAll();
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
    EXPECT_NE(response.find("ready"), std::string::npos) << response;
    EXPECT_NE(response.find("Content-Length:"), std::string::npos)
        << response;
  }
  {
    Client probe(health);
    probe.Send("GET /metrics HTTP/1.0\r\n\r\n");
    const std::string body = probe.ReadAll();
    EXPECT_NE(body.find("gputc_connections_active"), std::string::npos);
    EXPECT_NE(body.find("gputc_queue_depth"), std::string::npos);
  }
  {
    Client probe(health);
    probe.Send("GET /nope HTTP/1.0\r\n\r\n");
    const std::string response = probe.ReadAll();
    EXPECT_EQ(response.rfind("HTTP/1.0 404", 0), 0u) << response;
  }
  StopServer();
}

TEST_F(ServerTest, HealthListenerHasItsOwnConnectionCap) {
  ServerOptions options = BaseOptions();
  WithHealth(&options);
  options.max_health_connections = 1;
  const ListenSpec health = options.health;
  StartServer(std::move(options));

  Client held(health);   // Holds the single health slot, sends nothing.
  Client probe(health);  // connect() lands in the backlog, not the server.
  probe.Send("healthz\n");
  EXPECT_EQ(probe.ReadLine(500), "") << "accepted past the health cap";
  held.Close();
  // The freed slot lets the backlogged probe through.
  EXPECT_EQ(probe.ReadLine(5000), "ok");
  StopServer();
}

TEST_F(ServerTest, ReadyzFlipsToDrainingDuringShutdown) {
  ServerOptions options = BaseOptions();
  WithHealth(&options);
  options.drain_grace_ms = 10000.0;
  const ListenSpec health = options.health;
  const ListenSpec listen = options.listen;

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FailPointRegistry::Instance().SetObserver("service.worker", [&](int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  StartServer(std::move(options));

  {
    Client probe(health);
    probe.Send("readyz\n");
    EXPECT_EQ(probe.ReadLine(), "ready");
  }
  // Park one request so the drain has something in flight to wait on.
  Client client(listen);
  (void)client.ReadLine();
  client.Send(std::string(kSmallGen) + "\n");
  while (FailPointRegistry::Instance().hits("service.worker") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->RequestShutdown("rollout");
  {
    // The health listener outlives the data listener exactly so load
    // balancers can see the drain happening.
    Client probe(health);
    probe.Send("GET /readyz HTTP/1.0\r\n\r\n");
    const std::string response = probe.ReadAll();
    EXPECT_EQ(response.rfind("HTTP/1.0 503", 0), 0u) << response;
    EXPECT_NE(response.find("draining"), std::string::npos) << response;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_NE(client.ReadLine().find("\"outcome\":\"ok\""), std::string::npos);
  StopServer();
}

TEST_F(ServerTest, ReadyzReportsStorageStateThroughMonitor) {
  ServerOptions options = BaseOptions();
  WithHealth(&options);
  const ListenSpec health = options.health;
  // No probe_dir: the poll loop's MaybeProbe no-ops and the test drives the
  // monitor's state transitions directly, the way the WAL/journal sinks do.
  StorageHealthMonitor storage;
  options.storage = &storage;
  StartServer(std::move(options));

  {
    // Healthy disk: plain ready, no degraded header.
    Client probe(health);
    probe.Send("GET /readyz HTTP/1.0\r\n\r\n");
    const std::string response = probe.ReadAll();
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
    EXPECT_EQ(response.find("X-Gputc-Storage"), std::string::npos)
        << response;
  }

  // A sink degrades (journal mirroring to stderr): still ready — the load
  // balancer keeps routing — but the header says the disk is in trouble.
  storage.NoteDegraded("journal", "mirroring to stderr");
  {
    Client probe(health);
    probe.Send("GET /readyz HTTP/1.0\r\n\r\n");
    const std::string response = probe.ReadAll();
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
    EXPECT_NE(response.find("X-Gputc-Storage: degraded"), std::string::npos)
        << response;
  }

  // Strict-WAL fail-stop: readiness flips hard so traffic moves away while
  // the daemon finishes in-flight work and exits 6.
  storage.RecordStrictStop("WAL done append failed");
  EXPECT_FALSE(server_->ready());
  {
    Client probe(health);
    probe.Send("GET /readyz HTTP/1.0\r\n\r\n");
    const std::string response = probe.ReadAll();
    EXPECT_EQ(response.rfind("HTTP/1.0 503", 0), 0u) << response;
    EXPECT_NE(response.find("storage-degraded"), std::string::npos)
        << response;
  }

  // The monitor outlives the server: join the poll loop before `storage`
  // leaves scope.
  StopServer();
  server_.reset();
}

// -- Soak -------------------------------------------------------------------

TEST_F(ServerTest, SequentialSoakAnswersEveryRequestInOrder) {
  ServerOptions options = BaseOptions();
  const ListenSpec listen = options.listen;
  StartServer(std::move(options));

  Client client(listen);
  (void)client.ReadLine();  // hello
  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i) {
    client.Send("gen:er:nodes=50,edges=120,seed=" + std::to_string(i + 1) +
                "\n");
    const std::string response = client.ReadLine();
    const std::string want_id =
        "\"id\":\"net-1-" + std::to_string(i + 1) + "\"";
    EXPECT_NE(response.find(want_id), std::string::npos) << response;
    EXPECT_NE(response.find("\"outcome\":\"ok\""), std::string::npos)
        << response;
  }
  client.CloseWrite();
  EXPECT_TRUE(client.WaitForEof());
  const ServerSummary& summary = StopServer();
  EXPECT_EQ(summary.requests_received, kRequests);
  EXPECT_EQ(summary.responses_sent, kRequests);
  EXPECT_EQ(summary.protocol_errors, 0);
}

}  // namespace
}  // namespace gputc
