#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

// The server under test as the benchmark sees it from outside: a
// `certa serve` process tree it spawns and stops, its CPU and memory
// from /proc, and line-framed TCP connections to it.

#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

#include "measure.h"
#include "util/json_parser.h"

namespace perfbench {

/// One `certa serve --listen 0 ...` process tree (master plus any
/// fleet workers). Start() returns once the LISTENING line is out;
/// the destructor stops whatever is still running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `certa serve --listen 0 <args...>`; stderr goes to
  /// `log_path`. False (with *error) when it exits or stays silent.
  bool Start(const std::string& certa, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error);
  /// SIGTERM, then SIGKILL after a grace period; reaps the master and
  /// waits until every descendant is gone. Idempotent.
  void Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;
  /// Drains the server's stdout after LISTENING so it never blocks.
  std::thread drain_;
};

/// The master and every live descendant.
std::vector<pid_t> ProcessTree(pid_t root);
/// utime + stime of the tree, in milliseconds.
double TreeCpuMs(pid_t root);
/// Sum of VmHWM (peak resident set) over the tree, in MB.
double TreeRssHwmMb(pid_t root);

/// A blocking TCP connection to 127.0.0.1:port speaking '\n'-framed
/// lines.
class LineConn {
 public:
  LineConn() = default;
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool Connect(int port, std::string* error);
  bool Send(const std::string& bytes, std::string* error);
  /// Reads one line (without the '\n'); false on EOF, error or when
  /// `timeout_ms` passes without a full line.
  bool ReadLine(std::string* line, int timeout_ms, std::string* error);
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t consumed_ = 0;
};

/// Sends one frame on a fresh connection and returns the reply line.
bool RoundTrip(int port, const std::string& frame, std::string* reply,
               std::string* error);

/// Fetches the `stats` frame. With `fleet_completed` >= 0 it polls
/// until the fleet fan-in (which lags each worker) counts that many
/// completed jobs, for at most 5 s.
bool FetchStats(int port, long long fleet_completed, certa::JsonValue* stats,
                std::string* error);
/// The number at `path` in a stats frame; 0 when absent.
long long StatInt(const certa::JsonValue& stats,
                  std::initializer_list<const char*> path);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
