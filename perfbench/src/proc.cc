#include "proc.h"

#include "net/wire.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {
namespace {

/// ppid and utime+stime (clock ticks) from /proc/<pid>/stat.
bool ReadStat(pid_t pid, pid_t* ppid, long long* ticks) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  if (!std::getline(in, text)) return false;
  // comm may hold spaces and parens: fields resume after the last ')'.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  std::vector<std::string> values;
  while (fields >> field) values.push_back(field);
  // values[0] is field 3 (state), so field N sits at values[N - 3].
  if (values.size() < 13) return false;
  if (ppid != nullptr) *ppid = static_cast<pid_t>(std::stoll(values[1]));
  if (ticks != nullptr) *ticks = std::stoll(values[11]) + std::stoll(values[12]);
  return true;
}

void WaitGone(const std::vector<pid_t>& pids, int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (pid_t pid : pids) {
    while (::kill(pid, 0) == 0 || errno != ESRCH) {
      // Orphans re-parent to this process (a child subreaper): reap.
      while (::waitpid(-1, nullptr, WNOHANG) > 0) {
      }
      if (Clock::now() >= deadline) {
        ::kill(pid, SIGKILL);
      }
      if (Clock::now() >= deadline + std::chrono::seconds(5)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

}  // namespace

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Start(const std::string& certa,
                          const std::vector<std::string>& args,
                          const std::string& log_path, std::string* error) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<std::string> argv_storage = {certa, "serve", "--listen", "0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(out[1], STDOUT_FILENO);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  if (log_fd >= 0) ::close(log_fd);
  if (null_fd >= 0) ::close(null_fd);
  if (pid < 0) {
    ::close(out[0]);
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  pid_ = pid;
  stdout_fd_ = out[0];

  std::string seen;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (true) {
    const size_t at = seen.find("LISTENING ");
    if (at != std::string::npos) {
      const size_t end = seen.find('\n', at);
      const size_t colon = seen.rfind(':', end);
      if (end != std::string::npos && colon != std::string::npos &&
          colon > at) {
        port_ = std::atoi(seen.c_str() + colon + 1);
        break;
      }
    }
    const int wait_ms = static_cast<int>(std::max<long long>(
        0, std::chrono::duration_cast<std::chrono::milliseconds>(
               deadline - Clock::now())
               .count()));
    pollfd pfd{stdout_fd_, POLLIN, 0};
    char chunk[4096];
    ssize_t got = 0;
    if (wait_ms == 0 || ::poll(&pfd, 1, wait_ms) <= 0 ||
        (got = ::read(stdout_fd_, chunk, sizeof(chunk))) <= 0) {
      *error = "server printed no LISTENING line (see " + log_path + ")";
      Stop();
      return false;
    }
    seen.append(chunk, static_cast<size_t>(got));
  }
  drain_ = std::thread([fd = stdout_fd_] {
    char chunk[4096];
    while (::read(fd, chunk, sizeof(chunk)) > 0) {
    }
  });
  return port_ > 0;
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    std::vector<pid_t> tree = ProcessTree(pid_);
    ::kill(pid_, SIGTERM);
    int status = 0;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() >= deadline) {
        for (pid_t pid : tree) ::kill(pid, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    tree.erase(tree.begin());  // the master is reaped
    WaitGone(tree, 5000);
    pid_ = -1;
  }
  if (drain_.joinable()) drain_.join();  // EOF once every writer is gone
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

std::vector<pid_t> ProcessTree(pid_t root) {
  std::map<pid_t, std::vector<pid_t>> children;
  if (DIR* proc = ::opendir("/proc")) {
    while (dirent* entry = ::readdir(proc)) {
      const char* name = entry->d_name;
      if (name[0] < '0' || name[0] > '9') continue;
      const pid_t pid = static_cast<pid_t>(std::atoi(name));
      pid_t ppid = 0;
      if (ReadStat(pid, &ppid, nullptr)) children[ppid].push_back(pid);
    }
    ::closedir(proc);
  }
  std::vector<pid_t> tree = {root};
  for (size_t i = 0; i < tree.size(); ++i) {
    for (pid_t child : children[tree[i]]) tree.push_back(child);
  }
  return tree;
}

double TreeCpuMs(pid_t root) {
  static const double ms_per_tick = 1000.0 / ::sysconf(_SC_CLK_TCK);
  long long ticks = 0;
  for (pid_t pid : ProcessTree(root)) {
    long long own = 0;
    if (ReadStat(pid, nullptr, &own)) ticks += own;
  }
  return static_cast<double>(ticks) * ms_per_tick;
}

double TreeRssHwmMb(pid_t root) {
  double kb = 0.0;
  for (pid_t pid : ProcessTree(root)) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        kb += std::atof(line.c_str() + 6);
        break;
      }
    }
  }
  return kb / 1024.0;
}

LineConn::~LineConn() { Close(); }

bool LineConn::Connect(int port, std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

bool LineConn::Send(const std::string& bytes, std::string* error) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool LineConn::ReadLine(std::string* line, int timeout_ms, std::string* error) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const size_t newline = buffer_.find('\n', consumed_);
    if (newline != std::string::npos) {
      line->assign(buffer_, consumed_, newline - consumed_);
      consumed_ = newline + 1;
      if (consumed_ == buffer_.size()) {
        buffer_.clear();
        consumed_ = 0;
      }
      return true;
    }
    if (consumed_ > 0) {
      buffer_.erase(0, consumed_);
      consumed_ = 0;
    }
    const long long left = std::chrono::duration_cast<std::chrono::milliseconds>(
                               deadline - Clock::now())
                               .count();
    pollfd pfd{fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) {
      *error = "timed out waiting for a reply";
      return false;
    }
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = n == 0 ? "connection closed" : std::string("recv: ") +
                                                  std::strerror(errno);
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

void LineConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  consumed_ = 0;
}

bool RoundTrip(int port, const std::string& frame, std::string* reply,
               std::string* error) {
  LineConn conn;
  return conn.Connect(port, error) && conn.Send(frame, error) &&
         conn.ReadLine(reply, 10000, error);
}

bool FetchStats(int port, long long fleet_completed, certa::JsonValue* stats,
                std::string* error) {
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  while (true) {
    std::string reply;
    if (!RoundTrip(port, certa::net::StatsRequestFrame(), &reply, error) ||
        !certa::JsonValue::Parse(reply, stats, error)) {
      return false;
    }
    if (fleet_completed < 0 ||
        StatInt(*stats, {"fleet", "runner", "completed"}) >= fleet_completed) {
      return true;
    }
    if (Clock::now() >= deadline) {
      *error = "fleet stats never reached completed=" +
               std::to_string(fleet_completed);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

long long StatInt(const certa::JsonValue& stats,
                  std::initializer_list<const char*> path) {
  const certa::JsonValue* node = &stats;
  for (const char* key : path) {
    node = node->Find(key);
    if (node == nullptr) return 0;
  }
  return node->is_number() ? static_cast<long long>(node->number_value()) : 0;
}

}  // namespace perfbench
