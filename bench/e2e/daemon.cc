#include "bench/e2e/daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "net/client.h"

extern char** environ;

namespace gg_bench {

namespace {

using Clock = std::chrono::steady_clock;
using gogreen::Result;
using gogreen::Status;

// A daemon that is not answering after this long is broken, not slow: the
// largest workload dataset loads in well under a second.
constexpr double kStartTimeoutS = 60.0;
// Stop covers the graceful drain plus persisting the store (--store-dir).
constexpr double kStopTimeoutS = 120.0;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string LogTail(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string all = text.str();
  return all.size() > 2000 ? all.substr(all.size() - 2000) : all;
}

bool Pings(const std::string& socket_path) {
  Result<gogreen::net::Client> client =
      gogreen::net::Client::ConnectUnix(socket_path);
  if (!client.ok()) return false;
  gogreen::net::WireRequest ping;
  ping.verb = gogreen::net::Verb::kPing;
  Result<gogreen::net::WireResponse> pong = client->Call(ping);
  return pong.ok() && pong->outcome == gogreen::Outcome::kOk;
}

}  // namespace

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

Status Daemon::Start(const std::string& binary, const std::string& socket_path,
                     const std::vector<std::string>& args,
                     const std::string& log_path) {
  if (pid_ > 0) return Status::Internal("daemon already running");
  socket_path_ = socket_path;
  log_path_ = log_path;

  std::vector<std::string> argv_strings = {binary, "serve", "--socket",
                                           socket_path};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);

  const Clock::time_point spawned = Clock::now();
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    return Status::IOError("spawn " + binary + ": " + std::strerror(rc));
  }
  pid_ = pid;

  while (!Pings(socket_path)) {
    int wstatus = 0;
    if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::IOError("daemon exited during start-up:\n" +
                             LogTail(log_path));
    }
    if (SecondsSince(spawned) > kStartTimeoutS) {
      return Status::IOError("daemon did not answer a ping within " +
                             std::to_string(kStartTimeoutS) + " s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  setup_seconds_ = SecondsSince(spawned);
  return Status::OK();
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::OK();
  ::kill(pid_, SIGTERM);
  const Clock::time_point asked = Clock::now();
  int wstatus = 0;
  rusage usage{};
  while (::wait4(pid_, &wstatus, WNOHANG, &usage) != pid_) {
    if (SecondsSince(asked) > kStopTimeoutS) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
      return Status::IOError("daemon did not drain within " +
                             std::to_string(kStopTimeoutS) + " s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::IOError("daemon exited abnormally:\n" + LogTail(log_path_));
  }
  return Status::OK();
}

}  // namespace gg_bench
