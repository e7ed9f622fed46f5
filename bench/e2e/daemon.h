// One `gogreen serve` child process on a unix socket, as gg_bench drives it.

#ifndef GOGREEN_BENCH_E2E_DAEMON_H_
#define GOGREEN_BENCH_E2E_DAEMON_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "util/status.h"

namespace gg_bench {

class Daemon {
 public:
  Daemon() = default;
  /// Kills and reaps a daemon that was never Stop()ped (error paths, and
  /// daemons started only to time their set-up).
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `binary serve --socket <socket_path> <args...>` with stdout and
  /// stderr appended to `log_path`, then pings until it answers.
  /// setup_seconds() is the time from spawn to the first successful ping.
  gogreen::Status Start(const std::string& binary,
                        const std::string& socket_path,
                        const std::vector<std::string>& args,
                        const std::string& log_path);

  double setup_seconds() const { return setup_seconds_; }
  const std::string& socket_path() const { return socket_path_; }

  /// SIGTERM, then waits for the graceful drain (and store persistence)
  /// to finish. An error when the daemon exits non-zero or hangs. Only
  /// for a daemon that has served traffic: `serve` installs its SIGTERM
  /// handler just after it starts answering.
  gogreen::Status Stop();

  /// The stopped daemon's peak resident set over its life, in MiB.
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
  std::string log_path_;
  double setup_seconds_ = 0.0;
  double peak_rss_mb_ = 0.0;
};

}  // namespace gg_bench

#endif  // GOGREEN_BENCH_E2E_DAEMON_H_
