#include "bench/e2e/loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>

#include "net/frame.h"

namespace gg_bench {

namespace {

using Clock = std::chrono::steady_clock;
using gogreen::Result;
using gogreen::Status;
namespace net = gogreen::net;

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  bool busy = false;
  Sample pending;
};

/// Closes every connection on the way out, error paths included.
struct Conns {
  std::vector<Conn> list;
  ~Conns() {
    for (Conn& c : list) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
};

Result<int> ConnectNonBlocking(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) < 0) {
    const Status status =
        Status::IOError("connect " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return fd;
}

/// Writes what the socket takes now; the rest waits for POLLOUT.
Status Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    c.out_off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Appends what the socket holds now. IOError when the daemon hung up.
Status Fill(Conn& c) {
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IOError("daemon closed the connection");
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    if (errno != EINTR) {
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
  }
}

}  // namespace

Result<std::vector<Sample>> Drive(const std::string& socket_path,
                                  size_t connections,
                                  const Traffic& traffic) {
  Conns conns;
  conns.list.resize(connections);
  for (Conn& c : conns.list) {
    GOGREEN_ASSIGN_OR_RETURN(c.fd, ConnectNonBlocking(socket_path));
  }
  const bool closed = static_cast<bool>(traffic.next);
  const Clock::time_point epoch = Clock::now();
  auto now_s = [&epoch] {
    return std::chrono::duration<double>(Clock::now() - epoch).count();
  };

  uint64_t next_id = 0;
  auto send = [&](size_t i, double support, double due_s) -> Status {
    Conn& c = conns.list[i];
    c.pending = Sample{};
    c.pending.due_s = due_s;
    c.pending.request.verb = net::Verb::kMine;
    c.pending.request.support = support;
    c.pending.request.id = ++next_id;
    GOGREEN_ASSIGN_OR_RETURN(c.out,
                             net::EncodeFrame(c.pending.request.ToJson()));
    c.out_off = 0;
    c.pending.request_bytes = c.out.size();
    c.pending.sent_s = now_s();
    c.busy = true;
    return Flush(c);
  };
  auto next_closed = [&](size_t i, double now) -> Status {
    const std::optional<double> support = traffic.next(i, now);
    return support ? send(i, *support, now) : Status::OK();
  };

  std::vector<Sample> done;
  if (closed) {
    for (size_t i = 0; i < connections; ++i) {
      GOGREEN_RETURN_NOT_OK(next_closed(i, now_s()));
    }
  }
  size_t next_due = 0;
  std::deque<size_t> backlog;  // schedule indices due but not yet sent
  std::vector<pollfd> pfds;
  std::vector<size_t> polled;
  while (true) {
    if (!closed) {
      const double now = now_s();
      while (next_due < traffic.schedule.size() &&
             traffic.schedule[next_due].first <= now) {
        backlog.push_back(next_due++);
      }
      for (size_t i = 0; i < connections && !backlog.empty(); ++i) {
        if (conns.list[i].busy) continue;
        const auto& [due, support] = traffic.schedule[backlog.front()];
        backlog.pop_front();
        GOGREEN_RETURN_NOT_OK(send(i, support, due));
      }
    }
    pfds.clear();
    polled.clear();
    for (size_t i = 0; i < connections; ++i) {
      const Conn& c = conns.list[i];
      if (!c.busy) continue;
      short events = POLLIN;
      if (c.out_off < c.out.size()) events |= POLLOUT;
      pfds.push_back({c.fd, events, 0});
      polled.push_back(i);
    }
    const bool schedule_left =
        !closed && (next_due < traffic.schedule.size() || !backlog.empty());
    if (pfds.empty() && !schedule_left) break;

    timespec timeout{};
    timespec* timeout_ptr = nullptr;
    if (!closed && backlog.empty() && next_due < traffic.schedule.size()) {
      const double wait =
          std::max(0.0, traffic.schedule[next_due].first - now_s());
      timeout.tv_sec = static_cast<time_t>(wait);
      timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
      timeout_ptr = &timeout;
    }
    if (::ppoll(pfds.data(), pfds.size(), timeout_ptr, nullptr) < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("ppoll: ") + std::strerror(errno));
    }
    for (size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      const size_t i = polled[k];
      Conn& c = conns.list[i];
      if (pfds[k].revents & POLLOUT) GOGREEN_RETURN_NOT_OK(Flush(c));
      if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      GOGREEN_RETURN_NOT_OK(Fill(c));
      std::string payload;
      size_t consumed = 0;
      GOGREEN_ASSIGN_OR_RETURN(
          const bool framed, net::TryDecodeFrame(c.in, &payload, &consumed));
      if (!framed) continue;
      const double done_s = now_s();
      c.in.erase(0, consumed);
      if (!c.in.empty()) {
        return Status::IOError("daemon sent a frame nobody asked for");
      }
      GOGREEN_ASSIGN_OR_RETURN(c.pending.response,
                               net::WireResponse::FromJson(payload));
      if (c.pending.response.id != c.pending.request.id) {
        return Status::IOError("response id does not match the request");
      }
      c.pending.response_bytes = consumed;
      c.pending.done_s = done_s;
      c.busy = false;
      done.push_back(std::move(c.pending));
      if (closed) GOGREEN_RETURN_NOT_OK(next_closed(i, done_s));
    }
  }
  return done;
}

}  // namespace gg_bench
