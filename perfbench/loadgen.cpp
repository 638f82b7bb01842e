#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <memory>

#include "common.h"

namespace perfbench {

namespace {

struct Connection {
  std::size_t index = 0;
  int fd = -1;
  std::string bytes;
  std::size_t sent = 0;
  bool writing = true;
  std::string received;
};

/// Fills status and de-chunked body from one raw response; leaves status
/// 0 when the response is truncated or malformed.
void ParseResponse(const std::string& raw, LoadResult& result) {
  const std::size_t head_end = raw.find("\r\n\r\n");
  const std::size_t space = raw.find(' ');
  if (raw.compare(0, 5, "HTTP/") != 0 || head_end == std::string::npos ||
      space == std::string::npos || space > head_end) {
    return;
  }
  std::string head = raw.substr(0, head_end);
  std::transform(head.begin(), head.end(), head.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  std::size_t pos = head_end + 4;
  if (head.find("transfer-encoding: chunked") == std::string::npos) {
    result.body = raw.substr(pos);
    result.status = std::atoi(raw.c_str() + space + 1);
    return;
  }
  for (;;) {
    const std::size_t line_end = raw.find("\r\n", pos);
    if (line_end == std::string::npos) return;
    const std::size_t size = std::strtoul(raw.c_str() + pos, nullptr, 16);
    pos = line_end + 2;
    if (size == 0) break;
    if (pos + size > raw.size()) return;
    result.body.append(raw, pos, size);
    pos += size + 2;
  }
  result.status = std::atoi(raw.c_str() + space + 1);
}

}  // namespace

std::vector<LoadResult> RunOpenLoop(std::size_t count,
                                    const LoadOptions& options,
                                    const RequestMaker& make_request,
                                    const ResponseSink& on_response) {
  std::vector<LoadResult> results(count);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options.port);
  ::inet_pton(AF_INET, options.host.c_str(), &address.sin_addr);

  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return results;
  std::vector<std::unique_ptr<Connection>> open(count);
  std::deque<std::size_t> in_flight;  // in send order, for timeouts
  std::size_t open_count = 0;

  const auto finish = [&](std::size_t index, bool timed_out) {
    Connection& connection = *open[index];
    LoadResult& result = results[index];
    result.done_ns = NowNs();
    result.timed_out = timed_out;
    if (!timed_out) ParseResponse(connection.received, result);
    on_response(index, result);
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, connection.fd, nullptr);
    ::close(connection.fd);
    open[index].reset();
    --open_count;
  };

  const auto interval_ns =
      static_cast<std::int64_t>(1e9 / std::max(options.rate_per_s, 1e-3));
  const std::int64_t timeout_ns =
      static_cast<std::int64_t>(options.timeout_ms) * 1000000;
  const std::int64_t start_ns = NowNs() + 1000000;
  std::size_t next = 0;
  std::vector<epoll_event> events(256);

  while (next < count || open_count > 0) {
    std::int64_t now = NowNs();
    // Open every connection that has come due.
    while (next < count &&
           start_ns + static_cast<std::int64_t>(next) * interval_ns <= now) {
      LoadResult& result = results[next];
      result.due_ns = start_ns + static_cast<std::int64_t>(next) * interval_ns;
      result.sent_ns = now;
      const int fd =
          ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      const int rc =
          fd < 0 ? -1
                 : ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                             sizeof(address));
      if (fd < 0 || (rc < 0 && errno != EINPROGRESS)) {
        if (fd >= 0) ::close(fd);
        result.done_ns = NowNs();
        on_response(next, result);
      } else {
        auto connection = std::make_unique<Connection>();
        connection->index = next;
        connection->fd = fd;
        connection->bytes = make_request(next);
        epoll_event event{};
        event.events = EPOLLOUT;
        event.data.u64 = next;
        ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event);
        open[next] = std::move(connection);
        in_flight.push_back(next);
        ++open_count;
      }
      ++next;
      now = NowNs();
    }
    // Expire the oldest requests past their timeout.
    while (!in_flight.empty()) {
      const std::size_t oldest = in_flight.front();
      if (open[oldest] == nullptr) {
        in_flight.pop_front();
      } else if (now - results[oldest].sent_ns > timeout_ns) {
        in_flight.pop_front();
        finish(oldest, /*timed_out=*/true);
      } else {
        break;
      }
    }
    if (next >= count && open_count == 0) break;

    std::int64_t wait_ns = 10000000;
    if (next < count) {
      wait_ns = std::clamp<std::int64_t>(
          start_ns + static_cast<std::int64_t>(next) * interval_ns - now, 0,
          wait_ns);
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    const int ready = ::epoll_pwait2(epoll_fd, events.data(),
                                     static_cast<int>(events.size()),
                                     &timeout, nullptr);
    for (int i = 0; i < ready; ++i) {
      const std::size_t index = events[static_cast<std::size_t>(i)].data.u64;
      if (open[index] == nullptr) continue;
      Connection& connection = *open[index];
      if (connection.writing) {
        const std::string& bytes = connection.bytes;
        const ssize_t sent =
            ::send(connection.fd, bytes.data() + connection.sent,
                   bytes.size() - connection.sent, MSG_NOSIGNAL);
        if (sent > 0) connection.sent += static_cast<std::size_t>(sent);
        // A send error still reads: the server may have answered early
        // (429) and closed.
        if (connection.sent == bytes.size() ||
            (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
          connection.writing = false;
          epoll_event event{};
          event.events = EPOLLIN;
          event.data.u64 = index;
          ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, connection.fd, &event);
        }
        continue;
      }
      char buffer[16384];
      for (;;) {
        const ssize_t got = ::recv(connection.fd, buffer, sizeof(buffer), 0);
        if (got > 0) {
          connection.received.append(buffer, static_cast<std::size_t>(got));
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        finish(index, /*timed_out=*/false);  // EOF or reset
        break;
      }
    }
  }
  ::close(epoll_fd);
  return results;
}

}  // namespace perfbench
