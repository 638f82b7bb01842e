// Open-loop HTTP load generator for the daemon workload.
//
// One thread, one non-blocking connection per request, driven by epoll.
// Requests go out on a fixed schedule whatever the server does: request i
// is due at start + i / rate, and its latency is measured from that due
// time to the end of its response, so a stall delays every request queued
// behind it in the numbers too. How late the generator itself started a
// request is reported separately (lag).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct LoadResult {
  int status = 0;          // 0: no response (connect error, timeout, reset)
  bool timed_out = false;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;  // when the connection was opened
  std::int64_t done_ns = 0;
  std::string body;          // de-chunked response body

  double LatencyMs() const {
    return static_cast<double>(done_ns - due_ns) / 1e6;
  }
  double LagMs() const { return static_cast<double>(sent_ns - due_ns) / 1e6; }
};

struct LoadOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double rate_per_s = 100.0;
  int timeout_ms = 5000;
};

/// Builds the full HTTP/1.1 bytes of request i (the server closes after
/// one response), when it comes due.
using RequestMaker = std::function<std::string(std::size_t index)>;
/// Receives request i's result as soon as it completes; it may take the
/// body, so that a long phase does not hold every response in memory.
using ResponseSink = std::function<void(std::size_t index, LoadResult&)>;

/// Sends `count` requests in order at `options.rate_per_s` and waits for
/// every response (or its timeout). Results are at the request's index.
std::vector<LoadResult> RunOpenLoop(std::size_t count,
                                    const LoadOptions& options,
                                    const RequestMaker& make_request,
                                    const ResponseSink& on_response);

}  // namespace perfbench
