#include "obs/exposition.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace confanon::obs {

namespace {

constexpr std::size_t kMaxHeadBytes = 8192;

/// Blocking full write with a poll-guarded retry on partial sends.
bool SendAll(int fd, std::string_view data, int timeout_ms) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::string MakeResponse(std::string_view status, std::string_view content_type,
                         std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.1 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string AsciiLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string_view TrimSpaces(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

std::string_view HttpRequest::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return {};
}

std::string HttpResponseWriter::StatusLine(int status) {
  switch (status) {
    case 200: return "200 OK";
    case 400: return "400 Bad Request";
    case 404: return "404 Not Found";
    case 405: return "405 Method Not Allowed";
    case 411: return "411 Length Required";
    case 413: return "413 Payload Too Large";
    case 429: return "429 Too Many Requests";
    case 431: return "431 Request Header Fields Too Large";
    case 500: return "500 Internal Server Error";
    case 503: return "503 Service Unavailable";
    default: return std::to_string(status) + " Status";
  }
}

bool HttpResponseWriter::Send(int status, std::string_view content_type,
                              std::string_view body) {
  if (sent_) return false;
  sent_ = true;
  std::string response = MakeResponse(StatusLine(status), content_type, body);
  if (head_only_) response.resize(response.find("\r\n\r\n") + 4);
  return SendAll(fd_, response, timeout_ms_);
}

bool HttpResponseWriter::BeginChunked(
    int status, std::string_view content_type,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  if (sent_) return false;
  sent_ = true;
  chunked_ = true;
  std::string head;
  head.reserve(192);
  head += "HTTP/1.1 ";
  head += StatusLine(status);
  head += "\r\nContent-Type: ";
  head += content_type;
  for (const auto& [name, value] : extra) {
    head += "\r\n";
    head += name;
    head += ": ";
    head += value;
  }
  head += "\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
  return SendAll(fd_, head, timeout_ms_);
}

bool HttpResponseWriter::WriteChunk(std::string_view data) {
  if (!chunked_ || head_only_) return chunked_;
  if (data.empty()) return true;  // an empty chunk would terminate
  char size_line[32];
  const int n = std::snprintf(size_line, sizeof size_line, "%zx\r\n",
                              data.size());
  if (n <= 0) return false;
  std::string frame;
  frame.reserve(static_cast<std::size_t>(n) + data.size() + 2);
  frame.append(size_line, static_cast<std::size_t>(n));
  frame.append(data);
  frame += "\r\n";
  return SendAll(fd_, frame, timeout_ms_);
}

bool HttpResponseWriter::EndChunked() {
  if (!chunked_ || head_only_) return chunked_;
  return SendAll(fd_, "0\r\n\r\n", timeout_ms_);
}

ExpositionServer::ExpositionServer(Options options, MetricsProducer producer)
    : options_(std::move(options)), producer_(std::move(producer)) {}

ExpositionServer::~ExpositionServer() { Stop(); }

void ExpositionServer::AddRoute(std::string method, std::string path,
                                HttpHandler handler) {
  routes_.push_back(
      Route{std::move(method), std::move(path), std::move(handler)});
}

bool ExpositionServer::ParseListenSpec(std::string_view spec,
                                       std::string& host,
                                       std::uint16_t& port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  const std::string_view port_text = spec.substr(colon + 1);
  if (port_text.empty() || port_text.size() > 5) return false;
  std::uint32_t value = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (value > 65535) return false;
  host = std::string(spec.substr(0, colon));
  port = static_cast<std::uint16_t>(value);
  return true;
}

bool ExpositionServer::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "already running";
    return false;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  const std::string& host =
      options_.host == "localhost" ? std::string("127.0.0.1") : options_.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton(" + host + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, options_.backlog) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (int i = 0; i < options_.handler_threads; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  thread_ = std::thread([this] { Serve(); });
  return true;
}

void ExpositionServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    // Published under the queue mutex: a handler between its predicate
    // check and parking on pending_cv_ holds the mutex, so it either sees
    // the flag or is already waiting when notify_all below fires.
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  // The accept loop polls with a timeout, so it observes stopping_ even
  // if no connection ever arrives; shutdown() additionally wakes a poll
  // that is already parked on the fd.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  pending_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  for (std::thread& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
  handlers_.clear();
  {
    // Connections still queued when the handlers exited: close without a
    // response (the peer sees a reset, which is what a shutdown means).
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    for (const int fd : pending_) ::close(fd);
    pending_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void ExpositionServer::Serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (ready <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) continue;
      break;  // listener shut down or unrecoverable
    }
    const timeval timeout{options_.io_timeout_ms / 1000,
                          static_cast<suseconds_t>(
                              (options_.io_timeout_ms % 1000) * 1000)};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    Dispatch(fd);
  }
}

void ExpositionServer::Dispatch(int fd) {
  if (options_.handler_threads <= 0) {
    // Metrics-scrape mode: one connection at a time, on this thread.
    HandleConnection(fd);
    ::close(fd);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    if (pending_.size() < options_.max_pending) {
      pending_.push_back(fd);
      pending_cv_.notify_one();
      return;
    }
  }
  // Admission control: bounded queue full — answer immediately instead
  // of building a backlog the handlers can never drain.
  rejected_.fetch_add(1, std::memory_order_relaxed);
  SendAll(fd,
          MakeResponse(HttpResponseWriter::StatusLine(options_.overload_status),
                       "text/plain", "service overloaded, retry later\n"),
          options_.io_timeout_ms);
  ::close(fd);
}

void ExpositionServer::HandlerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(pending_mutex_);
      pending_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (pending_.empty()) return;  // stopping and drained
      fd = pending_.front();
      pending_.pop_front();
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void ExpositionServer::HandleConnection(int fd) {
  // Read until the end of the request head; drop oversized heads.
  std::string request;
  char buf[4096];
  std::size_t head_end = std::string::npos;
  while ((head_end = request.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return;  // timeout, reset, or EOF before a full head
    request.append(buf, static_cast<std::size_t>(n));
    if (request.size() > kMaxHeadBytes &&
        request.find("\r\n\r\n") == std::string::npos) {
      SendAll(fd,
              MakeResponse("431 Request Header Fields Too Large",
                           "text/plain", "request too large\n"),
              options_.io_timeout_ms);
      return;
    }
  }

  // "METHOD SP PATH SP VERSION" — everything else is a 400.
  const std::size_t line_end = request.find("\r\n");
  const std::string_view line = std::string_view(request).substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    SendAll(fd, MakeResponse("400 Bad Request", "text/plain", "bad request\n"),
            options_.io_timeout_ms);
    return;
  }
  const std::string_view method = line.substr(0, sp1);
  std::string_view path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string query;
  const std::size_t query_mark = path.find('?');
  if (query_mark != std::string_view::npos) {
    query = std::string(path.substr(query_mark + 1));
    path = path.substr(0, query_mark);
  }

  // Header fields: "name: value" per line, names lowercased.
  HttpRequest parsed;
  parsed.method = std::string(method);
  parsed.path = std::string(path);
  parsed.query = std::move(query);
  {
    std::string_view head =
        std::string_view(request).substr(line_end + 2, head_end - line_end - 2);
    while (!head.empty()) {
      const std::size_t eol = head.find("\r\n");
      const std::string_view field =
          eol == std::string_view::npos ? head : head.substr(0, eol);
      head.remove_prefix(eol == std::string_view::npos ? head.size() : eol + 2);
      const std::size_t colon = field.find(':');
      if (colon == std::string_view::npos) continue;
      parsed.headers.emplace_back(
          AsciiLower(TrimSpaces(field.substr(0, colon))),
          std::string(TrimSpaces(field.substr(colon + 1))));
    }
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  const bool head_only = parsed.method == "HEAD";
  HttpResponseWriter writer(fd, options_.io_timeout_ms, head_only);

  // Request body: Content-Length only (chunked uploads answer 411).
  std::size_t content_length = 0;
  if (const std::string_view length_text = parsed.Header("content-length");
      !length_text.empty()) {
    for (const char c : length_text) {
      if (c < '0' || c > '9') {
        writer.Send(400, "text/plain", "bad content-length\n");
        return;
      }
      content_length = content_length * 10 + static_cast<std::size_t>(c - '0');
      if (content_length > options_.max_body_bytes) {
        writer.Send(413, "text/plain", "request body too large\n");
        return;
      }
    }
  } else if (!parsed.Header("transfer-encoding").empty()) {
    writer.Send(411, "text/plain", "chunked uploads not supported\n");
    return;
  }
  parsed.body = request.substr(head_end + 4);
  while (parsed.body.size() < content_length) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return;  // timeout or reset mid-body
    parsed.body.append(buf, static_cast<std::size_t>(n));
  }
  parsed.body.resize(std::min(parsed.body.size(), content_length));

  // Registered routes first (exact method + path), then the built-ins.
  bool path_known = false;
  for (const Route& route : routes_) {
    if (route.path != parsed.path) continue;
    path_known = true;
    if (route.method != parsed.method) continue;
    route.handler(parsed, writer);
    if (!writer.sent()) {
      writer.Send(500, "text/plain", "handler wrote no response\n");
    }
    return;
  }
  if (path_known) {
    writer.Send(405, "text/plain", "method not allowed for this path\n");
    return;
  }

  if (parsed.method != "GET" && parsed.method != "HEAD") {
    writer.Send(405, "text/plain", "only GET is supported\n");
    return;
  }
  if (parsed.path == "/metrics") {
    writer.Send(200, "text/plain; version=0.0.4; charset=utf-8",
                producer_ ? producer_() : std::string());
  } else if (parsed.path == "/healthz") {
    writer.Send(200, "text/plain", "ok\n");
  } else {
    writer.Send(404, "text/plain", "not found\n");
  }
}

}  // namespace confanon::obs
