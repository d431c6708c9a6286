#include "server/http_server.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/timer.h"

namespace xfrag::server {

namespace {

constexpr std::string_view kJsonType = "application/json";

std::string JsonError(int status, std::string_view message) {
  json::Value body = json::Value::Object();
  body.Set("error", message);
  body.Set("status", static_cast<int64_t>(status));
  return RenderHttpResponse(status, kJsonType, body.Dump());
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    char ca = a[i], cb = b[i];
    if (ca >= 'A' && ca <= 'Z') ca = static_cast<char>(ca - 'A' + 'a');
    if (cb >= 'A' && cb <= 'Z') cb = static_cast<char>(cb - 'A' + 'a');
    if (ca != cb) return false;
  }
  return true;
}

/// Whether the client permits reuse: HTTP/1.1 defaults to keep-alive unless
/// `Connection: close`; HTTP/1.0 requires an explicit `Connection:
/// keep-alive`.
bool ClientAllowsKeepAlive(const HttpRequest& request) {
  const std::string* connection = request.FindHeader("Connection");
  if (request.version == "HTTP/1.1") {
    return connection == nullptr || !EqualsIgnoreCase(*connection, "close");
  }
  return connection != nullptr && EqualsIgnoreCase(*connection, "keep-alive");
}

}  // namespace

HttpServer::HttpServer(HttpDispatcher& dispatcher, HttpServerOptions options)
    : dispatcher_(dispatcher), options_(std::move(options)) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.queue_capacity < 0) options_.queue_capacity = 0;
  if (options_.keep_alive_idle_timeout_ms < 1) {
    options_.keep_alive_idle_timeout_ms = 1;
  }
}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  XFRAG_CHECK(!started_.load() && "HttpServer::Start called twice");
  XFRAG_ASSIGN_OR_RETURN(listen_fd_, ListenTcp(options_.host, options_.port));
  XFRAG_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_.get()));
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::Internal(StrFormat("pipe: %s", std::strerror(errno)));
  }
  wake_read_ = UniqueFd(pipe_fds[0]);
  wake_write_ = UniqueFd(pipe_fds[1]);
  // Non-blocking both ways: the drain loop must not hang on an empty pipe,
  // and a full pipe must not block parking (the poller is awake anyway).
  (void)::fcntl(wake_read_.get(), F_SETFL, O_NONBLOCK);
  (void)::fcntl(wake_write_.get(), F_SETFL, O_NONBLOCK);
  pool_ = std::make_unique<ThreadPool>(static_cast<unsigned>(options_.workers));
  started_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Shutdown() {
  if (!started_.load()) return;
  // Serialize concurrent Shutdown calls; the second caller blocks until the
  // first has fully drained, so "Shutdown returned" always means "quiet".
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drained_.wait(lock, [this] {
      return in_flight_.load(std::memory_order_acquire) == 0;
    });
  }
  pool_.reset();
  listen_fd_.Reset();
}

void HttpServer::AcceptLoop() {
  std::vector<ParkedConnection> parked;
  std::vector<pollfd> pfds;
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Adopt freshly parked connections so this round's poll watches them.
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
      for (auto& p : park_inbox_) parked.push_back(std::move(p));
      park_inbox_.clear();
    }

    auto now = std::chrono::steady_clock::now();
    int timeout_ms = 100;  // tick: re-check stopping_ at least this often
    pfds.clear();
    pfds.push_back({listen_fd_.get(), POLLIN, 0});
    pfds.push_back({wake_read_.get(), POLLIN, 0});
    for (const auto& p : parked) {
      pfds.push_back({p.conn.get(), POLLIN, 0});
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      p.idle_deadline - now)
                      .count();
      timeout_ms = std::clamp(static_cast<int>(left), 0, timeout_ms);
    }

    int ready = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                       timeout_ms);
    if (ready < 0) continue;  // EINTR: re-check stopping_

    if (pfds[1].revents != 0) {
      char buf[256];
      while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
      }
    }

    // Resume readable parked connections (a worker picks them back up; EOF
    // and errors surface in its read), close the ones past their idle
    // deadline. pfds[i + 2] corresponds to parked[i].
    now = std::chrono::steady_clock::now();
    size_t kept = 0;
    for (size_t i = 0; i < parked.size(); ++i) {
      if (pfds[i + 2].revents != 0) {
        int fd = parked[i].conn.Release();
        int served = parked[i].served;
        pool_->Post(
            [this, fd, served] { HandleConnection(UniqueFd(fd), served); });
      } else if (parked[i].idle_deadline <= now) {
        parked[i].conn.Reset();  // silent close, as the idle contract says
        FinishExchange();
      } else {
        parked[kept++] = std::move(parked[i]);
      }
    }
    parked.resize(kept);

    if (pfds[0].revents == 0) continue;
    UniqueFd conn(::accept(listen_fd_.get(), nullptr, nullptr));
    if (!conn.valid()) continue;

    int capacity = options_.workers + options_.queue_capacity;
    // Optimistically claim a slot; release it again if over capacity. The
    // counter is the single admission authority, so two racing accepts can
    // never both squeeze past a full server. Under keep-alive the slot is
    // held for the connection's whole lifetime, so a parked idle connection
    // still counts against capacity — reuse is a resource, not a freebie.
    int admitted = in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (admitted > capacity) {
      FinishExchange();
      Timer timer;
      (void)SetSocketTimeouts(conn.get(), /*timeout_ms=*/250);
      std::string response = RenderHttpResponse(
          503, kJsonType,
          "{\"error\":\"server at capacity, retry later\",\"status\":503}",
          "Retry-After: 1\r\n");
      // Record before the bytes go out: once the client has its response it
      // may immediately ask /metrics, which must already include this one.
      stats_.RecordRequest(503,
                           static_cast<uint64_t>(timer.ElapsedMicros()),
                           nullptr);
      (void)WriteAll(conn.get(), response);
      // The request was never read; closing now would RST the 503 out from
      // under the client. Half-close and drain until the client has read the
      // response and hung up (bounded by the short socket timeout above).
      ::shutdown(conn.get(), SHUT_WR);
      char drain[4096];
      while (true) {
        auto n = ReadSome(conn.get(), drain, sizeof(drain));
        if (!n.ok() || *n == 0) break;
      }
      continue;
    }
    int fd = conn.Release();
    pool_->Post([this, fd] { HandleConnection(UniqueFd(fd), /*served=*/0); });
  }

  // Drain: close every parked connection. ParkConnection rejects newcomers
  // once it observes stopping_, and its mutex orders that check against this
  // final sweep, so none can slip in afterwards.
  std::lock_guard<std::mutex> lock(park_mutex_);
  for (auto& p : park_inbox_) parked.push_back(std::move(p));
  park_inbox_.clear();
  for (auto& p : parked) {
    p.conn.Reset();
    FinishExchange();
  }
}

void HttpServer::ParkConnection(UniqueFd conn, int served) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.keep_alive_idle_timeout_ms);
  std::lock_guard<std::mutex> lock(park_mutex_);
  if (stopping_.load(std::memory_order_relaxed)) {
    conn.Reset();  // the poller may already be past its final sweep
    FinishExchange();
    return;
  }
  park_inbox_.push_back(ParkedConnection{std::move(conn), served, deadline});
  char byte = 1;
  (void)!::write(wake_write_.get(), &byte, 1);
}

void HttpServer::FinishExchange() {
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drained_.notify_all();
  }
}

void HttpServer::LingeringClose(UniqueFd* conn) {
  // If the client is still mid-send (a parser error cut the read short), a
  // bare close() would RST the response away. Half-close, then drain until
  // the peer has read the response and hung up.
  ::shutdown(conn->get(), SHUT_WR);
  (void)SetSocketTimeouts(conn->get(), /*timeout_ms=*/250);
  char drain[4096];
  while (true) {
    auto n = ReadSome(conn->get(), drain, sizeof(drain));
    if (!n.ok() || *n == 0) break;
  }
  conn->Reset();
}

void HttpServer::HandleConnection(UniqueFd conn, int served) {
  if (served == 0) {
    (void)SetSocketTimeouts(conn.get(), options_.request_timeout_ms);
  }

  std::string leftover;
  int linger_streak = 0;
  while (conn.valid()) {
    // Between keep-alive requests, linger briefly for the next request
    // before handing the connection back to the poller. A busy closed-loop
    // client has the next request on the wire within microseconds; serving
    // it on this same worker skips the park → self-pipe wakeup → poll
    // dispatch → ThreadPool::Post round trip that otherwise taxes every
    // keep-alive exchange. A connection that stays quiet past the linger
    // still parks, so the poller keeps enforcing the idle timeout, and a
    // burst cap force-parks hot connections so they cannot pin a worker
    // while parked connections with requests pending wait. Pipelined
    // leftover bytes (a request that already arrived) skip the wait.
    if (served > 0 && leftover.empty()) {
      const bool burst_exhausted =
          options_.keep_alive_linger_burst > 0 &&
          linger_streak >= options_.keep_alive_linger_burst;
      pollfd pfd{conn.get(), POLLIN, 0};
      int ready = ::poll(
          &pfd, 1,
          burst_exhausted ? 0 : std::max(0, options_.keep_alive_linger_ms));
      if (ready == 0 || (ready > 0 && burst_exhausted)) {
        ParkConnection(std::move(conn), served);
        return;  // the admission slot travels with the parked connection
      }
      if (ready < 0) break;  // poll error: silent close
      ++linger_streak;
    }

    Timer timer;
    HttpRequestParser parser(options_.max_body_bytes);
    auto state = HttpRequestParser::State::kNeedMore;
    if (!leftover.empty()) {
      state = parser.Feed(leftover);
      leftover.clear();
    }
    char buf[16 * 1024];
    bool timed_out = false;
    bool peer_closed = false;
    while (state == HttpRequestParser::State::kNeedMore) {
      auto n = ReadSome(conn.get(), buf, sizeof(buf));
      if (!n.ok()) {
        timed_out = n.status().code() == StatusCode::kDeadlineExceeded;
        break;
      }
      if (*n == 0) {
        peer_closed = true;
        break;
      }
      state = parser.Feed(std::string_view(buf, *n));
    }

    if (peer_closed && state == HttpRequestParser::State::kNeedMore) {
      // EOF between requests (or mid-request): nothing to answer, nothing to
      // record — it never became a request.
      break;
    }

    std::string response;
    int status = 0;
    bool keep_alive = false;
    algebra::OpMetrics metrics;
    bool has_metrics = false;
    if (state == HttpRequestParser::State::kComplete) {
      // Decide the connection's fate before dispatch so the response can
      // carry the matching Connection header.
      ++served;
      keep_alive = options_.keep_alive &&
                   !stopping_.load(std::memory_order_relaxed) &&
                   (options_.max_requests_per_connection == 0 ||
                    served < options_.max_requests_per_connection) &&
                   ClientAllowsKeepAlive(parser.request());
      response = dispatcher_.Dispatch(parser.request(), keep_alive, &status,
                                      &metrics, &has_metrics);
    } else if (state == HttpRequestParser::State::kError) {
      status = parser.error_status();
      response = JsonError(status, parser.error());
    } else if (timed_out) {
      // A timeout with a half-read request gets 408; an idle-wait timeout was
      // already handled above by the silent close.
      status = 408;
      response = JsonError(408, "timed out waiting for the request");
    }

    if (status != 0) {
      // Record before the bytes go out: a client that has read its response
      // may immediately ask /metrics, which must already include this one.
      stats_.RecordRequest(status,
                           static_cast<uint64_t>(timer.ElapsedMicros()),
                           has_metrics ? &metrics : nullptr);
      (void)WriteAll(conn.get(), response);
    }
    if (status == 0 || !keep_alive) {
      if (status != 0) {
        LingeringClose(&conn);
      }
      break;
    }
    // Connection stays open: any pipelined bytes seed the next parser.
    leftover = parser.TakeRemaining();
  }

  conn.Reset();  // close before releasing the slot: Shutdown implies flushed
  FinishExchange();
}

}  // namespace xfrag::server
