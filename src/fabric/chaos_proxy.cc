#include "fabric/chaos_proxy.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "fabric/protocol.h"
#include "fabric/tcp_transport.h"
#include "netbase/random.h"

namespace xmap::fabric {
namespace {

using Clock = std::chrono::steady_clock;

bool make_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return false;
  const int fdflags = fcntl(fd, F_GETFD, 0);
  return fdflags >= 0 && fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC) >= 0;
}

// The seeded fault draw: a pure function of (seed, connection, direction,
// chunk), uniform in [0, 1).
double fault_draw(std::uint64_t seed, int connection, bool up,
                  std::uint64_t chunk) {
  std::uint64_t h = net::hash_combine64(
      seed, (static_cast<std::uint64_t>(connection) << 1) | (up ? 1 : 0));
  h = net::hash_combine64(h, chunk);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Tracks XFB1 frame boundaries on a pass-through stream — enough to place
// a cut a fixed number of bytes into a frame.
struct FrameCursor {
  std::uint64_t frames_done = 0;
  std::size_t have = 0;       // bytes of the current frame consumed
  std::size_t frame_len = 0;  // known once 8 header bytes are in
  char header[8] = {0};

  void consume_byte(char c) {
    if (have < 8) {
      header[have] = c;
      ++have;
      if (have == 8) {
        std::uint32_t len = 0;
        for (int i = 0; i < 4; ++i) {
          len |= static_cast<std::uint32_t>(
                     static_cast<std::uint8_t>(header[4 + i]))
                 << (8 * i);
        }
        frame_len = kFrameOverhead + len;
      }
      if (have == frame_len && frame_len != 0) finish();
      return;
    }
    ++have;
    if (have == frame_len) finish();
  }

  void finish() {
    ++frames_done;
    have = 0;
    frame_len = 0;
  }
};

struct Chunk {
  std::string bytes;
  Clock::time_point ready_at;
};

struct Dir {
  std::deque<Chunk> pending;
  std::string staging;  // coalesce buffer
  Clock::time_point staged_at{};
  std::uint64_t seen = 0;  // bytes read from the source, incl. blackholed
  std::uint64_t chunk_index = 0;
  bool blackholed = false;
  bool eof = false;          // source closed; drain pending, then half-close
  bool dest_shut = false;
};

struct Pair {
  int client = -1;  // worker side
  int up = -1;      // coordinator side
  int index = 0;
  Dir a2b;  // client -> upstream
  Dir b2a;  // upstream -> client
  FrameCursor frames;
  bool cut_pending = false;  // flush a2b, then sever both legs
  bool dead = false;
};

}  // namespace

struct ChaosProxy::Impl {
  ChaosProxyOptions opt;
  sockaddr_storage upstream_addr{};
  socklen_t upstream_len = 0;
  int listen_fd = -1;
  sockaddr_storage bound{};
  std::thread thread;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> cuts{0};
  std::atomic<std::uint64_t> stalls{0};
  std::atomic<std::uint64_t> blackholed{0};
  std::atomic<std::uint64_t> relayed{0};

  std::vector<std::unique_ptr<Pair>> pairs;

  void run();
  void accept_new();
  void read_side(Pair& pair, bool up);
  void write_side(Pair& pair, bool up);
  void emit(Pair& pair, bool up, std::string bytes);
  void flush_staging(Dir& dir, Pair& pair, bool up);
  void close_pair(Pair& pair);
};

void ChaosProxy::Impl::close_pair(Pair& pair) {
  if (pair.client >= 0) ::close(pair.client);
  if (pair.up >= 0) ::close(pair.up);
  pair.client = -1;
  pair.up = -1;
  pair.dead = true;
}

// Queues `bytes` for delivery, applying split segmentation and seeded
// stalls. Order is preserved: a stalled chunk delays everything behind it,
// exactly like bytes queued behind a congested TCP link.
void ChaosProxy::Impl::emit(Pair& pair, bool up, std::string bytes) {
  Dir& dir = up ? pair.a2b : pair.b2a;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t seg =
        opt.split_max_bytes > 0
            ? std::min(opt.split_max_bytes, bytes.size() - pos)
            : bytes.size() - pos;
    Chunk chunk;
    chunk.bytes = bytes.substr(pos, seg);
    chunk.ready_at = Clock::now();
    ++dir.chunk_index;
    if (opt.stall_probability > 0 &&
        fault_draw(opt.seed, pair.index, up, dir.chunk_index) <
            opt.stall_probability) {
      chunk.ready_at += std::chrono::milliseconds(opt.stall_ms);
      stalls.fetch_add(1, std::memory_order_relaxed);
    }
    dir.pending.push_back(std::move(chunk));
    pos += seg;
  }
}

void ChaosProxy::Impl::flush_staging(Dir& dir, Pair& pair, bool up) {
  if (dir.staging.empty()) return;
  std::string bytes = std::move(dir.staging);
  dir.staging.clear();
  emit(pair, up, std::move(bytes));
}

void ChaosProxy::Impl::read_side(Pair& pair, bool up) {
  Dir& dir = up ? pair.a2b : pair.b2a;
  const int src = up ? pair.client : pair.up;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(src, buf, sizeof buf);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR)) {
      dir.eof = true;
      flush_staging(dir, pair, up);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN
    }
    std::size_t len = static_cast<std::size_t>(n);
    std::size_t offset = 0;

    // Blackhole: beyond the byte threshold this direction is a silent pit.
    if (pair.index == opt.blackhole_connection &&
        up == opt.blackhole_up) {
      if (dir.blackholed) {
        blackholed.fetch_add(len, std::memory_order_relaxed);
        dir.seen += len;
        continue;
      }
      if (dir.seen + len >= opt.blackhole_after_bytes) {
        const std::size_t allowed =
            opt.blackhole_after_bytes > dir.seen
                ? static_cast<std::size_t>(opt.blackhole_after_bytes -
                                           dir.seen)
                : 0;
        blackholed.fetch_add(len - allowed, std::memory_order_relaxed);
        dir.blackholed = true;
        dir.seen += len;
        len = allowed;
        if (len == 0) continue;
      } else {
        dir.seen += len;
      }
    } else {
      dir.seen += len;
    }

    // Cut: walk the frame cursor to find the severance point and truncate
    // the span so the receiver is left holding a torn frame.
    if (up && pair.index == opt.cut_connection && !pair.cut_pending &&
        cuts.load(std::memory_order_relaxed) == 0) {
      for (std::size_t i = 0; i < len; ++i) {
        pair.frames.consume_byte(buf[offset + i]);
        if (pair.frames.frames_done == opt.cut_after_frames &&
            pair.frames.have >= opt.cut_frame_bytes &&
            pair.frames.have > 0) {
          // Deliver exactly through this byte, then sever.
          flush_staging(dir, pair, up);
          emit(pair, up, std::string(buf + offset, i + 1));
          pair.cut_pending = true;
          pair.b2a.pending.clear();  // a cut kills both legs at once
          pair.b2a.staging.clear();
          cuts.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    }

    if (opt.coalesce_min_bytes > 0) {
      if (dir.staging.empty()) dir.staged_at = Clock::now();
      dir.staging.append(buf + offset, len);
      if (dir.staging.size() >= opt.coalesce_min_bytes) {
        flush_staging(dir, pair, up);
      }
    } else {
      emit(pair, up, std::string(buf + offset, len));
    }
  }
}

void ChaosProxy::Impl::write_side(Pair& pair, bool up) {
  Dir& dir = up ? pair.a2b : pair.b2a;
  const int dst = up ? pair.up : pair.client;
  const auto now = Clock::now();
  while (!dir.pending.empty() && dir.pending.front().ready_at <= now) {
    Chunk& chunk = dir.pending.front();
    const ssize_t n =
        ::send(dst, chunk.bytes.data(), chunk.bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // The destination is gone, so this direction is dead. Bytes already
      // relayed the other way still deliver, as they would over TCP: a
      // worker that sends after the coordinator hung up still receives
      // the coordinator's last frames (its Bye).
      dir.pending.clear();
      dir.staging.clear();
      dir.eof = true;
      dir.dest_shut = true;
      return;
    }
    relayed.fetch_add(static_cast<std::uint64_t>(n),
                      std::memory_order_relaxed);
    if (static_cast<std::size_t>(n) == chunk.bytes.size()) {
      dir.pending.pop_front();
    } else {
      chunk.bytes.erase(0, static_cast<std::size_t>(n));
      return;
    }
  }
  if (pair.cut_pending && pair.a2b.pending.empty()) {
    close_pair(pair);
    return;
  }
  if (dir.eof && dir.pending.empty() && dir.staging.empty() &&
      !dir.dest_shut) {
    // Propagate the half-close after the buffered bytes — a FIN behind
    // data, exactly what the kernel would do.
    ::shutdown(dst, SHUT_WR);
    dir.dest_shut = true;
  }
}

void ChaosProxy::Impl::accept_new() {
  for (;;) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) return;
    if (!make_nonblocking(client)) {
      ::close(client);
      continue;
    }
    int one = 1;
    (void)setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // Upstream leg: bounded blocking connect (the relay thread owns it).
    const int upfd = socket(upstream_addr.ss_family, SOCK_STREAM, 0);
    if (upfd < 0 || !make_nonblocking(upfd)) {
      if (upfd >= 0) ::close(upfd);
      ::close(client);
      continue;
    }
    int rc = ::connect(upfd, reinterpret_cast<sockaddr*>(&upstream_addr),
                       upstream_len);
    if (rc < 0 && errno == EINPROGRESS) {
      pollfd pfd{upfd, POLLOUT, 0};
      rc = ::poll(&pfd, 1, 1000);
      int soerr = 0;
      socklen_t slen = sizeof soerr;
      if (rc <= 0 ||
          getsockopt(upfd, SOL_SOCKET, SO_ERROR, &soerr, &slen) < 0 ||
          soerr != 0) {
        rc = -1;
      } else {
        rc = 0;
      }
    }
    if (rc < 0) {
      ::close(upfd);
      ::close(client);
      continue;
    }
    (void)setsockopt(upfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto pair = std::make_unique<Pair>();
    pair->client = client;
    pair->up = upfd;
    pair->index = static_cast<int>(
        connections.fetch_add(1, std::memory_order_relaxed));
    pairs.push_back(std::move(pair));
  }
}

void ChaosProxy::Impl::run() {
  while (!stop.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    std::vector<std::pair<Pair*, bool>> sides;  // (pair, is_client_fd)
    fds.push_back(pollfd{listen_fd, POLLIN, 0});
    const auto now = Clock::now();
    int timeout = 20;
    const auto want = [&](Dir& dir) {
      if (!dir.pending.empty()) {
        const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                               dir.pending.front().ready_at - now)
                               .count();
        if (until > 0) timeout = std::min<int>(timeout, static_cast<int>(until));
        return dir.pending.front().ready_at <= now;
      }
      return false;
    };
    for (auto& pair : pairs) {
      if (pair->dead) continue;
      // Coalesce hold deadline: staged bytes flush after the hold window
      // even when the batch minimum was never reached.
      for (Dir* dir : {&pair->a2b, &pair->b2a}) {
        if (!dir->staging.empty()) {
          const auto age =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  now - dir->staged_at)
                  .count();
          if (age >= opt.coalesce_hold_ms) {
            flush_staging(*dir, *pair,
                          dir == &pair->a2b);
          } else {
            timeout = std::min<int>(
                timeout, static_cast<int>(opt.coalesce_hold_ms - age) + 1);
          }
        }
      }
      short client_ev = 0;
      short up_ev = 0;
      if (!pair->a2b.eof && !pair->cut_pending) client_ev |= POLLIN;
      if (!pair->b2a.eof && !pair->cut_pending) up_ev |= POLLIN;
      if (want(pair->b2a)) client_ev |= POLLOUT;
      if (want(pair->a2b) || pair->cut_pending) up_ev |= POLLOUT;
      // Drain/shutdown bookkeeping runs through write_side even without
      // POLLOUT interest; poll wakes us via timeout.
      if (client_ev != 0 && pair->client >= 0) {
        fds.push_back(pollfd{pair->client, client_ev, 0});
        sides.emplace_back(pair.get(), true);
      }
      if (up_ev != 0 && pair->up >= 0) {
        fds.push_back(pollfd{pair->up, up_ev, 0});
        sides.emplace_back(pair.get(), false);
      }
    }
    int rc;
    do {
      rc = ::poll(fds.data(), fds.size(), timeout);
    } while (rc < 0 && errno == EINTR);
    if ((fds[0].revents & POLLIN) != 0) accept_new();
    for (std::size_t i = 1; i < fds.size(); ++i) {
      Pair* pair = sides[i - 1].first;
      const bool is_client = sides[i - 1].second;
      if (pair->dead) continue;
      const short re = fds[i].revents;
      if ((re & POLLOUT) != 0) {
        // client POLLOUT writes the down direction; up POLLOUT the up one.
        write_side(*pair, /*up=*/!is_client);
      }
      if (pair->dead) continue;
      if ((re & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_side(*pair, /*up=*/is_client);
      }
    }
    // Timer-driven drains: stalled chunks whose ready_at passed, EOF
    // propagation, cut completion.
    for (auto& pair : pairs) {
      if (pair->dead) continue;
      write_side(*pair, true);
      if (!pair->dead) write_side(*pair, false);
      if (!pair->dead && pair->a2b.eof && pair->b2a.eof &&
          pair->a2b.pending.empty() && pair->b2a.pending.empty()) {
        close_pair(*pair);
      }
    }
    pairs.erase(std::remove_if(pairs.begin(), pairs.end(),
                               [](const std::unique_ptr<Pair>& p) {
                                 return p->dead;
                               }),
                pairs.end());
  }
  for (auto& pair : pairs) close_pair(*pair);
  pairs.clear();
}

std::unique_ptr<ChaosProxy> ChaosProxy::create(ChaosProxyOptions options,
                                               std::string& error) {
  auto impl = std::make_unique<Impl>();
  impl->opt = std::move(options);
  if (!parse_socket_address(impl->opt.upstream, impl->upstream_addr,
                            impl->upstream_len, error)) {
    return nullptr;
  }
  sockaddr_storage addr{};
  socklen_t addr_len = 0;
  std::string parse_error;
  (void)parse_socket_address("127.0.0.1:0", addr, addr_len, parse_error);
  const int fd = socket(addr.ss_family, SOCK_STREAM, 0);
  if (fd < 0) {
    error = "chaos proxy: socket() failed: " + std::string(strerror(errno)) +
            " (errno " + std::to_string(errno) + ")";
    return nullptr;
  }
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (!make_nonblocking(fd) ||
      bind(fd, reinterpret_cast<sockaddr*>(&addr), addr_len) < 0 ||
      listen(fd, 64) < 0) {
    error = "chaos proxy: bind/listen on 127.0.0.1:0 failed: " +
            std::string(strerror(errno)) + " (errno " +
            std::to_string(errno) + ")";
    ::close(fd);
    return nullptr;
  }
  impl->listen_fd = fd;
  socklen_t blen = sizeof impl->bound;
  (void)getsockname(fd, reinterpret_cast<sockaddr*>(&impl->bound), &blen);
  auto proxy = std::unique_ptr<ChaosProxy>(new ChaosProxy());
  proxy->impl_ = std::move(impl);
  proxy->impl_->thread = std::thread([impl = proxy->impl_.get()] {
    impl->run();
  });
  return proxy;
}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::stop() {
  if (impl_ == nullptr) return;
  if (impl_->thread.joinable()) {
    impl_->stop.store(true, std::memory_order_relaxed);
    impl_->thread.join();
  }
  if (impl_->listen_fd >= 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
  }
}

std::string ChaosProxy::address() const {
  return format_socket_address(impl_->bound);
}

std::uint16_t ChaosProxy::port() const {
  return ntohs(reinterpret_cast<const sockaddr_in*>(&impl_->bound)->sin_port);
}

std::uint64_t ChaosProxy::connections() const {
  return impl_->connections.load(std::memory_order_relaxed);
}
std::uint64_t ChaosProxy::cuts() const {
  return impl_->cuts.load(std::memory_order_relaxed);
}
std::uint64_t ChaosProxy::stalls() const {
  return impl_->stalls.load(std::memory_order_relaxed);
}
std::uint64_t ChaosProxy::blackholed_bytes() const {
  return impl_->blackholed.load(std::memory_order_relaxed);
}
std::uint64_t ChaosProxy::relayed_bytes() const {
  return impl_->relayed.load(std::memory_order_relaxed);
}

}  // namespace xmap::fabric
