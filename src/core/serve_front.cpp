#include "core/serve_front.hpp"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>
#endif

#include "util/event_loop.hpp"
#include "util/fault_injector.hpp"
#include "util/mpsc_queue.hpp"

#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

namespace aflow::core {

#ifdef _WIN32

struct ServeFront::Impl {};
ServeFront::ServeFront(ServeEngine& engine, ServeFrontOptions options)
    : engine_(engine), options_(std::move(options)) {}
ServeFront::~ServeFront() = default;
void ServeFront::start() {
  throw std::runtime_error("ServeFront: sockets are not supported on this "
                           "platform");
}
void ServeFront::run() {}
void ServeFront::stop() {}
int ServeFront::io_thread_count() const { return 0; }
int ServeFront::worker_count() const { return 0; }

#else // POSIX

namespace {

/// One parsed-but-unserved request line. `oversized` marks a frame that
/// violated max_line_bytes: the worker answers it with protocol_error()
/// (text then carries the error message) instead of executing it.
struct PendingLine {
  std::string text;
  bool oversized = false;
};

} // namespace

/// Per-connection state. Everything below `session` is owned exclusively
/// by the connection's I/O loop thread; workers touch only the immutable
/// fields (fd is used by the loop alone, `session` and `loop_index` are
/// const after construction, and the executing/response handshake — at
/// most one work item in flight per connection, posted back through the
/// loop's locked mailbox — guarantees the loop never mutates `session`
/// while a worker is inside it).
struct Conn {
  int fd = -1;
  bool tcp = false;
  size_t loop_index = 0;
  std::shared_ptr<ServeSession> session; // null for rejected connections

  std::string read_buf;
  std::string write_buf;
  size_t write_off = 0;
  std::deque<PendingLine> pending;
  bool executing = false;      // one work item queued or running
  bool discarding = false;     // inside an oversized frame, seeking its \n
  bool reading_paused = false; // backpressure: at pipeline/write-buf limit
  bool hungup = false;         // peer gone; flush nothing, close when idle
  bool done = false;           // quit/shutdown/poison: close once drained
  bool closed = false;
};

namespace {

struct WorkItem {
  std::shared_ptr<Conn> conn;
  std::string line;
  bool oversized = false;
};

struct Response {
  std::shared_ptr<Conn> conn;
  std::string text;
  bool session_done = false;
};

struct IoLoop {
  util::SelfPipe wake;
  std::mutex mail_mutex;
  std::vector<std::shared_ptr<Conn>> incoming; // acceptor -> this loop
  std::vector<Response> responses;             // workers -> this loop
  std::vector<std::shared_ptr<Conn>> conns;    // loop-thread-owned
  std::thread thread;
};

constexpr size_t kNoSlot = static_cast<size_t>(-1);
/// recv() calls per connection per poll cycle: bounds how long one
/// fast-writing client can monopolise its I/O loop.
constexpr int kMaxReadsPerCycle = 16;

} // namespace

struct ServeFront::Impl {
  int unix_fd = -1;
  int tcp_fd = -1;
  std::vector<std::unique_ptr<IoLoop>> loops;
  std::unique_ptr<util::MpscQueue<WorkItem>> queue;
  std::vector<std::thread> workers;

  std::atomic<bool> stop{false};
  /// Loops observe this to close the accept path and stop reading; set by
  /// run() once stop/shutdown is detected.
  std::atomic<bool> stopping{false};
  /// Set after the worker pool is joined: loops may now flush-and-exit.
  std::atomic<bool> workers_done{false};
  std::atomic<size_t> next_loop{0};
  int worker_count = 0;

  std::mutex run_mutex;
  std::condition_variable run_cv;
};

ServeFront::ServeFront(ServeEngine& engine, ServeFrontOptions options)
    : impl_(std::make_unique<Impl>()), engine_(engine),
      options_(std::move(options)) {
  if (options_.io_threads < 1) options_.io_threads = 1;
  if (options_.max_pipeline < 1) options_.max_pipeline = 1;
  if (options_.max_write_buffer_bytes < 1) options_.max_write_buffer_bytes = 1;
}

ServeFront::~ServeFront() {
  stop();
  // run() joins everything before returning; if it never ran, there is
  // nothing to join — just release the listeners start() may have opened.
  if (impl_->unix_fd >= 0) {
    ::close(impl_->unix_fd);
    ::unlink(options_.socket_path.c_str());
  }
  if (impl_->tcp_fd >= 0) ::close(impl_->tcp_fd);
}

void ServeFront::stop() {
  impl_->stop.store(true);
  impl_->run_cv.notify_all();
}

int ServeFront::io_thread_count() const {
  return static_cast<int>(impl_->loops.size());
}

int ServeFront::worker_count() const { return impl_->worker_count; }

void ServeFront::start() {
  if (options_.socket_path.empty() && options_.tcp_address.empty())
    throw std::runtime_error(
        "ServeFront: configure socket_path and/or tcp_address");
  if (!options_.socket_path.empty())
    impl_->unix_fd =
        util::listen_unix(options_.socket_path, options_.listen_backlog);
  if (!options_.tcp_address.empty()) {
    try {
      impl_->tcp_fd = util::listen_tcp(options_.tcp_address,
                                       options_.listen_backlog, &tcp_port_);
    } catch (...) {
      if (impl_->unix_fd >= 0) {
        ::close(impl_->unix_fd);
        impl_->unix_fd = -1;
        ::unlink(options_.socket_path.c_str());
      }
      throw;
    }
  }
}

namespace {

/// Classes of front work, factored free of ServeFront so the loop body
/// reads top-down. All methods run on the owning loop's thread.
class FrontRuntime {
 public:
  FrontRuntime(ServeEngine& engine, const ServeFrontOptions& options,
               FrontTelemetry& telemetry, ServeFront::Impl& impl)
      : engine_(engine), options_(options), telemetry_(telemetry),
        impl_(impl),
        oversized_error_("oversized frame: request line exceeds " +
                         std::to_string(options.max_line_bytes) + " bytes") {}

  void loop_main(size_t index);
  void worker_main();
  /// Releases the loops; run() calls it once every loop and worker thread
  /// exists, so no request is read (and no thread count observed by a
  /// client) while threads are still being spawned.
  void all_spawned() { spawned_.count_down(); }

 private:
  void accept_all(size_t my_index, int lfd, bool tcp);
  void adopt(IoLoop& loop, std::shared_ptr<Conn> conn);
  void handle_response(IoLoop& loop, Response& r);
  void append_response(Conn& c, const std::string& text);
  void ingest(const std::shared_ptr<Conn>& conn, const char* data, size_t n);
  void read_conn(const std::shared_ptr<Conn>& conn);
  void flush_conn(Conn& c);
  void dispatch(const std::shared_ptr<Conn>& conn);
  void update_backpressure(Conn& c);
  void hangup(Conn& c);
  void close_conn(Conn& c);
  size_t write_pending(const Conn& c) const {
    return c.write_buf.size() - c.write_off;
  }

  ServeEngine& engine_;
  const ServeFrontOptions& options_;
  FrontTelemetry& telemetry_;
  ServeFront::Impl& impl_;
  const std::string oversized_error_;
  std::latch spawned_{1};
};

void FrontRuntime::worker_main() {
  while (std::optional<WorkItem> item = impl_.queue->pop()) {
    // Sessions stay single-threaded by contract: the I/O plane schedules
    // at most one item per connection, so no two workers (and never the
    // loop) are inside one session at a time.
    ServeSession& session = *item->conn->session;
    std::string response = item->oversized
                               ? session.protocol_error(item->line)
                               : session.handle(item->line);
    const bool done = session.done();
    IoLoop& loop = *impl_.loops[item->conn->loop_index];
    {
      const std::lock_guard<std::mutex> lock(loop.mail_mutex);
      loop.responses.push_back(
          Response{std::move(item->conn), std::move(response), done});
    }
    loop.wake.notify();
  }
}

void FrontRuntime::loop_main(size_t index) {
  spawned_.wait();
  IoLoop& loop = *impl_.loops[index];
  const bool acceptor = index == 0;
  util::Poller poller;
  std::vector<std::shared_ptr<Conn>> incoming;
  std::vector<Response> responses;
  std::vector<size_t> slots;
  using Clock = std::chrono::steady_clock;
  Clock::time_point drain_deadline{};
  bool draining = false;

  for (;;) {
    // -- mailbox: new connections from the acceptor, worker responses.
    incoming.clear();
    responses.clear();
    {
      const std::lock_guard<std::mutex> lock(loop.mail_mutex);
      incoming.swap(loop.incoming);
      responses.swap(loop.responses);
    }
    for (std::shared_ptr<Conn>& conn : incoming) adopt(loop, std::move(conn));
    for (Response& r : responses) handle_response(loop, r);

    const bool stopping = impl_.stopping.load(std::memory_order_acquire);
    const bool workers_done = impl_.workers_done.load(std::memory_order_acquire);
    if (stopping) {
      // No further dispatches: queued-but-unserved requests are dropped,
      // matching the thread-per-connection front's abandon-on-shutdown.
      for (const std::shared_ptr<Conn>& conn : loop.conns)
        conn->pending.clear();
      if (workers_done && !draining) {
        draining = true;
        drain_deadline = Clock::now() + std::chrono::milliseconds(
                                            options_.drain_grace_ms);
      }
    }

    // -- close sweep: a connection leaves once no worker holds it and it
    // has nothing (or no way) left to deliver.
    const bool grace_over = draining && Clock::now() >= drain_deadline;
    for (auto it = loop.conns.begin(); it != loop.conns.end();) {
      Conn& c = **it;
      const bool flushed = write_pending(c) == 0;
      if (!c.closed && !c.executing &&
          (c.hungup || (c.done && flushed) ||
           (draining && (flushed || grace_over))))
        close_conn(c);
      it = c.closed ? loop.conns.erase(it) : std::next(it);
    }
    if (stopping && workers_done && loop.conns.empty()) break;

    // -- poll set.
    poller.clear();
    slots.clear();
    const size_t wake_slot = poller.add(loop.wake.read_fd(), POLLIN);
    size_t unix_slot = kNoSlot, tcp_slot = kNoSlot;
    if (acceptor && !stopping) {
      if (impl_.unix_fd >= 0) unix_slot = poller.add(impl_.unix_fd, POLLIN);
      if (impl_.tcp_fd >= 0) tcp_slot = poller.add(impl_.tcp_fd, POLLIN);
    }
    for (const std::shared_ptr<Conn>& conn : loop.conns) {
      short events = POLLRDHUP; // hangup detection stays on through pauses
      if (!conn->hungup && !conn->done && !conn->reading_paused && !stopping)
        events |= POLLIN;
      if (write_pending(*conn) > 0 && !conn->hungup) events |= POLLOUT;
      slots.push_back(poller.add(conn->fd, events));
    }

    poller.wait(options_.poll_interval_ms);

    // -- readiness.
    if (poller.revents(wake_slot) & POLLIN) loop.wake.drain();
    if (unix_slot != kNoSlot && (poller.revents(unix_slot) & POLLIN))
      accept_all(index, impl_.unix_fd, /*tcp=*/false);
    if (tcp_slot != kNoSlot && (poller.revents(tcp_slot) & POLLIN))
      accept_all(index, impl_.tcp_fd, /*tcp=*/true);
    for (size_t k = 0; k < slots.size(); ++k) {
      const std::shared_ptr<Conn>& conn = loop.conns[k];
      if (conn->closed) continue;
      const short re = poller.revents(slots[k]);
      if (re & POLLIN) {
        // Read before honouring a hangup bit: a client that pipelined
        // requests and closed straight after still gets them parsed (the
        // EOF surfaces as recv()==0 at the end of the data).
        read_conn(conn);
      } else if (re & (POLLRDHUP | POLLHUP | POLLERR)) {
        hangup(*conn);
      }
      if (!conn->closed && !conn->hungup && (re & POLLOUT)) {
        flush_conn(*conn);
        // A drained write buffer may clear the pause even with no request
        // in flight (nothing else re-evaluates it until the next response).
        update_backpressure(*conn);
      }
    }
  }

  // Loop exit: every connection was closed by the sweep above.
}

void FrontRuntime::adopt(IoLoop& loop, std::shared_ptr<Conn> conn) {
  loop.conns.push_back(std::move(conn));
}

void FrontRuntime::accept_all(size_t my_index, int lfd, bool tcp) {
  for (;;) {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Anything else — EAGAIN (drained), ECONNABORTED, or fd/memory
      // pressure (EMFILE/ENFILE/ENOMEM) — waits for the next poll cycle;
      // the poll interval paces the retry so an exhausted fd table does
      // not busy-loop, and a broken listener keeps erroring harmlessly
      // until shutdown.
      break;
    }
    try {
      util::set_nonblocking(fd);
    } catch (...) {
      ::close(fd);
      continue;
    }
    if (tcp) util::set_tcp_nodelay(fd);

    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->tcp = tcp;
    std::shared_ptr<ServeSession> session = engine_.open_session();
    if (!session) {
      // Beyond max_sessions: one rejection line, then close-after-flush.
      // The refused client failed, the process did not.
      telemetry_.rejected.fetch_add(1);
      append_response(*conn, engine_.reject_line());
      conn->done = true;
    } else {
      (tcp ? telemetry_.accepted_tcp : telemetry_.accepted_unix).fetch_add(1);
      conn->session = std::move(session);
    }
    telemetry_.open_connections.fetch_add(1);

    const size_t target = impl_.next_loop.fetch_add(1) % impl_.loops.size();
    conn->loop_index = target;
    if (target == my_index) {
      IoLoop& loop = *impl_.loops[target];
      flush_conn(*conn); // rejection lines usually leave immediately
      if (!conn->closed) adopt(loop, std::move(conn));
      continue;
    }
    IoLoop& other = *impl_.loops[target];
    {
      const std::lock_guard<std::mutex> lock(other.mail_mutex);
      other.incoming.push_back(std::move(conn));
    }
    other.wake.notify();
  }
}

void FrontRuntime::handle_response(IoLoop& loop, Response& r) {
  (void)loop;
  Conn& c = *r.conn;
  if (c.closed) return;
  c.executing = false;
  if (!r.text.empty() && !c.hungup && !c.done) append_response(c, r.text);
  if (r.session_done) {
    // quit/shutdown: anything the client pipelined past it is dropped,
    // exactly like the per-thread front breaking out of its read loop.
    c.done = true;
    c.pending.clear();
  }
  dispatch(r.conn);
  if (!c.hungup) flush_conn(c);
  // After the flush, not before: a pause decided on the pre-flush buffer
  // size would stick (with no request in flight there may be no later
  // event to clear it) even though the bytes just left for the kernel.
  update_backpressure(c);
}

void FrontRuntime::append_response(Conn& c, const std::string& text) {
  std::string out = text;
  out += '\n';
  // Chaos hook: simulate the transport dying mid-response (a short write
  // followed by connection loss) through the buffered write path. Clients
  // must treat a line without its newline as a dead session, never as a
  // parseable response.
  if (util::FaultInjector::instance().armed() &&
      util::FaultInjector::instance().take(
          "serve.write", util::FaultInjector::Action::kShort)) {
    out.resize(out.size() / 2);
    telemetry_.short_writes.fetch_add(1);
    c.write_buf += out;
    c.done = true; // close once the poisoned half-line drains
    c.pending.clear();
    return;
  }
  c.write_buf += out;
  telemetry_.responses_written.fetch_add(1);
}

void FrontRuntime::ingest(const std::shared_ptr<Conn>& conn, const char* data,
                          size_t n) {
  Conn& c = *conn;
  size_t offset = 0;
  if (c.discarding) {
    // Inside an oversized frame (already answered): drop bytes without
    // buffering them — the frame limit must bound memory even against a
    // client that streams forever without a newline — and resync at the
    // frame's newline.
    const void* nl = std::memchr(data, '\n', n);
    if (!nl) return;
    offset = static_cast<size_t>(static_cast<const char*>(nl) - data) + 1;
    c.discarding = false;
  }
  c.read_buf.append(data + offset, n - offset);

  size_t start = 0;
  for (size_t nl; (nl = c.read_buf.find('\n', start)) != std::string::npos;) {
    std::string line = c.read_buf.substr(start, nl - start);
    start = nl + 1;
    // A complete line can exceed the limit too (its newline arrived in the
    // same chunk): reject it instead of serving it. The rejection rides
    // the same per-session queue as real requests, so its response keeps
    // its place in the session's response order.
    if (line.size() > options_.max_line_bytes) {
      telemetry_.oversized_frames.fetch_add(1);
      c.pending.push_back(PendingLine{oversized_error_, true});
    } else {
      c.pending.push_back(PendingLine{std::move(line), false});
    }
  }
  c.read_buf.erase(0, start);

  if (c.read_buf.size() > options_.max_line_bytes) {
    // Oversized frame still awaiting its newline: queue one error answer,
    // drop what we buffered, and discard the rest as it streams in.
    telemetry_.oversized_frames.fetch_add(1);
    c.pending.push_back(PendingLine{oversized_error_, true});
    c.read_buf.clear();
    c.discarding = true;
  }

  dispatch(conn);
  update_backpressure(c);
}

void FrontRuntime::read_conn(const std::shared_ptr<Conn>& conn) {
  Conn& c = *conn;
  char chunk[4096];
  for (int reads = 0; reads < kMaxReadsPerCycle; ++reads) {
    if (c.reading_paused || c.hungup || c.done) break;
    const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
    if (n == 0) {
      // Client closed — possibly mid-line; the partial line is dropped and
      // only this session ends.
      hangup(c);
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (!util::would_block(errno)) hangup(c);
      break;
    }
    ingest(conn, chunk, static_cast<size_t>(n));
  }
}

void FrontRuntime::flush_conn(Conn& c) {
  while (write_pending(c) > 0) {
    const ssize_t n =
        ::send(c.fd, c.write_buf.data() + c.write_off, write_pending(c),
               MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (!util::would_block(errno)) hangup(c);
      return;
    }
    c.write_off += static_cast<size_t>(n);
  }
  c.write_buf.clear();
  c.write_off = 0;
}

void FrontRuntime::dispatch(const std::shared_ptr<Conn>& conn) {
  Conn& c = *conn;
  if (c.executing || c.hungup || c.done || c.pending.empty()) return;
  if (impl_.stopping.load(std::memory_order_acquire)) return;
  PendingLine item = std::move(c.pending.front());
  c.pending.pop_front();
  c.executing = true;
  telemetry_.requests_queued.fetch_add(1);
  // Capacity is sized to max_sessions (one in-flight item per connection),
  // so this never blocks in practice; a false return means the queue was
  // closed for shutdown, where dropping the request is the contract.
  if (!impl_.queue->push(WorkItem{conn, std::move(item.text), item.oversized}))
    c.executing = false;
}

void FrontRuntime::update_backpressure(Conn& c) {
  const bool should_pause =
      c.pending.size() >= static_cast<size_t>(options_.max_pipeline) ||
      write_pending(c) >= options_.max_write_buffer_bytes;
  if (should_pause && !c.reading_paused) {
    c.reading_paused = true;
    telemetry_.backpressure_pauses.fetch_add(1);
  } else if (!should_pause && c.reading_paused) {
    c.reading_paused = false;
  }
}

void FrontRuntime::hangup(Conn& c) {
  if (c.hungup) return;
  c.hungup = true;
  c.pending.clear(); // queued-but-unserved requests are work for nobody
  if (c.executing && c.session) {
    // The client's read side is gone mid-request: trip the session token
    // so the in-flight solve unwinds at its next cancellation point
    // instead of running to completion on a dead socket. This is the
    // always-on replacement for the accept thread's periodic POLLRDHUP
    // sweep. (The session object itself stays alive until the worker
    // posts its response — the close sweep waits for `executing`.)
    c.session->cancel();
    telemetry_.hangup_cancels.fetch_add(1);
  }
}

void FrontRuntime::close_conn(Conn& c) {
  if (c.closed) return;
  c.closed = true;
  c.session.reset(); // frees the max_sessions slot
  ::close(c.fd);
  telemetry_.open_connections.fetch_sub(1);
}

} // namespace

void ServeFront::run() {
  if (impl_->unix_fd < 0 && impl_->tcp_fd < 0)
    throw std::runtime_error("ServeFront::run: call start() first");

  impl_->stopping.store(false);
  impl_->workers_done.store(false);
  impl_->worker_count =
      options_.workers > 0 ? options_.workers : engine_.workers_per_bank();
  if (impl_->worker_count < 1) impl_->worker_count = 1;
  impl_->queue = std::make_unique<util::MpscQueue<WorkItem>>(
      static_cast<size_t>(
          std::max(64, engine_.options().max_sessions + options_.io_threads)));
  impl_->loops.clear();
  for (int i = 0; i < options_.io_threads; ++i)
    impl_->loops.push_back(std::make_unique<IoLoop>());

  FrontRuntime runtime(engine_, options_, telemetry_, *impl_);

  engine_.set_front_stats_provider([this] {
    FrontStatsSnapshot s;
    s.accepted_unix = telemetry_.accepted_unix.load();
    s.accepted_tcp = telemetry_.accepted_tcp.load();
    s.rejected = telemetry_.rejected.load();
    s.open_connections = telemetry_.open_connections.load();
    s.requests_queued = telemetry_.requests_queued.load();
    s.responses_written = telemetry_.responses_written.load();
    s.backpressure_pauses = telemetry_.backpressure_pauses.load();
    s.oversized_frames = telemetry_.oversized_frames.load();
    s.hangup_cancels = telemetry_.hangup_cancels.load();
    s.short_writes = telemetry_.short_writes.load();
    s.io_threads = static_cast<int>(impl_->loops.size());
    s.workers = impl_->worker_count;
    return s;
  });

  for (size_t i = 0; i < impl_->loops.size(); ++i)
    impl_->loops[i]->thread =
        std::thread([&runtime, i] { runtime.loop_main(i); });
  for (int i = 0; i < impl_->worker_count; ++i)
    impl_->workers.emplace_back([&runtime] { runtime.worker_main(); });
  runtime.all_spawned();

  // Coordinator: wait for stop() or a session's `shutdown` request. The
  // poll interval bounds shutdown-detection staleness, same as the loops.
  {
    std::unique_lock<std::mutex> lock(impl_->run_mutex);
    while (!impl_->stop.load() && !engine_.shutdown_requested())
      impl_->run_cv.wait_for(
          lock, std::chrono::milliseconds(options_.poll_interval_ms));
  }

  // Teardown, in dependency order: stop accepting/reading/dispatching,
  // drop queued requests, let in-flight requests finish and post their
  // responses, then let the loops flush what is buffered (bounded by
  // drain_grace_ms) and exit.
  impl_->stopping.store(true, std::memory_order_release);
  for (auto& loop : impl_->loops) loop->wake.notify();
  // close() hands back requests no worker ever popped. Their connections
  // still have `executing` set, and only a response clears it — so post an
  // empty response for each, or the close sweep would wait on them forever
  // and the loops (and this join) would never finish.
  for (WorkItem& item : impl_->queue->close()) {
    IoLoop& loop = *impl_->loops[item.conn->loop_index];
    {
      const std::lock_guard<std::mutex> lock(loop.mail_mutex);
      loop.responses.push_back(
          Response{std::move(item.conn), std::string(), false});
    }
    loop.wake.notify();
  }
  for (std::thread& w : impl_->workers)
    if (w.joinable()) w.join();
  impl_->workers.clear();
  impl_->workers_done.store(true, std::memory_order_release);
  for (auto& loop : impl_->loops) loop->wake.notify();
  for (auto& loop : impl_->loops)
    if (loop->thread.joinable()) loop->thread.join();
  impl_->loops.clear();
  impl_->queue.reset();

  engine_.set_front_stats_provider(nullptr);

  if (impl_->unix_fd >= 0) {
    ::close(impl_->unix_fd);
    impl_->unix_fd = -1;
    ::unlink(options_.socket_path.c_str());
  }
  if (impl_->tcp_fd >= 0) {
    ::close(impl_->tcp_fd);
    impl_->tcp_fd = -1;
  }
}

#endif // _WIN32

} // namespace aflow::core
