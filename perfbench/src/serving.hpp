// The serving side of the benchmark: an in-process core::ServeFront on
// loopback TCP (the rig) and a line-oriented TCP client that talks to it
// the way any remote caller would.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "core/serve_engine.hpp"
#include "core/serve_front.hpp"

namespace perfbench {

/// Front sizing shared by both serving workloads.
inline constexpr int kFrontIoThreads = 1;
inline constexpr int kFrontWorkers = 2;

/// A ServeEngine plus a TCP ServeFront on 127.0.0.1 (kernel-chosen port),
/// served from a background thread until destruction.
class ServingRig {
 public:
  ServingRig();
  ~ServingRig();
  ServingRig(const ServingRig&) = delete;
  ServingRig& operator=(const ServingRig&) = delete;

  std::uint16_t port() const { return front_->tcp_port(); }

 private:
  std::unique_ptr<aflow::core::ServeEngine> engine_;
  std::unique_ptr<aflow::core::ServeFront> front_;
  std::thread runner_;
};

/// Blocking TCP client speaking the newline-delimited serve protocol.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  int fd() const { return fd_; }
  /// Writes all of `data` (blocking).
  void send(const std::string& data);
  /// Blocks until one full response line is available.
  std::string read_line();
  /// Reads whatever the socket holds now into the line buffer (one read
  /// call); false on EOF. For poll-driven callers.
  bool pump();
  /// Pops one buffered response line, if a whole one has arrived.
  bool pop_line(std::string& out);
  /// send(request + "\n") then read_line().
  std::string call(const std::string& request);

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t scan_ = 0;
};

/// True when a response line reports "ok":true.
bool response_ok(const std::string& line);
/// The number after `"key":` in a response line (NaN when absent).
double response_number(const std::string& line, const std::string& key);
/// The string after `"key":` in a response line (empty when absent).
std::string response_field(const std::string& line, const std::string& key);

} // namespace perfbench
