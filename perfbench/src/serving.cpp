#include "serving.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace perfbench {

ServingRig::ServingRig() {
  engine_ = std::make_unique<aflow::core::ServeEngine>();
  aflow::core::ServeFrontOptions fo;
  fo.tcp_address = "127.0.0.1:0";
  fo.io_threads = kFrontIoThreads;
  fo.workers = kFrontWorkers;
  front_ = std::make_unique<aflow::core::ServeFront>(*engine_, fo);
  front_->start();
  runner_ = std::thread([this] { front_->run(); });
}

ServingRig::~ServingRig() {
  front_->stop();
  if (runner_.joinable()) runner_.join();
}

LineClient::LineClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error(std::string("connect() failed: ") +
                             std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::send(const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send() failed: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
}

bool LineClient::pump() {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      buffer_.append(buf, static_cast<size_t>(n));
      return true;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    throw std::runtime_error(std::string("recv() failed: ") + std::strerror(errno));
  }
}

bool LineClient::pop_line(std::string& out) {
  const size_t nl = buffer_.find('\n', scan_);
  if (nl == std::string::npos) {
    scan_ = buffer_.size();
    return false;
  }
  out.assign(buffer_, 0, nl);
  buffer_.erase(0, nl + 1);
  scan_ = 0;
  return true;
}

std::string LineClient::read_line() {
  std::string line;
  while (!pop_line(line))
    if (!pump()) throw std::runtime_error("server closed the connection");
  return line;
}

std::string LineClient::call(const std::string& request) {
  send(request + "\n");
  return read_line();
}

bool response_ok(const std::string& line) {
  return line.find("\"ok\":true") != std::string::npos;
}

double response_number(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return std::nan("");
  const char* begin = line.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  return end == begin ? std::nan("") : v;
}

std::string response_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  const size_t end = line.find('"', begin);
  return end == std::string::npos ? "" : line.substr(begin, end - begin);
}

} // namespace perfbench
