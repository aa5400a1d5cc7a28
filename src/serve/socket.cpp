#include "serve/socket.hpp"

#include <cstddef>
#include <string>
#include <vector>

#include "serve/service.hpp"
#include "support/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SRM_SERVE_HAVE_UNIX_SOCKETS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define SRM_SERVE_HAVE_UNIX_SOCKETS 0
#endif

namespace srm::serve {

bool socket_transport_available() {
  return SRM_SERVE_HAVE_UNIX_SOCKETS != 0;
}

#if SRM_SERVE_HAVE_UNIX_SOCKETS

namespace {

// A client may leave before its answer is written. Sending to it must fail
// that one connection, not raise SIGPIPE and end the server; the process
// signal disposition is left alone.
#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

/// Writes all of `text`, retrying short writes. False on a broken peer.
bool write_all(int fd, const std::string& text) {
  std::size_t written = 0;
  while (written < text.size()) {
    const auto n =
        ::send(fd, text.data() + written, text.size() - written, kSendFlags);
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// One connection: chunked reads, complete lines dispatched as batches.
/// Returns false when the service asked to shut the whole server down.
bool run_connection(Service& service, int fd, std::size_t max_batch) {
  std::string buffer;
  std::vector<std::string> batch;
  char chunk[4096];

  const auto flush = [&]() -> bool {
    if (batch.empty()) return true;
    std::string out;
    for (const auto& response : service.handle_batch(batch)) {
      out += response.line;
      out += '\n';
    }
    batch.clear();
    return write_all(fd, out);
  };

  while (true) {
    const auto n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      (void)flush();
      return !service.shutdown_requested();
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    while (true) {
      const auto newline = buffer.find('\n', start);
      if (newline == std::string::npos) break;
      batch.push_back(buffer.substr(start, newline - start));
      start = newline + 1;
      if (batch.size() >= max_batch) {
        if (!flush()) return !service.shutdown_requested();
      }
    }
    buffer.erase(0, start);
    // Everything that arrived together is one batch: identical in-flight
    // requests dedup, cold cells fan out to the pool at once.
    if (!flush()) return !service.shutdown_requested();
    if (service.shutdown_requested()) return false;
  }
}

}  // namespace

int serve_over_socket(Service& service, const std::string& path,
                      std::size_t max_batch) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) throw Error("cannot create unix socket");

  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    ::close(listener);
    throw InvalidArgument("socket path too long: " + path);
  }
  path.copy(address.sun_path, path.size());
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    ::close(listener);
    throw Error("cannot bind " + path);
  }
  if (::listen(listener, 8) != 0) {
    ::close(listener);
    ::unlink(path.c_str());
    throw Error("cannot listen on " + path);
  }

  while (true) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) break;
#if !defined(MSG_NOSIGNAL) && defined(SO_NOSIGPIPE)
    const int on = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &on, sizeof(on));
#endif
    const bool keep_going = run_connection(service, fd, max_batch);
    ::close(fd);
    if (!keep_going) break;
  }
  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}

#else

int serve_over_socket(Service&, const std::string&, std::size_t) {
  throw Error("unix sockets are not available on this platform");
}

#endif

}  // namespace srm::serve
