#include "service/socket_util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace remi {

AcceptErrorAction ClassifyAcceptError(int err) {
  switch (err) {
    case EINTR:
    case ECONNABORTED:
    case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
      return AcceptErrorAction::kRetry;
    // Linux accept(2) documents that already-pending network errors on
    // the new socket are reported through accept: the listener is fine.
    case EPERM:
    case EPROTO:
    case ENOPROTOOPT:
    case EHOSTDOWN:
#ifdef ENONET
    case ENONET:
#endif
    case EHOSTUNREACH:
    case ENETDOWN:
    case ENETUNREACH:
      return AcceptErrorAction::kRetryCounted;
    case EMFILE:
    case ENFILE:
    case ENOBUFS:
    case ENOMEM:
      return AcceptErrorAction::kRetryAfterBackoff;
    case EBADF:
    case EINVAL:
    case ENOTSOCK:
    case EOPNOTSUPP:
    case EFAULT:
      return AcceptErrorAction::kFatal;
    default:
      return AcceptErrorAction::kRetryAfterBackoff;
  }
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

Result<int> ConnectTcp(const std::string& host, int port) {
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("port must be in [1, 65535], got " +
                                   std::to_string(port));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status status =
        Status::IoError("connect " + host + ":" + std::to_string(port) +
                        ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return fd;
}

}  // namespace remi
