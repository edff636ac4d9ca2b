#include "service/socket_util.h"

#include <fcntl.h>

#include <cerrno>

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

}  // namespace remi
