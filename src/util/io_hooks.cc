#include "util/io_hooks.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <thread>

namespace remi {
namespace io {

namespace {

constexpr int kInstalledEpollWaitMs = 10;

IoHooks& Passthrough() {
  static IoHooks passthrough;
  return passthrough;
}

/// The installed table and the calls in flight on it. A call pins
/// before it loads the table; SetHooks swaps the table, then waits for
/// the pins to drop to zero.
struct Seam {
  std::atomic<IoHooks*> active{nullptr};
  std::atomic<uint64_t> in_flight{0};
  std::mutex install_mu;  ///< serializes SetHooks; never taken per call
};

Seam& TheSeam() {
  static Seam seam;
  return seam;
}

}  // namespace

// --- pass-through table ------------------------------------------------------

ssize_t IoHooks::Read(int fd, void* buf, size_t count) {
  return ::read(fd, buf, count);
}

ssize_t IoHooks::Recv(int fd, void* buf, size_t len, int flags) {
  return ::recv(fd, buf, len, flags);
}

ssize_t IoHooks::Write(int fd, const void* buf, size_t count) {
  return ::write(fd, buf, count);
}

ssize_t IoHooks::Send(int fd, const void* buf, size_t len, int flags) {
  return ::send(fd, buf, len, flags);
}

int IoHooks::Accept4(int fd, struct sockaddr* addr, socklen_t* addrlen,
                     int flags) {
  return ::accept4(fd, addr, addrlen, flags);
}

int IoHooks::EpollWait(int epfd, struct epoll_event* events, int maxevents,
                       int timeout_ms) {
  // An idle loop inside an installed table's epoll_wait(-1) would hold
  // that table's pin, and SetHooks, forever.
  if (this != &Passthrough() &&
      (timeout_ms < 0 || timeout_ms > kInstalledEpollWaitMs)) {
    timeout_ms = kInstalledEpollWaitMs;
  }
  return ::epoll_wait(epfd, events, maxevents, timeout_ms);
}

int IoHooks::Close(int fd) { return ::close(fd); }

int IoHooks::Fsync(int fd) { return ::fsync(fd); }

int IoHooks::Rename(const char* oldpath, const char* newpath) {
  return ::rename(oldpath, newpath);
}

void* IoHooks::Mmap(void* addr, size_t length, int prot, int flags, int fd,
                    off_t offset) {
  return ::mmap(addr, length, prot, flags, fd, offset);
}

namespace {

/// splitmix64: a full-period 64-bit mixer. Indexed by an atomic cursor so
/// the decision *stream* is fixed by the seed regardless of which thread
/// draws which index.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

PinnedHooks Hooks() {
  Seam& seam = TheSeam();
  // The pass-through is static and needs no pin.
  if (seam.active.load(std::memory_order_acquire) == nullptr) {
    return PinnedHooks(&Passthrough(), nullptr);
  }
  seam.in_flight.fetch_add(1);
  // Loaded after the pin: a SetHooks that replaces this table swaps it
  // out after this load, so its wait sees the pin.
  if (IoHooks* active = seam.active.load()) {
    return PinnedHooks(active, &seam.in_flight);
  }
  seam.in_flight.fetch_sub(1, std::memory_order_release);
  return PinnedHooks(&Passthrough(), nullptr);
}

IoHooks* SetHooks(IoHooks* hooks) {
  Seam& seam = TheSeam();
  std::lock_guard<std::mutex> lock(seam.install_mu);
  IoHooks* previous = seam.active.exchange(hooks);
  while (seam.in_flight.load() != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return previous;
}

// --- fault injector ----------------------------------------------------------

FaultInjector::FaultInjector(const FaultProfile& profile)
    : profile_(profile) {}

void FaultInjector::FailNth(IoOp op, uint64_t nth, int err) {
  std::lock_guard<std::mutex> lock(schedule_mu_);
  schedule_.push_back(Scheduled{op, nth, err});
}

void FaultInjector::set_fd_filter(std::function<bool(int)> filter) {
  std::lock_guard<std::mutex> lock(schedule_mu_);
  fd_filter_ = std::move(filter);
  has_filter_.store(fd_filter_ != nullptr, std::memory_order_release);
}

uint64_t FaultInjector::injected_total() const {
  uint64_t total = 0;
  for (const auto& count : injected_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

bool FaultInjector::CountAndCheckScheduled(IoOp op, int* out_err) {
  const uint64_t nth =
      calls_[static_cast<size_t>(op)].fetch_add(1, std::memory_order_relaxed) +
      1;
  std::lock_guard<std::mutex> lock(schedule_mu_);
  for (const Scheduled& s : schedule_) {
    if (s.op == op && s.nth == nth) {
      *out_err = s.err;
      return true;
    }
  }
  return false;
}

bool FaultInjector::Roll(double p) {
  if (p <= 0.0) return false;
  const uint64_t n = cursor_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t h = SplitMix64(profile_.seed + n);
  // 53 high bits -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < p;
}

bool FaultInjector::FdEligible(int fd) const {
  if (!has_filter_.load(std::memory_order_acquire)) return true;
  std::lock_guard<std::mutex> lock(schedule_mu_);
  return fd_filter_ == nullptr || fd_filter_(fd);
}

ssize_t FaultInjector::Read(int fd, void* buf, size_t count) {
  int err;
  if (CountAndCheckScheduled(IoOp::kRead, &err)) {
    RecordInjected(IoOp::kRead);
    errno = err;
    return -1;
  }
  if (FdEligible(fd) && Roll(profile_.eintr_probability)) {
    RecordInjected(IoOp::kRead);
    errno = EINTR;
    return -1;
  }
  return IoHooks::Read(fd, buf, count);
}

ssize_t FaultInjector::Recv(int fd, void* buf, size_t len, int flags) {
  int err;
  if (CountAndCheckScheduled(IoOp::kRecv, &err)) {
    RecordInjected(IoOp::kRecv);
    errno = err;
    return -1;
  }
  if (FdEligible(fd)) {
    if (Roll(profile_.eintr_probability)) {
      RecordInjected(IoOp::kRecv);
      errno = EINTR;
      return -1;
    }
    if (Roll(profile_.eagain_probability)) {
      RecordInjected(IoOp::kRecv);
      errno = EAGAIN;
      return -1;
    }
    if (Roll(profile_.disconnect_probability)) {
      RecordInjected(IoOp::kRecv);
      errno = ECONNRESET;
      return -1;
    }
    if (len > 1 && Roll(profile_.short_read_probability)) {
      // Deliver one byte: the decoder must reassemble a frame header (or
      // an NDJSON line) torn at an arbitrary byte boundary.
      RecordInjected(IoOp::kRecv);
      return IoHooks::Recv(fd, buf, 1, flags);
    }
  }
  return IoHooks::Recv(fd, buf, len, flags);
}

ssize_t FaultInjector::Write(int fd, const void* buf, size_t count) {
  int err;
  if (CountAndCheckScheduled(IoOp::kWrite, &err)) {
    RecordInjected(IoOp::kWrite);
    errno = err;
    return -1;
  }
  if (FdEligible(fd)) {
    if (Roll(profile_.eintr_probability)) {
      RecordInjected(IoOp::kWrite);
      errno = EINTR;
      return -1;
    }
    if (count > 1 && Roll(profile_.short_write_probability)) {
      RecordInjected(IoOp::kWrite);
      const uint64_t n = cursor_.fetch_add(1, std::memory_order_relaxed);
      const size_t take =
          1 + static_cast<size_t>(SplitMix64(profile_.seed + n) % (count - 1));
      return IoHooks::Write(fd, buf, take);
    }
  }
  return IoHooks::Write(fd, buf, count);
}

ssize_t FaultInjector::Send(int fd, const void* buf, size_t len, int flags) {
  int err;
  if (CountAndCheckScheduled(IoOp::kSend, &err)) {
    RecordInjected(IoOp::kSend);
    errno = err;
    return -1;
  }
  if (FdEligible(fd)) {
    if (Roll(profile_.eintr_probability)) {
      RecordInjected(IoOp::kSend);
      errno = EINTR;
      return -1;
    }
    if (Roll(profile_.eagain_probability)) {
      RecordInjected(IoOp::kSend);
      errno = EAGAIN;
      return -1;
    }
    if (Roll(profile_.disconnect_probability)) {
      RecordInjected(IoOp::kSend);
      errno = ECONNRESET;
      return -1;
    }
    if (len > 1 && Roll(profile_.short_write_probability)) {
      // Transfer a random 1..len-1 prefix: the flush loop must track the
      // consumed offset instead of assuming full sends.
      RecordInjected(IoOp::kSend);
      const uint64_t n = cursor_.fetch_add(1, std::memory_order_relaxed);
      const size_t take =
          1 + static_cast<size_t>(SplitMix64(profile_.seed + n) % (len - 1));
      return IoHooks::Send(fd, buf, take, flags);
    }
  }
  return IoHooks::Send(fd, buf, len, flags);
}

int FaultInjector::Accept4(int fd, struct sockaddr* addr, socklen_t* addrlen,
                           int flags) {
  int err;
  if (CountAndCheckScheduled(IoOp::kAccept, &err)) {
    RecordInjected(IoOp::kAccept);
    errno = err;
    return -1;
  }
  if (FdEligible(fd)) {
    if (Roll(profile_.eintr_probability)) {
      RecordInjected(IoOp::kAccept);
      errno = EINTR;
      return -1;
    }
    if (Roll(profile_.eagain_probability)) {
      RecordInjected(IoOp::kAccept);
      errno = EAGAIN;
      return -1;
    }
    if (Roll(profile_.accept_resource_probability)) {
      RecordInjected(IoOp::kAccept);
      static const int kResourceErrnos[] = {EMFILE, ENFILE, ENOMEM};
      const uint64_t i =
          resource_errno_cursor_.fetch_add(1, std::memory_order_relaxed);
      errno = kResourceErrnos[i % 3];
      return -1;
    }
  }
  return IoHooks::Accept4(fd, addr, addrlen, flags);
}

int FaultInjector::EpollWait(int epfd, struct epoll_event* events,
                             int maxevents, int timeout_ms) {
  int err;
  if (CountAndCheckScheduled(IoOp::kEpollWait, &err)) {
    RecordInjected(IoOp::kEpollWait);
    errno = err;
    return -1;
  }
  if (Roll(profile_.eintr_probability)) {
    RecordInjected(IoOp::kEpollWait);
    errno = EINTR;
    return -1;
  }
  return IoHooks::EpollWait(epfd, events, maxevents, timeout_ms);
}

int FaultInjector::Close(int fd) {
  int err;
  if (CountAndCheckScheduled(IoOp::kClose, &err)) {
    RecordInjected(IoOp::kClose);
    // The fd still has to go away — a "failed" close that leaks the
    // descriptor would fail the chaos soak on fd exhaustion grounds, and
    // POSIX close(2) leaves the fd state unspecified on error anyway.
    IoHooks::Close(fd);
    errno = err;
    return -1;
  }
  return IoHooks::Close(fd);
}

int FaultInjector::Fsync(int fd) {
  int err;
  if (CountAndCheckScheduled(IoOp::kFsync, &err)) {
    RecordInjected(IoOp::kFsync);
    errno = err;
    return -1;
  }
  return IoHooks::Fsync(fd);
}

int FaultInjector::Rename(const char* oldpath, const char* newpath) {
  int err;
  if (CountAndCheckScheduled(IoOp::kRename, &err)) {
    RecordInjected(IoOp::kRename);
    errno = err;
    return -1;
  }
  return IoHooks::Rename(oldpath, newpath);
}

void* FaultInjector::Mmap(void* addr, size_t length, int prot, int flags,
                          int fd, off_t offset) {
  int err;
  if (CountAndCheckScheduled(IoOp::kMmap, &err)) {
    RecordInjected(IoOp::kMmap);
    errno = err;
    return MAP_FAILED;
  }
  if (FdEligible(fd) && Roll(profile_.mmap_fail_probability)) {
    RecordInjected(IoOp::kMmap);
    errno = ENOMEM;
    return MAP_FAILED;
  }
  return IoHooks::Mmap(addr, length, prot, flags, fd, offset);
}

}  // namespace io
}  // namespace remi
