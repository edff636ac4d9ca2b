// Syscall-level I/O seam + deterministic fault injector.
//
// Every serving-surface syscall (event_server, mmap_file, the snapshot
// writer) goes through the process-global IoHooks
// table instead of calling the kernel directly. The default table is a
// pure pass-through with zero added cost beyond one indirect call; tests
// and the chaos harness install a FaultInjector to subject the whole
// stack to the OS failure surface — short writes, EINTR/EAGAIN storms,
// EMFILE/ENOMEM, injected disconnects, byte-level frame tearing — without
// LD_PRELOAD tricks or real resource exhaustion.
//
// Scope discipline: only *server-side* transport and persistence code
// routes through the hooks. The one client, WireClient
// (service/wire_client.h), makes raw syscalls, so a single process can
// run a faulted server against clean clients.
//
// The injector is deterministic per seed: fault decisions come from a
// counted splitmix64 stream, so a single-threaded caller replays the
// exact same fault sequence, and a multi-threaded run with a fixed seed
// reproduces the same fault *distribution* (the interleaving decides
// which call draws which decision).

#pragma once

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace remi {
namespace io {

/// \brief The syscall table. The base class IS the pass-through: every
/// method forwards to the real syscall. Override to intercept.
///
/// Installed implementations must be thread-safe: the epoll loop, the
/// dispatch workers, and snapshot writers all call concurrently.
class IoHooks {
 public:
  virtual ~IoHooks() = default;

  virtual ssize_t Read(int fd, void* buf, size_t count);
  virtual ssize_t Recv(int fd, void* buf, size_t len, int flags);
  virtual ssize_t Write(int fd, const void* buf, size_t count);
  virtual ssize_t Send(int fd, const void* buf, size_t len, int flags);
  virtual int Accept4(int fd, struct sockaddr* addr, socklen_t* addrlen,
                      int flags);
  virtual int EpollWait(int epfd, struct epoll_event* events, int maxevents,
                        int timeout_ms);
  virtual int Close(int fd);
  virtual int Fsync(int fd);
  virtual int Rename(const char* oldpath, const char* newpath);
  virtual void* Mmap(void* addr, size_t length, int prot, int flags, int fd,
                     off_t offset);
};

/// \brief The active table, pinned while this guard lives: SetHooks
/// does not return while a guard on the table it replaces is alive.
/// Take it within one expression, `io::Hooks()->Recv(...)`, so the pin
/// spans exactly the call.
class PinnedHooks {
 public:
  ~PinnedHooks() {
    if (in_flight_ != nullptr) {
      in_flight_->fetch_sub(1, std::memory_order_release);
    }
  }
  PinnedHooks(const PinnedHooks&) = delete;
  PinnedHooks& operator=(const PinnedHooks&) = delete;

  IoHooks* operator->() const { return hooks_; }
  IoHooks* get() const { return hooks_; }

 private:
  friend PinnedHooks Hooks();
  PinnedHooks(IoHooks* hooks, std::atomic<uint64_t>* in_flight)
      : hooks_(hooks), in_flight_(in_flight) {}

  IoHooks* hooks_;
  std::atomic<uint64_t>* in_flight_;  ///< null for the pass-through
};

/// The active table; never null (pass-through by default). Fetched per
/// call, so an install takes effect on the next syscall. The per-call
/// path takes no lock: with nothing installed it is one atomic load.
PinnedHooks Hooks();

/// Installs `hooks` (nullptr restores the pass-through) and returns the
/// previously installed table (nullptr = pass-through was active), once
/// no call into that table is in flight: a test may destroy its injector
/// as soon as its ScopedHooks ends. The caller keeps ownership; the hooks
/// must outlive their installation. An installed table's epoll_wait
/// sleeps at most 10 ms per call, so an idle event loop leaves it
/// promptly.
IoHooks* SetHooks(IoHooks* hooks);

/// RAII installation for tests: installs on construction, restores the
/// previous table on destruction.
class ScopedHooks {
 public:
  explicit ScopedHooks(IoHooks* hooks) : previous_(SetHooks(hooks)) {}
  ~ScopedHooks() { SetHooks(previous_); }
  ScopedHooks(const ScopedHooks&) = delete;
  ScopedHooks& operator=(const ScopedHooks&) = delete;

 private:
  IoHooks* previous_;
};

/// Operation classes the injector targets and counts.
enum class IoOp : uint8_t {
  kRead = 0,
  kRecv,
  kWrite,
  kSend,
  kAccept,
  kEpollWait,
  kClose,
  kFsync,
  kRename,
  kMmap,
};
constexpr size_t kNumIoOps = 10;

/// Probability knobs of the injector, all in [0, 1] per matching call.
/// Everything defaults to 0 = no faults; the seed alone never hurts.
struct FaultProfile {
  uint64_t seed = 1;
  /// read/recv/write/send/accept4/epoll_wait return -1/EINTR. Every
  /// caller must loop; a storm of these is survivable noise.
  double eintr_probability = 0.0;
  /// recv/send/accept4 return -1/EAGAIN: exercises the re-arm paths of
  /// the nonblocking transports.
  double eagain_probability = 0.0;
  /// send/write transfer only a prefix (1..n-1 bytes): partial writes.
  double short_write_probability = 0.0;
  /// recv delivers a single byte: byte-level frame/line tearing.
  double short_read_probability = 0.0;
  /// recv/send return -1/ECONNRESET: mid-frame peer disconnects.
  double disconnect_probability = 0.0;
  /// accept4 fails with EMFILE/ENFILE/ENOMEM (rotating): fd exhaustion.
  double accept_resource_probability = 0.0;
  /// mmap returns MAP_FAILED/ENOMEM: forces the read-fallback path.
  double mmap_fail_probability = 0.0;
};

/// \brief Deterministic seeded fault injector implementing IoHooks.
///
/// Two scheduling modes compose:
///   * probability-scheduled: each matching call draws from the seeded
///     stream against the FaultProfile knobs;
///   * sequence-scheduled: FailNth(op, n, err) makes exactly the n-th
///     call of `op` (1-based, counted from construction) fail with
///     `err` — the tool for crash-exactly-here tests like the
///     snapshot-writer kill.
class FaultInjector : public IoHooks {
 public:
  explicit FaultInjector(const FaultProfile& profile);

  /// Schedules the `nth` call of `op` (1-based) to fail with errno
  /// `err`. Transfer ops return -1, Mmap returns MAP_FAILED. Multiple
  /// schedules may target the same op.
  void FailNth(IoOp op, uint64_t nth, int err);

  /// Restricts injection to fds accepted by `filter` (fd-less ops —
  /// Rename — are always eligible). Lets a single-process test fault the
  /// server's sockets while its client fds stay clean.
  void set_fd_filter(std::function<bool(int fd)> filter);

  uint64_t calls(IoOp op) const {
    return calls_[static_cast<size_t>(op)].load(std::memory_order_relaxed);
  }
  uint64_t injected(IoOp op) const {
    return injected_[static_cast<size_t>(op)].load(std::memory_order_relaxed);
  }
  uint64_t injected_total() const;

  ssize_t Read(int fd, void* buf, size_t count) override;
  ssize_t Recv(int fd, void* buf, size_t len, int flags) override;
  ssize_t Write(int fd, const void* buf, size_t count) override;
  ssize_t Send(int fd, const void* buf, size_t len, int flags) override;
  int Accept4(int fd, struct sockaddr* addr, socklen_t* addrlen,
              int flags) override;
  int EpollWait(int epfd, struct epoll_event* events, int maxevents,
                int timeout_ms) override;
  int Close(int fd) override;
  int Fsync(int fd) override;
  int Rename(const char* oldpath, const char* newpath) override;
  void* Mmap(void* addr, size_t length, int prot, int flags, int fd,
             off_t offset) override;

 private:
  struct Scheduled {
    IoOp op;
    uint64_t nth;  ///< 1-based call index of `op`
    int err;
  };

  /// Counts the call; true when a sequence-scheduled fault fires (err in
  /// *out_err). Runs before the probability draws so FailNth stays exact.
  bool CountAndCheckScheduled(IoOp op, int* out_err);
  /// One deterministic draw from the seeded stream; true with
  /// probability `p`.
  bool Roll(double p);
  bool FdEligible(int fd) const;
  void RecordInjected(IoOp op) {
    injected_[static_cast<size_t>(op)].fetch_add(1,
                                                 std::memory_order_relaxed);
  }

  const FaultProfile profile_;
  std::atomic<uint64_t> cursor_{0};  ///< index into the splitmix64 stream
  std::array<std::atomic<uint64_t>, kNumIoOps> calls_{};
  std::array<std::atomic<uint64_t>, kNumIoOps> injected_{};
  std::atomic<uint64_t> resource_errno_cursor_{0};

  mutable std::mutex schedule_mu_;
  std::vector<Scheduled> schedule_;
  std::function<bool(int fd)> fd_filter_;
  std::atomic<bool> has_filter_{false};
};

}  // namespace io
}  // namespace remi
