// IoHooks seam + FaultInjector unit tests: pass-through transparency,
// deterministic replay, sequence scheduling, fd filtering, and the RAII
// install/restore contract the chaos harness depends on.

#include "util/io_hooks.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace remi {
namespace io {
namespace {

/// A unix socketpair, for exercising Recv/Send against real fds.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) close(fds[0]);
    if (fds[1] >= 0) close(fds[1]);
  }
};

TEST(IoHooksTest, DefaultTableIsPassthrough) {
  SocketPair pair;
  const char msg[] = "hello";
  ASSERT_EQ(Hooks()->Send(pair.fds[0], msg, sizeof(msg), 0),
            static_cast<ssize_t>(sizeof(msg)));
  char buf[16] = {};
  ASSERT_EQ(Hooks()->Recv(pair.fds[1], buf, sizeof(buf), 0),
            static_cast<ssize_t>(sizeof(msg)));
  EXPECT_STREQ(buf, "hello");
}

TEST(IoHooksTest, ScopedHooksInstallsAndRestores) {
  FaultInjector injector{FaultProfile{}};
  EXPECT_EQ(Hooks().get(), Hooks().get());  // stable pass-through
  IoHooks* before = SetHooks(nullptr);
  EXPECT_EQ(before, nullptr);
  {
    ScopedHooks scoped(&injector);
    EXPECT_EQ(Hooks().get(), &injector);
    {
      // Nested installs restore the *outer* injector, not pass-through.
      FaultInjector inner{FaultProfile{}};
      ScopedHooks nested(&inner);
      EXPECT_EQ(Hooks().get(), &inner);
    }
    EXPECT_EQ(Hooks().get(), &injector);
  }
  EXPECT_NE(Hooks().get(), &injector);
}

/// A Recv that stays in flight for 50 ms.
class SlowRecv : public IoHooks {
 public:
  ssize_t Recv(int fd, void* buf, size_t len, int flags) override {
    entered.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    left.store(true);
    return IoHooks::Recv(fd, buf, len, flags);
  }

  std::atomic<bool> entered{false};
  std::atomic<bool> left{false};
};

TEST(IoHooksTest, UninstallWaitsForCallsInFlight) {
  SocketPair pair;
  ASSERT_EQ(::send(pair.fds[0], "x", 1, 0), 1);
  SlowRecv slow;
  IoHooks* previous = SetHooks(&slow);
  std::thread caller([&] {
    char c = 0;
    EXPECT_EQ(Hooks()->Recv(pair.fds[1], &c, 1, 0), 1);
  });
  while (!slow.entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SetHooks(previous);
  // The uninstall returned only after the call left `slow`, so `slow`
  // could be destroyed here.
  EXPECT_TRUE(slow.left.load());
  caller.join();
}

TEST(IoHooksTest, ZeroProfileInjectsNothing) {
  FaultProfile profile;
  profile.seed = 42;
  FaultInjector injector(profile);
  SocketPair pair;
  const char msg[] = "x";
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(injector.Send(pair.fds[0], msg, 1, 0), 1);
    char c;
    ASSERT_EQ(injector.Recv(pair.fds[1], &c, 1, 0), 1);
  }
  EXPECT_EQ(injector.injected_total(), 0u);
  EXPECT_EQ(injector.calls(IoOp::kSend), 100u);
  EXPECT_EQ(injector.calls(IoOp::kRecv), 100u);
}

TEST(IoHooksTest, SingleThreadedReplayIsExact) {
  // Two injectors with the same seed must make the identical sequence of
  // decisions when driven by one thread.
  auto run = [](uint64_t seed) {
    FaultProfile profile;
    profile.seed = seed;
    profile.eintr_probability = 0.3;
    FaultInjector injector(profile);
    SocketPair pair;
    const char msg[] = "x";
    std::vector<bool> outcomes;
    for (int i = 0; i < 200; ++i) {
      errno = 0;
      const ssize_t n = injector.Send(pair.fds[0], msg, 1, 0);
      outcomes.push_back(n < 0 && errno == EINTR);
      if (n < 0) continue;
      char c;
      EXPECT_EQ(Hooks()->Recv(pair.fds[1], &c, 1, 0), 1);
    }
    return outcomes;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // and the seed actually matters
}

TEST(IoHooksTest, FailNthHitsExactlyTheScheduledCall) {
  FaultInjector injector{FaultProfile{}};
  injector.FailNth(IoOp::kWrite, 3, ENOSPC);
  const int fd = ::open("/dev/null", O_WRONLY);
  ASSERT_GE(fd, 0);
  const char byte = 'x';
  EXPECT_EQ(injector.Write(fd, &byte, 1), 1);
  EXPECT_EQ(injector.Write(fd, &byte, 1), 1);
  errno = 0;
  EXPECT_EQ(injector.Write(fd, &byte, 1), -1);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(injector.Write(fd, &byte, 1), 1);
  EXPECT_EQ(injector.injected(IoOp::kWrite), 1u);
  close(fd);
}

TEST(IoHooksTest, FdFilterShieldsOtherFds) {
  FaultProfile profile;
  profile.eintr_probability = 1.0;  // every eligible call fails
  FaultInjector injector(profile);
  SocketPair pair;
  const int faulted = pair.fds[0];
  injector.set_fd_filter([faulted](int fd) { return fd == faulted; });
  const char msg[] = "x";
  errno = 0;
  EXPECT_EQ(injector.Send(pair.fds[0], msg, 1, 0), -1);
  EXPECT_EQ(errno, EINTR);
  // The other end of the pair is clean.
  EXPECT_EQ(injector.Send(pair.fds[1], msg, 1, 0), 1);
}

TEST(IoHooksTest, ShortWritesTransferAPrefix) {
  FaultProfile profile;
  profile.short_write_probability = 1.0;
  FaultInjector injector(profile);
  SocketPair pair;
  const std::string msg(64, 'a');
  const ssize_t n = injector.Send(pair.fds[0], msg.data(), msg.size(), 0);
  ASSERT_GT(n, 0);
  EXPECT_LT(static_cast<size_t>(n), msg.size());
  char buf[64];
  EXPECT_EQ(Hooks()->Recv(pair.fds[1], buf, sizeof(buf), 0), n);
}

TEST(IoHooksTest, ShortReadsDeliverOneByte) {
  FaultProfile profile;
  profile.short_read_probability = 1.0;
  FaultInjector injector(profile);
  SocketPair pair;
  const std::string msg(16, 'b');
  ASSERT_EQ(Hooks()->Send(pair.fds[0], msg.data(), msg.size(), 0),
            static_cast<ssize_t>(msg.size()));
  char buf[16];
  EXPECT_EQ(injector.Recv(pair.fds[1], buf, sizeof(buf), 0), 1);
  EXPECT_EQ(buf[0], 'b');
}

TEST(IoHooksTest, ScheduledCloseStillClosesTheFd) {
  FaultInjector injector{FaultProfile{}};
  injector.FailNth(IoOp::kClose, 1, EIO);
  const int fd = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(fd, 0);
  errno = 0;
  EXPECT_EQ(injector.Close(fd), -1);
  EXPECT_EQ(errno, EIO);
  // The descriptor must be gone — a leaked fd under a "failed" close
  // would exhaust the table in a chaos soak.
  EXPECT_EQ(::close(fd), -1);
  EXPECT_EQ(errno, EBADF);
}

TEST(IoHooksTest, AcceptResourceErrnosRotate) {
  FaultProfile profile;
  profile.accept_resource_probability = 1.0;
  FaultInjector injector(profile);
  std::vector<int> errnos;
  for (int i = 0; i < 3; ++i) {
    errno = 0;
    EXPECT_EQ(injector.Accept4(-1, nullptr, nullptr, 0), -1);
    errnos.push_back(errno);
  }
  EXPECT_EQ(errnos, (std::vector<int>{EMFILE, ENFILE, ENOMEM}));
}

TEST(IoHooksTest, MmapFailureReturnsMapFailed) {
  FaultInjector injector{FaultProfile{}};
  injector.FailNth(IoOp::kMmap, 1, ENOMEM);
  errno = 0;
  EXPECT_EQ(injector.Mmap(nullptr, 4096, 0, 0, -1, 0), MAP_FAILED);
  EXPECT_EQ(errno, ENOMEM);
}

}  // namespace
}  // namespace io
}  // namespace remi
