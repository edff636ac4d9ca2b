// A scratch directory private to one test process, for the suites that
// write KB files a Service may map.
//
// ctest runs every test in its own process. Two processes that write one
// fixed path under ::testing::TempDir() let one of them truncate and
// rewrite a snapshot the other has mapped, and the other's next read of
// the mapping dies with SIGBUS.

#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace remi {

/// ::testing::TempDir() plus a directory named after this process id,
/// created on first use and removed with its contents when the process
/// exits.
inline const std::string& ProcessTempDir() {
  struct Dir {
    Dir()
        : path(::testing::TempDir() + "/remi_test_" +
               std::to_string(::getpid())) {
      std::filesystem::create_directories(path);
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
    const std::string path;
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace remi
