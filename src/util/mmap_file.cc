#include "util/mmap_file.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define REMI_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/io_hooks.h"
#endif

namespace remi {

namespace {

/// Reads the whole file into an 8-byte-aligned buffer.
Status ReadWholeFile(const std::string& path, std::vector<uint64_t>* heap,
                     size_t* size) {
#if REMI_HAVE_MMAP
  // Raw read(2) through the I/O seam: the chaos harness exercises this
  // fallback with EINTR storms and torn short reads.
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError("cannot stat " + path);
  }
  const size_t n = static_cast<size_t>(st.st_size);
  heap->assign((n + 7) / 8, 0);
  char* dst = reinterpret_cast<char*>(heap->data());
  size_t got = 0;
  while (got < n) {
    const ssize_t r = io::Hooks()->Read(fd, dst + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IoError("read failure on " + path);
    }
    if (r == 0) break;  // truncated between fstat and read
    got += static_cast<size_t>(r);
  }
  ::close(fd);
  if (got != n) return Status::IoError("short read on " + path);
  *size = n;
  return Status::OK();
#else
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const std::streamoff end = in.tellg();
  if (end < 0) return Status::IoError("cannot stat " + path);
  const size_t n = static_cast<size_t>(end);
  heap->assign((n + 7) / 8, 0);
  in.seekg(0);
  if (n > 0) {
    in.read(reinterpret_cast<char*>(heap->data()),
            static_cast<std::streamsize>(n));
    if (!in) return Status::IoError("read failure on " + path);
  }
  *size = n;
  return Status::OK();
#endif
}

}  // namespace

MmapFile::~MmapFile() { Reset(); }

void MmapFile::Reset() {
#if REMI_HAVE_MMAP
  if (mapped_ && size_ > 0) {
    ::munmap(const_cast<void*>(base_), size_);
  }
#endif
  base_ = "";
  size_ = 0;
  mapped_ = false;
  heap_.clear();
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this == &other) return *this;
  Reset();
  heap_ = std::move(other.heap_);
  // Heap storage moved with the vector; re-derive the base pointer so it
  // stays valid regardless of the vector implementation.
  base_ = other.mapped_ ? other.base_
                        : (heap_.empty() ? static_cast<const void*>("") : heap_.data());
  size_ = other.size_;
  mapped_ = other.mapped_;
  other.base_ = "";
  other.size_ = 0;
  other.mapped_ = false;
  other.heap_.clear();
  return *this;
}

Result<MmapFile> MmapFile::Open(const std::string& path) {
  MmapFile file;
#if REMI_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
      const size_t n = static_cast<size_t>(st.st_size);
      if (n == 0) {
        ::close(fd);
        return file;  // empty file: empty view, nothing to map
      }
      void* map = io::Hooks()->Mmap(nullptr, n, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (map != MAP_FAILED) {
        file.base_ = map;
        file.size_ = n;
        file.mapped_ = true;
        return file;
      }
      // mmap refused (e.g. filesystem without mapping support): fall back.
    } else {
      ::close(fd);
    }
  }
#endif
  REMI_RETURN_NOT_OK(ReadWholeFile(path, &file.heap_, &file.size_));
  file.base_ = file.heap_.empty() ? static_cast<const void*>("") : file.heap_.data();
  return file;
}

MmapFile MmapFile::FromBytes(std::string_view bytes) {
  MmapFile file;
  file.heap_.assign((bytes.size() + 7) / 8, 0);
  if (!bytes.empty()) {
    std::memcpy(file.heap_.data(), bytes.data(), bytes.size());
  }
  file.base_ = file.heap_.empty() ? static_cast<const void*>("") : file.heap_.data();
  file.size_ = bytes.size();
  return file;
}

}  // namespace remi
