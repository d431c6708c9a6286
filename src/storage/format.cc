#include "storage/format.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

namespace xfrag::storage {

void PutVarint(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

void PutString(std::string_view value, std::string* out) {
  PutVarint(value.size(), out);
  out->append(value);
}

void PutFixed64(uint64_t value, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

StatusOr<uint64_t> Reader::ReadVarint() {
  // Hardened against adversarial input: the shift is bounded by the explicit
  // 10-byte LEB128 cap (10 * 7 = 70 > 64), so it can never reach the width
  // of uint64_t and shift-overflow UB is structurally impossible. The 10th
  // byte may only contribute the single remaining bit.
  uint64_t value = 0;
  int shift = 0;
  for (int length = 1; length <= kMaxVarintBytes; ++length, shift += 7) {
    if (pos_ >= data_.size()) {
      return Status::ParseError("truncated varint");
    }
    uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift == 63 && (byte & 0x7F) > 1) {
      return Status::ParseError("varint overflows 64 bits");
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  return Status::ParseError(
      "varint continues past 10 bytes (malformed LEB128)");
}

StatusOr<std::string> Reader::ReadString() {
  auto length = ReadVarint();
  if (!length.ok()) return length.status();
  if (*length > remaining()) {
    return Status::ParseError("truncated string payload");
  }
  std::string out(data_.substr(pos_, *length));
  pos_ += *length;
  return out;
}

StatusOr<uint64_t> Reader::ReadFixed64() {
  if (remaining() < 8) return Status::ParseError("truncated fixed64");
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++]))
             << (8 * i);
  }
  return value;
}

uint64_t Checksum(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

namespace {

// Creates a fresh sibling `<path>.tmp.<pid>.<n>` with O_EXCL, so every
// writer — another thread or another process — gets its own inode and
// concurrent writers to one target never share (and tear) a temp file. A
// name left over by a crashed writer is skipped, not reused. Returns the fd,
// or -1 with errno set.
int CreateUniqueTemp(const std::string& path, std::string* temp) {
  static std::atomic<uint64_t> counter{0};
  for (int attempt = 0; attempt < 100; ++attempt) {
    *temp = path + ".tmp." + std::to_string(::getpid()) + "." +
            std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
    int fd = ::open(temp->c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd >= 0 || errno != EEXIST) return fd;
  }
  return -1;
}

}  // namespace

Status WriteFileDurable(const std::string& path, std::string_view data) {
  std::string temp;
  const int fd = CreateUniqueTemp(path, &temp);
  if (fd < 0) {
    return Status::Internal("cannot create a temp file next to '" + path +
                            "': " + std::strerror(errno));
  }
  auto fail = [&temp](const std::string& what) {
    Status status =
        Status::Internal(what + " '" + temp + "': " + std::strerror(errno));
    ::unlink(temp.c_str());
    return status;
  };

  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return fail("short write to");
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return fail("cannot fsync");
  }
  if (::close(fd) != 0) {
    return fail("cannot close");
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    return fail("cannot rename to '" + path + "' from");
  }
  // The rename itself lives in the directory; fsync it so the swap is on
  // disk. Best-effort: some filesystems refuse directory fds.
  std::string dir = ".";
  if (size_t slash = path.find_last_of('/'); slash != std::string::npos) {
    dir = slash == 0 ? "/" : path.substr(0, slash);
  }
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace xfrag::storage
