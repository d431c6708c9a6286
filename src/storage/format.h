// Low-level binary encoding primitives for the storage module: LEB128
// varints, length-prefixed strings, and a 64-bit payload checksum. The
// encoding is little-endian-independent (byte-oriented) and fully covered by
// round-trip tests.

#ifndef XFRAG_STORAGE_FORMAT_H_
#define XFRAG_STORAGE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace xfrag::storage {

/// Longest valid LEB128 encoding of a uint64_t (10 * 7 bits >= 64). Reader
/// rejects longer runs of continuation bytes with ParseError instead of
/// shifting past the word width.
inline constexpr int kMaxVarintBytes = 10;

/// \brief Appends an unsigned LEB128 varint.
void PutVarint(uint64_t value, std::string* out);

/// \brief Appends a length-prefixed string.
void PutString(std::string_view value, std::string* out);

/// \brief Appends a fixed 8-byte little-endian value.
void PutFixed64(uint64_t value, std::string* out);

/// \brief Sequential decoder over a byte buffer.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  /// Reads one varint.
  StatusOr<uint64_t> ReadVarint();

  /// Reads one length-prefixed string.
  StatusOr<std::string> ReadString();

  /// Reads a fixed 8-byte value.
  StatusOr<uint64_t> ReadFixed64();

  /// Bytes remaining.
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ >= data_.size(); }
  /// Bytes consumed so far (offset of the next read).
  size_t position() const { return pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// \brief 64-bit checksum (FNV-1a with avalanche) of `data`.
uint64_t Checksum(std::string_view data);

/// \brief Atomically and durably replaces `path` with `data`: writes a
/// uniquely named sibling temp file, fsyncs it, renames it over `path`, then
/// fsyncs the parent directory so the rename survives power loss. Without
/// the fsyncs the rename can legally land with empty or partial contents
/// after a crash, destroying the previously-good file at `path`. Concurrent
/// writers to one `path` each publish a complete file; the last rename
/// wins. On failure the temp file is removed and `path` is untouched.
Status WriteFileDurable(const std::string& path, std::string_view data);

}  // namespace xfrag::storage

#endif  // XFRAG_STORAGE_FORMAT_H_
