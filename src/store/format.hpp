#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/error.hpp"

namespace moloc::store {

/// Base class of every durable-store failure: I/O errors, invalid
/// directories, write failures.  Carries a plain what() message that
/// always names the offending path.  An util::IoError, so handlers of
/// file failures catch the store's too.
class StoreError : public util::IoError {
 public:
  explicit StoreError(const std::string& what)
      : util::IoError("moloc::store: " + what) {}
};

/// Unrecoverable on-disk damage: a WAL record or checkpoint that fails
/// its CRC (or structural validation) in a position crash semantics
/// cannot explain — i.e. *not* the torn tail of the final segment,
/// which recovery tolerates and truncates.  Raised instead of silently
/// dropping data, so an operator decides what to salvage.
class CorruptionError : public StoreError {
 public:
  explicit CorruptionError(const std::string& what) : StoreError(what) {}
};

namespace detail {

/// Fixed little-endian primitives: the WAL and checkpoint formats are
/// byte-for-byte identical across platforms, so a database written on
/// one host recovers on any other.

inline void putU32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

inline void putU64(std::string& out, std::uint64_t v) {
  putU32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  putU32(out, static_cast<std::uint32_t>(v >> 32));
}

inline void putU8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void putI32(std::string& out, std::int32_t v) {
  putU32(out, static_cast<std::uint32_t>(v));
}

inline void putF64(std::string& out, double v) {
  putU64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked sequential reader over one in-memory buffer.
/// Overruns throw CorruptionError — a structurally short buffer is
/// damage by definition once the outer CRC passed or the caller opted
/// into strict parsing.
class Cursor {
 public:
  Cursor(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}
  Cursor(const char* data, std::size_t size)
      : Cursor(reinterpret_cast<const unsigned char*>(data), size) {}

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return size_ - offset_; }

  std::uint8_t readU8() {
    need(1);
    return data_[offset_++];
  }

  std::uint32_t readU32() {
    need(4);
    std::uint32_t v = static_cast<std::uint32_t>(data_[offset_]) |
                      (static_cast<std::uint32_t>(data_[offset_ + 1]) << 8) |
                      (static_cast<std::uint32_t>(data_[offset_ + 2]) << 16) |
                      (static_cast<std::uint32_t>(data_[offset_ + 3]) << 24);
    offset_ += 4;
    return v;
  }

  std::uint64_t readU64() {
    const std::uint64_t lo = readU32();
    const std::uint64_t hi = readU32();
    return lo | (hi << 32);
  }

  std::int32_t readI32() { return static_cast<std::int32_t>(readU32()); }

  double readF64() { return std::bit_cast<double>(readU64()); }

  void readBytes(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, data_ + offset_, n);
    offset_ += n;
  }

 private:
  void need(std::size_t n) const {
    if (size_ - offset_ < n)
      throw CorruptionError("truncated data at offset " +
                            std::to_string(offset_));
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

}  // namespace detail

}  // namespace moloc::store
