// Little-endian byte-buffer primitives for wire codecs.
//
// ByteWriter appends fixed-width integers and length-prefixed strings
// to a growable buffer; ByteReader consumes them with explicit bounds
// checking (throws InvalidArgument on truncation — never reads past the
// end, never trusts an embedded length without checking it against the
// remaining bytes). Encoding is little-endian regardless of host order
// so frames are interchangeable across machines; both sides are
// byte-exact inverses, which the netd framing tests round-trip.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace aapc {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { append_le(v, 2); }
  void u32(std::uint32_t v) { append_le(v, 4); }
  void u64(std::uint64_t v) { append_le(v, 8); }
  /// u32 byte length followed by the raw bytes.
  void str(std::string_view v);
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  void append_le(std::uint64_t v, int width);
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Reads a u32 length prefix, checks it against the remaining bytes
  /// and `max_length`, then returns the string body.
  std::string str(std::size_t max_length);

  std::size_t remaining() const { return data_.size() - offset_; }
  bool done() const { return remaining() == 0; }
  /// Throws InvalidArgument unless every byte has been consumed —
  /// trailing garbage in a fixed-layout payload is a malformed frame.
  void expect_done(std::string_view what) const;

 private:
  std::uint64_t read_le(int width, const char* what);

  std::string_view data_;
  std::size_t offset_ = 0;
};

}  // namespace aapc
