#include "common/md5.h"

#include <bit>
#include <cstring>

namespace nws {
namespace {

// Per-round shift amounts (RFC 1321, Section 3.4).
constexpr std::array<std::uint32_t, 64> kShift = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,  //
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,  //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,  //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// K[i] = floor(2^32 * abs(sin(i + 1))).
constexpr std::array<std::uint32_t, 64> kSine = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

constexpr std::uint32_t rotl(std::uint32_t x, std::uint32_t c) { return (x << c) | (x >> (32 - c)); }

}  // namespace

Md5::Md5() { reset(); }

void Md5::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  total_len_ = 0;
  buffer_len_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  // The message words are little-endian (RFC 1321, Section 3.4).
  std::array<std::uint32_t, 16> m;
  std::memcpy(m.data(), block, sizeof(m));
  if constexpr (std::endian::native == std::endian::big) {
    for (std::uint32_t& w : m) w = __builtin_bswap32(w);
  }

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];
  // One step: a = b + ((a + f + K[i] + M[g]) <<< s), then (a, b, c, d)
  // rotate right by one.
  const auto step = [&](std::uint32_t f, std::size_t i, std::size_t g) {
    const std::uint32_t tmp = d;
    d = c;
    c = b;
    b = b + rotl(a + f + kSine[i] + m[g], kShift[i]);
    a = tmp;
  };

  // One fully unrolled loop per round function, so every shift, constant
  // and message index is a compile-time constant.
#pragma GCC unroll 16
  for (std::size_t i = 0; i < 16; ++i) step(d ^ (b & (c ^ d)), i, i);  // F
#pragma GCC unroll 16
  for (std::size_t i = 16; i < 32; ++i) step(c ^ (d & (b ^ c)), i, (5 * i + 1) % 16);  // G
#pragma GCC unroll 16
  for (std::size_t i = 32; i < 48; ++i) step(b ^ c ^ d, i, (3 * i + 5) % 16);  // H
#pragma GCC unroll 16
  for (std::size_t i = 48; i < 64; ++i) step(c ^ (b | ~d), i, (7 * i) % 16);  // I

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t need = 64 - buffer_len_;
    const std::size_t take = len < need ? len : need;
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == 64) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    process_block(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffer_len_ = len;
  }
}

Md5Digest Md5::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  static constexpr std::uint8_t kPad[64] = {0x80};
  const std::size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  update(kPad, pad_len);
  std::uint8_t len_bytes[8];
  for (std::size_t i = 0; i < 8; ++i) len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  // update() counts these 8 bytes into total_len_, but we captured bit_len first.
  update(len_bytes, 8);

  Md5Digest digest;
  for (std::size_t i = 0; i < 4; ++i) {
    digest.bytes[i * 4] = static_cast<std::uint8_t>(state_[i]);
    digest.bytes[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest.bytes[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest.bytes[i * 4 + 3] = static_cast<std::uint8_t>(state_[i] >> 24);
  }
  return digest;
}

std::string Md5Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

std::uint64_t Md5Digest::hi64() const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | bytes[i];
  return v;
}

std::uint64_t Md5Digest::lo64() const {
  std::uint64_t v = 0;
  for (std::size_t i = 8; i < 16; ++i) v = (v << 8) | bytes[i];
  return v;
}

Md5Digest md5(std::string_view s) {
  Md5 ctx;
  ctx.update(s);
  return ctx.finish();
}

}  // namespace nws
