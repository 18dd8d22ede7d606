// The one integrity checksum of every byte stream the library persists or
// sends: wire frames, `.bccoo` containers, plan files, journals, and the
// matrix id (io::payload_checksum) that keys the plan cache.
//
// Hash64 is XXH64 (Yann Collet's xxHash, 64-bit variant) in its streaming
// form: four independent multiply-rotate lanes over 32-byte stripes, so the
// work per byte is a fraction of a cycle instead of the one dependent
// multiply per byte a byte-serial hash pays.  The digest is 64 bits on
// purpose: the matrix id is idempotent by value, so two matrices sharing an
// id would be served as one, and 64 bits keep that chance negligible.
//
// Portable by construction: word loads go through std::memcpy, there are no
// intrinsics, no CPU dispatch and no tables, so the bits are the same on
// every host and at every YASPMV_SIMD level.  Lanes are read little-endian,
// as the xxHash specification defines them.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace yaspmv {

static_assert(std::endian::native == std::endian::little,
              "Hash64 reads its lanes in host order, which must be "
              "little-endian for the XXH64 bits");

/// Streaming XXH64 with seed 0: any split of the input over update() calls
/// gives the digest of the concatenation.  digest() does not consume the
/// state.
class Hash64 {
 public:
  void update(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    total_ += n;
    if (buffered_ + n < kStripe) {
      if (n != 0) std::memcpy(buf_ + buffered_, b, n);
      buffered_ += n;
      return;
    }
    if (buffered_ != 0) {
      const std::size_t fill = kStripe - buffered_;
      std::memcpy(buf_ + buffered_, b, fill);
      stripe(buf_);
      b += fill;
      n -= fill;
      buffered_ = 0;
    }
    for (; n >= kStripe; b += kStripe, n -= kStripe) stripe(b);
    if (n != 0) std::memcpy(buf_, b, n);
    buffered_ = n;
  }

  std::uint64_t digest() const {
    std::uint64_t h;
    if (total_ >= kStripe) {
      h = std::rotl(acc_[0], 1) + std::rotl(acc_[1], 7) +
          std::rotl(acc_[2], 12) + std::rotl(acc_[3], 18);
      for (const std::uint64_t a : acc_) h = (h ^ round(0, a)) * kP1 + kP4;
    } else {
      h = kP5;
    }
    h += total_;
    const unsigned char* b = buf_;
    std::size_t n = buffered_;
    for (; n >= 8; b += 8, n -= 8) {
      h = std::rotl(h ^ round(0, load<std::uint64_t>(b)), 27) * kP1 + kP4;
    }
    if (n >= 4) {
      h = std::rotl(h ^ (load<std::uint32_t>(b) * kP1), 23) * kP2 + kP3;
      b += 4;
      n -= 4;
    }
    for (; n != 0; ++b, --n) h = std::rotl(h ^ (*b * kP5), 11) * kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
  static constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  static constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;
  static constexpr std::size_t kStripe = 32;

  template <class T>
  static T load(const unsigned char* p) {
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  static std::uint64_t round(std::uint64_t acc, std::uint64_t lane) {
    return std::rotl(acc + lane * kP2, 31) * kP1;
  }
  void stripe(const unsigned char* p) {
    for (int i = 0; i < 4; ++i) {
      acc_[i] = round(acc_[i], load<std::uint64_t>(p + 8 * i));
    }
  }

  std::uint64_t acc_[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  std::uint64_t total_ = 0;
  std::size_t buffered_ = 0;
  unsigned char buf_[kStripe] = {};
};

}  // namespace yaspmv
