// The envelope of the formats that predate Hash64 — protocol v2 frames,
// container v2 `.bccoo`/COO files, plan file v1 and journal v1 — for tests
// that hand-write byte-exact old frames and files and check that today's
// readers reject them typed.  Those formats had today's layouts; only their
// version field and their trailer differed: FNV-1a 64 over every byte after
// an unhashed prefix (the 4-byte frame magic, or a file's 8-byte
// magic + version header).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace yaspmv::testing_legacy {

/// Appends raw little-endian fields and folds every byte past the first
/// `unhashed_prefix` into a running FNV-1a 64 state; seal() appends that
/// state as the trailer and returns the finished bytes.
class LegacyWriter {
 public:
  explicit LegacyWriter(std::size_t unhashed_prefix)
      : prefix_(unhashed_prefix) {}

  template <class T>
  LegacyWriter& put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return raw(&v, sizeof v);
  }
  LegacyWriter& raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      if (bytes_.size() >= prefix_) {
        h_ ^= b[i];
        h_ *= 0x100000001b3ull;
      }
      bytes_.push_back(static_cast<char>(b[i]));
    }
    return *this;
  }
  std::string seal() {
    const std::uint64_t digest = h_;
    const auto* b = reinterpret_cast<const char*>(&digest);
    bytes_.append(b, sizeof digest);
    return bytes_;
  }

 private:
  std::size_t prefix_;
  std::string bytes_;
  std::uint64_t h_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

}  // namespace yaspmv::testing_legacy
