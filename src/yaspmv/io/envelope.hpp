// The checksummed container envelope shared by the binary (COO and
// `.bccoo`), plan and journal files:
//
//   magic   u32   header, outside the checksum
//   version u32
//   payload       the format's fields, host-endian, hashed as written
//   digest  u64   Hash64 (util/hash.hpp) of every payload byte
//
// Internal to io/: each format keeps its own magic, version, field layout
// and error prefix.  Stream failures throw IoError, a wrong header
// FormatInvalid and a digest mismatch DataCorruption, each message led by
// the format's prefix ("binary io: truncated stream").
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "yaspmv/core/status.hpp"
#include "yaspmv/util/hash.hpp"

namespace yaspmv::io::detail {

/// One container format's header and error vocabulary.
struct Envelope {
  const char* name;         ///< error prefix, e.g. "plan io"
  std::uint32_t magic;
  std::uint32_t version;
  const char* bad_magic;    ///< FormatInvalid message for a wrong magic
  const char* bad_version;  ///< ... and for a version this build cannot read
};

/// Writes the header on construction, hashes every payload field, and
/// writes the digest trailer in finish().
class EnvelopeWriter {
 public:
  EnvelopeWriter(std::ostream& out, const Envelope& env)
      : out_(out), name_(env.name) {
    raw(&env.magic, sizeof env.magic);
    raw(&env.version, sizeof env.version);
  }

  template <class T>
  void put(const T& v) {
    bytes(&v, sizeof(T));
  }

  void bytes(const void* p, std::size_t n) {
    raw(p, n);
    hash_.update(p, n);
  }

  void finish() {
    const std::uint64_t d = hash_.digest();
    raw(&d, sizeof d);
  }

 private:
  void raw(const void* p, std::size_t n) {
    out_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    if (!out_) throw IoError(std::string(name_) + ": write failed");
  }

  std::ostream& out_;
  const char* name_;
  Hash64 hash_;
};

/// Reads and checks the header on construction, hashes every payload
/// field, and checks the digest trailer in finish().
class EnvelopeReader {
 public:
  EnvelopeReader(std::istream& in, const Envelope& env)
      : in_(in), name_(env.name) {
    std::uint32_t word = 0;
    raw(&word, sizeof word, "truncated stream");
    if (word != env.magic) fail_format(env.bad_magic);
    raw(&word, sizeof word, "truncated stream");
    if (word != env.version) fail_format(env.bad_version);
  }

  template <class T>
  T get() {
    T v;
    bytes(&v, sizeof(T));
    return v;
  }

  void bytes(void* p, std::size_t n) {
    raw(p, n, "truncated stream");
    hash_.update(p, n);
  }

  void finish() {
    std::uint64_t want = 0;
    raw(&want, sizeof want, "truncated stream (missing checksum)");
    if (want != hash_.digest()) {
      throw DataCorruption(std::string(name_) +
                           ": payload checksum mismatch");
    }
  }

  [[noreturn]] void fail_format(const std::string& msg) const {
    throw FormatInvalid(std::string(name_) + ": " + msg);
  }

 private:
  void raw(void* p, std::size_t n, const char* what) {
    in_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    if (!in_) throw IoError(std::string(name_) + ": " + what);
  }

  std::istream& in_;
  const char* name_;
  Hash64 hash_;
};

}  // namespace yaspmv::io::detail
