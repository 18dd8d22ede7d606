// Binary (de)serialization of COO matrices and built BCCOO formats.
//
// Format conversion is the offline step of the paper's pipeline (offline
// transpose, auto-tuned format build); persisting the built format lets an
// application pay the conversion cost once.  The container is a simple
// little-endian TLV: magic, version, then the arrays with explicit sizes,
// then a 64-bit Hash64 (XXH64, util/hash.hpp) of every byte between the
// header and the trailer, so truncation and bit rot are detected instead of
// deserialized.  Files are not portable across endianness (checked via the
// magic).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "yaspmv/core/bccoo.hpp"
#include "yaspmv/formats/coo.hpp"

namespace yaspmv::io {

/// Magic of the `.bccoo` container ("YCCO"), read by load_bccoo and by the
/// mapped loader (io/stream.hpp).
constexpr std::uint32_t kBccooMagic = 0x4F434359;
/// Layout version of the COO and `.bccoo` containers.  v2 added the payload
/// checksum trailer; v3 computes it with Hash64 instead of FNV-1a (same
/// layout), so a v2 file is rejected as an unsupported version rather than
/// reported as corrupt.
constexpr std::uint32_t kContainerVersion = 3;

/// Serializes canonical COO.  Throws std::runtime_error on I/O failure.
void save_coo(std::ostream& out, const fmt::Coo& m);
fmt::Coo load_coo(std::istream& in);
void save_coo_file(const std::string& path, const fmt::Coo& m);
fmt::Coo load_coo_file(const std::string& path);

/// Serializes a built BCCOO/BCCOO+ format (everything needed to run SpMV
/// without re-deriving it from COO).  The compressed column streams and the
/// ABFT checksum plan are derived data and not part of the file format; the
/// loader rebuilds both unless `rebuild_derived` is false (tests use that to
/// exercise the kernels' ColStream::kAuto degradation on a streams-absent
/// format).
void save_bccoo(std::ostream& out, const core::Bccoo& m);
core::Bccoo load_bccoo(std::istream& in, bool rebuild_derived = true);
void save_bccoo_file(const std::string& path, const core::Bccoo& m);
core::Bccoo load_bccoo_file(const std::string& path,
                            bool rebuild_derived = true);

}  // namespace yaspmv::io
