// Binary (de)serialization of recorded runs (flight-recorder journals).
//
// A journal file is the portable artifact of "debugging a hang": record a
// failing pooled run with --record, attach the file to a bug report, replay
// it anywhere with --replay.  Same container discipline as io/binary.cpp —
// little-endian TLV with a magic/version header outside a trailing Hash64
// (XXH64) checksum, so truncation and bit rot raise DataCorruption instead
// of deserializing garbage schedules.  A journal of another version (an
// older build's FNV-1a trailer) is FormatInvalid.
#pragma once

#include <iosfwd>
#include <string>

#include "yaspmv/sim/journal.hpp"

namespace yaspmv::io {

/// Serializes a recorded run: launch geometry, the armed fault plan and spin
/// budget (needed to re-create the failing conditions), then the event log.
void save_journal(std::ostream& out, const sim::RecordedRun& run);
sim::RecordedRun load_journal(std::istream& in);
void save_journal_file(const std::string& path, const sim::RecordedRun& run);
sim::RecordedRun load_journal_file(const std::string& path);

/// Human-readable dump of an event log (one line per event) for bug reports
/// and --replay --dump output.
std::string format_journal(const sim::RecordedRun& run);

}  // namespace yaspmv::io
