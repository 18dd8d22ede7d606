#include "yaspmv/io/journal_io.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "yaspmv/core/status.hpp"
#include "yaspmv/util/hash.hpp"

namespace yaspmv::io {

namespace {

constexpr std::uint32_t kJournalMagic = 0x4E524A59;  // "YJRN"
// v2: the trailer is Hash64 instead of FNV-1a; the layout is unchanged.
constexpr std::uint32_t kJournalVersion = 2;

[[noreturn]] void fail_io(const std::string& msg) {
  throw IoError("journal io: " + msg);
}

[[noreturn]] void fail_format(const std::string& msg) {
  throw FormatInvalid("journal io: " + msg);
}

template <class T>
void put(std::ostream& out, const T& v, Hash64& hash) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
  if (!out) fail_io("write failed");
  hash.update(&v, sizeof(T));
}

template <class T>
T get(std::istream& in, Hash64& hash) {
  T v;
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) fail_io("truncated stream");
  hash.update(&v, sizeof(T));
  return v;
}

}  // namespace

void save_journal(std::ostream& out, const sim::RecordedRun& run) {
  Hash64 scratch;  // header is outside the checksum
  put(out, kJournalMagic, scratch);
  put(out, kJournalVersion, scratch);

  Hash64 hash;
  put<std::int32_t>(out, run.num_workgroups, hash);
  put<std::int32_t>(out, run.workgroup_size, hash);
  put<std::uint32_t>(out, run.workers, hash);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(run.fault.type), hash);
  put<std::int32_t>(out, run.fault.target_wg, hash);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(run.fault.launch), hash);
  put<double>(out, run.fault.magnitude, hash);
  put<std::uint64_t>(out, run.spin_budget_override, hash);
  put<std::uint64_t>(out, run.events.size(), hash);
  // Events are written field-by-field (not memcpy'd) so struct padding never
  // leaks uninitialized bytes into the file or the checksum.
  for (const sim::Event& e : run.events) {
    put<std::uint64_t>(out, e.seq, hash);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(e.type), hash);
    put<std::uint8_t>(out, e.kind, hash);
    put<std::uint16_t>(out, e.worker, hash);
    put<std::int32_t>(out, e.wg, hash);
    put<std::int32_t>(out, e.aux, hash);
  }

  const std::uint64_t d = hash.digest();
  out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  if (!out) fail_io("write failed");
}

sim::RecordedRun load_journal(std::istream& in) {
  Hash64 scratch;
  if (get<std::uint32_t>(in, scratch) != kJournalMagic) {
    fail_format("bad magic (not a journal file)");
  }
  if (get<std::uint32_t>(in, scratch) != kJournalVersion) {
    fail_format("unsupported journal version");
  }

  Hash64 hash;
  sim::RecordedRun run;
  run.num_workgroups = get<std::int32_t>(in, hash);
  run.workgroup_size = get<std::int32_t>(in, hash);
  run.workers = get<std::uint32_t>(in, hash);
  if (run.num_workgroups < 0 || run.workgroup_size < 0) {
    fail_format("negative launch geometry");
  }
  run.fault.type = static_cast<sim::FaultType>(get<std::uint8_t>(in, hash));
  run.fault.target_wg = get<std::int32_t>(in, hash);
  run.fault.launch = static_cast<sim::LaunchKind>(get<std::uint8_t>(in, hash));
  run.fault.magnitude = get<double>(in, hash);
  run.spin_budget_override = get<std::uint64_t>(in, hash);
  const auto n = get<std::uint64_t>(in, hash);
  if (n > (1ull << 28)) fail_format("event count implausible (corrupt file?)");
  run.events.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    sim::Event e;
    e.seq = get<std::uint64_t>(in, hash);
    e.type = static_cast<sim::EventType>(get<std::uint8_t>(in, hash));
    e.kind = get<std::uint8_t>(in, hash);
    e.worker = get<std::uint16_t>(in, hash);
    e.wg = get<std::int32_t>(in, hash);
    e.aux = get<std::int32_t>(in, hash);
    run.events.push_back(e);
  }

  std::uint64_t want = 0;
  in.read(reinterpret_cast<char*>(&want), sizeof(want));
  if (!in) fail_io("truncated stream (missing checksum)");
  if (want != hash.digest()) {
    throw DataCorruption("journal io: payload checksum mismatch");
  }
  return run;
}

void save_journal_file(const std::string& path, const sim::RecordedRun& run) {
  std::ofstream f(path, std::ios::binary);
  if (!f) fail_io("cannot open " + path);
  save_journal(f, run);
}

sim::RecordedRun load_journal_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) fail_io("cannot open " + path);
  return load_journal(f);
}

std::string format_journal(const sim::RecordedRun& run) {
  std::ostringstream os;
  os << "journal: " << run.num_workgroups << " workgroups x "
     << run.workgroup_size << " threads, " << run.workers << " workers, "
     << run.events.size() << " events\n";
  if (run.fault.type != sim::FaultType::kNone) {
    os << "fault: " << to_string(run.fault.type) << " wg="
       << run.fault.target_wg << " launch=" << to_string(run.fault.launch)
       << " spin-budget=" << run.spin_budget_override << "\n";
  }
  for (const sim::Event& e : run.events) {
    os << "  [" << e.seq << "] "
       << to_string(static_cast<sim::LaunchKind>(e.kind)) << " w" << e.worker
       << " " << to_string(e.type);
    if (e.wg >= 0) os << " wg=" << e.wg;
    switch (e.type) {
      case sim::EventType::kLaunchBegin:
        os << " workgroups=" << e.aux;
        break;
      case sim::EventType::kPhase:
        os << " phase=" << e.aux;
        break;
      case sim::EventType::kWaitBegin:
      case sim::EventType::kWaitResolve:
      case sim::EventType::kWaitTimeout:
        os << " on=Grp_sum[" << e.aux << "]";
        break;
      case sim::EventType::kFaultFired:
        os << " fault="
           << to_string(static_cast<sim::FaultType>(e.aux));
        break;
      default:
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace yaspmv::io
