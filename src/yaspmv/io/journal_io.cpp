#include "yaspmv/io/journal_io.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "yaspmv/core/status.hpp"
#include "yaspmv/io/envelope.hpp"

namespace yaspmv::io {

namespace {

constexpr std::uint32_t kJournalMagic = 0x4E524A59;  // "YJRN"
// v2: the trailer is Hash64 instead of FNV-1a; the layout is unchanged.
constexpr std::uint32_t kJournalVersion = 2;

constexpr detail::Envelope kJournalEnvelope{
    "journal io", kJournalMagic, kJournalVersion,
    "bad magic (not a journal file)", "unsupported journal version"};

[[noreturn]] void fail_io(const std::string& msg) {
  throw IoError("journal io: " + msg);
}

}  // namespace

void save_journal(std::ostream& out, const sim::RecordedRun& run) {
  detail::EnvelopeWriter w(out, kJournalEnvelope);
  w.put<std::int32_t>(run.num_workgroups);
  w.put<std::int32_t>(run.workgroup_size);
  w.put<std::uint32_t>(run.workers);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(run.fault.type));
  w.put<std::int32_t>(run.fault.target_wg);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(run.fault.launch));
  w.put<double>(run.fault.magnitude);
  w.put<std::uint64_t>(run.spin_budget_override);
  w.put<std::uint64_t>(run.events.size());
  // Events are written field-by-field (not memcpy'd) so struct padding never
  // leaks uninitialized bytes into the file or the checksum.
  for (const sim::Event& e : run.events) {
    w.put<std::uint64_t>(e.seq);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(e.type));
    w.put<std::uint8_t>(e.kind);
    w.put<std::uint16_t>(e.worker);
    w.put<std::int32_t>(e.wg);
    w.put<std::int32_t>(e.aux);
  }
  w.finish();
}

sim::RecordedRun load_journal(std::istream& in) {
  detail::EnvelopeReader r(in, kJournalEnvelope);
  sim::RecordedRun run;
  run.num_workgroups = r.get<std::int32_t>();
  run.workgroup_size = r.get<std::int32_t>();
  run.workers = r.get<std::uint32_t>();
  if (run.num_workgroups < 0 || run.workgroup_size < 0) {
    r.fail_format("negative launch geometry");
  }
  run.fault.type = static_cast<sim::FaultType>(r.get<std::uint8_t>());
  run.fault.target_wg = r.get<std::int32_t>();
  run.fault.launch = static_cast<sim::LaunchKind>(r.get<std::uint8_t>());
  run.fault.magnitude = r.get<double>();
  run.spin_budget_override = r.get<std::uint64_t>();
  const auto n = r.get<std::uint64_t>();
  if (n > (1ull << 28)) {
    r.fail_format("event count implausible (corrupt file?)");
  }
  run.events.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    sim::Event e;
    e.seq = r.get<std::uint64_t>();
    e.type = static_cast<sim::EventType>(r.get<std::uint8_t>());
    e.kind = r.get<std::uint8_t>();
    e.worker = r.get<std::uint16_t>();
    e.wg = r.get<std::int32_t>();
    e.aux = r.get<std::int32_t>();
    run.events.push_back(e);
  }
  r.finish();
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
