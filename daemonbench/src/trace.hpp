// Span recorder for the traced run.  A span is (name, start, end, parent,
// request id); spans stay in memory and are written out when the run ends.
// The recorder itself is single-threaded: client threads time their own
// requests and the coordinating thread adds those spans after each batch.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace daemonbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span that later spans may name as their parent.
  std::int64_t open(const char* name, std::int64_t req,
                    std::int64_t parent = -1) {
    spans_.push_back({name, ns(Clock::now()), -1, parent, req});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t span) {
    spans_[static_cast<std::size_t>(span)].end = ns(Clock::now());
  }

  /// Records a finished span.
  void add(const char* name, Clock::time_point t0, Clock::time_point t1,
           std::int64_t parent, std::int64_t req) {
    spans_.push_back({name, ns(t0), ns(t1), parent, req});
  }

  /// Runs `f` inside a span.
  template <class F>
  void time(const char* name, std::int64_t req, std::int64_t parent, F&& f) {
    const auto t0 = Clock::now();
    f();
    add(name, t0, Clock::now(), parent, req);
  }

  /// JSON array of [name, start_ns, end_ns, parent, req].
  void write_json(std::ostream& out) const {
    out << '[';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",[\"" : "[\"") << s.name << "\"," << s.start << ','
          << s.end << ',' << s.parent << ',' << s.req << ']';
    }
    out << ']';
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start, end, parent, req;
  };

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace daemonbench
