// loadgen — the daemon benchmark's load generator.
//
//   loadgen --workload=serve-spmv|solve-cg --seed=N --seconds=S
//           --trace=0|1 --serve-bin=<yaspmv-serve> --run-dir=<new dir>
//
// Makes the workload's inputs from the seed, then launches the real
// yaspmv-serve as a child on a private socket with a fresh plan-cache
// directory, several times over: each launch is timed until the first
// correct reply of every request kind, and the last daemon stays up for
// the load.  The load is a closed loop (each client sends its next request
// once the previous reply is in) through serve::Client, one connection per
// client, and every reply is checked against a CSR reference.
//
// --trace=0 measures one continuous window.  --trace=1 splits the same
// load time into short batches and after each batch pauses the load to
// re-enact a few of its requests in process, layer by layer (reenact.hpp),
// so a layer's time and the requests it explains see the same host state.
// Request spans come from the timestamps every request records anyway, so
// the only cost tracing adds is those pauses; the record keeps the first
// request of each client after a pause apart from the rest to show it.
//
// Prints one JSON record of raw measurements (latencies, setup times,
// counts, spans) as the last line of stdout; run.py turns it into metrics.
// Exits nonzero when any reply is wrong or any step fails.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "daemon.hpp"
#include "reenact.hpp"
#include "trace.hpp"
#include "workload.hpp"
#include "yaspmv/cpu/simd.hpp"
#include "yaspmv/serve/client.hpp"
#include "yaspmv/util/args.hpp"

namespace {

using namespace daemonbench;
namespace fs = std::filesystem;
namespace ys = yaspmv;

/// Launches per run, timed for setup_s (their median): kSetupsBefore
/// before the window, the last of which serves the load, and the rest after
/// it, so the median spans more of the host's state than one burst would.
constexpr int kSetups = 7;
constexpr int kSetupsBefore = 4;
constexpr double kWarmupSeconds = 0.5;  ///< load before anything is measured
constexpr double kBatchSeconds = 0.5;   ///< traced run: one load batch
constexpr unsigned kWatchdogSeconds = 170;
/// Iterations of the drift marker loop: about one second on a 2.1 GHz
/// Xeon vCPU.  Fixed, so its time tracks how fast the host runs right now.
constexpr std::uint64_t kDriftIters = 500'000'000;

struct Options {
  Workload w;
  std::uint64_t seed = 1;
  double seconds = 40;
  bool trace = false;
  std::string serve_bin, run_dir;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A fixed integer loop that calls no library code.
double drift_loop_seconds() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (std::uint64_t i = 0; i < kDriftIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return seconds_between(t0, Clock::now());
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}.  Steal is time
/// the hypervisor ran something else while this guest wanted a vCPU.
std::pair<long long, long long> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  long long v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

struct ClientConn {
  std::unique_ptr<ys::serve::Client> client;
  Kind kind = Kind::kSpmvPlain;
  std::uint64_t id = 0;
  std::size_t next = 0;  ///< the k-th request uses pool entry k
};

struct Sample {
  Clock::time_point t0, t1;
  std::size_t k = 0;
};

/// What one client saw.  Refused = still kOverloaded after the client's
/// retries; typed = any other non-ok reply status; wrong = an ok reply the
/// oracle rejects.
struct ClientLog {
  std::vector<Sample> samples;
  long ok = 0, wrong = 0, refused = 0, typed = 0;
  long admission_retries = 0;
  long engine_attempts = 0, engine_replies = 0;
  std::vector<long> iterations;
  std::string first_error;

  void merge(const ClientLog& o) {
    ok += o.ok;
    wrong += o.wrong;
    refused += o.refused;
    typed += o.typed;
    admission_retries += o.admission_retries;
    engine_attempts += o.engine_attempts;
    engine_replies += o.engine_replies;
    iterations.insert(iterations.end(), o.iterations.begin(),
                      o.iterations.end());
    if (first_error.empty()) first_error = o.first_error;
  }
  long attempted() const { return ok + wrong + refused + typed; }
};

/// Sends client c's next request, checks the reply, logs it.  Transport
/// errors throw: the connection is gone and the run is void.
bool send(ClientConn& s, const Inputs& in, std::size_t c, ClientLog& log) {
  const std::size_t k = s.next++;
  ys::serve::RequestOptions opt;
  opt.retries = 3;
  opt.backoff_ms = 1;
  Sample smp;
  smp.k = k;
  ys::serve::ReplyStatus st;
  bool correct = false;
  int admission = 1;
  smp.t0 = Clock::now();
  if (s.kind == Kind::kSolve) {
    const auto r = s.client->solve(s.id, in.solve->b(k), 1, kSolveTol,
                                   kSolveMaxIters, opt);
    smp.t1 = Clock::now();
    st = r.status;
    admission = r.admission_attempts;
    if (r.ok()) {
      correct = r.converged && in.solve->check(k, r.x, kSolveTol);
      log.iterations.push_back(r.iterations);
    }
  } else {
    opt.verified = s.kind == Kind::kSpmvVerified;
    const auto r = s.client->spmv(s.id, in.oracle_of(c).x(k), opt);
    smp.t1 = Clock::now();
    st = r.status;
    admission = r.admission_attempts;
    if (r.ok()) {
      correct = r.verified == opt.verified && in.oracle_of(c).check(k, r.y);
      log.engine_attempts += r.attempts;
      log.engine_replies++;
    }
  }
  log.samples.push_back(smp);
  log.admission_retries += admission - 1;
  const bool ok_status = st.status == ys::serve::ServeStatus::kOk;
  if (ok_status && correct) {
    ++log.ok;
  } else if (ok_status) {
    ++log.wrong;
  } else if (st.status == ys::serve::ServeStatus::kOverloaded) {
    ++log.refused;
  } else {
    ++log.typed;
  }
  if (!(ok_status && correct) && log.first_error.empty()) {
    log.first_error = "client " + std::to_string(c) + " request " +
                      std::to_string(k) + ": " +
                      (ok_status ? std::string("reply failed the oracle")
                                 : "status " + std::to_string(static_cast<int>(
                                                   st.status)) +
                                       " " + st.detail);
  }
  return ok_status && correct;
}

/// Runs `fn(c)` on one thread per client and rethrows the first failure.
template <class F>
void per_client(std::size_t n, F&& fn) {
  std::vector<std::exception_ptr> errs(n);
  std::vector<std::thread> th;
  for (std::size_t c = 0; c < n; ++c) {
    th.emplace_back([&, c] {
      try {
        fn(c);
      } catch (...) {
        errs[c] = std::current_exception();
      }
    });
  }
  for (auto& t : th) t.join();
  for (auto& e : errs) {
    if (e) std::rethrow_exception(e);
  }
}

/// Closed-loop load for `seconds`: every client keeps one request in
/// flight until the window ends.
std::vector<ClientLog> run_load(std::vector<ClientConn>& ss, const Inputs& in,
                                double seconds) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  std::vector<ClientLog> logs(ss.size());
  per_client(ss.size(), [&](std::size_t c) {
    while (Clock::now() < end) send(ss[c], in, c, logs[c]);
  });
  return logs;
}

struct Live {
  std::unique_ptr<Daemon> daemon;
  std::vector<ClientConn> conns;
  std::string dir, cache;
  double setup_s = 0;
};

/// Launches a daemon in a new directory and brings every client to its
/// first correct reply.  setup time = launch -> last such reply.
Live launch(const Options& o, const Inputs& in, int k) {
  Live live;
  live.dir = o.run_dir + "/daemon" + std::to_string(k);
  const std::string sock = live.dir + "/d.sock";
  live.cache = live.dir + "/plans";
  if (fs::exists(live.dir)) {
    throw std::runtime_error("leftover daemon directory " + live.dir +
                             ": refusing to reuse a socket or plan cache");
  }
  fs::create_directories(live.dir);
  live.daemon = std::make_unique<Daemon>(
      o.serve_bin,
      std::vector<std::string>{
          "--socket=" + sock, "--plan-cache=" + live.cache,
          "--apply-threads=" + std::to_string(o.w.apply_threads)});
  live.daemon->wait_ready(60);

  const std::size_t n = o.w.clients.size();
  live.conns.resize(n);
  std::vector<Clock::time_point> done(n);
  per_client(n, [&](std::size_t c) {
    ClientConn& s = live.conns[c];
    s.kind = o.w.clients[c];
    s.client = std::make_unique<ys::serve::Client>(sock);
    const auto r = s.client->register_matrix(in.matrix_of(c));
    if (r.status.status != ys::serve::ServeStatus::kOk) {
      throw std::runtime_error("register: " + r.status.detail);
    }
    s.id = r.matrix_id;
    ClientLog first;
    if (!send(s, in, c, first)) {
      throw std::runtime_error("first reply: " + first.first_error);
    }
    done[c] = first.samples.back().t1;
  });
  live.setup_s = seconds_between(live.daemon->launched(),
                                 *std::max_element(done.begin(), done.end()));
  return live;
}

/// Closes the connections, SIGTERMs and reaps the daemon, removes its
/// directory.  Returns whether it drained and exited 0.
bool shut_down(Live& live) {
  live.conns.clear();
  const bool clean = Daemon::clean_exit(live.daemon->stop());
  fs::remove_all(live.dir);
  return clean;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      return p == std::string::npos ? line : line.substr(p + 2);
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

template <class T>
void json_list(std::ostream& out, const std::vector<T>& v) {
  out << '[';
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? "," : "") << v[i];
  out << ']';
}

struct StatsDelta {
  std::uint64_t faulted = 0, recovered = 0, overloaded = 0,
                deadline_expired = 0;
};

StatsDelta delta(const ys::serve::StatsSnapshot& a,
                 const ys::serve::StatsSnapshot& b) {
  return {b.faulted - a.faulted, b.recovered - a.recovered,
          b.overloaded - a.overloaded, b.deadline_expired - a.deadline_expired};
}

int run(const Options& o) {
  fs::create_directories(o.run_dir);
  const Inputs in = make_inputs(o.w, o.seed);

  std::vector<double> setups;
  Live live;
  bool clean_exits = true;
  for (int k = 0; k < kSetupsBefore; ++k) {
    if (live.daemon) clean_exits = shut_down(live) && clean_exits;
    live = launch(o, in, k);
    setups.push_back(live.setup_s);
  }

  std::ostringstream out;
  out.precision(17);
  ClientLog total;
  // Every request's latency, except that the traced run keeps each
  // client's first request after a pause apart, in after_pause_ms.
  std::vector<double> lat_ms, after_pause_ms;
  double window_s = 0, drift_s = 0;
  StatsDelta stats;
  Tracer tr(Clock::now());
  std::unique_ptr<Reenactor> re;
  const auto ms = [](const Sample& s) {
    return std::chrono::duration<double, std::milli>(s.t1 - s.t0).count();
  };

  if (o.trace) {
    std::vector<std::uint64_t> ids;
    for (const auto& s : live.conns) ids.push_back(s.id);
    re = std::make_unique<Reenactor>(o.w, in, ids, live.cache, o.run_dir, tr);
    re->probes();
  }
  // Warm-up replies are checked like every other; they only stay out of
  // the latency and throughput figures.
  ClientLog warmup;
  for (const auto& log : run_load(live.conns, in, kWarmupSeconds)) {
    warmup.merge(log);
  }
  const auto s0 = live.conns[0].client->stats();
  drift_s = drift_loop_seconds();
  const auto jiffies0 = cpu_jiffies();
  const auto faults0 = live.daemon->page_faults();
  if (!o.trace) {
    const auto start = Clock::now();
    auto logs = run_load(live.conns, in, o.seconds);
    auto last = start;
    for (const auto& log : logs) {
      total.merge(log);
      for (const auto& s : log.samples) {
        lat_ms.push_back(ms(s));
        last = std::max(last, s.t1);
      }
    }
    window_s = seconds_between(start, last);
  } else {
    const int batches =
        std::max(1, static_cast<int>(o.seconds / kBatchSeconds + 0.5));
    std::int64_t next_req = 0;
    for (int b = 0; b < batches; ++b) {
      const std::int64_t batch = tr.open("load.batch", -1);
      const auto start = Clock::now();
      auto logs = run_load(live.conns, in, kBatchSeconds);
      tr.close(batch);
      // Request ids in send order per client; re-enactment mirrors the
      // first few requests of each client in this batch.
      std::vector<std::vector<std::int64_t>> req_ids(logs.size());
      auto last = start;
      for (std::size_t c = 0; c < logs.size(); ++c) {
        total.merge(logs[c]);
        for (const auto& s : logs[c].samples) {
          (req_ids[c].empty() ? after_pause_ms : lat_ms).push_back(ms(s));
          req_ids[c].push_back(next_req++);
          last = std::max(last, s.t1);
          tr.add("serve.request", s.t0, s.t1, batch, req_ids[c].back());
        }
      }
      window_s += seconds_between(start, last);
      for (std::size_t j = 0; j < o.w.reenact_per_batch; ++j) {
        const std::size_t c = j % logs.size(), i = j / logs.size();
        if (i < logs[c].samples.size()) {
          re->request(c, logs[c].samples[i].k, req_ids[c][i]);
        }
      }
    }
  }
  const auto jiffies1 = cpu_jiffies();
  const auto faults1 = live.daemon->page_faults();
  const double steal_share =
      jiffies1.second > jiffies0.second
          ? static_cast<double>(jiffies1.first - jiffies0.first) /
                static_cast<double>(jiffies1.second - jiffies0.second)
          : 0.0;
  stats = delta(s0, live.conns[0].client->stats());
  const long peak_rss_kb = live.daemon->peak_rss_kb();
  clean_exits = shut_down(live) && clean_exits;
  for (int k = kSetupsBefore; k < kSetups; ++k) {
    live = launch(o, in, k);
    setups.push_back(live.setup_s);
    clean_exits = shut_down(live) && clean_exits;
  }
  fs::remove_all(o.run_dir);

  out << "{\"workload\":" << quoted(o.w.name) << ",\"seed\":" << o.seed
      << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"seconds\":" << o.seconds
      << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << quoted(cpu_model()) << ",\"simd\":"
      << quoted(ys::cpu::simd::to_string(ys::cpu::simd::active()))
      << ",\"compiler\":" << quoted(std::string("g++ ") + __VERSION__)
      << ",\"build_type\":" << quoted(DAEMONBENCH_BUILD_TYPE) << "}"
      << ",\"drift_loop_s\":" << drift_s
      << ",\"steal_share\":" << steal_share
      << ",\"daemon_minor_faults\":" << faults1.first - faults0.first
      << ",\"daemon_major_faults\":" << faults1.second - faults0.second
      << ",\"setup_s\":";
  json_list(out, setups);
  out << ",\"window_s\":" << window_s << ",\"latency_ms\":";
  json_list(out, lat_ms);
  if (o.trace) {
    out << ",\"after_pause_ms\":";
    json_list(out, after_pause_ms);
  }
  out << ",\"attempted\":" << total.attempted() << ",\"ok\":" << total.ok
      << ",\"wrong\":" << total.wrong << ",\"refused\":" << total.refused
      << ",\"typed_errors\":" << total.typed
      << ",\"first_error\":"
      << quoted(warmup.first_error.empty() ? total.first_error
                                           : warmup.first_error)
      << ",\"warmup_attempted\":" << warmup.attempted()
      << ",\"warmup_failed\":" << warmup.attempted() - warmup.ok
      << ",\"admission_retries\":" << total.admission_retries
      << ",\"engine_attempts\":" << total.engine_attempts
      << ",\"engine_replies\":" << total.engine_replies
      << ",\"daemon_iterations\":";
  json_list(out, total.iterations);
  out << ",\"stats_delta\":{\"faulted\":" << stats.faulted
      << ",\"recovered\":" << stats.recovered
      << ",\"overloaded\":" << stats.overloaded
      << ",\"deadline_expired\":" << stats.deadline_expired << "}"
      << ",\"peak_rss_kb\":" << peak_rss_kb
      << ",\"daemon_clean_exits\":" << (clean_exits ? "true" : "false");
  if (re) {
    const Counts& c = re->counts;
    out << ",\"counts\":{\"frame_bytes\":" << c.frame_bytes
        << ",\"tune_evaluated\":" << c.tune_evaluated
        << ",\"tune_skipped\":" << c.tune_skipped
        << ",\"plan_matches_cache\":"
        << (c.plan_matches_cache ? "true" : "false")
        << ",\"apply_bytes\":" << c.apply_bytes
        << ",\"format_bytes\":" << c.format_bytes
        << ",\"container_bytes\":" << c.container_bytes
        << ",\"stream_bytes\":" << c.stream_bytes
        << ",\"reenact_wrong\":" << c.wrong << ",\"solver_iterations\":";
    json_list(out, c.solver_iterations);
    out << ",\"iterations\":";
    json_list(out, c.iterations);
    out << ",\"engine_attempts\":";
    json_list(out, c.engine_attempts);
    out << "},\"spans\":";
    tr.write_json(out);
  }
  out << "}";
  std::cout << out.str() << std::endl;
  const bool ok = total.ok == total.attempted() &&
                  warmup.ok == warmup.attempted() && clean_exits &&
                  (!re || re->counts.wrong == 0);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const ys::Args args(argc, argv);
  Options o;
  try {
    o.w = workload(args.get("workload"));
    o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    o.seconds = args.get_double("seconds", 40);
    o.trace = args.get_int("trace", 0) != 0;
    o.serve_bin = args.get("serve-bin");
    o.run_dir = args.get("run-dir");
    if (o.serve_bin.empty() || o.run_dir.empty() || o.seconds <= 0) {
      throw std::invalid_argument("--serve-bin, --run-dir and --seconds > 0 "
                                  "are required");
    }
  } catch (const std::exception& e) {
    std::cerr << "loadgen: " << e.what() << "\n";
    return 2;
  }
  install_exit_handlers(kWatchdogSeconds);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "loadgen: " << e.what() << "\n";
    return 1;
  }
}
