// serve-client — command-line client for the yaspmv serving daemon.
//
//   serve-client register --socket=S (--mtx=f.mtx | --matrix=Name [--scale=f])
//                         [--force-retune]
//   serve-client spmv     --socket=S --id=HEX (--mtx=... | --matrix=...)
//                         [--deadline-ms=N] [--retries=N] [--inject=KIND]
//                         [--out=y.txt]
//   serve-client solve    --socket=S --id=HEX (--mtx=... | --matrix=...)
//                         [--solver=cg|bicgstab] [--tol=1e-10]
//                         [--max-iters=N] [--out=x.txt]
//   serve-client stats    --socket=S
//   serve-client shutdown --socket=S
//
// register prints the matrix id (hex) that spmv/solve take via --id; the
// input vector for spmv (and the right-hand side for solve) is seeded
// deterministically from the matrix shape, so two runs compare bitwise.
#include <fstream>
#include <iostream>

#include "yaspmv/gen/suite.hpp"
#include "yaspmv/io/matrix_market.hpp"
#include "yaspmv/io/plan_io.hpp"
#include "yaspmv/serve/client.hpp"
#include "yaspmv/util/args.hpp"
#include "yaspmv/util/rng.hpp"

namespace {

using namespace yaspmv;

int usage() {
  std::cerr
      << "usage: serve-client <register|register-path|spmv|solve|stats|"
         "shutdown> --socket=<path> [options]\n"
         "  register  --mtx=<f.mtx> | --matrix=<name> [--scale=f] "
         "[--force-retune]\n"
         "  register-path --file=<f.bccoo>   (served out-of-core from the "
         "mmapped file)\n"
         "  spmv      [--id=<hex>] --n=<cols> | --mtx=|--matrix= "
         "(id derived from the input when omitted)\n"
         "            [--deadline-ms=N] [--retries=N]\n"
         "            [--inject=nan|sleep:<ms>|corrupt_publish]\n"
         "            [--verified] [--out=<y.txt>]\n"
         "  solve     [--id=<hex>] --n=<rows> | --mtx=|--matrix= "
         "[--solver=cg|bicgstab]\n"
         "            [--tol=1e-10] [--max-iters=N] [--verified] [--out=<x.txt>]\n"
         "  stats\n"
         "  shutdown\n";
  return 2;
}

fmt::Coo load_input(const Args& args) {
  if (args.has("mtx")) return io::read_matrix_market_file(args.get("mtx"));
  const auto& e = gen::suite_entry(args.get("matrix", "Protein"));
  return e.make(e.bench_scale * args.get_double("scale", 0.5));
}

std::vector<real_t> seeded_vector(std::size_t n, std::uint64_t seed) {
  std::vector<real_t> v(n);
  SplitMix64 rng(seed);
  for (auto& x : v) x = rng.next_double(-1.0, 1.0);
  return v;
}

serve::RequestOptions request_options(const Args& args) {
  serve::RequestOptions opt;
  opt.deadline_ms =
      static_cast<std::uint32_t>(args.get_int("deadline-ms", 0));
  opt.retries = static_cast<int>(args.get_int("retries", 0));
  opt.verified = args.has("verified");
  const std::string inj = args.get("inject");
  if (!inj.empty()) {
    if (inj == "nan") {
      opt.inject = serve::Inject::kNan;
    } else if (inj == "corrupt_publish") {
      opt.inject = serve::Inject::kCorruptPublish;
    } else if (inj.rfind("sleep:", 0) == 0) {
      opt.inject = serve::Inject::kSleepMs;
      opt.inject_arg =
          static_cast<std::uint32_t>(std::strtoul(inj.c_str() + 6, nullptr, 10));
    } else {
      throw std::invalid_argument("unknown --inject kind '" + inj + "'");
    }
  }
  return opt;
}

void write_vector(const std::string& path, const std::vector<real_t>& v) {
  std::ofstream out(path);
  out.precision(17);
  for (const real_t x : v) out << x << "\n";
}

int report_error(const serve::ReplyStatus& s) {
  std::cerr << "error: " << serve::to_string(s.status);
  if (s.status == serve::ServeStatus::kFaulted) {
    std::cerr << " (" << to_string(s.code) << ")";
  }
  if (!s.detail.empty()) std::cerr << ": " << s.detail;
  std::cerr << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  const std::string socket = args.get("socket");
  if (socket.empty()) return usage();
  try {
    serve::Client client(socket);
    if (cmd == "register") {
      const auto a = load_input(args);
      const auto r = client.register_matrix(a, args.has("force-retune"));
      if (r.status.status != serve::ServeStatus::kOk) {
        return report_error(r.status);
      }
      std::cout << std::hex << r.matrix_id << std::dec << "\n";
      std::cerr << (r.warm ? "warm" : "cold") << " registration in "
                << r.register_seconds << " s ("
                << (r.warm ? "saved tuning of " : "tuned in ")
                << r.tuning_seconds << " s, " << r.evaluated
                << " candidates, kernel " << r.kernel << ")\n";
      return 0;
    }
    if (cmd == "register-path") {
      const std::string file = args.get("file");
      if (file.empty()) return usage();
      const auto r = client.register_path(file);
      if (r.status.status != serve::ServeStatus::kOk) {
        return report_error(r.status);
      }
      std::cout << std::hex << r.matrix_id << std::dec << "\n";
      std::cerr << (r.newly_registered ? "mapped" : "already mapped") << " "
                << r.rows << " x " << r.cols << " in " << r.register_seconds
                << " s (kernel " << r.kernel << ", served out-of-core)\n";
      return 0;
    }
    if (cmd == "stats") {
      const auto s = client.stats();
      if (s.status.status != serve::ServeStatus::kOk) {
        return report_error(s.status);
      }
      std::cout << "accepted " << s.accepted << "\ncompleted " << s.completed
                << "\noverloaded " << s.overloaded << "\ndeadline_expired "
                << s.deadline_expired << "\nfaulted " << s.faulted
                << "\nrecovered " << s.recovered << "\nprotocol_errors "
                << s.protocol_errors << "\ndisconnects " << s.disconnects
                << "\nshed_on_drain " << s.shed_on_drain << "\nregistered "
                << s.registered << "\nplan_cache_hits " << s.plan_cache_hits
                << "\nplan_cache_misses " << s.plan_cache_misses
                << "\ninflight " << s.inflight << "\nverified_requests "
                << s.verified_requests << "\nintegrity_faults "
                << s.integrity_faults << "\nintegrity_recovered "
                << s.integrity_recovered << "\nexecutors " << s.executors
                << "\napply_threads " << s.apply_threads << "\ngrid_plans "
                << s.grid_plans << "\ngeneric_plans " << s.generic_plans
                << "\nstream_registered " << s.stream_registered
                << "\nstream_applies " << s.stream_applies << "\n";
      return 0;
    }
    if (cmd == "shutdown") {
      const auto s = client.shutdown_server();
      if (s.status != serve::ServeStatus::kOk) return report_error(s);
      std::cout << "server draining\n";
      return 0;
    }
    if (cmd != "spmv" && cmd != "solve") return usage();

    // Identify the matrix and the operand shape.  --n sizes the seeded
    // vector directly; otherwise the shape comes from the same --mtx /
    // --matrix input that was registered.  When --id is omitted the id is
    // derived locally from that input (the server keys matrices by
    // payload checksum), so `spmv --mtx=m.mtx` alone round-trips.
    std::uint64_t id = 0;
    index_t rows = 0, cols = 0;
    if (args.has("id")) id = std::strtoull(args.get("id").c_str(), nullptr, 16);
    if (args.has("n")) {
      rows = cols = static_cast<index_t>(args.get_int("n", 0));
    }
    if (!args.has("id") || rows <= 0) {
      if (!args.has("mtx") && !args.has("matrix")) {
        std::cerr << "serve-client: " << cmd
                  << " needs --n=<length> alongside --id, or the registered "
                     "--mtx/--matrix input\n";
        return 2;
      }
      const auto a = load_input(args);
      rows = a.rows;
      cols = a.cols;
      if (!args.has("id")) id = io::payload_checksum(a);
    }
    const auto opt = request_options(args);
    if (cmd == "spmv") {
      const auto x = seeded_vector(static_cast<std::size_t>(cols), 42);
      const auto r = client.spmv(id, x, opt);
      if (!r.ok()) return report_error(r.status);
      std::cerr << "ok via " << r.path << " (" << r.attempts << " attempt"
                << (r.attempts == 1 ? "" : "s")
                << (r.recovered ? ", recovered" : "")
                << (r.verified ? ", verified" : "") << ")\n";
      for (const auto& f : r.faults) {
        std::cerr << "  fault: " << f.path << " -> " << to_string(f.status)
                  << "\n";
      }
      if (args.has("out")) write_vector(args.get("out"), r.y);
      return 0;
    }
    const auto b = seeded_vector(static_cast<std::size_t>(rows), 43);
    const int solver = args.get("solver", "cg") == "bicgstab" ? 2 : 1;
    const auto r = client.solve(id, b, solver, args.get_double("tol", 1e-10),
                                static_cast<std::uint32_t>(
                                    args.get_int("max-iters", 1000)),
                                opt);
    if (!r.ok()) return report_error(r.status);
    std::cerr << (r.converged ? "converged" : "NOT converged") << " in "
              << r.iterations << " iterations (rel residual "
              << r.rel_residual << ")"
              << (r.verified ? " [verified, " +
                                   std::to_string(r.integrity_faults) +
                                   " integrity faults, " +
                                   std::to_string(r.rollbacks) + " rollbacks]"
                             : "")
              << "\n";
    if (args.has("out")) write_vector(args.get("out"), r.x);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "serve-client: " << e.what() << "\n";
    return 1;
  }
}
