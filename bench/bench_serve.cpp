// Serving-daemon benchmark: end-to-end request latency and throughput of
// the Unix-socket SpMV server (serve::Server) under increasing client
// counts, plus the cold-vs-warm registration cost of the durable plan
// cache (paper §5 persists tuned plans precisely so a restart never pays
// the tuning sweep again).
//
// The server runs in-process on a private socket; every client is a real
// serve::Client speaking the framed protocol over its own connection, so
// the measured latency includes framing, checksumming, admission control
// and dispatch — everything but the network.  Per client count the JSON
// (default BENCH_serve.json, --json=<path>, --json=- disables the file)
// records p50/p99 request latency and aggregate requests/s; the
// registration section records the cold tuning time, the warm
// cache-restore time on a fresh server over the same cache directory, and
// the resulting speedup.  The binary re-validates its own JSON and fails
// the run if it does not parse — the bench_smoke_serve CI test asserts
// exactly that.
#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "yaspmv/serve/client.hpp"
#include "yaspmv/serve/server.hpp"
#include "yaspmv/util/json.hpp"

namespace {

using namespace yaspmv;

struct LoadPoint {
  int clients = 0;
  long requests = 0;  ///< total completed across all clients
  double seconds = 0;
  double rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  long admission_retries = 0;  ///< kOverloaded bounces absorbed by backoff
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// JSON guard: the report must stay parseable even if a rate degenerates.
double fin(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  using namespace yaspmv;
  const Args args(argc, argv);
  const double mult = args.get_double("scale", 1.0);
  const long per_client = args.get_int("requests", 40);
  const long max_clients = args.get_int("max-clients", 16);
  const std::string json_path = args.get("json", "BENCH_serve.json");

  const auto dim = [&](index_t d) {
    return std::max<index_t>(16, static_cast<index_t>(
                                     static_cast<double>(d) * std::sqrt(mult)));
  };
  const auto a = gen::fem_mesh(dim(96) * dim(96), 24, 3, 0.02, 0xbe6c);

  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("yaspmv-bench-serve-" + std::to_string(getpid()));
  fs::create_directories(root);

  serve::ServerOptions opt;
  opt.socket_path = (root / "serve.sock").string();
  opt.plan_cache_dir = (root / "plans").string();
  opt.queue_capacity = 256;
  opt.max_inflight = 64;
  opt.tune_on_register = true;

  std::cout << "=== Serving daemon: latency/throughput vs clients, "
               "cold vs warm plan cache (rows=" << a.rows
            << ", nnz=" << a.nnz() << ") ===\n\n";

  // --- Registration: cold (full tuning sweep) vs warm (durable cache). ---
  double cold_s = 0, warm_s = 0;
  bool warm_hit = false;
  std::uint64_t matrix_id = 0;
  {
    auto server = std::make_unique<serve::Server>(opt);
    server->start();
    serve::Client c(opt.socket_path);
    const auto cold = c.register_matrix(a);
    require(cold.status.status == serve::ServeStatus::kOk,
            "cold registration failed: " + cold.status.detail);
    cold_s = cold.register_seconds;
    matrix_id = cold.matrix_id;
    server->stop();
  }
  {
    // A fresh server over the same cache directory: the restart path.
    auto server = std::make_unique<serve::Server>(opt);
    server->start();
    serve::Client c(opt.socket_path);
    const auto warm = c.register_matrix(a);
    require(warm.status.status == serve::ServeStatus::kOk,
            "warm registration failed: " + warm.status.detail);
    warm_s = warm.register_seconds;
    warm_hit = warm.warm;
    server->stop();
  }
  const double reg_speedup = warm_s > 0 ? cold_s / warm_s : 0.0;
  std::cout << "registration: cold " << TablePrinter::fmt(cold_s * 1e3, 2)
            << " ms, warm " << TablePrinter::fmt(warm_s * 1e3, 2)
            << " ms (cache " << (warm_hit ? "hit" : "MISS") << ", "
            << TablePrinter::fmt(reg_speedup, 1) << "x faster)\n\n";

  // --- Load: c concurrent clients, each issuing per_client requests. ---
  auto server = std::make_unique<serve::Server>(opt);
  server->start();
  {
    serve::Client c(opt.socket_path);
    const auto reg = c.register_matrix(a);
    require(reg.status.status == serve::ServeStatus::kOk,
            "registration failed: " + reg.status.detail);
    matrix_id = reg.matrix_id;
  }
  const auto x = bench::random_x(a.cols);

  std::vector<LoadPoint> points;
  for (int clients = 1; clients <= max_clients; clients *= 2) {
    std::vector<std::vector<double>> lat(
        static_cast<std::size_t>(clients));
    std::atomic<long> retries{0};
    std::atomic<long> failed{0};
    std::vector<std::thread> pool;
    Stopwatch sw;
    for (int t = 0; t < clients; ++t) {
      pool.emplace_back([&, t] {
        serve::Client c(opt.socket_path);
        serve::RequestOptions ropt;
        ropt.retries = 100;
        ropt.backoff_ms = 1;
        auto& mine = lat[static_cast<std::size_t>(t)];
        mine.reserve(static_cast<std::size_t>(per_client));
        for (long i = 0; i < per_client; ++i) {
          Stopwatch req;
          const auto r = c.spmv(matrix_id, x, ropt);
          if (r.ok()) {
            mine.push_back(req.elapsed_seconds() * 1e3);
          } else {
            failed.fetch_add(1);
          }
          retries.fetch_add(r.admission_attempts - 1);
        }
      });
    }
    for (auto& th : pool) th.join();
    const double seconds = sw.elapsed_seconds();
    require(failed.load() == 0, "load phase saw failed requests");

    LoadPoint p;
    p.clients = clients;
    std::vector<double> all;
    for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    p.requests = static_cast<long>(all.size());
    p.seconds = seconds;
    p.rps = seconds > 0 ? static_cast<double>(p.requests) / seconds : 0.0;
    p.p50_ms = percentile(all, 0.50);
    p.p99_ms = percentile(all, 0.99);
    p.admission_retries = retries.load();
    points.push_back(p);
  }
  server->stop();
  server.reset();
  std::error_code ec;
  fs::remove_all(root, ec);

  TablePrinter t({"Clients", "Requests", "req/s", "p50 ms", "p99 ms",
                  "Retries"});
  for (const auto& p : points) {
    t.add_row({std::to_string(p.clients), std::to_string(p.requests),
               TablePrinter::fmt(p.rps, 0), TablePrinter::fmt(p.p50_ms, 3),
               TablePrinter::fmt(p.p99_ms, 3),
               std::to_string(p.admission_retries)});
  }
  t.print();

  json::Writer w;
  w.begin_object();
  w.key("bench").value("serve");
  w.key("rows").value(static_cast<long long>(a.rows));
  w.key("nnz").value(static_cast<unsigned long long>(a.nnz()));
  w.key("requests_per_client").value(static_cast<long long>(per_client));
  w.key("registration").begin_object();
  w.key("cold_seconds").value(fin(cold_s));
  w.key("warm_seconds").value(fin(warm_s));
  w.key("warm_hit").value(warm_hit);
  w.key("warm_speedup").value(fin(reg_speedup));
  w.end_object();
  w.key("load").begin_array();
  for (const auto& p : points) {
    w.begin_object();
    w.key("clients").value(static_cast<long long>(p.clients));
    w.key("requests").value(static_cast<long long>(p.requests));
    w.key("seconds").value(fin(p.seconds));
    w.key("requests_per_s").value(fin(p.rps));
    w.key("p50_ms").value(fin(p.p50_ms));
    w.key("p99_ms").value(fin(p.p99_ms));
    w.key("admission_retries")
        .value(static_cast<long long>(p.admission_retries));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const std::string report = w.take();
  if (!json::valid(report)) {
    std::cerr << "bench_serve: generated JSON failed validation\n";
    return 1;
  }
  if (json_path != "-") {
    std::ofstream out(json_path);
    out << report << "\n";
    if (!out) {
      std::cerr << "bench_serve: cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
