// yaspmv-serve — the SpMV serving daemon.
//
//   yaspmv-serve --socket=/tmp/yaspmv.sock [--plan-cache=DIR]
//                [--device=gtx680|gtx480] [--executors=N]
//                [--queue-capacity=N] [--max-inflight=N]
//                [--drain-timeout-ms=N] [--verified] [--max-frame-bytes=N]
//                [--tune-workers=N] [--apply-threads=N] [--no-tune]
//                [--enable-inject]
//
// Runs until SIGTERM/SIGINT (or a client kShutdown request), then drains
// gracefully: admissions stop, queued work finishes under the drain
// watchdog, leftover requests are answered kShuttingDown, and the process
// exits 0.  Tuned plans persist in the plan cache, so a restarted daemon
// re-registers known matrices without re-tuning.
#include <csignal>
#include <iostream>

#include "yaspmv/serve/server.hpp"
#include "yaspmv/util/args.hpp"

namespace {

yaspmv::serve::Server* g_server = nullptr;

// Only the async-signal-safe request_stop() (an atomic store) runs here;
// the main thread blocked in wait() performs the actual drain.
void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int usage() {
  std::cerr
      << "usage: yaspmv-serve --socket=<path> [options]\n"
         "  --socket=<path>        Unix-domain socket to bind (required)\n"
         "  --plan-cache=<dir>     durable plan cache (default: "
         "~/.cache/yaspmv/plans)\n"
         "  --device=gtx680|gtx480 tuning target (default gtx680)\n"
         "  --executors=N          executor threads (0 = auto)\n"
         "  --queue-capacity=N     bounded per-matrix queue (default 64)\n"
         "  --max-inflight=N       global queued+running cap (0 = auto)\n"
         "  --drain-timeout-ms=N   graceful-drain watchdog (default 5000)\n"
         "  --verified             checksum-verify every request (ABFT; "
         "clients can also opt in per request)\n"
         "  --max-frame-bytes=N    reject frames above N payload bytes "
         "before allocating (0 = protocol max)\n"
         "  --tune-workers=N       tuner concurrency on a plan-cache miss\n"
         "  --apply-threads=N      native threads per apply (default 1:\n"
         "                         parallelism comes from concurrent "
         "executors)\n"
         "  --no-tune              skip tuning; serve the default config\n"
         "  --enable-inject        honor per-request fault-injection hooks\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace yaspmv;
  const Args args(argc, argv);
  serve::ServerOptions opt;
  opt.socket_path = args.get("socket");
  if (opt.socket_path.empty()) return usage();
  opt.plan_cache_dir = args.get("plan-cache");
  opt.device = args.get("device", "gtx680");
  opt.executors = static_cast<unsigned>(args.get_int("executors", 0));
  opt.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 64));
  opt.max_inflight = static_cast<std::size_t>(args.get_int("max-inflight", 0));
  opt.drain_timeout_ms =
      static_cast<int>(args.get_int("drain-timeout-ms", 5000));
  opt.verified = args.has("verified");
  opt.max_frame_bytes =
      static_cast<std::uint64_t>(args.get_int("max-frame-bytes", 0));
  opt.tune_workers = static_cast<unsigned>(args.get_int("tune-workers", 0));
  opt.apply_threads = static_cast<unsigned>(args.get_int("apply-threads", 1));
  opt.tune_on_register = !args.has("no-tune");
  opt.enable_inject = args.has("enable-inject");

  try {
    serve::Server server(opt);
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    server.start();
    std::cout << "yaspmv-serve: listening on " << opt.socket_path
              << " (plan cache: " << server.plan_cache().dir() << ", "
              << server.options().executors << " executors, max inflight "
              << server.options().max_inflight << ")" << std::endl;
    server.wait();
    const auto s = server.stats();
    std::cout << "yaspmv-serve: drained (" << s.completed << " completed, "
              << s.overloaded << " overloaded, " << s.faulted << " faulted, "
              << s.shed_on_drain << " shed on drain)" << std::endl;
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::cerr << "yaspmv-serve: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
