// In-process re-enactment for the traced run: each layer's public function
// is called on the same inputs and the same plan the daemon serves with,
// inside a span.  Nothing here reaches into the daemon; the plan is read
// back from the run's own plan cache, the solve operator is built the way
// the daemon's run_solve builds it.
//
// Span names (the per-layer metrics are medians over them):
//   reenact.request   one re-enacted request; its children are the work
//                     the daemon does for it (frame I/O plus the apply or
//                     solve), so their union is what the layers explain
//   reenact.parts     the same request's apply split into its layers
//   serve.frame       write_frame + read_frame of the request and the
//                     reply over a socketpair
//   core.resilient    ResilientEngine::run (verified for client 0)
//   sim.launch        SpmvEngine::run of the fast-path rung alone
//   core.verify       verify_apply on that output
//   cpu.spmv          CpuSpmv::spmv at the daemon's apply threads
//   cpu.stream        CpuStreamSpmv::spmv over a mapped container
//   solvers.solve     solver::cg; its children are the operator applies
//   probe, tune.sweep, core.build, io.map_open, solvers.apply
//                     once-per-run calls: the tuner as the daemon runs it
//                     on a cache miss, the plan's format build, the mapped
//                     open, and layers this workload's daemon does not
//                     call, timed on this workload's matrix as controls
#pragma once

#include <atomic>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "trace.hpp"
#include "workload.hpp"
#include "yaspmv/core/bccoo.hpp"
#include "yaspmv/core/checksum.hpp"
#include "yaspmv/core/engine.hpp"
#include "yaspmv/core/resilient.hpp"
#include "yaspmv/cpu/spmv.hpp"
#include "yaspmv/cpu/stream_spmv.hpp"
#include "yaspmv/io/binary.hpp"
#include "yaspmv/io/plan_io.hpp"
#include "yaspmv/io/stream.hpp"
#include "yaspmv/serve/plan_cache.hpp"
#include "yaspmv/serve/protocol.hpp"
#include "yaspmv/solvers/solvers.hpp"
#include "yaspmv/tune/tuner.hpp"

namespace daemonbench {

namespace ys = yaspmv;
using ys::real_t;

// --- payloads laid out exactly as serve::Client and the server write them --

inline std::vector<std::uint8_t> spmv_request(std::uint64_t id, bool verified,
                                              const std::vector<real_t>& x) {
  ys::serve::WireWriter w;
  w.put<std::uint64_t>(id);
  w.put<std::uint32_t>(0);  // deadline
  w.put<std::uint8_t>(0);   // inject
  w.put<std::uint32_t>(0);  // inject arg
  w.put<std::uint8_t>(verified ? 1 : 0);
  w.put_vec(x);
  return w.take();
}

inline std::vector<std::uint8_t> spmv_reply(const std::string& path,
                                            bool verified,
                                            const std::vector<real_t>& y) {
  ys::serve::WireWriter w;
  ys::serve::put_reply_status(w, {ys::serve::ServeStatus::kOk, ys::Status::kOk,
                                  ""});
  w.put<std::uint32_t>(1);  // attempts
  w.put<std::uint32_t>(0);  // ladder step
  w.put<std::uint8_t>(0);   // recovered
  w.put<std::uint8_t>(verified ? 1 : 0);
  w.put_string(path);
  w.put<std::uint32_t>(0);  // faults
  w.put_vec(y);
  return w.take();
}

inline std::vector<std::uint8_t> solve_request(std::uint64_t id,
                                               const std::vector<real_t>& b) {
  ys::serve::WireWriter w;
  w.put<std::uint64_t>(id);
  w.put<std::uint32_t>(0);
  w.put<std::uint8_t>(0);
  w.put<std::uint32_t>(0);
  w.put<std::uint8_t>(0);
  w.put<std::uint8_t>(1);  // cg
  w.put<double>(kSolveTol);
  w.put<std::uint32_t>(kSolveMaxIters);
  w.put_vec(b);
  return w.take();
}

inline std::vector<std::uint8_t> solve_reply(const std::vector<real_t>& x) {
  ys::serve::WireWriter w;
  ys::serve::put_reply_status(w, {ys::serve::ServeStatus::kOk, ys::Status::kOk,
                                  ""});
  w.put<std::uint32_t>(0);  // iterations
  w.put<std::uint8_t>(1);   // converged
  w.put<double>(0.0);       // residual
  w.put<std::uint8_t>(0);   // verified
  w.put<std::uint32_t>(0);  // integrity faults
  w.put<std::uint32_t>(0);  // rollbacks
  w.put_vec(x);
  return w.take();
}

/// Frame bytes on the wire for one payload: 16-byte header, payload,
/// 8-byte checksum.
inline std::uint64_t frame_bytes(const std::vector<std::uint8_t>& payload) {
  return 24 + payload.size();
}

/// A socketpair with a peer thread that answers every frame with a fixed
/// reply: one roundtrip is the client's write + the server's read of the
/// request, then the server's write + the client's read of the reply.
class FrameEcho {
 public:
  FrameEcho() {
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fd_) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    peer_ = std::thread([this] {
      try {
        ys::serve::Frame f;
        while (ys::serve::read_frame(fd_[1], f)) {
          ys::serve::write_frame(fd_[1], f.type, *reply_.load());
        }
      } catch (const std::exception&) {
        // Hand the failure to roundtrip() as an end of stream instead of
        // leaving it blocked on a reply that will never come.
        ::shutdown(fd_[1], SHUT_RDWR);
      }
    });
  }
  ~FrameEcho() {
    ::shutdown(fd_[0], SHUT_WR);
    peer_.join();
    ::close(fd_[0]);
    ::close(fd_[1]);
  }
  FrameEcho(const FrameEcho&) = delete;
  FrameEcho& operator=(const FrameEcho&) = delete;

  void roundtrip(ys::serve::MsgType type,
                 const std::vector<std::uint8_t>& request,
                 const std::vector<std::uint8_t>& reply) {
    reply_.store(&reply);
    ys::serve::write_frame(fd_[0], type, request);
    ys::serve::Frame f;
    if (!ys::serve::read_frame(fd_[0], f) || f.payload.size() != reply.size()) {
      throw std::runtime_error("frame echo: short reply");
    }
  }

 private:
  int fd_[2] = {-1, -1};
  std::atomic<const std::vector<std::uint8_t>*> reply_{nullptr};
  std::thread peer_;
};

/// Operator adapter that records a span around every apply.
template <class Op>
struct TimedOp {
  Op& op;
  Tracer& tr;
  const char* name;
  std::int64_t parent, req;
  ys::index_t rows() const { return op.rows(); }
  ys::index_t cols() const { return op.cols(); }
  unsigned threads() const { return op.threads(); }
  void apply(std::span<const real_t> x, std::span<real_t> y) {
    tr.time(name, req, parent, [&] { op.apply(x, y); });
  }
};

/// Counts recorded at the same boundaries as the spans.
struct Counts {
  std::uint64_t frame_bytes = 0;      ///< request + reply frames, one op
  int tune_evaluated = 0, tune_skipped = 0;
  bool plan_matches_cache = false;    ///< re-run tuner agrees with the cache
  std::uint64_t apply_bytes = 0;      ///< Bccoo::traffic_bytes of cpu.spmv
  std::uint64_t format_bytes = 0;     ///< the plan's footprint_bytes
  std::uint64_t container_bytes = 0;  ///< size of the mapped container
  std::uint64_t stream_bytes = 0;     ///< streamed_bytes() per apply
  std::vector<long> solver_iterations;  ///< one per solvers.solve span
  /// A fixed set of solves (every pool right-hand side, or the control
  /// solve), so its median repeats exactly across runs of one seed.
  std::vector<long> iterations;
  std::vector<int> engine_attempts;   ///< re-enacted ResilientEngine runs
  long wrong = 0;  ///< re-enacted outputs that failed the oracle
};

class Reenactor {
 public:
  /// `ids[c]` is the matrix id client c's requests carry; `plan_cache_dir`
  /// is the live daemon's cache, written by its cold registration.
  Reenactor(const Workload& w, const Inputs& in,
            const std::vector<std::uint64_t>& ids,
            const std::string& plan_cache_dir, const std::string& run_dir,
            Tracer& tr)
      : w_(w), in_(in), run_dir_(run_dir), tr_(tr), dev_(ys::sim::gtx680()) {
    const ys::serve::PlanCache cache(plan_cache_dir);
    for (std::size_t c = 0; c < w.clients.size(); ++c) {
      Lane l;
      l.kind = w.clients[c];
      l.id = ids[c];
      const ys::fmt::Coo& a = in.matrix_of(c);
      l.y.resize(static_cast<std::size_t>(a.rows));
      l.y2 = l.y;
      // Registered by value: the daemon tuned it and stored the plan.
      const auto rec = cache.load(ys::io::payload_checksum(a), dev_.name);
      if (!rec) throw std::runtime_error("plan missing from the run's cache");
      l.plan = rec->best;
      if (l.kind != Kind::kSolve) {
        ys::core::ExecConfig ec = l.plan.exec;
        ec.workers = w.apply_threads;
        l.resilient = std::make_unique<ys::core::ResilientEngine>(
            a, l.plan.format, ec, dev_);
        l.fast = std::make_unique<ys::core::SpmvEngine>(a, l.plan.format, ec,
                                                        dev_);
        l.cpu = std::make_unique<ys::cpu::CpuSpmv>(
            std::make_shared<const ys::core::Bccoo>(
                ys::core::Bccoo::build(a, l.plan.format)),
            w.apply_threads);
        // Pre-warm as the daemon's registration does: the first run builds
        // the fast-path rung's format.
        l.resilient->run(std::vector<real_t>(static_cast<std::size_t>(a.cols)),
                         l.y);
      } else {
        l.op = std::make_unique<ys::solver::CpuOperator>(
            a, ys::core::FormatConfig{}, w.apply_threads);
      }
      lanes_.push_back(std::move(l));
    }
    const Lane& l0 = lanes_[0];
    if (l0.cpu) {
      counts.apply_bytes = l0.cpu->format().traffic_bytes(l0.cpu->col_stream());
    } else {
      counts.apply_bytes =
          ys::core::Bccoo::build(in.mats[0], ys::core::FormatConfig{})
              .traffic_bytes(l0.op->col_stream());
    }
  }

  Counts counts;

  /// Re-enacts client c's k-th request under request id `req`.
  void request(std::size_t c, std::size_t k, std::int64_t req) {
    Lane& l = lanes_[c];
    if (l.kind == Kind::kSolve) {
      solve_request_tree(l, k, req);
      return;
    }
    const SpmvOracle& o = in_.oracle_of(c);
    const std::vector<real_t>& x = o.x(k);
    const bool verified = l.kind == Kind::kSpmvVerified;
    const auto rq = spmv_request(l.id, verified, x);
    // The reply names the rung that answered: the fast path's label.
    const auto rp = spmv_reply(l.resilient->ladder().front(), verified, l.y);
    counts.frame_bytes = frame_bytes(rq) + frame_bytes(rp);

    const std::int64_t root = tr_.open("reenact.request", req);
    tr_.time("serve.frame", req, root,
             [&] { echo_.roundtrip(ys::serve::MsgType::kSpmv, rq, rp); });
    ys::core::ResilientRun rr;
    tr_.time("core.resilient", req, root,
             [&] { rr = l.resilient->run(x, l.y, verified); });
    counts.engine_attempts.push_back(rr.attempts);
    tr_.close(root);
    tally(o.check(k, l.y));

    const std::int64_t parts = tr_.open("reenact.parts", req);
    tr_.time("sim.launch", req, parts, [&] { l.fast->run(x, l.y2); });
    if (verified) {
      ys::core::ChecksumReport rep;
      tr_.time("core.verify", req, parts, [&] {
        rep = ys::core::verify_apply(l.fast->format(), x, l.y2);
      });
      tally(rep.ok());
    }
    tally(o.check(k, l.y2));
    tr_.time("cpu.spmv", req, parts, [&] { l.cpu->spmv(x, l.y2); });
    tr_.close(parts);
    tally(o.check(k, l.y2));
  }

  /// Once per run, with the load paused: the tuner, the plan's format
  /// build, the mapped open, and the layers this workload's daemon does not
  /// call, on this workload's matrix.
  void probes() {
    const ys::fmt::Coo& m = in_.mats[0];
    Lane& l0 = lanes_[0];
    const std::int64_t probe = tr_.open("probe", -1);

    ys::tune::TuneOptions topt;  // as the daemon runs it on a cache miss
    topt.verify = false;
    topt.rank_threads = w_.apply_threads;
    ys::tune::TuneResult tuned;
    tr_.time("tune.sweep", -1, probe,
             [&] { tuned = ys::tune::tune(m, dev_, topt); });
    counts.tune_evaluated = tuned.evaluated;
    counts.tune_skipped = tuned.skipped;
    counts.plan_matches_cache = tuned.best.same_plan(l0.plan);
    const ys::tune::Candidate& plan = l0.plan;

    for (int i = 0; i < 3; ++i) {
      tr_.time("core.build", -1, probe,
               [&] { ys::core::Bccoo::build(m, plan.format); });
    }
    ys::core::ExecConfig ec = plan.exec;
    ec.workers = w_.apply_threads;
    ys::core::SpmvEngine fast(m, plan.format, ec, dev_);
    counts.format_bytes = fast.footprint_bytes();

    const auto probe_x = vector_pool(1, static_cast<std::size_t>(m.cols),
                                     0x9e0b)[0];
    std::vector<real_t> y(static_cast<std::size_t>(m.rows)), y2(y.size());
    if (!l0.resilient) {
      // The daemon built this engine at registration (or never): time its
      // parts on this matrix as a control.
      ys::core::ResilientEngine res(m, plan.format, ec, dev_);
      for (int i = 0; i < 4; ++i) {
        const bool verified = i % 2 == 0;
        ys::core::ResilientRun rr;
        tr_.time("core.resilient", -1, probe,
                 [&] { rr = res.run(probe_x, y, verified); });
        counts.engine_attempts.push_back(rr.attempts);
        tr_.time("sim.launch", -1, probe, [&] { fast.run(probe_x, y2); });
        ys::core::ChecksumReport rep;
        tr_.time("core.verify", -1, probe, [&] {
          rep = ys::core::verify_apply(fast.format(), probe_x, y2);
        });
        tally(rep.ok());
      }
    }

    // The streaming layer, on a container saved from the format cpu.spmv
    // runs on, as register-by-path maps it.
    const std::string path = run_dir_ + "/probe.bccoo";
    if (l0.cpu) {
      ys::io::save_bccoo_file(path, l0.cpu->format());
    } else {
      ys::io::save_bccoo_file(
          path, ys::core::Bccoo::build(m, ys::core::FormatConfig{}));
    }
    for (int i = 0; i < 3; ++i) {
      tr_.time("io.map_open", -1, probe,
               [&] { ys::io::MappedBccoo opened(path); });
    }
    counts.container_bytes = std::filesystem::file_size(path);
    ys::cpu::CpuStreamSpmv stream(
        std::make_shared<const ys::io::MappedBccoo>(path));
    counts.stream_bytes = stream.streamed_bytes();
    for (int i = 0; i < 5; ++i) {
      tr_.time("cpu.stream", -1, probe, [&] { stream.spmv(probe_x, y); });
    }

    if (l0.op) {
      for (std::size_t i = 0; i < in_.solve->pool(); ++i) {
        const auto x = solve_once(*l0.op, in_.solve->b(i), "cpu.spmv", probe, -1);
        counts.iterations.push_back(counts.solver_iterations.back());
        tally(in_.solve->check(i, x, kSolveTol));
      }
    } else {
      // The solver layer on an SPD matrix with this matrix's pattern.
      ys::solver::CpuOperator op(ys::gen::make_spd(m), ys::core::FormatConfig{},
                                 w_.apply_threads);
      solve_once(op, probe_x, "solvers.apply", probe, -1);
      counts.iterations.push_back(counts.solver_iterations.back());
    }
    tr_.close(probe);
  }

 private:
  struct Lane {
    Kind kind = Kind::kSpmvPlain;
    std::uint64_t id = 0;
    ys::tune::Candidate plan;
    std::unique_ptr<ys::core::ResilientEngine> resilient;
    std::unique_ptr<ys::core::SpmvEngine> fast;
    std::unique_ptr<ys::cpu::CpuSpmv> cpu;
    std::unique_ptr<ys::solver::CpuOperator> op;
    std::vector<real_t> y, y2;
  };

  void tally(bool ok) {
    if (!ok) ++counts.wrong;
  }

  /// solver::cg as the daemon's run_solve calls it, applies timed as
  /// children of a solvers.solve span.  Returns the solution.
  template <class Op>
  std::vector<real_t> solve_once(Op& op, const std::vector<real_t>& b,
                                 const char* apply_name, std::int64_t parent,
                                 std::int64_t req) {
    ys::solver::SolveOptions sopt;
    sopt.tolerance = kSolveTol;
    sopt.max_iterations = kSolveMaxIters;
    sopt.threads = w_.apply_threads;
    std::vector<real_t> x(b.size(), 0.0);
    const std::int64_t s = tr_.open("solvers.solve", req, parent);
    TimedOp<Op> timed{op, tr_, apply_name, s, req};
    const ys::solver::SolveReport rep = ys::solver::cg(timed, b, x, sopt);
    tr_.close(s);
    counts.solver_iterations.push_back(rep.iterations);
    tally(rep.converged);
    return x;
  }

  void solve_request_tree(Lane& l, std::size_t k, std::int64_t req) {
    const std::vector<real_t>& b = in_.solve->b(k);
    const auto rq = solve_request(l.id, b);
    const auto rp = solve_reply(b);
    counts.frame_bytes = frame_bytes(rq) + frame_bytes(rp);
    const std::int64_t root = tr_.open("reenact.request", req);
    tr_.time("serve.frame", req, root,
             [&] { echo_.roundtrip(ys::serve::MsgType::kSolve, rq, rp); });
    const auto x = solve_once(*l.op, b, "cpu.spmv", root, req);
    tr_.close(root);
    tally(in_.solve->check(k, x, kSolveTol));
  }

  const Workload& w_;
  const Inputs& in_;
  std::string run_dir_;
  Tracer& tr_;
  ys::sim::DeviceSpec dev_;
  std::vector<Lane> lanes_;
  FrameEcho echo_;
};

}  // namespace daemonbench
