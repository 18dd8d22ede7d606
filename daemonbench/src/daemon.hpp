// The yaspmv-serve child process: launch, readiness, peak RSS, shutdown.
//
// One daemon runs at a time.  Its pid sits in a global so the signal
// handlers (SIGTERM/SIGINT from whoever runs the benchmark, SIGALRM from
// the benchmark's own watchdog) can SIGTERM and reap it before the load
// generator exits, and the child asks the kernel for SIGTERM should the
// load generator die without running them (PR_SET_PDEATHSIG).  No exit
// path leaves an orphan daemon holding a vCPU.
#pragma once

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace daemonbench {

using Clock = std::chrono::steady_clock;

inline std::atomic<pid_t> g_daemon_pid{0};

/// Async-signal-safe: SIGTERM the live daemon, reap it, exit.
inline void stop_daemon_and_exit(int sig) {
  const pid_t pid = g_daemon_pid.load();
  if (pid > 0) {
    ::kill(pid, SIGTERM);
    ::waitpid(pid, nullptr, 0);
  }
  ::_exit(128 + sig);
}

inline void install_exit_handlers(unsigned watchdog_seconds) {
  struct sigaction sa {};
  sa.sa_handler = stop_daemon_and_exit;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGALRM, &sa, nullptr);
  ::alarm(watchdog_seconds);
}

class Daemon {
 public:
  /// Forks and execs `bin args...` with stdout on a pipe (stderr is
  /// inherited).  The launch instant is taken before the fork, so setup
  /// time covers process creation too.
  Daemon(const std::string& bin, const std::vector<std::string>& args)
      : launched_(Clock::now()) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    }
    const pid_t parent = ::getpid();
    std::vector<std::string> argv_s{bin};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) ::_exit(126);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    pid_ = pid;
    g_daemon_pid.store(pid);
  }

  ~Daemon() {
    try {
      stop();
    } catch (...) {
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Clock::time_point launched() const { return launched_; }

  /// Blocks until the daemon prints its "listening on" line: the socket is
  /// bound and accepting.  Throws if the daemon exits or stays silent.
  void wait_ready(double timeout_s) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    while (stdout_.find("listening on") == std::string::npos) {
      if (!read_stdout(deadline)) {
        throw std::runtime_error("daemon exited or timed out before "
                                 "listening; stdout: " + stdout_);
      }
    }
  }

  /// The daemon's peak resident set (VmHWM), in kB.
  long peak_rss_kb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
    }
    throw std::runtime_error("VmHWM missing from /proc/<pid>/status");
  }

  /// The daemon's {minor, major} page faults so far (/proc/<pid>/stat).
  std::pair<long, long> page_faults() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string line;
    std::getline(in, line);
    // Fields after the parenthesised command name: state is field 3,
    // minflt field 10, majflt field 12.
    std::istringstream rest(line.substr(line.rfind(')') + 2));
    std::vector<std::string> f;
    for (std::string tok; rest >> tok;) f.push_back(tok);
    if (f.size() < 10) throw std::runtime_error("short /proc/<pid>/stat");
    return {std::stol(f[7]), std::stol(f[9])};
  }

  /// SIGTERM, drain stdout to EOF, reap (SIGKILL after 10 s).  Returns the
  /// wait status; idempotent.
  int stop() {
    if (pid_ <= 0) return status_;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (read_stdout(deadline)) {
    }
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status_, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) break;
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status_, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    g_daemon_pid.store(0);
    pid_ = 0;
    ::close(out_fd_);
    out_fd_ = -1;
    return status_;
  }

  /// True when the daemon drained and exited 0.
  static bool clean_exit(int status) {
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  /// Appends whatever the daemon printed; false on EOF or deadline.
  bool read_stdout(Clock::time_point deadline) {
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return false;
      pollfd p{out_fd_, POLLIN, 0};
      const int n = ::poll(&p, 1, static_cast<int>(left.count()));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      char buf[512];
      const ssize_t got = ::read(out_fd_, buf, sizeof buf);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      stdout_.append(buf, static_cast<std::size_t>(got));
      return true;
    }
  }

  Clock::time_point launched_;
  pid_t pid_ = 0;
  int out_fd_ = -1;
  int status_ = 0;
  std::string stdout_;
};

}  // namespace daemonbench
