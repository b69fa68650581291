#include "common.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

// ------------------------------------------------------------- Result

void Result::metric(const std::string& name, const std::string& unit,
                    double value) {
  metrics_.push_back({name, unit, value});
}

void Result::fail(const std::string& what, std::uint64_t n) {
  correct_ = false;
  failed_ += n;
  std::cerr << "perfbench: FAILED: " << what << '\n';
}

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) fail(what);
}

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const Entry& m : metrics_) {
    out << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": ";
    if (std::isfinite(m.value)) {
      // Shortest round-trip form: every digit as measured, no padding.
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof(buf), m.value);
      out.write(buf, res.ptr - buf);
    } else {
      out << "null";
    }
    out << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ------------------------------------------------------------- Tracer

int Tracer::open(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = now_ns();
  span.count = 1;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_ns = now_ns();
  span.busy_ns = span.end_ns - span.start_ns;
}

int Tracer::fold(const std::string& name, int parent, const Accum& accum,
                 bool concurrent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = accum.first_ns;
  span.end_ns = accum.last_ns;
  span.busy_ns = accum.busy_ns;
  span.count = accum.count;
  span.concurrent = concurrent;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::add_concurrent(int id, std::int64_t start, std::int64_t end) {
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_.at(static_cast<std::size_t>(id));
  if (span.count == 0 || start < span.start_ns) span.start_ns = start;
  span.end_ns = std::max(span.end_ns, end);
  span.busy_ns += end - start;
  ++span.count;
}

double Tracer::self_s(int id) const {
  std::int64_t self = spans_.at(static_cast<std::size_t>(id)).busy_ns;
  for (const Span& s : spans_) {
    if (s.parent == id && !s.concurrent) self -= s.busy_ns;
  }
  return to_s(self);
}

double Tracer::busy_s(const std::string& name) const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.busy_ns;
  }
  return to_s(total);
}

namespace {

bool is_layer(const std::string& name) {
  for (const char* prefix :
       {"service.", "trace.", "core.", "alloc.", "engine.", "stats."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

bool in_subtree(const std::vector<Tracer::Span>& spans, int id, int root) {
  for (int at = id; at >= 0; at = spans[static_cast<std::size_t>(at)].parent) {
    if (at == root) return true;
  }
  return false;
}

}  // namespace

double Tracer::coverage(int root) const {
  double covered = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int id = static_cast<int>(i);
    if (id == root || spans_[i].concurrent || !is_layer(spans_[i].name)) {
      continue;
    }
    if (in_subtree(spans_, id, root)) covered += self_s(id);
  }
  const double wall = busy_s(root);
  return wall > 0.0 ? covered / wall : 0.0;
}

void Tracer::print_self_times(int root, const std::string& title) const {
  // Aggregate by name: a layer called once per point still prints once.
  struct Row {
    double self_s = 0.0;
    double busy_s = 0.0;
    std::uint64_t count = 0;
    bool concurrent = false;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int id = static_cast<int>(i);
    if (!in_subtree(spans_, id, root)) continue;
    Row& row = rows[spans_[i].name];
    row.self_s += spans_[i].concurrent ? 0.0 : self_s(id);
    row.busy_s += to_s(spans_[i].busy_ns);
    row.count += spans_[i].count;
    row.concurrent = row.concurrent || spans_[i].concurrent;
  }
  std::printf("# self time, %s (wall %.4f s, layer coverage %.4f)\n",
              title.c_str(), busy_s(root), coverage(root));
  for (const auto& [name, row] : rows) {
    std::printf("#   %-38s self %10.4f s  busy %10.4f s  calls %10llu%s\n",
                name.c_str(), row.self_s, row.busy_s,
                static_cast<unsigned long long>(row.count),
                row.concurrent ? "  (other thread)" : "");
  }
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"busy_ns\": " << s.busy_ns
        << ", \"count\": " << s.count << ", \"concurrent\": "
        << (s.concurrent ? "true" : "false") << "}\n";
  }
}

// ---------------------------------------------------------- processes

Child spawn(const std::vector<std::string>& argv, bool capture_stdout,
            const std::string& log_path) {
  int pipe_fds[2] = {-1, -1};
  if (capture_stdout && ::pipe(pipe_fds) != 0) {
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  }
  const int log_fd =
      log_path.empty()
          ? -1
          : ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  Child child;
  child.spawned_ns = now_ns();
  child.pid = ::fork();
  if (child.pid < 0) {
    throw std::runtime_error("fork: " + std::string(std::strerror(errno)));
  }
  if (child.pid == 0) {
    if (capture_stdout) {
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
    } else if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
    }
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    _exit(127);
  }
  if (log_fd >= 0) ::close(log_fd);
  if (capture_stdout) {
    ::close(pipe_fds[1]);
    child.stdout_fd = pipe_fds[0];
  }
  return child;
}

std::string read_all(int fd) {
  std::string out;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

int wait_child(const Child& child) {
  int status = 0;
  while (::waitpid(child.pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (child.stdout_fd >= 0) ::close(child.stdout_fd);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

int kill_child(const Child& child) {
  ::kill(child.pid, SIGKILL);
  return wait_child(child);
}

double vm_hwm_mb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 20, '\n');
  }
  return 0.0;
}

bool child_alive(const Child& child) {
  siginfo_t info{};
  if (::waitid(P_PID, static_cast<id_t>(child.pid), &info,
               WEXITED | WNOHANG | WNOWAIT) != 0) {
    return false;
  }
  return info.si_pid == 0;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // aggregate "cpu" line
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_double(double v, std::uint64_t h) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv1a(&bits, sizeof(bits), h);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
