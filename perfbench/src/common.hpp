// Shared plumbing of the benchmark: clocks, order statistics, the result
// line, the span recorder of traced runs, and child-process helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (CLOCK_MONOTONIC: comparable across processes,
/// which is how a child reports when its set-up finished).
std::int64_t now_ns();
inline double to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// What one run prints as its last line.
class Result {
 public:
  void metric(const std::string& name, const std::string& unit,
              double value);
  /// Counts `n` attempted operations.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records a failed operation or output check (also fails `correct`).
  void fail(const std::string& what, std::uint64_t n = 1);
  /// Records an output check: counts it attempted, failed when !ok.
  void check(bool ok, const std::string& what);

  std::string json() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One busy interval (or a folded run of many) of a layer.
struct Accum {
  std::int64_t busy_ns = 0;
  std::uint64_t count = 0;
  std::int64_t first_ns = 0;
  std::int64_t last_ns = 0;

  void add(std::int64_t start, std::int64_t end) {
    if (count == 0) first_ns = start;
    last_ns = end;
    busy_ns += end - start;
    ++count;
  }
};

/// In-memory span recorder. A span is a layer interval with a parent;
/// calls made once per line or per job are folded into one span per layer
/// (busy time + call count) so tracing millions of lines stays cheap.
/// Spans marked concurrent ran on other threads: their busy time is not
/// subtracted from the parent's self time.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t busy_ns = 0;
    std::uint64_t count = 0;
    bool concurrent = false;
  };

  /// Opens a span now; returns its id.
  int open(const std::string& name, int parent);
  void close(int id);
  /// Adds a folded span.
  int fold(const std::string& name, int parent, const Accum& accum,
           bool concurrent = false);
  /// Thread-safe fold-in of one interval into span `id` (worker threads).
  void add_concurrent(int id, std::int64_t start, std::int64_t end);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  double busy_s(int id) const { return to_s(spans_.at(id).busy_ns); }
  /// Busy time minus the busy time of non-concurrent children.
  double self_s(int id) const;
  /// Summed busy time of every span named `name`.
  double busy_s(const std::string& name) const;
  /// Share of `root`'s wall covered by the self time of layer spans
  /// (named with a layer prefix, not concurrent) in its subtree.
  double coverage(int root) const;
  /// Prints the self-time table of `root`'s subtree.
  void print_self_times(int root, const std::string& title) const;
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::mutex mu_;  // guards add_concurrent
};

/// RAII span for one call into a layer.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, int parent)
      : tracer_(tracer), id_(tracer ? tracer->open(name, parent) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// A child process of the benchmark.
struct Child {
  int pid = -1;
  int stdout_fd = -1;  ///< read end of the child's stdout, when captured
  std::int64_t spawned_ns = 0;
};

/// Starts `argv` (argv[0] is the program path). With `capture_stdout`
/// the child's stdout is a pipe; otherwise stdout and stderr go to
/// `log_path` (appended).
Child spawn(const std::vector<std::string>& argv, bool capture_stdout,
            const std::string& log_path);
/// Reads the child's captured stdout to EOF.
std::string read_all(int fd);
/// Blocks until the child exits; returns its exit code, or -signal.
int wait_child(const Child& child);
/// SIGKILL + wait.
int kill_child(const Child& child);
/// Peak resident set (VmHWM) of a live process, 0 = this one; 0 when
/// unavailable (the process has exited).
double vm_hwm_mb(int pid);

/// CPU time the hypervisor gave to other guests (steal), and all CPU
/// time, from /proc/stat, in clock ticks summed over CPUs.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();
/// Share of CPU time stolen between two readings (0 when none elapsed).
double steal_share(const CpuTicks& from, const CpuTicks& to);
/// True while the child has not exited (reaps nothing).
bool child_alive(const Child& child);

/// Path of the running benchmark binary.
std::string self_exe();
std::string read_file(const std::string& path);
bool file_exists(const std::string& path);
/// FNV-1a, for result digests.
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = kFnvBasis);
std::uint64_t fnv1a_double(double v, std::uint64_t h);

std::string hex64(std::uint64_t v);

}  // namespace perfbench
