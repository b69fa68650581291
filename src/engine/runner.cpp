#include "impatience/engine/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "impatience/engine/seeding.hpp"
#include "impatience/engine/thread_pool.hpp"
#include "impatience/engine/watchdog.hpp"
#include "impatience/util/backoff.hpp"

namespace impatience::engine {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kBackoffMaxSeconds = 1.0;
constexpr std::chrono::milliseconds kProgressInterval{1000};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Deterministic exponential backoff: base * 2^(attempt-1), capped, with
/// +/-50% jitter drawn from a (job seed, attempt) stream — reproducible,
/// yet decorrelated across the jobs of a batch. The delay computation is
/// the shared util::backoff_delay helper (the service-layer feeder uses
/// the same schedule); extracting it changed no engine schedule.
void backoff_sleep(const JobSpec& spec, int attempt,
                   const RunnerOptions& options) {
  const double delay = util::backoff_delay(
      {options.backoff_base_seconds, kBackoffMaxSeconds}, spec.seed, attempt);
  if (delay > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

JobResult execute(const JobSpec& spec, const RunnerOptions& options,
                  DeadlineWatchdog* watchdog) {
  JobResult result;
  const auto start = Clock::now();
  const int max_attempts = std::max(1, options.max_attempts);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) backoff_sleep(spec, attempt - 1, options);
    result.attempts = attempt;

    util::CancellationToken token;
    std::size_t slot = 0;
    if (watchdog) slot = watchdog->arm(&token);

    bool ok = false;
    double value = 0.0;
    try {
      // Reseeded per attempt: a retried success returns the exact value a
      // first-try success would have.
      util::Rng rng(spec.seed);
      value = spec.run_cancellable ? spec.run_cancellable(rng, token)
                                   : spec.run(rng);
      ok = true;
    } catch (const std::exception& e) {
      result.error = e.what();
      result.error_kind = classify_exception(e);
    } catch (...) {
      result.error = "unknown exception";
      result.error_kind = ErrorKind::job_exception;
    }
    if (watchdog) watchdog->disarm(slot);

    if (ok && token.cancelled()) {
      // The cancellation fired while the attempt limped home: honor it
      // anyway, with the token's reason deciding the kind (deadline ->
      // timeout, graceful service-mode stop -> shutdown).
      ok = false;
      result.error_kind = error_kind_from_cancel(token.reason());
      result.error = result.error_kind == ErrorKind::shutdown
                         ? "job cancelled by shutdown"
                         : "job deadline exceeded";
    }
    if (ok) {
      result.ok = true;
      result.value = value;
      result.error.clear();
      result.error_kind = ErrorKind::none;
      break;
    }
  }
  result.quarantined = !result.ok;
  result.wall_seconds = seconds_since(start);
  return result;
}

}  // namespace

void RunReport::merge(RunReport&& other) {
  if (jobs.empty()) {
    root_seed = other.root_seed;
    threads = other.threads;
  }
  wall_seconds += other.wall_seconds;
  placement_seconds += other.placement_seconds;
  failed += other.failed;
  quarantined += other.quarantined;
  resumed += other.resumed;
  jobs.insert(jobs.end(), std::make_move_iterator(other.jobs.begin()),
              std::make_move_iterator(other.jobs.end()));
  aggregate.merge(other.aggregate);
}

Runner::Runner(RunnerOptions options)
    : options_(options),
      threads_(ThreadPool::resolve_threads(options.threads)) {}

RunReport Runner::run(std::vector<JobSpec> jobs, std::uint64_t root_seed,
                      const ResumeSet* resume) const {
  RunReport report;
  report.root_seed = root_seed;
  report.threads = static_cast<int>(threads_);

  const std::size_t n = jobs.size();
  std::vector<JobResult> results(n);
  std::atomic<std::size_t> done{0};
  const auto start = Clock::now();

  // Jobs a prior manifest already completed replay their recorded value
  // without executing (determinism makes both identical).
  std::vector<char> skip(n, 0);
  if (resume && !resume->empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (const double* value = resume->find(jobs[i])) {
        results[i].ok = true;
        results[i].value = *value;
        results[i].resumed = true;
        skip[i] = 1;
      }
    }
  }

  std::unique_ptr<DeadlineWatchdog> watchdog;
  if (options_.job_deadline_seconds > 0.0) {
    watchdog = std::make_unique<DeadlineWatchdog>(
        options_.job_deadline_seconds);
  }

  {
    ThreadPool pool(threads_);
    for (std::size_t i = 0; i < n; ++i) {
      if (skip[i]) {
        done.fetch_add(1, std::memory_order_release);
        continue;
      }
      pool.submit([&, i] {
        results[i] = execute(jobs[i], options_, watchdog.get());
        done.fetch_add(1, std::memory_order_release);
      });
    }
    if (options_.progress) {
      while (!pool.wait_idle_for(kProgressInterval)) {
        const std::size_t d = done.load(std::memory_order_acquire);
        const double elapsed = seconds_since(start);
        const double eta =
            d > 0 ? elapsed * static_cast<double>(n - d) /
                        static_cast<double>(d)
                  : 0.0;
        std::fprintf(stderr,
                     "[engine] %zu/%zu jobs done, elapsed %.1fs, eta %.1fs\n",
                     d, n, elapsed, eta);
      }
    }
    pool.wait_idle();
  }  // pool joins here; every result slot is written
  watchdog.reset();

  report.wall_seconds = seconds_since(start);

  // Merge-on-join: single-threaded from here, in submission order, so the
  // aggregate (and therefore every band) is independent of scheduling.
  report.jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    JobSpec& spec = jobs[i];
    JobResult& result = results[i];
    if (result.ok) {
      report.aggregate.add(spec.policy, spec.x, result.value);
      if (result.resumed) ++report.resumed;
    } else {
      ++report.failed;
      if (result.quarantined) ++report.quarantined;
      std::fprintf(
          stderr,
          "[engine] job failed: %s/%s trial %d (x=%g) after %d attempt%s "
          "[%s]: %s\n",
          spec.scenario.c_str(), spec.policy.c_str(), spec.trial, spec.x,
          result.attempts, result.attempts == 1 ? "" : "s",
          to_string(result.error_kind), result.error.c_str());
    }
    report.jobs.push_back(JobRecord{std::move(spec.scenario),
                                    std::move(spec.policy), spec.trial,
                                    spec.x, spec.seed, std::move(result)});
  }
  if (options_.progress) {
    std::fprintf(
        stderr,
        "[engine] %zu jobs (%zu failed, %zu quarantined, %zu resumed) on "
        "%u threads in %.2fs\n",
        n, report.failed, report.quarantined, report.resumed, threads_,
        report.wall_seconds);
  }
  return report;
}

}  // namespace impatience::engine
