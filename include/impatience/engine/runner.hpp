// The experiment runner: fans a batch of jobs out over a thread pool,
// isolates per-job failures, and merges outcomes deterministically.
//
// Determinism contract: each job's RNG is seeded from JobSpec::seed alone
// (reseeded on every retry attempt, so a retried success is bit-identical
// to a first-try success), results land in a pre-sized slot per job (no
// shared mutable state while running), and aggregation happens after the
// join, in submission order. Hence the report — including the
// TrialAggregator contents — is bit-identical for any thread count.
//
// Hardening (docs/robustness.md): a per-job deadline watchdog cancels
// overrunning jobs cooperatively, failed jobs retry with seeded
// exponential backoff, jobs that exhaust their attempts are quarantined,
// and a ResumeSet skips jobs a prior manifest already completed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "impatience/engine/job.hpp"
#include "impatience/engine/resume.hpp"
#include "impatience/stats/trials.hpp"

namespace impatience::engine {

struct RunnerOptions {
  /// Worker threads; values < 1 mean hardware concurrency.
  int threads = 0;
  /// Progress + ETA lines on stderr while jobs run, one per second.
  bool progress = false;
  /// Per-job wall-clock deadline (seconds); <= 0 disables the watchdog.
  /// On expiry the job's CancellationToken fires; cooperative closures
  /// unwind with util::CancelledError, recorded as ErrorKind::timeout.
  /// An attempt whose deadline fired counts as a timeout even if the
  /// closure limped home with a value.
  double job_deadline_seconds = 0.0;
  /// Attempts per job before quarantine; values < 1 mean 1 (no retry).
  int max_attempts = 1;
  /// Base delay of the seeded exponential backoff between attempts
  /// (seconds, doubled per retry, +/-50% deterministic jitter drawn from
  /// the job seed); <= 0 retries immediately. A single delay is capped
  /// at one second.
  double backoff_base_seconds = 0.01;
};

/// Everything a batch produced: per-job records in submission order plus
/// the (policy, x) -> outcome samples aggregate. Mergeable across batches
/// so a multi-point sweep can accumulate one report for its manifest.
struct RunReport {
  std::uint64_t root_seed = 0;  ///< as passed to Runner::run
  int threads = 1;              ///< resolved worker count
  double wall_seconds = 0.0;    ///< wall time of the whole batch
  /// Serial placement work a caller did before run() (the harness's
  /// competitor plan and draws); the Runner itself leaves it at 0.
  double placement_seconds = 0.0;
  std::size_t failed = 0;       ///< jobs that failed every attempt
  std::size_t quarantined = 0;  ///< jobs that exhausted max_attempts
  std::size_t resumed = 0;      ///< jobs recovered from a prior manifest
  std::vector<JobRecord> jobs;  ///< submission order
  /// Successful outcomes keyed by (policy, x); failed jobs are excluded.
  stats::TrialAggregator aggregate;

  /// Appends another batch (jobs, failures, samples, wall and placement
  /// time). An empty report adopts other's root seed and thread count;
  /// afterwards they stick — callers merge batches of one sweep, which
  /// share both.
  void merge(RunReport&& other);
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});

  /// Executes every job and returns the merged report. A job that throws
  /// is retried up to max_attempts, then recorded as failed/quarantined
  /// (with message + ErrorKind) while its siblings complete. `root_seed`
  /// is carried into the report/manifest only — job seeds must already be
  /// derived (engine::child_seed). When `resume` is given, jobs it
  /// contains are not executed: their recorded values are replayed into
  /// the report (marked resumed) so the manifest stays complete.
  RunReport run(std::vector<JobSpec> jobs, std::uint64_t root_seed = 0,
                const ResumeSet* resume = nullptr) const;

  int threads() const noexcept { return static_cast<int>(threads_); }

 private:
  RunnerOptions options_;
  unsigned threads_;
};

}  // namespace impatience::engine
