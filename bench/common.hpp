// Shared plumbing for the figure-reproduction harness: run the paper's
// competitor set plus QCR on a scenario, aggregate trials, and print the
// normalized-loss rows the evaluation section reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "impatience/core/experiment.hpp"
#include "impatience/engine/artifacts.hpp"
#include "impatience/engine/runner.hpp"
#include "impatience/engine/seeding.hpp"
#include "impatience/engine/thread_pool.hpp"
#include "impatience/fault/fault.hpp"
#include "impatience/stats/trials.hpp"
#include "impatience/util/csv.hpp"
#include "impatience/util/flags.hpp"
#include "impatience/util/table.hpp"
#include "impatience/utility/factory.hpp"

namespace impatience::bench {

/// Algorithms in the paper's plotting order.
inline const std::vector<std::string>& algorithm_order() {
  static const std::vector<std::string> order{"QCR", "SQRT", "PROP", "UNI",
                                              "DOM"};
  return order;
}

struct ComparisonPoint {
  double x = 0.0;               ///< swept parameter value
  double opt_utility = 0.0;     ///< mean observed utility of OPT
  /// algorithm -> mean observed utility across trials
  std::map<std::string, double> utility;
  /// algorithm -> normalized loss vs OPT in percent (the figures' y-axis)
  std::map<std::string, double> loss_percent;
};

struct ComparisonConfig {
  int trials = 5;
  core::OptMode opt_mode = core::OptMode::kHomogeneous;
  bool include_qcr = true;
  core::QcrOptions qcr{};
  /// Per-trial simulator options. When sim.faults is engaged, each job
  /// gets its own fault stream seed derived from the root seed and the
  /// job's (policy, trial) — thread-count invariant like the sim seeds.
  core::SimOptions sim{};
  int threads = 0;       ///< engine workers; <1 = hardware concurrency
  bool progress = false; ///< runner progress/ETA on stderr
  double job_deadline_seconds = 0.0;  ///< per-job watchdog; <= 0 = off
  int max_attempts = 1;               ///< attempts before quarantine
  /// Jobs a prior manifest completed are skipped (engine resume).
  const engine::ResumeSet* resume = nullptr;
  std::string label = "comparison";  ///< scenario label in jobs/manifest
};

/// Runs OPT + UNI/SQRT/PROP/DOM + QCR on the scenario, `trials` times
/// each, through the parallel experiment engine, and reports mean
/// observed utilities and normalized losses. Every (algorithm, trial)
/// simulation draws from its own child stream of `root_seed`
/// (engine::child_seed), so results do not depend on thread count,
/// scheduling, or which other competitors run. When `accumulate` is
/// given, the point's job records and samples are merged into it (for a
/// sweep-wide manifest).
ComparisonPoint run_comparison(const core::Scenario& scenario,
                               const utility::DelayUtility& u, double x,
                               const ComparisonConfig& config,
                               std::uint64_t root_seed,
                               engine::RunReport* accumulate = nullptr);

/// Prints a figure table: one row per swept value, one column per
/// algorithm (normalized loss vs OPT in percent), plus the OPT utility.
void print_loss_table(const std::string& title,
                      const std::string& param_name,
                      const std::vector<ComparisonPoint>& points,
                      std::ostream& out = std::cout);

/// Writes the same data as CSV when --csv-dir is given.
void maybe_write_csv(const util::Flags& flags, const std::string& filename,
                     const std::string& param_name,
                     const std::vector<ComparisonPoint>& points);

/// Writes the engine's JSON run manifest when --manifest-dir is given.
/// `config` is serialized verbatim as the manifest's config block.
void maybe_write_manifest(
    const util::Flags& flags, const std::string& filename,
    const engine::RunReport& report,
    std::vector<std::pair<std::string, std::string>> config = {});

/// Reads the standard engine flags (--threads, --progress, --job-deadline
/// duration ("90", "250ms", "5m"), --max-attempts, --kernel slot|event)
/// into a ComparisonConfig and announces the engine setup on stderr.
/// `--kernel event` selects the event-driven simulation kernel for every
/// job, fault-active ones included (crashes ride the jump loop via
/// geometric-skip draws); the default `slot` keeps harness stdout
/// byte-identical to previous releases.
void apply_engine_flags(const util::Flags& flags, ComparisonConfig& config,
                        std::uint64_t root_seed);

/// Reads --resume <manifest.json>: the completed jobs of a prior run,
/// to be skipped by the engine (their recorded values are replayed).
/// Returns std::nullopt when the flag is absent. Point
/// ComparisonConfig::resume at the returned object; its lifetime must
/// span every run_comparison call.
std::optional<engine::ResumeSet> load_resume_flag(const util::Flags& flags);

/// Reads the fault-injection flags (--fault-drop, --fault-truncate,
/// --fault-duplicate, --fault-reorder, --fault-crash, --fault-downtime,
/// --fault-persist, --fault-seed) into a FaultConfig. Returns true when
/// any fault is enabled.
bool apply_fault_flags(const util::Flags& flags, fault::FaultConfig& faults);

/// Standard banner so harness output is self-describing.
void banner(const std::string& id, const std::string& what,
            std::ostream& out = std::cout);

// ------------------------------------------------------------------ impl

inline ComparisonPoint run_comparison(const core::Scenario& scenario,
                                      const utility::DelayUtility& u,
                                      double x,
                                      const ComparisonConfig& config,
                                      std::uint64_t root_seed,
                                      engine::RunReport* accumulate) {
  // Placements first, serially. OPT and the rounded counts do not depend
  // on the trial, so one CompetitorPlan solves them once per call; each
  // trial then draws its placements from its own child stream, so the
  // competitor set is identical for every thread count. Timed into
  // RunReport::placement_seconds (the manifest's placement_wall_seconds).
  const auto placement_start = std::chrono::steady_clock::now();
  const core::CompetitorPlan plan(scenario, u, config.opt_mode);
  std::vector<std::vector<core::NamedPlacement>> placements;
  placements.reserve(static_cast<std::size_t>(config.trials));
  for (int trial = 0; trial < config.trials; ++trial) {
    util::Rng placement_rng(engine::child_seed(
        root_seed, "placement", static_cast<std::uint64_t>(trial)));
    placements.push_back(plan.draw(placement_rng));
  }
  const double placement_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    placement_start)
          .count();

  // One job per (algorithm, trial), each with its own child stream keyed
  // by the algorithm name — adding or removing a competitor leaves the
  // others' streams untouched.
  // The fault stream seed is keyed like the sim seed but on a disjoint
  // tag, so engaging faults never perturbs the simulation streams.
  auto fault_seed_for = [&](const std::string& policy, int trial) {
    return engine::child_seed(root_seed, "fault:" + policy,
                              static_cast<std::uint64_t>(trial));
  };

  std::vector<engine::JobSpec> jobs;
  for (int trial = 0; trial < config.trials; ++trial) {
    for (const auto& competitor : placements[static_cast<std::size_t>(trial)]) {
      engine::JobSpec job;
      job.scenario = config.label;
      job.policy = competitor.name;
      job.trial = trial;
      job.x = x;
      job.seed = engine::child_seed(root_seed, competitor.name,
                                    static_cast<std::uint64_t>(trial));
      const std::uint64_t fault_seed = fault_seed_for(competitor.name, trial);
      job.run_cancellable = [&scenario, &u, &config, &competitor, fault_seed](
                                util::Rng& rng,
                                const util::CancellationToken& cancel) {
        core::SimOptions sim = config.sim;
        if (sim.faults.engaged()) sim.faults.seed = fault_seed;
        sim.cancel = &cancel;
        return core::run_fixed(scenario, u, competitor.name,
                               competitor.placement, sim, rng)
            .observed_utility();
      };
      jobs.push_back(std::move(job));
    }
    if (config.include_qcr) {
      engine::JobSpec job;
      job.scenario = config.label;
      job.policy = config.qcr.mandate_routing ? "QCR" : "QCR-noMR";
      job.trial = trial;
      job.x = x;
      job.seed = engine::child_seed(root_seed, job.policy,
                                    static_cast<std::uint64_t>(trial));
      const std::uint64_t fault_seed = fault_seed_for(job.policy, trial);
      job.run_cancellable = [&scenario, &u, &config, fault_seed](
                                util::Rng& rng,
                                const util::CancellationToken& cancel) {
        core::SimOptions sim = config.sim;
        if (sim.faults.engaged()) sim.faults.seed = fault_seed;
        sim.cancel = &cancel;
        return core::run_qcr(scenario, u, config.qcr, sim, rng)
            .observed_utility();
      };
      jobs.push_back(std::move(job));
    }
  }

  engine::RunnerOptions runner_options;
  runner_options.threads = config.threads;
  runner_options.progress = config.progress;
  runner_options.job_deadline_seconds = config.job_deadline_seconds;
  runner_options.max_attempts = config.max_attempts;
  engine::Runner runner(runner_options);
  engine::RunReport report =
      runner.run(std::move(jobs), root_seed, config.resume);
  report.placement_seconds = placement_seconds;

  ComparisonPoint point;
  point.x = x;
  const auto series = report.aggregate.series_names();
  bool have_opt = false;
  for (const auto& name : series) {
    if (name == "OPT") {
      point.opt_utility = report.aggregate.band(name, x).mean;
      have_opt = true;
    }
  }
  if (!have_opt) {
    throw std::runtime_error("run_comparison: every OPT trial failed");
  }
  for (const auto& name : series) {
    if (name == "OPT") continue;
    const double mean = report.aggregate.band(name, x).mean;
    point.utility[name] = mean;
    point.loss_percent[name] =
        core::normalized_loss_percent(mean, point.opt_utility);
  }
  if (accumulate) accumulate->merge(std::move(report));
  return point;
}

inline void print_loss_table(const std::string& title,
                             const std::string& param_name,
                             const std::vector<ComparisonPoint>& points,
                             std::ostream& out) {
  out << title << '\n';
  std::vector<std::string> header{param_name, "U(OPT)"};
  std::vector<std::string> algorithms;
  for (const auto& name : algorithm_order()) {
    if (!points.empty() && points.front().loss_percent.count(name)) {
      algorithms.push_back(name);
      header.push_back(name + " loss%");
    }
  }
  util::TablePrinter table(header);
  table.set_precision(4);
  for (const auto& p : points) {
    std::vector<std::string> cells;
    {
      std::ostringstream os;
      os.precision(5);
      os << p.x;
      cells.push_back(os.str());
    }
    {
      std::ostringstream os;
      os.precision(5);
      os << p.opt_utility;
      cells.push_back(os.str());
    }
    for (const auto& name : algorithms) {
      std::ostringstream os;
      os.precision(4);
      os << p.loss_percent.at(name);
      cells.push_back(os.str());
    }
    table.add_row(cells);
  }
  table.print(out);
}

inline void maybe_write_csv(const util::Flags& flags,
                            const std::string& filename,
                            const std::string& param_name,
                            const std::vector<ComparisonPoint>& points) {
  if (!flags.has("csv-dir")) return;
  const std::string path =
      flags.get_string("csv-dir", ".") + "/" + filename;
  util::CsvWriter csv(path);
  std::vector<std::string> header{param_name, "opt_utility"};
  for (const auto& name : algorithm_order()) header.push_back(name);
  csv.header(header);
  for (const auto& p : points) {
    std::vector<std::string> cells;
    cells.push_back(std::to_string(p.x));
    cells.push_back(std::to_string(p.opt_utility));
    for (const auto& name : algorithm_order()) {
      const auto it = p.loss_percent.find(name);
      cells.push_back(it == p.loss_percent.end() ? ""
                                                 : std::to_string(it->second));
    }
    csv.row_strings(cells);
  }
  std::cout << "[csv] wrote " << path << '\n';
}

inline void maybe_write_manifest(
    const util::Flags& flags, const std::string& filename,
    const engine::RunReport& report,
    std::vector<std::pair<std::string, std::string>> config) {
  if (!flags.has("manifest-dir")) return;
  const std::string path =
      flags.get_string("manifest-dir", ".") + "/" + filename;
  engine::ManifestInfo info;
  info.generator = flags.program();
  info.config = std::move(config);
  // The manifest is auxiliary: a write failure must not abort and take
  // the (buffered, already-computed) result tables down with it.
  try {
    engine::write_manifest_file(path, report, info);
    std::cout << "[manifest] wrote " << path << '\n';
  } catch (const std::exception& e) {
    std::cerr << "[manifest] WARNING: " << e.what() << '\n';
  }
}

inline void apply_engine_flags(const util::Flags& flags,
                               ComparisonConfig& config,
                               std::uint64_t root_seed) {
  config.threads = flags.get_int("threads", 0);
  config.progress = flags.get_bool("progress", false);
  // Duration-valued: "--job-deadline 90", "--job-deadline 5m", "250ms".
  config.job_deadline_seconds = flags.get_duration("job-deadline", 0.0);
  config.max_attempts = flags.get_int("max-attempts", 1);
  const std::string kernel = flags.get_string("kernel", "slot");
  if (kernel == "event") {
    config.sim.kernel = core::SimKernel::event_driven;
  } else if (kernel == "slot") {
    config.sim.kernel = core::SimKernel::slot_stepped;
  } else {
    throw std::invalid_argument("--kernel must be 'slot' or 'event', got '" +
                                kernel + "'");
  }
  // stderr, so tables on stdout stay byte-identical across thread counts.
  std::cerr << "[engine] threads="
            << engine::ThreadPool::resolve_threads(config.threads)
            << " root-seed=" << root_seed
            << " kernel=" << core::kernel_name(config.sim.kernel);
  if (config.job_deadline_seconds > 0.0) {
    std::cerr << " job-deadline=" << config.job_deadline_seconds << 's';
  }
  if (config.max_attempts > 1) {
    std::cerr << " max-attempts=" << config.max_attempts;
  }
  std::cerr << '\n';
}

inline std::optional<engine::ResumeSet> load_resume_flag(
    const util::Flags& flags) {
  if (!flags.has("resume")) return std::nullopt;
  const std::string path = flags.get_string("resume", "");
  auto set = engine::load_resume_set(path);
  std::cerr << "[engine] resume=" << path << " (" << set.size()
            << " completed jobs skipped)\n";
  return set;
}

inline bool apply_fault_flags(const util::Flags& flags,
                              fault::FaultConfig& faults) {
  faults.p_drop = flags.get_double("fault-drop", faults.p_drop);
  faults.p_truncate = flags.get_double("fault-truncate", faults.p_truncate);
  faults.p_duplicate = flags.get_double("fault-duplicate", faults.p_duplicate);
  faults.p_reorder = flags.get_double("fault-reorder", faults.p_reorder);
  faults.p_crash = flags.get_double("fault-crash", faults.p_crash);
  faults.mean_downtime =
      flags.get_double("fault-downtime", faults.mean_downtime);
  faults.p_persist_cache =
      flags.get_double("fault-persist", faults.p_persist_cache);
  faults.seed = static_cast<std::uint64_t>(
      flags.get_long("fault-seed", static_cast<long>(faults.seed)));
  return faults.any();
}

inline void banner(const std::string& id, const std::string& what,
                   std::ostream& out) {
  out << "\n=== " << id << ": " << what << " ===\n";
}

}  // namespace impatience::bench
