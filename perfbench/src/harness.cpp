// Harness workloads: the Fig. 5(b)(c) trace-driven comparison and the
// Fig. 4 mean-field sweep, through the same library calls as
// bench/fig5_infocom.cpp (bench::run_comparison) and
// `bench/fig4_homogeneous --eval mf`. Untraced runs execute each iteration
// in a child process (set-up time from spawn, peak RSS from the child's
// own VmHWM); traced runs execute in-process with a span around every
// call into a layer.
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench/common.hpp"
#include "impatience/core/experiment.hpp"
#include "impatience/core/mean_field.hpp"
#include "impatience/engine/artifacts.hpp"
#include "impatience/engine/resume.hpp"
#include "impatience/engine/runner.hpp"
#include "impatience/engine/seeding.hpp"
#include "impatience/trace/generators.hpp"
#include "impatience/utility/families.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace impatience;

// Fig. 5(b)(c): 50-node, 3-day Infocom-like trace and its memoryless
// twin, 50 Pareto(1) items, rho = 5, estimated OPT, 20 trials.
constexpr int kFig5Nodes = 50;
constexpr int kFig5Days = 3;
constexpr int kItems = 50;
constexpr int kRho = 5;
constexpr int kFig5Trials = 20;
constexpr double kTaus[] = {1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0};
// Fig. 4 `--eval mf`: N = 10^6, T = 5000, mu = 0.05.
constexpr double kPowerAlphas[] = {-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 0.9};
constexpr double kMfNodes = 1e6;
constexpr trace::Slot kMfHorizon = 5000;
constexpr double kMfMu = 0.05;

/// Set-up-only spawns per run, on top of one spawn per iteration.
constexpr int kFig5SetupProbes = 3;
constexpr int kFig4SetupProbes = 5;

struct Fig5Inputs {
  std::vector<core::Scenario> scenarios;  ///< actual, memoryless twin
  std::size_t contacts = 0;
};

Fig5Inputs fig5_setup(std::uint64_t seed, Tracer* tracer, int parent) {
  util::Rng rng(seed);
  trace::InfocomLikeParams params;
  params.num_nodes = kFig5Nodes;
  params.days = kFig5Days;
  std::optional<trace::ContactTrace> actual;
  std::optional<trace::ContactTrace> synthetic;
  {
    Scope scope(tracer, "trace.generate", parent);
    util::Rng gen_rng = rng.split();
    actual = trace::generate_infocom_like(params, gen_rng);
    util::Rng synth_rng = rng.split();
    synthetic = trace::memoryless_equivalent(*actual, synth_rng);
  }
  Fig5Inputs inputs;
  inputs.contacts = actual->size() + synthetic->size();
  const auto catalog = core::Catalog::pareto(kItems, 1.0, 1.0);
  Scope scope(tracer, "core.make_scenario", parent);
  inputs.scenarios.push_back(
      core::make_scenario(std::move(*actual), catalog, kRho));
  inputs.scenarios.push_back(
      core::make_scenario(std::move(*synthetic), catalog, kRho));
  return inputs;
}

/// Digest of one sweep point's row of the loss table.
std::uint64_t digest_point(const bench::ComparisonPoint& point,
                           std::uint64_t h) {
  h = fnv1a_double(point.x, h);
  h = fnv1a_double(point.opt_utility, h);
  for (const auto& [name, loss] : point.loss_percent) {
    h = fnv1a(name.data(), name.size(), h);
    h = fnv1a_double(loss, h);
  }
  return h;
}

bench::ComparisonConfig fig5_config(const std::string& label, int threads) {
  bench::ComparisonConfig config;
  config.trials = kFig5Trials;
  config.opt_mode = core::OptMode::kEstimated;
  config.threads = threads;
  config.label = label;
  return config;
}

const char* fig5_label(int panel) {
  return panel == 0 ? "fig5-actual" : "fig5-synth";
}

struct Fig5Result {
  std::uint64_t digest = kFnvBasis;
  std::vector<double> point_ms;  ///< evaluation start -> each point's result
  engine::RunReport report;      ///< every point's jobs, merged
};

/// Panels (b) and (c) exactly as bench/fig5_infocom.cpp runs them: one
/// bench::run_comparison per sweep point.
Fig5Result fig5_compare(const Fig5Inputs& inputs, std::uint64_t seed,
                        int threads, const engine::ResumeSet* resume) {
  Fig5Result out;
  const std::int64_t start = now_ns();
  for (int panel = 0; panel < 2; ++panel) {
    bench::ComparisonConfig config = fig5_config(fig5_label(panel), threads);
    config.resume = resume;
    std::uint64_t index = 0;
    for (double tau : kTaus) {
      const utility::StepUtility u(tau);
      const bench::ComparisonPoint point = bench::run_comparison(
          inputs.scenarios[static_cast<std::size_t>(panel)], u, tau, config,
          engine::child_seed(seed, config.label, index++), &out.report);
      out.digest = digest_point(point, out.digest);
      out.point_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
    }
  }
  out.report.root_seed = seed;
  return out;
}

// ------------------------------------------- traced copy of fig5_compare

/// Per-job record written by the job closure (one slot per job, so no
/// locking on the worker threads).
struct JobTiming {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t requests = 0;
  std::uint64_t fulfillments = 0;
  bool qcr = false;
};

struct Fig5Traced {
  std::uint64_t digest = kFnvBasis;
  std::size_t jobs = 0;
  std::size_t failed = 0;  ///< failed + quarantined
  std::size_t attempts = 0;
  int threads = 0;
  double runner_s = 0;
  double queue_wait_s = 0;  ///< summed over jobs
  double simulate_s = 0;    ///< summed job-closure time
  std::uint64_t requests = 0;
  std::uint64_t fulfillments = 0;
};

/// bench::run_comparison's steps, each its own span. run_comparison has
/// no hooks between its steps and its job closures are its own, so the
/// traced pass needs this copy to time build_competitors apart from the
/// Runner and each simulation inside its closure. The traced run checks
/// that the copy's digest equals run_comparison's.
void fig5_point(const core::Scenario& scenario, double tau,
                const std::string& label, std::uint64_t root_seed,
                Tracer& tracer, int parent, Fig5Traced& out) {
  const bench::ComparisonConfig config = fig5_config(label, 0);
  const utility::StepUtility u(tau);
  std::vector<std::vector<core::NamedPlacement>> placements;
  for (int trial = 0; trial < config.trials; ++trial) {
    util::Rng placement_rng(engine::child_seed(
        root_seed, "placement", static_cast<std::uint64_t>(trial)));
    Scope scope(&tracer, "alloc.competitors", parent);
    placements.push_back(core::build_competitors(scenario, u, config.opt_mode,
                                                 placement_rng));
  }

  std::vector<engine::JobSpec> jobs;
  for (int trial = 0; trial < config.trials; ++trial) {
    for (const auto& c : placements[static_cast<std::size_t>(trial)]) {
      engine::JobSpec job;
      job.scenario = label;
      job.policy = c.name;
      job.trial = trial;
      job.x = tau;
      job.seed = engine::child_seed(root_seed, c.name,
                                    static_cast<std::uint64_t>(trial));
      jobs.push_back(std::move(job));
    }
    engine::JobSpec job;
    job.scenario = label;
    job.policy = "QCR";
    job.trial = trial;
    job.x = tau;
    job.seed = engine::child_seed(root_seed, "QCR",
                                  static_cast<std::uint64_t>(trial));
    jobs.push_back(std::move(job));
  }
  std::vector<JobTiming> timing(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const int trial = jobs[j].trial;
    JobTiming* slot = &timing[j];
    if (jobs[j].policy == "QCR") {
      slot->qcr = true;
      jobs[j].run_cancellable = [&scenario, &u, slot](
                                    util::Rng& rng,
                                    const util::CancellationToken& cancel) {
        core::SimOptions sim;
        sim.cancel = &cancel;
        slot->start_ns = now_ns();
        const auto r = core::run_qcr(scenario, u, core::QcrOptions{}, sim, rng);
        slot->end_ns = now_ns();
        slot->requests = r.requests_created;
        slot->fulfillments = r.fulfillments + r.immediate_fulfillments;
        return r.observed_utility();
      };
    } else {
      const core::NamedPlacement* c = nullptr;
      for (const auto& p : placements[static_cast<std::size_t>(trial)]) {
        if (p.name == jobs[j].policy) c = &p;
      }
      jobs[j].run_cancellable = [&scenario, &u, c, slot](
                                    util::Rng& rng,
                                    const util::CancellationToken& cancel) {
        core::SimOptions sim;
        sim.cancel = &cancel;
        slot->start_ns = now_ns();
        const auto r =
            core::run_fixed(scenario, u, c->name, c->placement, sim, rng);
        slot->end_ns = now_ns();
        slot->requests = r.requests_created;
        slot->fulfillments = r.fulfillments + r.immediate_fulfillments;
        return r.observed_utility();
      };
    }
  }

  engine::RunnerOptions options;
  options.threads = config.threads;
  const engine::Runner runner(options);
  out.threads = runner.threads();
  engine::RunReport report;
  const std::int64_t r0 = now_ns();
  {
    Scope scope(&tracer, "engine.runner", parent);
    report = runner.run(std::move(jobs), root_seed, nullptr);
    const int sim = tracer.fold("core.simulate", scope.id(), Accum{}, true);
    const int qcr = tracer.fold("core.simulate_qcr", scope.id(), Accum{}, true);
    for (const JobTiming& t : timing) {
      tracer.add_concurrent(t.qcr ? qcr : sim, t.start_ns, t.end_ns);
    }
  }
  out.runner_s += to_s(now_ns() - r0);
  for (const JobTiming& t : timing) {
    out.queue_wait_s += to_s(t.start_ns - r0);
    out.simulate_s += to_s(t.end_ns - t.start_ns);
    out.requests += t.requests;
    out.fulfillments += t.fulfillments;
  }

  // Aggregation: run_comparison's reduction of the report.
  Scope scope(&tracer, "stats.aggregate", parent);
  bench::ComparisonPoint point;
  point.x = tau;
  point.opt_utility = std::nan("");
  for (const auto& name : report.aggregate.series_names()) {
    if (name == "OPT") point.opt_utility = report.aggregate.band(name, tau).mean;
  }
  for (const auto& name : report.aggregate.series_names()) {
    if (name == "OPT") continue;
    const double mean = report.aggregate.band(name, tau).mean;
    point.utility[name] = mean;
    point.loss_percent[name] =
        core::normalized_loss_percent(mean, point.opt_utility);
  }
  out.digest = digest_point(point, out.digest);
  out.jobs += report.jobs.size();
  out.failed += report.failed + report.quarantined;
  for (const auto& job : report.jobs) {
    out.attempts += static_cast<std::size_t>(job.result.attempts);
  }
}

Fig5Traced fig5_traced(const Fig5Inputs& inputs, std::uint64_t seed,
                       Tracer& tracer, int parent) {
  Fig5Traced out;
  for (int panel = 0; panel < 2; ++panel) {
    std::uint64_t index = 0;
    for (double tau : kTaus) {
      fig5_point(inputs.scenarios[static_cast<std::size_t>(panel)], tau,
                 fig5_label(panel),
                 engine::child_seed(seed, fig5_label(panel), index++), tracer,
                 parent, out);
    }
  }
  return out;
}

struct Fig4Outcome {
  std::uint64_t digest = kFnvBasis;
  std::int64_t start_ns = 0;      ///< evaluation start: results due
  std::vector<double> point_ms;  ///< start -> each sweep point's result
  bool finite = true;
  bool opt_dominates = true;
  long qcr_steps = 0;
  long qcr_rejected = 0;
};

core::MeanFieldModel fig4_model() {
  core::MeanFieldModel model;
  model.mu = kMfMu;
  model.num_nodes = kMfNodes;
  model.horizon = kMfHorizon;
  return model;
}

void fig4_point(const std::vector<double>& demand,
                const utility::DelayUtility& u, double x, Tracer* tracer,
                int parent, Fig4Outcome& out) {
  const core::MeanFieldModel model = fig4_model();
  std::vector<core::NamedCounts> competitors;
  {
    Scope scope(tracer, "core.mean_field.competitors", parent);
    competitors = core::mean_field_competitors(demand, u, model, kRho);
  }
  double opt = std::nan("");
  std::map<std::string, double> welfare;
  for (const auto& [name, counts] : competitors) {
    Scope scope(tracer, "core.mean_field.welfare", parent);
    const double w = core::mean_field_welfare(counts, demand, u, model);
    if (name == "OPT") {
      opt = w;
    } else {
      welfare[name] = w;
    }
  }
  {
    Scope scope(tracer, "core.mean_field.qcr", parent);
    const auto qcr = core::mean_field_qcr(demand, u, model, kRho);
    welfare["QCR"] = qcr.mean_welfare_rate;
    out.qcr_steps += qcr.steps;
    out.qcr_rejected += qcr.rejected_steps;
  }
  out.finite = out.finite && std::isfinite(opt);
  out.digest = fnv1a_double(x, out.digest);
  out.digest = fnv1a_double(opt, out.digest);
  const double slack = 1e-9 * std::abs(opt);
  for (const auto& [name, w] : welfare) {
    const double loss = core::normalized_loss_percent(w, opt);
    out.finite = out.finite && std::isfinite(w) && std::isfinite(loss);
    out.opt_dominates = out.opt_dominates && opt + slack >= w;
    out.digest = fnv1a(name.data(), name.size(), out.digest);
    out.digest = fnv1a_double(loss, out.digest);
  }
  out.point_ms.push_back(static_cast<double>(now_ns() - out.start_ns) * 1e-6);
}

Fig4Outcome fig4_evaluate(const std::vector<double>& demand, Tracer* tracer,
                          int parent) {
  Fig4Outcome out;
  out.start_ns = now_ns();
  for (double alpha : kPowerAlphas) {
    fig4_point(demand, utility::PowerUtility(alpha), alpha, tracer, parent,
               out);
  }
  for (double tau : kTaus) {
    fig4_point(demand, utility::StepUtility(tau), tau, tracer, parent, out);
  }
  return out;
}

// --------------------------------------------------- child protocol

/// One "key value..." line per field on the child's stdout.
using ChildReport = std::map<std::string, std::vector<std::string>>;

ChildReport parse_report(const std::string& text) {
  ChildReport report;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string key;
    if (!(words >> key)) continue;
    auto& values = report[key];
    std::string value;
    while (words >> value) values.push_back(value);
  }
  return report;
}

double report_number(const ChildReport& report, const std::string& key) {
  const auto it = report.find(key);
  if (it == report.end() || it->second.empty()) {
    throw std::runtime_error("harness child did not report " + key);
  }
  return std::stod(it->second.front());
}

std::string report_string(const ChildReport& report, const std::string& key) {
  const auto it = report.find(key);
  return it == report.end() || it->second.empty() ? "" : it->second.front();
}

std::vector<double> report_list(const ChildReport& report,
                                const std::string& key) {
  std::vector<double> values;
  const auto it = report.find(key);
  if (it == report.end()) return values;
  for (const std::string& v : it->second) values.push_back(std::stod(v));
  return values;
}

void print_list(const char* key, const std::vector<double>& values) {
  std::printf("%s", key);
  for (double v : values) std::printf(" %.6f", v);
  std::printf("\n");
}

/// A finished child: its report plus what the parent measured.
struct ChildRun {
  ChildReport report;
  double setup_s = 0;   ///< spawn -> inputs built
  double result_s = 0;  ///< spawn -> loss tables complete
};

ChildRun run_child(const RunOptions& options, int threads, bool setup_only,
                   const std::string& manifest, const std::string& resume) {
  std::vector<std::string> argv{self_exe(), "--child", options.workload,
                                "--seed", std::to_string(options.seed),
                                "--threads", std::to_string(threads)};
  if (setup_only) argv.push_back("--setup-only");
  if (!manifest.empty()) argv.insert(argv.end(), {"--manifest", manifest});
  if (!resume.empty()) argv.insert(argv.end(), {"--resume", resume});
  const Child child = spawn(argv, true, "harness.log");
  ChildRun run;
  run.report = parse_report(read_all(child.stdout_fd));
  const int status = wait_child(child);
  if (status != 0) {
    throw std::runtime_error("harness child exited with status " +
                             std::to_string(status) +
                             " (see harness.log)");
  }
  const auto setup_done =
      static_cast<std::int64_t>(report_number(run.report, "setup_done_ns"));
  run.setup_s = to_s(setup_done - child.spawned_ns);
  if (!setup_only) {
    const auto done =
        static_cast<std::int64_t>(report_number(run.report, "done_ns"));
    run.result_s = to_s(done - child.spawned_ns);
  }
  return run;
}

}  // namespace

bool is_harness_workload(const std::string& name) {
  return name == "fig5_sim" || name == "fig4_mf";
}

int harness_child(const std::string& workload, std::uint64_t seed,
                  int threads, bool setup_only, const std::string& manifest,
                  const std::string& resume) {
  if (workload == "fig5_sim") {
    const Fig5Inputs inputs = fig5_setup(seed, nullptr, -1);
    const std::int64_t setup_done = now_ns();
    std::printf("setup_done_ns %lld\n", static_cast<long long>(setup_done));
    if (setup_only) return 0;
    std::optional<engine::ResumeSet> resume_set;
    if (!resume.empty()) resume_set = engine::load_resume_set(resume);
    const Fig5Result out =
        fig5_compare(inputs, seed, threads, resume_set ? &*resume_set : nullptr);
    const std::int64_t done = now_ns();
    std::printf("done_ns %lld\nwall_s %.9f\ndigest %s\njobs %zu\nfailed %zu\n"
                "resumed %zu\npeak_rss_mb %.6f\n",
                static_cast<long long>(done), to_s(done - setup_done),
                hex64(out.digest).c_str(), out.report.jobs.size(),
                out.report.failed + out.report.quarantined, out.report.resumed,
                vm_hwm_mb(0));
    print_list("latency_ms", out.point_ms);
    if (!manifest.empty()) {
      engine::ManifestInfo info;
      info.generator = "perfbench fig5_sim";
      info.config = {{"seed", std::to_string(seed)},
                     {"trials", std::to_string(kFig5Trials)}};
      engine::write_manifest_file(manifest, out.report, info);
    }
    return 0;
  }
  if (workload == "fig4_mf") {
    const auto catalog = core::Catalog::pareto(kItems, 1.0, 1.0);
    const std::vector<double> demand = catalog.demands();
    const std::int64_t setup_done = now_ns();
    std::printf("setup_done_ns %lld\n", static_cast<long long>(setup_done));
    if (setup_only) return 0;
    const Fig4Outcome out = fig4_evaluate(demand, nullptr, -1);
    const std::int64_t done = now_ns();
    std::printf("done_ns %lld\nwall_s %.9f\ndigest %s\nfinite %d\n"
                "opt_dominates %d\npoints %zu\npeak_rss_mb %.6f\n",
                static_cast<long long>(done), to_s(done - setup_done),
                hex64(out.digest).c_str(), out.finite ? 1 : 0,
                out.opt_dominates ? 1 : 0, out.point_ms.size(), vm_hwm_mb(0));
    print_list("latency_ms", out.point_ms);
    return 0;
  }
  std::fprintf(stderr, "perfbench: unknown harness workload %s\n",
               workload.c_str());
  return 2;
}

void run_harness(const RunOptions& options, Result& result) {
  const bool fig5 = options.workload == "fig5_sim";
  const std::int64_t start = now_ns();
  std::vector<double> setup, wall, throughput, p50, p90, restore, rss;
  for (int i = 0; i < (fig5 ? kFig5SetupProbes : kFig4SetupProbes); ++i) {
    setup.push_back(run_child(options, 0, true, "", "").setup_s);
  }
  std::vector<std::string> digests;
  const std::string manifest = "fig5_manifest.json";
  for (;;) {
    const std::int64_t t0 = now_ns();
    const ChildRun run =
        run_child(options, 0, false, fig5 ? manifest : "", "");
    const double w = report_number(run.report, "wall_s");
    const std::vector<double> lat = report_list(run.report, "latency_ms");
    setup.push_back(run.setup_s);
    wall.push_back(w);
    p50.push_back(quantile(lat, 0.5));
    p90.push_back(quantile(lat, 0.9));
    rss.push_back(report_number(run.report, "peak_rss_mb"));
    digests.push_back(report_string(run.report, "digest"));
    if (fig5) {
      const double jobs = report_number(run.report, "jobs");
      const double failed = report_number(run.report, "failed");
      result.attempt(static_cast<std::uint64_t>(jobs));
      if (failed > 0) {
        result.fail("fig5 jobs failed or quarantined",
                    static_cast<std::uint64_t>(failed));
      }
      throughput.push_back(jobs / w);
      // Restore: --resume from this iteration's manifest, every job
      // replayed from it; the tables must come back identical.
      const ChildRun resumed = run_child(options, 0, false, "", manifest);
      restore.push_back(resumed.result_s);
      result.check(report_string(resumed.report, "digest") ==
                       digests.back(),
                   "fig5 digest after resume");
      result.check(report_number(resumed.report, "resumed") == jobs,
                   "fig5 resume replayed every job");
    } else {
      const double points = report_number(run.report, "points");
      result.attempt(static_cast<std::uint64_t>(points));
      result.check(report_number(run.report, "finite") == 1.0,
                   "fig4 mean-field values finite");
      result.check(report_number(run.report, "opt_dominates") == 1.0,
                   "fig4 OPT welfare >= every competitor at every point");
      throughput.push_back(points / w);
      // No checkpoint exists: recovering the result is a full rerun.
      restore.push_back(run.result_s);
    }
    std::printf("# iteration: setup %.4f s, wall %.4f s, restore %.4f s, "
                "rss %.1f MB, digest %s\n",
                run.setup_s, w, restore.back(), rss.back(),
                digests.back().c_str());
    const double elapsed = to_s(now_ns() - start);
    if (elapsed + to_s(now_ns() - t0) > options.seconds) break;
  }
  for (const std::string& d : digests) {
    result.check(d == digests.front(), "identical digest across iterations");
  }
  if (fig5) {
    const ChildRun single = run_child(options, 1, false, "", "");
    result.check(report_string(single.report, "digest") == digests.front(),
                 "fig5 digest equals the 1-thread run");
    std::printf("# 1-thread wall %.4f s\n",
                report_number(single.report, "wall_s"));
  }
  result.metric("setup_s", "s", median(setup));
  result.metric("wall_s", "s", median(wall));
  result.metric("throughput_per_s", "1/s", median(throughput));
  result.metric("latency_p50_ms", "ms", median(p50));
  result.metric("latency_tail_ms", "ms", median(p90));
  result.metric("restore_s", "s", median(restore));
  result.metric("peak_rss_mb", "MB", median(rss));
}

TracedSection trace_harness(const RunOptions& options, Tracer& tracer,
                            Result& result, bool baseline) {
  TracedSection section;
  if (options.workload == "fig5_sim") {
    // Untraced passes, bench::run_comparison as fig5_infocom calls it:
    // nproc engine threads before and after the traced pass (the first
    // pass runs cold), and 1 thread for the speedup.
    const auto untraced = [&options](int threads, Fig5Result& out) {
      const std::int64_t t0 = now_ns();
      const Fig5Inputs inputs = fig5_setup(options.seed, nullptr, -1);
      const std::int64_t t1 = now_ns();
      out = fig5_compare(inputs, options.seed, threads, nullptr);
      return std::pair{to_s(now_ns() - t0), to_s(now_ns() - t1)};
    };
    Fig5Result plain, single, plain_after;
    const auto [plain_s, plain_eval_s] = untraced(0, plain);
    const double single_s = untraced(1, single).second;

    section.root = tracer.open("run fig5_sim", -1);
    const int setup = tracer.open("setup", section.root);
    const Fig5Inputs traced_inputs =
        fig5_setup(options.seed, &tracer, setup);
    tracer.close(setup);
    const int eval = tracer.open("evaluate", section.root);
    const Fig5Traced out =
        fig5_traced(traced_inputs, options.seed, tracer, eval);
    tracer.close(eval);
    tracer.close(section.root);
    section.traced_wall_s = tracer.busy_s(section.root);
    const auto [plain_after_s, plain_after_eval_s] = untraced(0, plain_after);
    section.untraced_wall_s = 0.5 * (plain_s + plain_after_s);

    std::size_t failed = out.failed;
    result.attempt(out.jobs);
    for (const Fig5Result* r : {&plain, &single, &plain_after}) {
      failed += r->report.failed + r->report.quarantined;
      result.attempt(r->report.jobs.size());
    }
    if (failed > 0) result.fail("fig5 jobs failed", failed);
    result.check(out.digest == plain.digest && single.digest == plain.digest &&
                     plain_after.digest == plain.digest,
                 "fig5 digests equal: traced copy, run_comparison, 1-thread");
    const double eval_s = tracer.busy_s(eval);
    std::size_t competitor_calls = 0;
    for (const auto& span : tracer.spans()) {
      if (span.name == "alloc.competitors") ++competitor_calls;
    }
    result.metric("trace.generate_s", "s", tracer.busy_s("trace.generate"));
    result.metric("trace.contacts", "count",
                  static_cast<double>(traced_inputs.contacts));
    result.metric("core.make_scenario_s", "s",
                  tracer.busy_s("core.make_scenario"));
    result.metric("alloc.competitors_s", "s",
                  tracer.busy_s("alloc.competitors"));
    result.metric("alloc.calls", "count",
                  static_cast<double>(competitor_calls));
    result.metric("engine.runner_s", "s", out.runner_s);
    result.metric("engine.jobs", "count", static_cast<double>(out.jobs));
    result.metric("engine.attempts", "count",
                  static_cast<double>(out.attempts));
    result.metric("engine.jobs_failed", "count",
                  static_cast<double>(out.failed));
    result.metric("engine.queue_wait_s", "s",
                  out.jobs ? out.queue_wait_s / static_cast<double>(out.jobs)
                           : 0.0);
    result.metric("engine.parallel_eff", "ratio",
                  out.simulate_s / (out.threads * out.runner_s));
    result.metric("engine.outside_runner_s", "s", eval_s - out.runner_s);
    result.metric("engine.speedup_vs_1t", "ratio",
                  single_s / (0.5 * (plain_eval_s + plain_after_eval_s)));
    result.metric("core.simulate_s", "s", out.simulate_s);
    result.metric("core.simulate_qcr_s", "s",
                  tracer.busy_s("core.simulate_qcr"));
    result.metric("core.requests", "count", static_cast<double>(out.requests));
    result.metric("core.fulfillments", "count",
                  static_cast<double>(out.fulfillments));
    result.metric("stats.aggregate_s", "s", tracer.busy_s("stats.aggregate"));
    tracer.print_self_times(section.root, "fig5_sim");
    return section;
  }

  const auto catalog = core::Catalog::pareto(kItems, 1.0, 1.0);
  const std::vector<double> demand = catalog.demands();
  std::optional<Fig4Outcome> plain;
  if (baseline) {
    const std::int64_t b0 = now_ns();
    plain = fig4_evaluate(demand, nullptr, -1);
    section.untraced_wall_s = to_s(now_ns() - b0);
  }
  section.root = tracer.open("run fig4_mf", -1);
  const Fig4Outcome out = fig4_evaluate(demand, &tracer, section.root);
  tracer.close(section.root);
  section.traced_wall_s = tracer.busy_s(section.root);
  result.attempt(out.point_ms.size());
  result.check(out.finite, "fig4 mean-field values finite");
  result.check(out.opt_dominates, "fig4 OPT dominates");
  if (plain) result.check(plain->digest == out.digest, "fig4 digest traced");
  result.metric("core.mean_field.competitors_s", "s",
                tracer.busy_s("core.mean_field.competitors"));
  result.metric("core.mean_field.welfare_s", "s",
                tracer.busy_s("core.mean_field.welfare"));
  result.metric("core.mean_field.qcr_s", "s",
                tracer.busy_s("core.mean_field.qcr"));
  result.metric("core.mean_field.qcr_steps", "count",
                static_cast<double>(out.qcr_steps));
  result.metric("core.mean_field.qcr_rejected_steps", "count",
                static_cast<double>(out.qcr_rejected));
  tracer.print_self_times(section.root, "fig4_mf");
  return section;
}

}  // namespace perfbench
