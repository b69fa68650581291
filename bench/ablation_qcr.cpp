// Ablations on the design choices DESIGN.md calls out:
//   1. reaction scale  — the Property-2 free constant: equilibrium is
//      scale-invariant, but large scales thrash the cache (convergence
//      speed vs steady-state noise);
//   2. sticky replicas — without the immortal seed copy, items can be
//      absorbed out of the system entirely;
//   3. passive vs path vs QCR reaction — the replication-rule family:
//      constant psi ~ PROP, linear psi ~ SQRT, Table-1 psi ~ optimal.
//
// All arms run as engine jobs: one (policy, trial) simulation per job,
// each on its own child stream of --seed, parallel across --threads.
#include <iostream>
#include <numeric>

#include "common.hpp"
#include "impatience/utility/families.hpp"

using namespace impatience;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const trace::NodeId nodes =
      static_cast<trace::NodeId>(flags.get_int("nodes", 50));
  const trace::Slot slots = flags.get_long("slots", 5000);
  const double mu = flags.get_double("mu", 0.05);
  const int rho = flags.get_int("rho", 5);
  const int trials = flags.get_int("trials", 3);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_long("seed", 99));

  bench::banner("ablation", "QCR design choices (power alpha=0)");

  engine::Runner runner(
      {flags.get_int("threads", 0), flags.get_bool("progress", false)});
  std::cerr << "[engine] threads=" << runner.threads() << " root-seed="
            << seed << '\n';
  engine::RunReport manifest;

  util::Rng trace_rng(engine::child_seed(seed, "scenario"));
  auto trace = trace::generate_poisson({nodes, slots, mu}, trace_rng);
  auto scenario = core::make_scenario(
      std::move(trace),
      core::Catalog::pareto(static_cast<core::ItemId>(nodes), 1.0, 1.0),
      rho);
  utility::PowerUtility u(0.0);

  // Reference OPT utility: one job per trial, placements drawn from one
  // plan (OPT solved once).
  double u_opt = 0.0;
  {
    const core::CompetitorPlan plan(scenario, u, core::OptMode::kHomogeneous);
    std::vector<alloc::Placement> opt_placements;
    opt_placements.reserve(static_cast<std::size_t>(trials));
    for (int t = 0; t < trials; ++t) {
      util::Rng pr(engine::child_seed(seed, "placement",
                                      static_cast<std::uint64_t>(t)));
      opt_placements.push_back(std::move(plan.draw(pr)[0].placement));
    }
    std::vector<engine::JobSpec> jobs;
    for (int t = 0; t < trials; ++t) {
      engine::JobSpec job;
      job.scenario = "ablation-opt";
      job.policy = "OPT";
      job.trial = t;
      job.seed =
          engine::child_seed(seed, "OPT", static_cast<std::uint64_t>(t));
      job.run = [&scenario, &u, &opt_placements, t](util::Rng& rng) {
        return core::run_fixed(scenario, u, "OPT",
                               opt_placements[static_cast<std::size_t>(t)],
                               core::SimOptions{}, rng)
            .observed_utility();
      };
      jobs.push_back(std::move(job));
    }
    auto report = runner.run(std::move(jobs), seed);
    u_opt = report.aggregate.band("OPT", 0.0).mean;
    manifest.merge(std::move(report));
  }

  // 1. Reaction-scale sweep.
  {
    std::cout << "Ablation 1: reaction scale (target replicas per "
                 "fulfilment at uniform allocation)\n";
    const std::vector<double> targets{0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0};
    std::vector<engine::JobSpec> jobs;
    // Side channel for the non-scalar metric: each job writes only its
    // own slot, so the sweep stays deterministic and race-free.
    std::vector<long> written(targets.size() *
                                  static_cast<std::size_t>(trials),
                              0);
    std::size_t slot = 0;
    for (std::size_t ti = 0; ti < targets.size(); ++ti) {
      for (int t = 0; t < trials; ++t, ++slot) {
        engine::JobSpec job;
        job.scenario = "ablation-scale";
        job.policy = "QCR";
        job.trial = t;
        job.x = targets[ti];
        job.seed = engine::child_seed(seed, "scale", ti,
                                      static_cast<std::uint64_t>(t));
        job.run = [&scenario, &u, &written, slot,
                   target = targets[ti]](util::Rng& rng) {
          core::QcrOptions q;
          q.target_replicas_per_fulfillment = target;
          const auto res =
              core::run_qcr(scenario, u, q, core::SimOptions{}, rng);
          written[slot] = res.replicas_written;
          return res.observed_utility();
        };
        jobs.push_back(std::move(job));
      }
    }
    auto report = runner.run(std::move(jobs), seed);
    util::TablePrinter table(
        {"target", "observed U", "loss vs OPT %", "replicas written"});
    table.set_precision(4);
    slot = 0;
    for (double target : targets) {
      const double mean = report.aggregate.band("QCR", target).mean;
      long total_written = 0;
      for (int t = 0; t < trials; ++t, ++slot) total_written += written[slot];
      table.row(target, mean, core::normalized_loss_percent(mean, u_opt),
                total_written / trials);
    }
    table.print(std::cout);
    manifest.merge(std::move(report));
  }

  // 2. Sticky replicas on/off: count items absorbed to zero copies.
  {
    std::cout << "Ablation 2: sticky seed replicas\n";
    std::vector<engine::JobSpec> jobs;
    std::vector<double> lost(2 * static_cast<std::size_t>(trials), 0.0);
    std::size_t slot = 0;
    for (bool sticky : {true, false}) {
      for (int t = 0; t < trials; ++t, ++slot) {
        engine::JobSpec job;
        job.scenario = "ablation-sticky";
        job.policy = sticky ? "sticky-on" : "sticky-off";
        job.trial = t;
        job.seed = engine::child_seed(seed, job.policy,
                                      static_cast<std::uint64_t>(t));
        job.run = [&scenario, &u, &lost, slot, sticky, nodes,
                   rho](util::Rng& rng) {
          core::SimOptions options;
          options.sticky_replicas = sticky;
          options.cache_capacity = rho;
          // run_qcr forces sticky on; call simulate directly instead.
          utility::ReactionFunction reaction(
              u, scenario.mu, static_cast<double>(nodes), 0.1);
          core::QcrPolicy policy(
              "QCR", [reaction](double y) { return reaction(y); },
              core::QcrPolicy::MandateRouting::kOn);
          const auto res = core::simulate(scenario.trace, scenario.catalog,
                                          u, policy, options, rng);
          for (int c : res.final_counts) {
            if (c == 0) lost[slot] += 1.0;
          }
          return res.observed_utility();
        };
        jobs.push_back(std::move(job));
      }
    }
    auto report = runner.run(std::move(jobs), seed);
    util::TablePrinter table(
        {"sticky", "observed U", "loss vs OPT %", "items lost (end)"});
    table.set_precision(4);
    slot = 0;
    for (bool sticky : {true, false}) {
      const double mean =
          report.aggregate.band(sticky ? "sticky-on" : "sticky-off", 0.0)
              .mean;
      double mean_lost = 0.0;
      for (int t = 0; t < trials; ++t, ++slot) mean_lost += lost[slot];
      mean_lost /= trials;
      table.row(sticky ? "on" : "off", mean,
                core::normalized_loss_percent(mean, u_opt), mean_lost);
    }
    table.print(std::cout);
    manifest.merge(std::move(report));
  }

  // 3. Reaction-rule family.
  {
    std::cout << "Ablation 3: replication rule (reaction function family)\n";
    struct Rule {
      const char* name;
      std::function<std::unique_ptr<core::QcrPolicy>()> make;
    };
    std::vector<Rule> rules;
    rules.push_back({"PASSIVE (psi = const, -> PROP)", [] {
                       return core::make_passive_policy(0.5);
                     }});
    rules.push_back({"PATH (psi ~ y, -> SQRT)", [&] {
                       return core::make_path_replication_policy(
                           0.5 / (static_cast<double>(nodes) /
                                  static_cast<double>(rho)));
                     }});
    rules.push_back({"QCR (psi from Table 1)", [&] {
                       utility::ReactionFunction tuned(
                           u, scenario.mu, static_cast<double>(nodes), 0.1);
                       return std::make_unique<core::QcrPolicy>(
                           "QCR", [tuned](double y) { return tuned(y); },
                           core::QcrPolicy::MandateRouting::kOn);
                     }});
    std::vector<engine::JobSpec> jobs;
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
      for (int t = 0; t < trials; ++t) {
        engine::JobSpec job;
        job.scenario = "ablation-rule";
        job.policy = rules[ri].name;
        job.trial = t;
        job.seed = engine::child_seed(seed, "rule", ri,
                                      static_cast<std::uint64_t>(t));
        job.run = [&scenario, &u, &rules, ri, rho](util::Rng& rng) {
          auto policy = rules[ri].make();
          core::SimOptions options;
          options.cache_capacity = rho;
          return core::simulate(scenario.trace, scenario.catalog, u, *policy,
                                options, rng)
              .observed_utility();
        };
        jobs.push_back(std::move(job));
      }
    }
    auto report = runner.run(std::move(jobs), seed);
    util::TablePrinter table({"rule", "observed U", "loss vs OPT %"});
    table.set_precision(4);
    for (const auto& rule : rules) {
      const double mean = report.aggregate.band(rule.name, 0.0).mean;
      table.row(rule.name, mean,
                core::normalized_loss_percent(mean, u_opt));
    }
    table.print(std::cout);
    manifest.merge(std::move(report));
  }

  manifest.root_seed = seed;
  bench::maybe_write_manifest(
      flags, "ablation_manifest.json", manifest,
      {{"nodes", std::to_string(nodes)},
       {"slots", std::to_string(slots)},
       {"mu", std::to_string(mu)},
       {"rho", std::to_string(rho)},
       {"trials", std::to_string(trials)},
       {"seed", std::to_string(seed)}});
  std::cout << "U(OPT) reference: " << u_opt << '\n';
  return 0;
}
