// Learning user impatience from feedback (the paper's closing Section 7
// question) and feeding it back into the replication scheme:
//
//   1. A deployment runs with a *mis-specified* impatience model.
//   2. Every fulfilment yields feedback: did the user still consume the
//      content after waiting that long? (Bernoulli of the true h.)
//   3. fit_delay_utility() turns the feedback into a monotone tabulated
//      utility; its transforms tune OPT and QCR's reaction function.
//   4. The relearned system recovers most of the oracle's welfare.
#include <iostream>

#include "impatience/core/experiment.hpp"
#include "impatience/util/flags.hpp"
#include "impatience/util/table.hpp"
#include "impatience/utility/families.hpp"
#include "impatience/utility/fit.hpp"

using namespace impatience;

namespace {

/// Runs OPT for `planning` utility but scores with the `truth` utility;
/// returns the mean observed utility.
double run_opt_planned_vs_true(const core::Scenario& scenario,
                               const utility::DelayUtility& planning,
                               const utility::DelayUtility& truth,
                               util::Rng& rng, int trials) {
  const core::CompetitorPlan plan(scenario, planning,
                                 core::OptMode::kHomogeneous);
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    util::Rng pr = rng.split();
    const auto set = plan.draw(pr);
    util::Rng rr = rng.split();
    total += core::run_fixed(scenario, truth, "OPT", set[0].placement,
                             core::SimOptions{}, rr)
                 .observed_utility();
  }
  return total / trials;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto nodes = static_cast<trace::NodeId>(flags.get_int("nodes", 40));
  const trace::Slot slots = flags.get_long("slots", 4000);
  const int trials = flags.get_int("trials", 3);

  // Ground truth the operator does not know: users tolerate ~25 minutes.
  utility::StepUtility truth(25.0);
  // The operator's initial guess: very patient users.
  utility::StepUtility guess(500.0);

  util::Rng rng(314159);
  auto trace = trace::generate_poisson({nodes, slots, 0.05}, rng);
  auto scenario = core::make_scenario(
      std::move(trace),
      core::Catalog::pareto(static_cast<core::ItemId>(nodes), 1.0, 1.0), 5);

  std::cout << "Learning impatience from feedback (" << nodes
            << " nodes, true deadline 25 min, initial guess 500 min)\n";

  // Phase 1: run with the wrong guess, collecting real per-fulfilment
  // feedback via the simulator hook. Each fulfilment reports its actual
  // delay; the user consumes the item with probability h_true(delay).
  // To probe the impatient tail we also jitter a share of deliveries
  // (operators would A/B-test delayed delivery the same way).
  std::vector<utility::FeedbackSample> feedback;
  {
    util::Rng fr = rng.split();
    core::SimOptions options;
    options.on_fulfillment = [&](core::ItemId, trace::NodeId, double delay,
                                 double) {
      double observed_delay = std::max(delay, 0.5);
      if (fr.bernoulli(0.3)) {
        observed_delay += fr.exponential(1.0 / 20.0);  // A/B delay probe
      }
      feedback.push_back(
          {observed_delay,
           fr.bernoulli(truth.value(observed_delay)) ? 1.0 : 0.0});
    };
    util::Rng r = rng.split();
    const auto result =
        core::run_qcr(scenario, guess, core::QcrOptions{}, options, r);
    std::cout << "phase 1: mean fulfilment delay " << result.mean_delay
              << " min, " << feedback.size() << " feedback samples\n";
  }

  // Phase 2: fit and redeploy.
  const auto fitted = utility::fit_delay_utility(feedback, {.bins = 16});
  std::cout << "fitted h(t) at t = 5 / 25 / 60: " << fitted.value(5.0)
            << " / " << fitted.value(25.0) << " / " << fitted.value(60.0)
            << "  (truth: 1 / 1 / 0)\n";

  util::TablePrinter table(
      {"planning model", "true welfare achieved", "vs oracle %"});
  table.set_precision(4);
  util::Rng r1 = rng.split(), r2 = rng.split(), r3 = rng.split();
  const double oracle =
      run_opt_planned_vs_true(scenario, truth, truth, r1, trials);
  const double wrong =
      run_opt_planned_vs_true(scenario, guess, truth, r2, trials);
  const double learned =
      run_opt_planned_vs_true(scenario, fitted, truth, r3, trials);
  table.row("oracle (knows truth)", oracle, 0.0);
  table.row("initial guess (tau=500)", wrong,
            core::normalized_loss_percent(wrong, oracle));
  table.row("learned from feedback", learned,
            core::normalized_loss_percent(learned, oracle));
  table.print(std::cout);

  // QCR with a reaction tuned to a given planning model, *scored* under
  // the truth.
  auto run_qcr_planned_vs_true = [&](const utility::DelayUtility& planning,
                                     util::Rng& r) {
    const core::QcrOptions qcr;
    const auto policy = core::make_qcr_policy(
        "QCR",
        core::QcrReaction(
            utility::UtilitySet(planning, scenario.catalog.num_items()),
            scenario.mu, static_cast<double>(nodes), scenario.capacity, qcr),
        qcr);
    core::SimOptions options;
    options.cache_capacity = 5;
    double total = 0.0;
    for (int t = 0; t < trials; ++t) {
      util::Rng tr = r.split();
      total += core::simulate(scenario.trace, scenario.catalog, truth,
                              *policy, options, tr)
                   .observed_utility();
    }
    return total / trials;
  };
  util::Rng rq1 = rng.split(), rq2 = rng.split(), rq3 = rng.split();
  util::TablePrinter qcr_table(
      {"QCR reaction tuned to", "true welfare achieved", "vs oracle %"});
  qcr_table.set_precision(4);
  const double qcr_truth = run_qcr_planned_vs_true(truth, rq1);
  const double qcr_wrong = run_qcr_planned_vs_true(guess, rq2);
  const double qcr_learned = run_qcr_planned_vs_true(fitted, rq3);
  qcr_table.row("truth", qcr_truth,
                core::normalized_loss_percent(qcr_truth, oracle));
  qcr_table.row("initial guess", qcr_wrong,
                core::normalized_loss_percent(qcr_wrong, oracle));
  qcr_table.row("learned from feedback", qcr_learned,
                core::normalized_loss_percent(qcr_learned, oracle));
  qcr_table.print(std::cout);
  std::cout << "Takeaway: feedback-fitted impatience closes most of the "
               "gap a mis-specified\nmodel leaves, for the centralized "
               "optimum and for QCR alike.\n";
  return 0;
}
