// Streaming contact feeds (docs/perf.md §6): GeneratedSource must
// reproduce the materializing generators event for event, the paged
// on-disk format must round-trip, and a simulation driven from any
// EventSource must be bit-identical to the materialized path for the
// same seed — on both kernels, with and without faults, and under
// meeting parallelism. Runs under `ctest -L sim`.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "impatience/core/simulator.hpp"
#include "impatience/trace/event_source.hpp"
#include "impatience/trace/generators.hpp"
#include "impatience/trace/paged_trace.hpp"
#include "impatience/utility/families.hpp"

namespace impatience::trace {
namespace {

std::vector<ContactEvent> drain(EventSource& source) {
  std::vector<ContactEvent> out;
  Slot prev = -1;
  while (source.next_slot() != EventSource::kNoMoreEvents) {
    const Slot slot = source.next_slot();
    EXPECT_GT(slot, prev) << "batches must advance in slot order";
    prev = slot;
    const auto batch = source.take_batch();
    EXPECT_FALSE(batch.empty());
    for (const ContactEvent& e : batch) {
      EXPECT_EQ(e.slot, slot);
      EXPECT_LT(e.a, e.b);
    }
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

void expect_same_events(const std::vector<ContactEvent>& got,
                        const std::vector<ContactEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].slot, want[i].slot) << "event " << i;
    EXPECT_EQ(got[i].a, want[i].a) << "event " << i;
    EXPECT_EQ(got[i].b, want[i].b) << "event " << i;
  }
}

TEST(GeneratedSource, MatchesGeneratePoissonBitForBit) {
  const PoissonTraceParams params{30, 400, 0.05};
  util::Rng gen(123);
  const auto tr = generate_poisson(params, gen);
  GeneratedSource source(params, util::Rng(123));
  expect_same_events(drain(source), tr.events());
}

TEST(GeneratedSource, MatchesGenerateCommunityTraceBitForBit) {
  CommunityTraceParams params;
  params.num_nodes = 24;
  params.duration = 300;
  params.num_communities = 4;
  params.intra_rate = 0.1;
  params.inter_rate = 0.01;
  util::Rng gen(321);
  const auto tr = generate_community_trace(params, gen);
  auto source = GeneratedSource::community(params, util::Rng(321));
  expect_same_events(drain(source), tr.events());
}

TEST(GeneratedSource, MatchesGenerateHeterogeneousBitForBit) {
  RateMatrix rates(10);
  // An uneven star-plus-ring with zero-rate pairs mixed in.
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = a + 1; b < 10; ++b) {
      if ((a + b) % 3 == 0) continue;  // leave some pairs at zero
      rates.set(a, b, 0.01 * static_cast<double>(a + b));
    }
  }
  util::Rng gen(456);
  const auto tr = generate_heterogeneous(rates, 500, gen);
  GeneratedSource source(rates, 500, util::Rng(456));
  expect_same_events(drain(source), tr.events());
}

TEST(GeneratedSource, NextSlotIsIdempotentAndSkipsEmptySlots) {
  const PoissonTraceParams params{8, 200, 0.01};
  GeneratedSource source(params, util::Rng(9));
  while (source.next_slot() != EventSource::kNoMoreEvents) {
    const Slot s1 = source.next_slot();
    const Slot s2 = source.next_slot();
    EXPECT_EQ(s1, s2);
    source.take_batch();
  }
  EXPECT_EQ(source.next_slot(), EventSource::kNoMoreEvents);
}

TEST(GeneratedSource, ZeroRateEmitsNothing) {
  const PoissonTraceParams params{50, 100, 0.0};
  GeneratedSource source(params, util::Rng(1));
  EXPECT_EQ(source.next_slot(), EventSource::kNoMoreEvents);
}

TEST(MaterializedSource, StreamsTheTraceAndThrowsWhenDrained) {
  util::Rng gen(7);
  const auto tr = generate_poisson({12, 150, 0.05}, gen);
  MaterializedSource source(tr);
  EXPECT_EQ(source.max_slot_events_hint(), tr.max_slot_events());
  expect_same_events(drain(source), tr.events());
  EXPECT_THROW(source.take_batch(), std::logic_error);
}

// --------------------------------------------------------------------
// Paged on-disk format.

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(PagedTrace, RoundTripsAcrossPageSizes) {
  util::Rng gen(11);
  const auto tr = generate_poisson({20, 300, 0.08}, gen);
  for (std::size_t page : {std::size_t{3}, std::size_t{64},
                           std::size_t{100000}}) {
    const std::string path = temp_path("paged_roundtrip.bin");
    write_paged_trace(tr, path, page);
    const auto back = read_paged_trace(path);
    EXPECT_EQ(back.num_nodes(), tr.num_nodes());
    EXPECT_EQ(back.duration(), tr.duration());
    expect_same_events(back.events(), tr.events());
    std::remove(path.c_str());
  }
}

TEST(PagedTrace, BatchesSpanPageBoundaries) {
  // Page size 2 guarantees many slots whose events straddle pages; the
  // reader must still emit whole-slot batches.
  util::Rng gen(22);
  const auto tr = generate_poisson({16, 200, 0.2}, gen);
  const std::string path = temp_path("paged_span.bin");
  write_paged_trace(tr, path, 2);
  PagedTraceReader reader(path);
  EXPECT_EQ(reader.total_events(), tr.events().size());
  EXPECT_GT(reader.num_pages(), 1u);
  expect_same_events(drain(reader), tr.events());
  std::remove(path.c_str());
}

TEST(PagedTrace, RejectsBadMagicAndTruncation) {
  const std::string path = temp_path("paged_bad.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "NOTATRACEFILE";
  }
  EXPECT_THROW(PagedTraceReader{path}, std::runtime_error);

  util::Rng gen(33);
  const auto tr = generate_poisson({10, 100, 0.1}, gen);
  write_paged_trace(tr, path, 8);
  // Truncate mid-data: reading past the cut must throw, not hang.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - bytes.size() / 4);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(
      {
        PagedTraceReader reader(path);
        drain(reader);
      },
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(PagedTrace, RejectsEmptyPageSize) {
  util::Rng gen(44);
  const auto tr = generate_poisson({10, 100, 0.1}, gen);
  EXPECT_THROW(write_paged_trace(tr, temp_path("paged_zero.bin"), 0),
               std::invalid_argument);
}

// --------------------------------------------------------------------
// Kernel bit-identity: simulate() from any EventSource must equal the
// materialized run draw for draw.

void expect_bit_identical(const core::SimulationResult& a,
                          const core::SimulationResult& b,
                          const char* what) {
  EXPECT_DOUBLE_EQ(a.total_gain, b.total_gain) << what;
  EXPECT_EQ(a.fulfillments, b.fulfillments) << what;
  EXPECT_EQ(a.immediate_fulfillments, b.immediate_fulfillments) << what;
  EXPECT_EQ(a.censored_requests, b.censored_requests) << what;
  EXPECT_EQ(a.requests_created, b.requests_created) << what;
  EXPECT_DOUBLE_EQ(a.mean_delay, b.mean_delay) << what;
  EXPECT_EQ(a.final_counts, b.final_counts) << what;
  ASSERT_EQ(a.observed_series.size(), b.observed_series.size()) << what;
  for (std::size_t i = 0; i < a.observed_series.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.observed_series[i].value, b.observed_series[i].value)
        << what << " series @" << i;
  }
}

core::SimulationResult run_materialized(const ContactTrace& tr,
                                        const core::SimOptions& options,
                                        std::uint64_t seed) {
  const auto catalog = core::Catalog::pareto(15, 1.0, 1.0);
  utility::StepUtility u(12.0);
  core::StaticPolicy policy;
  util::Rng rng(seed);
  return core::simulate(tr, catalog, u, policy, options, rng);
}

core::SimulationResult run_streamed(EventSource& source,
                                    const core::SimOptions& options,
                                    std::uint64_t seed) {
  const auto catalog = core::Catalog::pareto(15, 1.0, 1.0);
  utility::StepUtility u(12.0);
  core::StaticPolicy policy;
  util::Rng rng(seed);
  return core::simulate(source, catalog,
                        utility::UtilitySet(u, catalog.num_items()), policy,
                        core::Population::pure_p2p(source.num_nodes()),
                        options, rng);
}

TEST(StreamingSimulation, BitIdenticalAcrossSourcesKernelsAndFaults) {
  const PoissonTraceParams params{25, 500, 0.04};
  util::Rng gen(808);
  const auto tr = generate_poisson(params, gen);
  const std::string path = temp_path("paged_sim.bin");
  write_paged_trace(tr, path, 16);

  for (const auto kernel :
       {core::SimKernel::slot_stepped, core::SimKernel::event_driven}) {
    for (const bool faults : {false, true}) {
      core::SimOptions options;
      options.cache_capacity = 3;
      options.kernel = kernel;
      if (faults) {
        options.faults.p_drop = 0.05;
        options.faults.p_crash = 0.001;
        options.faults.p_truncate = 0.1;
        options.faults.seed = 4242;
      }
      const std::string what =
          std::string(core::kernel_name(kernel)) + (faults ? "+faults" : "");
      const auto reference = run_materialized(tr, options, 999);

      MaterializedSource materialized(tr);
      expect_bit_identical(run_streamed(materialized, options, 999),
                           reference, (what + "/materialized").c_str());

      GeneratedSource generated(params, util::Rng(808));
      expect_bit_identical(run_streamed(generated, options, 999), reference,
                           (what + "/generated").c_str());

      PagedTraceReader paged(path);
      expect_bit_identical(run_streamed(paged, options, 999), reference,
                           (what + "/paged").c_str());
    }
  }
  std::remove(path.c_str());
}

TEST(StreamingSimulation, HeterogeneousSourceBitIdenticalOnBothKernels) {
  CommunityTraceParams params;
  params.num_nodes = 20;
  params.duration = 400;
  params.num_communities = 4;
  params.intra_rate = 0.15;
  params.inter_rate = 0.01;
  util::Rng gen(515);
  const auto tr = generate_community_trace(params, gen);
  for (const auto kernel :
       {core::SimKernel::slot_stepped, core::SimKernel::event_driven}) {
    core::SimOptions options;
    options.cache_capacity = 3;
    options.kernel = kernel;
    const auto reference = run_materialized(tr, options, 77);
    auto source = GeneratedSource::community(params, util::Rng(515));
    expect_bit_identical(run_streamed(source, options, 77), reference,
                         core::kernel_name(kernel));
  }
}

}  // namespace
}  // namespace impatience::trace
