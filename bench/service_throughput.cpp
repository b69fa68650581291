// replicationd service benchmarks: sustained event-apply throughput of
// the versioned state store, snapshot capture, serialization and parse
// cost, the store rebuild of a warm restart, and /metrics scrape latency
// while a mutator thread is applying events (the daemon's steady-state
// contention pattern). Compiled into
// micro_benchmarks so scripts/bench_snapshot.sh snapshots the *_mean
// numbers per PR.
#include <benchmark/benchmark.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "impatience/service/daemon.hpp"
#include "impatience/service/http.hpp"
#include "impatience/service/metrics.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/service/state_store.hpp"

namespace {

using namespace impatience;

service::StoreConfig bench_config(std::uint32_t nodes) {
  service::StoreConfig config;
  config.num_nodes = nodes;
  config.num_items = nodes;
  config.cache_capacity = 5;
  return config;
}

std::vector<service::Event> bench_stream(std::uint32_t nodes,
                                         std::uint64_t events,
                                         std::uint64_t seed) {
  service::StreamConfig config;
  config.events = events;
  config.num_nodes = nodes;
  config.num_items = nodes;
  config.quit = false;
  return service::generate_stream(config, seed);
}

// Sustained ingest rate: how many protocol events per second one store
// absorbs, QCR reaction and mandate routing included. Fresh store per
// iteration so the cache/mandate population profile is steady.
void BM_ServiceThroughput(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto events = bench_stream(nodes, 4000, 17);
  std::uint64_t version = 0;
  for (auto _ : state) {
    service::StateStore store(bench_config(nodes), 11);
    for (const service::Event& event : events) {
      version = store.apply(event);
    }
    benchmark::DoNotOptimize(version);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_ServiceThroughput)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

// Copy-on-read image + line serialization: the cost the snapshot thread
// pays while the ingest path keeps running.
void BM_ServiceSnapshot(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  service::StateStore store(bench_config(nodes), 12);
  for (const service::Event& event : bench_stream(nodes, 4000, 18)) {
    store.apply(event);
  }
  for (auto _ : state) {
    std::ostringstream out;
    service::write_image(out, store.image());
    benchmark::DoNotOptimize(out.str().size());
  }
}
BENCHMARK(BM_ServiceSnapshot)->Arg(50)->Arg(200);

// Snapshot capture: refill of one StateImage reused across iterations
// from a 10^4-node store, with no serialization — the part of a
// by-sequence boundary that holds the store lock on the ingest thread.
void BM_ServiceCapture(benchmark::State& state) {
  const std::uint32_t nodes = 10000;
  service::StateStore store(bench_config(nodes), 24);
  for (const service::Event& event : bench_stream(nodes, 40000, 25)) {
    store.apply(event);
  }
  service::StateImage buffer;
  store.image(buffer);
  for (auto _ : state) {
    store.image(buffer);
    benchmark::DoNotOptimize(buffer.nodes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_ServiceCapture)->Unit(benchmark::kMillisecond);

// Snapshot parse: read_image of a 10^4-node image held in memory, the
// load half of a warm restart (the store rebuild is not included).
void BM_ServiceSnapshotLoad(benchmark::State& state) {
  const std::uint32_t nodes = 10000;
  service::StateStore store(bench_config(nodes), 15);
  for (const service::Event& event : bench_stream(nodes, 40000, 22)) {
    store.apply(event);
  }
  std::ostringstream out;
  service::write_image(out, store.image());
  const std::string text = out.str();
  for (auto _ : state) {
    std::istringstream in(text);
    benchmark::DoNotOptimize(service::read_image(in).nodes.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ServiceSnapshotLoad)->Unit(benchmark::kMillisecond);

// Store rebuild: StateStore(config, seed, image) from a 10^4-node image
// held in memory, the half of a warm restart that BM_ServiceSnapshotLoad
// leaves out.
void BM_ServiceRestore(benchmark::State& state) {
  const std::uint32_t nodes = 10000;
  service::StateStore store(bench_config(nodes), 16);
  for (const service::Event& event : bench_stream(nodes, 40000, 23)) {
    store.apply(event);
  }
  const service::StateImage image = store.image();
  for (auto _ : state) {
    service::StateStore restored(bench_config(nodes), 16, image);
    benchmark::DoNotOptimize(restored.version());
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_ServiceRestore)->Unit(benchmark::kMillisecond);

// Incremental checkpoint cost: dirty-node delta extraction + delta
// serialization after a burst of events — what the chain writer pays per
// periodic checkpoint instead of a full image.
void BM_SnapshotDelta(benchmark::State& state) {
  const std::uint32_t nodes = 200;
  service::StateStore store(bench_config(nodes), 14);
  const auto events = bench_stream(nodes, 4000, 21);
  for (const service::Event& event : events) store.apply(event);
  store.checkpoint_image();
  std::size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int k = 0; k < 64; ++k) {
      store.apply(events[i++ % events.size()]);
    }
    state.ResumeTiming();
    std::ostringstream out;
    service::write_delta(out, store.take_delta());
    benchmark::DoNotOptimize(out.str().size());
  }
}
BENCHMARK(BM_SnapshotDelta)->Unit(benchmark::kMicrosecond);

// End-to-end /metrics scrape over loopback HTTP while a mutator thread
// hammers the store — measures what a monitoring agent experiences
// against a busy daemon, lock contention included.
void BM_ServiceMetricsScrape(benchmark::State& state) {
  service::StateStore store(bench_config(50), 13);
  service::ServiceMetrics metrics;
  service::HttpServer server(
      [&](const std::string&) {
        return service::HttpResponse{
            200, "text/plain; version=0.0.4",
            service::render_metrics(store, metrics, 1.0, 0.0)};
      },
      0);

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    const auto events = bench_stream(50, 4000, 19);
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      metrics.record_apply_latency(
          static_cast<double>(store.apply(events[i % events.size()]) % 97));
      ++i;
    }
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service::http_get(server.port(), "/metrics").size());
  }
  stop.store(true);
  mutator.join();
  server.stop();
}
BENCHMARK(BM_ServiceMetricsScrape)->Unit(benchmark::kMicrosecond);

}  // namespace
