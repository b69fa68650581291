#!/usr/bin/env bash
# Builds the engine's concurrency tests, the fault-injection suite, the
# simulation-kernel equivalence suite (including the fault-active
# event-kernel tests), the incremental-oracle suite and the replicationd
# service suite under ThreadSanitizer and runs them
# (`ctest -L "(engine|fault|sim|perf|service)"` plus the simulator and
# daemon gtest groups). Part of the verify routine for any change that
# touches src/engine/, src/fault/, src/service/, the simulator kernels
# or their thread-safety assumptions — the lazy-refresh MarginalOracle
# and the welfare-probe listeners run inside engine-parallel trials, and
# the daemon's ingest/monitor/snapshot threads share the versioned state
# store, so they belong in this sweep too. core_mean_field_test and the
# service-vs-simulator meeting differential test ride along under the
# `sim` label. Every target whose tests carry
# one of these labels must be built here: gtest_add_tests registers its
# cases at configure time, so an unbuilt target shows up as "Not Run".
#
# Equivalent presets flow (CMake >= 3.21):
#   cmake --preset tsan && cmake --build --preset tsan -j \
#     && ctest --preset engine-tsan
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
cmake -B "$BUILD_DIR" -S . \
  -DIMPATIENCE_SANITIZE=thread \
  -DIMPATIENCE_BUILD_BENCH=OFF \
  -DIMPATIENCE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target \
  engine_seeding_test engine_thread_pool_test engine_runner_test \
  engine_artifacts_test engine_sim_parallel_test engine_retry_test \
  fault_plan_test fault_sim_test core_kernel_equivalence_test \
  core_mean_field_test \
  alloc_oracle_test utility_cached_transform_test core_simulator_test \
  service_protocol_test service_state_store_test service_daemon_test \
  service_feeder_test service_ingest_fuzz_test service_snapshot_delta_test \
  service_snapshot_writer_test service_snapshot_fuzz_test \
  service_snapshot_reader_test \
  service_meeting_differential_test replicationd replfeed
ctest --test-dir "$BUILD_DIR" -L "(engine|fault|sim|perf|service)" \
  --output-on-failure -j"$(nproc)"
# core_simulator_test carries no label; select its gtest group by name
# (alias-init sampling, welfare-probe listeners, event-kernel entry).
# Replicationd.* re-runs the daemon suite so its ingest/monitor/snapshot
# thread interleavings get a second look under TSan; Replfeed.* covers
# the feeder's run-thread vs snapshot_report() reader plus the in-process
# chaos identity lock, and ReplicationdFuzz.* the byte-level ingest
# fuzzing (feeder thread vs daemon ingest thread).
ctest --test-dir "$BUILD_DIR" -R "^(Simulator|Replicationd|Replfeed|ReplicationdFuzz)\." \
  --output-on-failure -j"$(nproc)"
echo "engine + fault + sim + oracle + service tests clean under ThreadSanitizer"
