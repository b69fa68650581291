// The four workloads (README.md "Workloads"): two replicationd service
// workloads driven from outside the daemon, and two figure-harness
// workloads calling the library the way fig5_infocom and
// `fig4_homogeneous --eval mf` do.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Work directory (the process's cwd; every file goes there).
  std::string workdir;
};

/// What a traced section of a traced run measured.
struct TracedSection {
  int root = -1;              ///< root span of the traced execution
  double traced_wall_s = 0;   ///< wall of the traced execution
  double untraced_wall_s = 0; ///< wall of the same work untraced
};

bool is_service_workload(const std::string& name);
bool is_harness_workload(const std::string& name);

/// Untraced run: every end-to-end metric of a service workload.
void run_service(const RunOptions& options, Result& result);
/// Traced run of a service workload: one iteration against the daemon
/// (/metrics scrapes, open-loop load shape), then the daemon's ingest
/// loop replayed in-process twice over the same stream: without clock
/// reads (the untraced wall) and with a span per layer call.
TracedSection trace_service(const RunOptions& options, Tracer& tracer,
                            Result& result);

/// Untraced run: every end-to-end metric of a harness workload, each
/// iteration a child process (`perfbench --child ...`).
void run_harness(const RunOptions& options, Result& result);
/// Traced run of a harness workload, in-process. fig5_sim always runs
/// its untraced baselines through bench::run_comparison (engine threads =
/// nproc and 1, for the speedup); fig4_mf only when `baseline`.
TracedSection trace_harness(const RunOptions& options, Tracer& tracer,
                            Result& result, bool baseline);

/// Entry point of a harness child process; prints one JSON line.
int harness_child(const std::string& workload, std::uint64_t seed,
                  int threads, bool setup_only, const std::string& manifest,
                  const std::string& resume);

}  // namespace perfbench
