// perfbench: the repository's end-to-end benchmark (README.md).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --workdir DIR
//
// prints one JSON result as its last stdout line. `--trace 0` reports the
// end-to-end metrics of workload W; `--trace 1` traces W and reports
// every per-layer metric: layers W does not reach are traced on their
// home workload in the same run (service layers on stream_200n, the
// trace-driven harness layers on fig5_sim, mean-field layers on fig4_mf).
//
//   perfbench --child fig5_sim|fig4_mf --seed N --threads T
//             [--setup-only] [--manifest PATH] [--resume PATH]
//
// is one harness iteration, spawned by an untraced harness run.
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument " + key);
    }
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args[key.substr(2)] = argv[++i];
    } else {
      args[key.substr(2)] = "";
    }
  }
  return args;
}

std::string arg(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

void traced_run(const RunOptions& options, Result& result) {
  Tracer tracer;
  const bool service = is_service_workload(options.workload);
  TracedSection target;

  RunOptions section = options;
  section.workload = service ? options.workload : "stream_200n";
  const TracedSection s = trace_service(section, tracer, result);
  if (service) target = s;

  section.workload = "fig5_sim";
  const TracedSection f5 = trace_harness(section, tracer, result, true);
  if (options.workload == "fig5_sim") target = f5;

  section.workload = "fig4_mf";
  const TracedSection f4 = trace_harness(
      section, tracer, result, options.workload == "fig4_mf");
  if (options.workload == "fig4_mf") target = f4;

  result.metric("tracing.overhead_frac", "ratio",
                target.traced_wall_s / target.untraced_wall_s - 1.0);
  result.metric("tracing.span_coverage", "ratio",
                tracer.coverage(target.root));
  tracer.write("spans.jsonl");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = parse_args(argc, argv);
    if (args.count("child")) {
      return harness_child(arg(args, "child", ""),
                           std::stoull(arg(args, "seed", "1")),
                           std::stoi(arg(args, "threads", "0")),
                           args.count("setup-only") > 0,
                           arg(args, "manifest", ""), arg(args, "resume", ""));
    }
    RunOptions options;
    options.workload = arg(args, "workload", "");
    options.seed = std::stoull(arg(args, "seed", "1"));
    options.seconds = std::stod(arg(args, "seconds", "10"));
    options.workdir = arg(args, "workdir", "");
    const bool trace = arg(args, "trace", "0") == "1";
    if (!is_service_workload(options.workload) &&
        !is_harness_workload(options.workload)) {
      std::cerr << "perfbench: unknown workload '" << options.workload
                << "'\n";
      return 2;
    }
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
      std::cerr << "perfbench: refusing to measure a '" PERFBENCH_BUILD_TYPE
                   "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
      return 3;
    }
    if (options.workdir.empty() || ::chdir(options.workdir.c_str()) != 0) {
      std::cerr << "perfbench: cannot enter --workdir '" << options.workdir
                << "'\n";
      return 2;
    }
    std::printf("# context: {\"nproc\": %u, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\"}\n",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER);

    Result result;
    if (trace) {
      traced_run(options, result);
    } else if (is_service_workload(options.workload)) {
      run_service(options, result);
    } else {
      run_harness(options, result);
    }
    std::printf("%s\n", result.json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
