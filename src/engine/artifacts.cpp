#include "impatience/engine/artifacts.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "impatience/stats/percentile.hpp"
#include "impatience/util/errors.hpp"

namespace impatience::engine {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

namespace {

std::string quoted(std::string_view s) {
  return '"' + json_escape(s) + '"';
}

/// Wall-time percentile block (satellite: runner-throughput trajectories).
void write_wall_time_block(std::ostream& out, const RunReport& report) {
  std::vector<double> times;
  times.reserve(report.jobs.size());
  double max_t = 0.0;
  for (const auto& job : report.jobs) {
    times.push_back(job.result.wall_seconds);
    if (job.result.wall_seconds > max_t) max_t = job.result.wall_seconds;
  }
  out << "  \"job_wall_seconds\": ";
  if (times.empty()) {
    out << "null";
    return;
  }
  const auto ps = stats::percentiles(times, {0.50, 0.90, 0.99});
  out << "{\"p50\": " << json_number(ps[0]) << ", \"p90\": "
      << json_number(ps[1]) << ", \"p99\": " << json_number(ps[2])
      << ", \"max\": " << json_number(max_t) << "}";
}

}  // namespace

void write_manifest(std::ostream& out, const RunReport& report,
                    const ManifestInfo& info) {
  out << "{\n";
  out << "  \"schema\": \"impatience.run_manifest/1\",\n";
  out << "  \"generator\": " << quoted(info.generator) << ",\n";
  out << "  \"root_seed\": " << report.root_seed << ",\n";
  out << "  \"threads\": " << report.threads << ",\n";
  out << "  \"wall_seconds\": " << json_number(report.wall_seconds) << ",\n";
  out << "  \"placement_wall_seconds\": "
      << json_number(report.placement_seconds) << ",\n";
  out << "  \"jobs_total\": " << report.jobs.size() << ",\n";
  out << "  \"jobs_failed\": " << report.failed << ",\n";
  out << "  \"jobs_quarantined\": " << report.quarantined << ",\n";
  out << "  \"jobs_resumed\": " << report.resumed << ",\n";

  out << "  \"config\": {";
  bool first = true;
  for (const auto& [key, value] : info.config) {
    if (!first) out << ", ";
    first = false;
    out << quoted(key) << ": " << quoted(value);
  }
  out << "},\n";

  // Per-(scenario, policy, x) outcome bands — the figures' mean + 5%/95%
  // envelope. Recomputed from the job records rather than the report's
  // aggregate: a merged multi-sweep report can repeat an x value in
  // different scenarios, which the (policy, x)-keyed aggregate conflates.
  std::map<std::tuple<std::string, std::string, double>, std::vector<double>>
      by_point;
  for (const auto& job : report.jobs) {
    if (job.result.ok) {
      by_point[{job.scenario, job.policy, job.x}].push_back(job.result.value);
    }
  }
  out << "  \"series\": [";
  first = true;
  for (const auto& [key, values] : by_point) {
    const auto& [scenario, policy, x] = key;
    double sum = 0.0;
    for (double v : values) sum += v;
    const auto band = stats::percentiles(values, {0.05, 0.95});
    if (!first) out << ",";
    first = false;
    out << "\n    {\"scenario\": " << quoted(scenario)
        << ", \"policy\": " << quoted(policy)
        << ", \"x\": " << json_number(x) << ", \"mean\": "
        << json_number(sum / static_cast<double>(values.size()))
        << ", \"p05\": " << json_number(band[0])
        << ", \"p95\": " << json_number(band[1])
        << ", \"trials\": " << values.size() << "}";
  }
  out << (first ? "" : "\n  ") << "],\n";

  out << "  \"jobs\": [";
  first = true;
  for (const auto& job : report.jobs) {
    if (!first) out << ",";
    first = false;
    out << "\n    {\"scenario\": " << quoted(job.scenario)
        << ", \"policy\": " << quoted(job.policy)
        << ", \"trial\": " << job.trial << ", \"x\": " << json_number(job.x)
        << ", \"seed\": " << job.seed
        << ", \"ok\": " << (job.result.ok ? "true" : "false")
        << ", \"value\": " << json_number(job.result.value)
        << ", \"wall_seconds\": " << json_number(job.result.wall_seconds);
    if (job.result.attempts > 1) {
      out << ", \"attempts\": " << job.result.attempts;
    }
    if (job.result.resumed) out << ", \"resumed\": true";
    if (!job.result.ok) {
      out << ", \"error\": " << quoted(job.result.error)
          << ", \"error_kind\": " << quoted(to_string(job.result.error_kind));
      if (job.result.quarantined) out << ", \"quarantined\": true";
    }
    out << "}";
  }
  out << (first ? "" : "\n  ") << "],\n";

  write_wall_time_block(out, report);
  out << "\n}\n";
}

namespace {

/// Flushes the temp file's contents to stable storage before the rename
/// makes it visible; without it a power cut can publish an empty file.
void fsync_path(const std::string& path) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw util::IoError("atomic_write_file: cannot reopen for fsync: " +
                        path);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    throw util::IoError("atomic_write_file: fsync failed: " + path);
  }
#else
  (void)path;
#endif
}

}  // namespace

void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer) {
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw util::IoError("atomic_write_file: cannot open " + tmp);
      }
      writer(out);
      out.flush();
      if (!out.good()) {
        throw util::IoError("atomic_write_file: write failed: " + tmp);
      }
    }
    fsync_path(tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw util::IoError("atomic_write_file: rename failed: " + tmp +
                          " -> " + path);
    }
  } catch (...) {
    std::remove(tmp.c_str());  // never leave the partial temp behind
    throw;
  }
}

void write_manifest_file(const std::string& path, const RunReport& report,
                         const ManifestInfo& info) {
  atomic_write_file(path, [&](std::ostream& out) {
    write_manifest(out, report, info);
  });
}

}  // namespace impatience::engine
