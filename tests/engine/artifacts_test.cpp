#include "impatience/engine/artifacts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "impatience/engine/resume.hpp"
#include "impatience/engine/seeding.hpp"
#include "impatience/util/errors.hpp"

namespace impatience::engine {
namespace {

TEST(Artifacts, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(Artifacts, JsonNumber) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(INFINITY), "null");
  // Round-trip precision: 0.1 must not be truncated to fewer digits.
  EXPECT_EQ(std::stod(json_number(0.1)), 0.1);
}

RunReport sample_report() {
  std::vector<JobSpec> jobs;
  for (int t = 0; t < 4; ++t) {
    JobSpec job;
    job.scenario = "unit";
    job.policy = t < 2 ? "QCR" : "OPT";
    job.trial = t % 2;
    job.x = 0.5;
    job.seed = child_seed(9, job.policy, static_cast<std::uint64_t>(t));
    job.run = [t](util::Rng&) {
      if (t == 3) throw std::runtime_error("bad \"quote\" job");
      return static_cast<double>(t);
    };
    jobs.push_back(std::move(job));
  }
  return Runner({.threads = 2}).run(std::move(jobs), 9);
}

TEST(Artifacts, ManifestContainsSchemaSeriesJobsAndPercentiles) {
  const RunReport report = sample_report();
  std::ostringstream out;
  write_manifest(out, report, {"unit_test", {{"trials", "2"}}});
  const std::string json = out.str();

  EXPECT_NE(json.find("\"schema\": \"impatience.run_manifest/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"generator\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"root_seed\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"trials\": \"2\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs_failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"QCR\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // The failing job's message survives, escaped.
  EXPECT_NE(json.find("bad \\\"quote\\\" job"), std::string::npos);

  // Structural smoke check: braces and brackets balance.
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Artifacts, ManifestCarriesSummedPlacementTimeAndStillResumes) {
  RunReport report;
  RunReport first = sample_report();
  first.placement_seconds = 0.25;
  RunReport second = sample_report();
  second.placement_seconds = 0.5;
  report.merge(std::move(first));
  report.merge(std::move(second));
  EXPECT_DOUBLE_EQ(report.placement_seconds, 0.75);

  const std::string path =
      testing::TempDir() + "impatience_placement_manifest.json";
  const std::string stripped_path =
      testing::TempDir() + "impatience_placement_stripped.json";
  write_manifest_file(path, report, {"unit_test", {}});
  std::string json;
  {
    std::ifstream in(path);
    json.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  EXPECT_NE(json.find("\n  \"placement_wall_seconds\": 0.75,\n"),
            std::string::npos);

  // The resume reader sees exactly what it sees without the new key.
  {
    std::istringstream in(json);
    std::ofstream out(stripped_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("placement_wall_seconds") == std::string::npos) {
        out << line << '\n';
      }
    }
  }
  const ResumeSet with_key = load_resume_set(path);
  const ResumeSet without_key = load_resume_set(stripped_path);
  EXPECT_EQ(with_key.size(), 3u);
  EXPECT_EQ(with_key.size(), without_key.size());
  for (const JobRecord& job : report.jobs) {
    JobSpec spec;
    spec.scenario = job.scenario;
    spec.policy = job.policy;
    spec.trial = job.trial;
    spec.x = job.x;
    spec.seed = job.seed;
    const double* a = with_key.find(spec);
    const double* b = without_key.find(spec);
    ASSERT_EQ(a == nullptr, !job.result.ok);
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a) {
      EXPECT_EQ(*a, job.result.value);
      EXPECT_EQ(*a, *b);
    }
  }
  std::remove(path.c_str());
  std::remove(stripped_path.c_str());
}

TEST(Artifacts, WriteFileThrowsOnBadPath) {
  EXPECT_THROW(write_manifest_file("/nonexistent-dir/x.json",
                                   sample_report(), {"t", {}}),
               util::IoError);
}

TEST(Artifacts, ErrorKindRoundTripsThroughItsManifestString) {
  for (ErrorKind kind :
       {ErrorKind::none, ErrorKind::job_exception, ErrorKind::timeout,
        ErrorKind::fault_budget_exceeded, ErrorKind::io}) {
    EXPECT_EQ(error_kind_from_string(to_string(kind)), kind);
  }
  // Unknown strings from a future schema degrade to the generic kind.
  EXPECT_EQ(error_kind_from_string("martian"), ErrorKind::job_exception);
}

TEST(Artifacts, ManifestRecordsErrorKindForFailedJobs) {
  const RunReport report = sample_report();
  std::ostringstream out;
  write_manifest(out, report, {"unit_test", {}});
  const std::string json = out.str();

  EXPECT_NE(json.find("\"error_kind\": \"job_exception\""),
            std::string::npos);
  EXPECT_NE(json.find("\"quarantined\": true"), std::string::npos);
  EXPECT_NE(json.find("\"jobs_quarantined\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"jobs_resumed\": 0"), std::string::npos);
  // Successful jobs carry no error_kind field.
  EXPECT_EQ(json.find("\"error_kind\": \"none\""), std::string::npos);
}

// A streambuf that accepts `budget` bytes and then fails: simulates the
// disk filling up (or the process being killed) mid-write.
class FailingStreambuf : public std::streambuf {
 public:
  explicit FailingStreambuf(std::size_t budget) : budget_(budget) {}

 protected:
  int_type overflow(int_type ch) override {
    if (budget_ == 0) return traits_type::eof();
    --budget_;
    return ch;
  }

 private:
  std::size_t budget_;
};

TEST(Artifacts, WriteDyingMidStreamSetsFailbitWithoutCrashing) {
  const RunReport report = sample_report();
  FailingStreambuf buf(64);  // dies long before the manifest completes
  std::ostream out(&buf);
  write_manifest(out, report, {"unit_test", {}});
  EXPECT_FALSE(out.good());  // the failure is visible, not swallowed
}

TEST(Artifacts, AtomicWriteReplacesTheTargetAndLeavesNoTemp) {
  const std::string path =
      testing::TempDir() + "impatience_atomic_write.json";
  std::remove(path.c_str());
  {
    std::ofstream prior(path);
    prior << "previous contents";
  }

  atomic_write_file(path, [](std::ostream& out) { out << "fresh"; });

  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "fresh");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(Artifacts, AtomicWriteFailureLeavesPreviousFileIntact) {
  const std::string path =
      testing::TempDir() + "impatience_atomic_fail.json";
  std::remove(path.c_str());
  {
    std::ofstream prior(path);
    prior << "previous contents";
  }

  EXPECT_THROW(atomic_write_file(path,
                                 [](std::ostream& out) {
                                   out << "half a mani";
                                   throw std::runtime_error("killed");
                                 }),
               std::runtime_error);

  // The interrupted write never touched the real file, and the temp file
  // was cleaned up.
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "previous contents");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace impatience::engine
