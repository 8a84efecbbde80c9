// bench_diff exit codes: a gated (bench.* time or rate) metric that the
// baseline has and the new document lacks fails the comparison; an
// ungated one is informational.  The binary path is injected by CMake.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

namespace {

std::string write_doc(const std::string& name, const std::string& metrics) {
  const std::string path = ::testing::TempDir() + "bench_diff_" +
                           std::to_string(::getpid()) + "_" + name + ".json";
  std::ofstream(path) << R"({"schema":"ccsql-bench/1","bench":"b",)"
                      << R"("git_sha":"x","jobs":1,"metrics":[)" << metrics
                      << "]}";
  return path;
}

int bench_diff(const std::string& old_doc, const std::string& new_doc) {
  const std::string cmd = std::string(BENCH_DIFF_BIN) + " " + old_doc + " " +
                          new_doc + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

const char* kTime = R"({"name":"bench.t_us","value":100,"unit":"us"})";
const char* kRate = R"({"name":"bench.q","value":100,"unit":"qps"})";
const char* kCount = R"({"name":"exec.batches","value":7,"unit":"count"})";

TEST(BenchDiff, IdenticalDocumentsPass) {
  const std::string doc =
      write_doc("same", std::string(kTime) + "," + kRate + "," + kCount);
  EXPECT_EQ(bench_diff(doc, doc), 0);
}

TEST(BenchDiff, MissingGatedMetricFails) {
  const std::string old_doc =
      write_doc("old", std::string(kTime) + "," + kRate + "," + kCount);
  EXPECT_EQ(bench_diff(old_doc, write_doc("no_time", std::string(kRate) +
                                                         "," + kCount)),
            1);
  EXPECT_EQ(bench_diff(old_doc, write_doc("no_rate", std::string(kTime) +
                                                         "," + kCount)),
            1);
}

TEST(BenchDiff, MissingInfoMetricPasses) {
  const std::string old_doc =
      write_doc("old_info", std::string(kTime) + "," + kCount);
  EXPECT_EQ(bench_diff(old_doc, write_doc("no_count", kTime)), 0);
}

}  // namespace
