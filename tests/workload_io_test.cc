#include "io/workload_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "workload/example1.h"

namespace hytap {
namespace {

TEST(WorkloadIoTest, RoundTrip) {
  Workload original = GenerateExample1({});
  StatusOr<Workload> parsed = ParseWorkload(SerializeWorkload(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->column_count(), original.column_count());
  ASSERT_EQ(parsed->query_count(), original.query_count());
  for (size_t i = 0; i < original.column_count(); ++i) {
    EXPECT_DOUBLE_EQ(parsed->column_sizes[i], original.column_sizes[i]);
    EXPECT_DOUBLE_EQ(parsed->selectivities[i], original.selectivities[i]);
  }
  for (size_t j = 0; j < original.query_count(); ++j) {
    EXPECT_EQ(parsed->queries[j].columns, original.queries[j].columns);
    EXPECT_DOUBLE_EQ(parsed->queries[j].frequency,
                     original.queries[j].frequency);
  }
}

TEST(WorkloadIoTest, CommentsAndBlankLinesIgnored) {
  const char* text =
      "# exported workload\n"
      "hytap-workload v1\n"
      "\n"
      "columns 2\n"
      "a 100 0.5\n"
      "# the second column\n"
      "b 200 0.1\n"
      "queries 1\n"
      "5 0 1\n";
  StatusOr<Workload> parsed = ParseWorkload(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->column_count(), 2u);
  EXPECT_EQ(parsed->queries[0].columns, (std::vector<uint32_t>{0, 1}));
  EXPECT_DOUBLE_EQ(parsed->queries[0].frequency, 5.0);
}

TEST(WorkloadIoTest, RejectsMalformedInputs) {
  EXPECT_FALSE(ParseWorkload("").ok());
  EXPECT_FALSE(ParseWorkload("not-a-workload\n").ok());
  EXPECT_FALSE(
      ParseWorkload("hytap-workload v1\ncolumns x\n").ok());
  // Column with non-positive size.
  EXPECT_FALSE(ParseWorkload("hytap-workload v1\ncolumns 1\na 0 0.5\n"
                             "queries 0\n")
                   .ok());
  // Selectivity out of (0, 1].
  EXPECT_FALSE(ParseWorkload("hytap-workload v1\ncolumns 1\na 10 2.0\n"
                             "queries 0\n")
                   .ok());
  // Query referencing an unknown column.
  EXPECT_FALSE(ParseWorkload("hytap-workload v1\ncolumns 1\na 10 0.5\n"
                             "queries 1\n1 7\n")
                   .ok());
  // Query with no columns.
  EXPECT_FALSE(ParseWorkload("hytap-workload v1\ncolumns 1\na 10 0.5\n"
                             "queries 1\n1\n")
                   .ok());
  // Truncated column section.
  EXPECT_FALSE(
      ParseWorkload("hytap-workload v1\ncolumns 2\na 10 0.5\n").ok());
  // Header counts far beyond the input allocate nothing up front: the
  // parse ends at the input's end.
  EXPECT_EQ(ParseWorkload("hytap-workload v1\ncolumns 2305843009213693951\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseWorkload("hytap-workload v1\ncolumns 1\na 10 0.5\n"
                          "queries 2305843009213693951\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(WorkloadIoTest, FileRoundTrip) {
  Workload original = GenerateExample1({});
  const std::string path = "/tmp/hytap_workload_io_test.txt";
  ASSERT_TRUE(WriteWorkloadFile(path, original).ok());
  StatusOr<Workload> parsed = ReadWorkloadFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->column_count(), original.column_count());
  std::remove(path.c_str());
  EXPECT_FALSE(ReadWorkloadFile("/tmp/does_not_exist_hytap.txt").ok());
}

WorkloadWindowSeries SampleSeries() {
  WorkloadWindowSeries series;
  series.window_ns = 1000;
  series.column_count = 3;
  WorkloadWindowSnapshot w;
  w.index = 4;
  w.start_ns = 4000;
  w.queries = 5;
  w.failures = 1;
  w.index_steps = 2;
  w.scan_steps = 5;
  w.probe_steps = 3;
  w.rescan_steps = 1;
  w.simulated_ns = 1234;
  w.column_frequency = {2.0, 0.0, 3.5};
  w.selectivity_sum = {0.25, 0.0, 1.75};
  w.selectivity_samples = {2, 0, 4};
  w.templates[{0}] = 2;
  w.templates[{0, 2}] = 3;
  series.windows.push_back(w);
  WorkloadWindowSnapshot w2 = w;
  w2.index = 5;
  w2.start_ns = 5000;
  w2.queries = 7;
  w2.templates.clear();
  w2.templates[{1, 2}] = 7;
  series.windows.push_back(std::move(w2));
  return series;
}

TEST(WorkloadIoTest, WindowsRoundTrip) {
  const WorkloadWindowSeries original = SampleSeries();
  StatusOr<WorkloadWindowSeries> parsed =
      ParseWorkloadWindows(SerializeWorkloadWindows(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->window_ns, original.window_ns);
  EXPECT_EQ(parsed->column_count, original.column_count);
  ASSERT_EQ(parsed->windows.size(), original.windows.size());
  for (size_t i = 0; i < original.windows.size(); ++i) {
    const WorkloadWindowSnapshot& a = original.windows[i];
    const WorkloadWindowSnapshot& b = parsed->windows[i];
    EXPECT_EQ(b.index, a.index);
    EXPECT_EQ(b.start_ns, a.start_ns);
    EXPECT_EQ(b.simulated_ns, a.simulated_ns);
    EXPECT_EQ(b.queries, a.queries);
    EXPECT_EQ(b.failures, a.failures);
    EXPECT_EQ(b.index_steps, a.index_steps);
    EXPECT_EQ(b.scan_steps, a.scan_steps);
    EXPECT_EQ(b.probe_steps, a.probe_steps);
    EXPECT_EQ(b.rescan_steps, a.rescan_steps);
    EXPECT_EQ(b.column_frequency, a.column_frequency);
    EXPECT_EQ(b.selectivity_sum, a.selectivity_sum);
    EXPECT_EQ(b.selectivity_samples, a.selectivity_samples);
    EXPECT_EQ(b.templates, a.templates);
  }
}

TEST(WorkloadIoTest, WindowsFileRoundTrip) {
  const WorkloadWindowSeries original = SampleSeries();
  const std::string path = "/tmp/hytap_workload_windows_io_test.txt";
  ASSERT_TRUE(WriteWorkloadWindowsFile(path, original).ok());
  StatusOr<WorkloadWindowSeries> parsed = ReadWorkloadWindowsFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->windows.size(), original.windows.size());
  std::remove(path.c_str());
  EXPECT_FALSE(ReadWorkloadWindowsFile("/tmp/does_not_exist_hytap.txt").ok());
}

TEST(WorkloadIoTest, WindowsRejectsMalformedInputs) {
  EXPECT_FALSE(ParseWorkloadWindows("").ok());
  EXPECT_FALSE(ParseWorkloadWindows("hytap-workload v1\n").ok());
  const std::string header = "hytap-workload-windows v1\n";
  // Malformed or zero geometry.
  EXPECT_FALSE(ParseWorkloadWindows(header + "columns x\n").ok());
  EXPECT_FALSE(
      ParseWorkloadWindows(header + "columns 2 window_ns 0\nwindows 0\n")
          .ok());
  // Truncated windows section.
  EXPECT_FALSE(
      ParseWorkloadWindows(header + "columns 2 window_ns 10\nwindows 1\n")
          .ok());
  const std::string window_line = "window 0 0 5 1 0 0 1 0 0\n";
  // Per-column vector with the wrong arity.
  EXPECT_FALSE(ParseWorkloadWindows(header +
                                    "columns 2 window_ns 10\nwindows 1\n" +
                                    window_line + "freq 1.0\n")
                   .ok());
  // Header counts far beyond the input allocate nothing up front.
  EXPECT_EQ(ParseWorkloadWindows(header +
                                 "columns 2 window_ns 10\n"
                                 "windows 2305843009213693951\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseWorkloadWindows(
                header +
                "columns 2305843009213693951 window_ns 10\nwindows 1\n" +
                window_line + "freq 1 0\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Negative selectivity sample count.
  EXPECT_FALSE(ParseWorkloadWindows(
                   header + "columns 2 window_ns 10\nwindows 1\n" +
                   window_line +
                   "freq 1 0\nselsum 0.5 0\nselcnt -1 0\ntemplates 0\n")
                   .ok());
  // Template referencing an unknown column / without columns.
  EXPECT_FALSE(ParseWorkloadWindows(
                   header + "columns 2 window_ns 10\nwindows 1\n" +
                   window_line +
                   "freq 1 0\nselsum 0.5 0\nselcnt 1 0\ntemplates 1\n2 7\n")
                   .ok());
  EXPECT_FALSE(ParseWorkloadWindows(
                   header + "columns 2 window_ns 10\nwindows 1\n" +
                   window_line +
                   "freq 1 0\nselsum 0.5 0\nselcnt 1 0\ntemplates 1\n2\n")
                   .ok());
  // The minimal well-formed document parses.
  EXPECT_TRUE(ParseWorkloadWindows(
                  header + "columns 2 window_ns 10\nwindows 1\n" +
                  window_line +
                  "freq 1 0\nselsum 0.5 0\nselcnt 1 0\ntemplates 1\n2 0 1\n")
                  .ok());
}

TEST(WorkloadIoTest, FrontierCsv) {
  Workload w = GenerateExample1({});
  SelectionProblem problem;
  problem.workload = &w;
  problem.params = {1.0, 100.0};
  ExplicitFrontier frontier = ComputeExplicitFrontier(problem);
  const std::string csv = FrontierToCsv(frontier, w);
  EXPECT_NE(csv.find("step,column,name"), std::string::npos);
  // One line per frontier point plus the header.
  const size_t lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, frontier.points.size() + 1);
}

TEST(WorkloadIoTest, AllocationCsv) {
  Workload w = GenerateExample1({});
  auto problem =
      SelectionProblem::FromRelativeBudget(w, ScanCostParams{1, 100}, 0.4);
  SelectionResult result = SelectExplicit(problem);
  const std::string csv = AllocationToCsv(result, w);
  EXPECT_NE(csv.find("column,name,size_bytes,location"), std::string::npos);
  EXPECT_NE(csv.find("dram"), std::string::npos);
  EXPECT_NE(csv.find("secondary"), std::string::npos);
}

}  // namespace
}  // namespace hytap
