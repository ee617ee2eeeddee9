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
