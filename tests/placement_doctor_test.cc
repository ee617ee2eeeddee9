#include "core/placement_doctor.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/advisor.h"
#include "core/tiered_table.h"
#include "selection/calibration.h"
#include "workload/enterprise.h"
#include "workload/workload_monitor.h"

namespace hytap {
namespace {

/// A trimmed BSEG table and a seeded skew-flip workload over it: a hot set
/// of `hot_count` payload columns starting at column 1, which phase B flips
/// to the opposite end of the schema.
struct Instance {
  size_t rows;
  size_t cols;
  size_t queries;  // per phase
  size_t hot_count;
  uint64_t data_seed;   // rows and device timing
  uint64_t query_seed;  // the query mix
};

constexpr Instance kSmall{4000, 12, 32, 4, 42, 99};
/// A wider table with a third of the payload hot, seed 42.
constexpr Instance kWide{8000, 24, 48, 7, 42, 42 * 7919 + 1};

/// The small instance's geometry, used by the tests that run one phase.
constexpr size_t kCols = kSmall.cols;
constexpr size_t kQueriesPerPhase = kSmall.queries;
constexpr size_t kHotA = 1;

std::unique_ptr<TieredTable> MakeTable(const Instance& instance = kSmall) {
  EnterpriseProfile profile = BsegProfile();
  profile.attribute_count = instance.cols;
  TieredTableOptions options;
  options.device = DeviceKind::kCssd;
  options.timing_seed = instance.data_seed;
  // Phases are separated via ForceRoll(): keep each phase in one window.
  options.monitor.window_ns = 1'000'000'000'000'000ull;
  auto table = std::make_unique<TieredTable>(
      "bseg", MakeEnterpriseSchema(profile), options);
  table->Load(
      GenerateEnterpriseRows(profile, instance.rows, instance.data_seed));
  return table;
}

/// Seeded equality mix concentrated on `hot_base .. hot_base+hot_count`.
void RunPhase(TieredTable* table, size_t hot_base, Rng* rng,
              const Instance& instance = kSmall) {
  Transaction txn = table->Begin();
  for (size_t q = 0; q < instance.queries; ++q) {
    Query query;
    const size_t hot = hot_base + size_t(rng->NextBounded(instance.hot_count));
    query.predicates.push_back(
        Predicate::Equals(ColumnId(hot), Value(int32_t(rng->NextBounded(8)))));
    if (q % 3 == 0) {
      const size_t other =
          hot_base + size_t(rng->NextBounded(instance.hot_count));
      if (other != hot) {
        query.predicates.push_back(Predicate::Between(
            ColumnId(other), Value(int32_t{0}), Value(int32_t{40})));
      }
    }
    query.aggregates = {Aggregate::Count()};
    (void)table->Execute(txn, query, 2);
  }
  table->Commit(&txn);
}

double TotalDramBytes(const TieredTable& table) {
  double total = 0.0;
  for (ColumnId c = 0; c < table.table().column_count(); ++c) {
    total += double(table.table().ColumnDramBytes(c));
  }
  return total;
}

std::string Describe(const Instance& instance) {
  return std::to_string(instance.rows) + " rows x " +
         std::to_string(instance.cols) + " columns";
}

TEST(PlacementDoctorTest, RegretNearZeroAfterAdvisorApply) {
  for (const Instance& instance : {kSmall, kWide}) {
    SCOPED_TRACE(Describe(instance));
    auto table = MakeTable(instance);
    Rng rng(instance.query_seed);
    RunPhase(table.get(), kHotA, &rng, instance);

    Advisor advisor;
    auto migrated = advisor.Apply(table.get(), 0.35 * TotalDramBytes(*table));
    ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();

    PlacementDoctor doctor;
    const DoctorReport report = doctor.Diagnose(*table);

    EXPECT_EQ(report.queries_observed, instance.queries);
    // The placement was just optimized for exactly this workload at exactly
    // this budget (placement parity), so the doctor must agree with it.
    EXPECT_GE(report.regret, 0.0);
    EXPECT_LE(report.regret_pct, 1.0);
    EXPECT_TRUE(report.misplaced.empty());
    EXPECT_DOUBLE_EQ(report.budget_bytes, report.current_dram_bytes);
    EXPECT_GE(report.current_cost, report.recommended_cost);
    EXPECT_LE(report.all_dram_cost, report.recommended_cost + 1e-9);
    // Report rendering smoke.
    EXPECT_NE(report.ToText().find("regret"), std::string::npos);
    EXPECT_NE(report.ToJson().find("\"regret\""), std::string::npos);
  }
}

TEST(PlacementDoctorTest, SkewFlipRaisesRegretWithFlippedColumnsInTopK) {
  for (const Instance& instance : {kSmall, kWide}) {
    SCOPED_TRACE(Describe(instance));
    const size_t hot_b = instance.cols - instance.hot_count;
    const size_t hot_end = hot_b + instance.hot_count;
    auto table = MakeTable(instance);
    Rng rng(instance.query_seed);
    RunPhase(table.get(), kHotA, &rng, instance);
    Advisor advisor;
    ASSERT_TRUE(
        advisor.Apply(table.get(), 0.35 * TotalDramBytes(*table)).ok());
    PlacementDoctor doctor;
    const DoctorReport report_a = doctor.Diagnose(*table);

    // The hot set flips to columns the advisor just evicted; diagnose only
    // the post-flip window.
    table->monitor().ForceRoll();
    RunPhase(table.get(), hot_b, &rng, instance);
    DoctorOptions recent_options;
    recent_options.recent_windows = 1;
    PlacementDoctor recent_doctor(recent_options);
    const DoctorReport report_b = recent_doctor.Diagnose(*table);

    EXPECT_EQ(report_b.windows_used, 1u);
    EXPECT_GT(report_b.drift, 0.9);  // disjoint hot sets
    EXPECT_GT(report_b.regret, 0.0);
    EXPECT_GT(report_b.regret_pct, report_a.regret_pct);
    ASSERT_FALSE(report_b.misplaced.empty());
    bool flipped_in_topk = false;
    for (const MisplacedColumn& column : report_b.misplaced) {
      if (column.column >= hot_b && column.column < hot_end &&
          column.in_dram_recommended && !column.in_dram_now) {
        flipped_in_topk = true;
      }
    }
    EXPECT_TRUE(flipped_in_topk);
    // Ranked by separable cost term, largest first.
    for (size_t i = 1; i < report_b.misplaced.size(); ++i) {
      EXPECT_GE(report_b.misplaced[i - 1].cost_delta,
                report_b.misplaced[i].cost_delta);
    }
  }
}

TEST(PlacementDoctorTest, CalibrationRecoversFromPerturbedReference) {
  auto table = MakeTable();

  // Fan the observation stream out to a second calibrator whose reference
  // parameters are badly perturbed.
  struct TeeSink : QueryObservationSink {
    std::vector<QueryObservationSink*> sinks;
    void Observe(const QueryObservation& observation) override {
      for (QueryObservationSink* sink : sinks) sink->Observe(observation);
    }
  } tee;
  CostCalibrator perturbed(ScanCostParams{10.0, 1000.0});
  tee.sinks = {&table->calibrator(), &perturbed};
  table->monitor().set_sink(&tee);

  // Tier the hot set half-and-half so both the DRAM and the secondary tier
  // accumulate bytes: columns 1-2 stay in DRAM, 3-4 (and the rest) evict.
  std::vector<bool> in_dram(kCols, false);
  in_dram[0] = in_dram[1] = in_dram[2] = true;
  ASSERT_TRUE(table->ApplyPlacement(in_dram).ok());
  Rng rng(7);
  RunPhase(table.get(), kHotA, &rng);
  table->monitor().set_sink(&table->calibrator());

  ASSERT_EQ(perturbed.sample_count(), kQueriesPerPhase);
  ASSERT_GT(perturbed.dram().bytes, 0u);
  ASSERT_GT(perturbed.secondary().bytes, 0u);

  // The fit is a pure bytes/ns ratio: it recovers the simulator's effective
  // bandwidths no matter how wrong the starting reference was.
  const ScanCostParams fitted_default = table->calibrator().Fitted();
  const ScanCostParams fitted_perturbed = perturbed.Fitted();
  EXPECT_NEAR(fitted_perturbed.c_mm, fitted_default.c_mm, 1e-12);
  EXPECT_NEAR(fitted_perturbed.c_ss, fitted_default.c_ss, 1e-12);
  // DRAM truth: kDramScanBytesPerNs = 10 bytes/ns -> ~0.1 ns/byte.
  EXPECT_NEAR(fitted_perturbed.c_mm, 0.1, 0.05);
  // CSSD effective bandwidth lands far from both references.
  EXPECT_GT(fitted_perturbed.c_ss, 1.0);
  EXPECT_LT(fitted_perturbed.c_ss, 100.0);
  // Residuals (unlike the fit) do depend on the reference: the perturbed
  // calibrator predicts higher costs, so its observed/predicted ratio is
  // smaller.
  EXPECT_GT(table->calibrator().SecondaryResidualRatio(),
            perturbed.SecondaryResidualRatio());
}

TEST(PlacementDoctorTest, CalibratedParamsOptIn) {
  auto table = MakeTable();
  std::vector<bool> in_dram(kCols, false);
  in_dram[0] = in_dram[1] = in_dram[2] = true;
  ASSERT_TRUE(table->ApplyPlacement(in_dram).ok());
  Rng rng(7);
  RunPhase(table.get(), kHotA, &rng);

  DoctorOptions options;
  options.use_calibrated_params = true;
  PlacementDoctor doctor(options);
  const DoctorReport report = doctor.Diagnose(*table);
  EXPECT_TRUE(report.calibrated);
  EXPECT_EQ(report.calibration_samples, kQueriesPerPhase);
  EXPECT_DOUBLE_EQ(report.params_used.c_mm, report.fitted_params.c_mm);
  EXPECT_DOUBLE_EQ(report.params_used.c_ss, report.fitted_params.c_ss);
  // The advisor honors the same opt-in, reading the table's calibrator.
  AdvisorOptions advisor_options;
  advisor_options.use_calibrated_params = true;
  Advisor advisor(advisor_options);
  const Recommendation rec = advisor.RecommendRelative(*table, 0.5);
  EXPECT_DOUBLE_EQ(rec.params_used.c_mm, report.fitted_params.c_mm);
  EXPECT_DOUBLE_EQ(rec.params_used.c_ss, report.fitted_params.c_ss);
}

TEST(PlacementDoctorTest, EmptyWorkloadYieldsZeroReport) {
  auto table = MakeTable();
  PlacementDoctor doctor;
  const DoctorReport report = doctor.Diagnose(*table);
  EXPECT_DOUBLE_EQ(report.regret, 0.0);
  EXPECT_DOUBLE_EQ(report.regret_pct, 0.0);
  EXPECT_TRUE(report.misplaced.empty());
  EXPECT_DOUBLE_EQ(report.current_cost, 0.0);
}

TEST(PlacementDoctorTest, JsonEscapesControlCharactersInColumnNames) {
  DoctorReport report;
  MisplacedColumn column;
  column.column = 3;
  column.name = "net\tamount\x01";
  report.misplaced.push_back(column);
  const std::string json = report.ToJson();
  EXPECT_EQ(json.find('\t'), std::string::npos) << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"net\\tamount\\u0001\""), std::string::npos)
      << json;
}

}  // namespace
}  // namespace hytap
