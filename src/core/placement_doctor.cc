#include "core/placement_doctor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/metrics.h"
#include "common/trace.h"
#include "selection/cost_model.h"

namespace hytap {

namespace {

/// Registry handles resolved once; updates gated on MetricsEnabled().
struct DoctorMetrics {
  Gauge* regret_pct_milli;
  Gauge* misplaced_columns;
  Gauge* windows_used;
  Gauge* queries_observed;
  Gauge* drift_pct;
  Counter* diagnoses;

  static DoctorMetrics& Get() {
    static DoctorMetrics metrics;
    return metrics;
  }

 private:
  DoctorMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    regret_pct_milli = registry.GetGauge("hytap_doctor_regret_pct_milli");
    misplaced_columns = registry.GetGauge("hytap_doctor_misplaced_columns");
    windows_used = registry.GetGauge("hytap_doctor_windows_used");
    queries_observed = registry.GetGauge("hytap_doctor_queries_observed");
    drift_pct = registry.GetGauge("hytap_doctor_drift_pct");
    diagnoses = registry.GetCounter("hytap_doctor_diagnoses_total");
  }
};

}  // namespace

PlacementDoctor::PlacementDoctor(DoctorOptions options)
    : options_(options) {}

DoctorReport PlacementDoctor::Diagnose(const TieredTable& table) const {
  DoctorReport report;
  const WorkloadMonitor& monitor = table.monitor();
  report.queries_observed = monitor.queries_observed();
  report.drift = monitor.Drift();
  report.fitted_params = table.calibrator().Fitted();
  report.calibration_samples = table.calibrator().sample_count();
  report.calibrated = options_.use_calibrated_params;
  report.params_used =
      options_.use_calibrated_params ? report.fitted_params
                                     : options_.cost_params;

  // The monitor's recent windows: observed frequencies + selectivities.
  Workload workload;
  if (report.queries_observed > 0) {
    workload = monitor.ToWorkload(table.table(), options_.recent_windows);
    report.windows_used =
        options_.recent_windows == 0
            ? monitor.window_count()
            : std::min(options_.recent_windows, monitor.window_count());
  }

  const std::vector<bool>& placement = table.table().placement();
  std::vector<uint8_t> current(placement.size());
  for (size_t i = 0; i < placement.size(); ++i) {
    current[i] = placement[i] ? 1 : 0;
  }

  if (workload.queries.empty() || workload.column_count() == 0) {
    // Nothing observed: a placement cannot regret against an empty
    // workload. Export and return a zero report.
    DoctorMetrics& metrics = DoctorMetrics::Get();
    metrics.diagnoses->Add();
    metrics.regret_pct_milli->Set(0);
    metrics.misplaced_columns->Set(0);
    metrics.windows_used->Set(int64_t(report.windows_used));
    metrics.queries_observed->Set(int64_t(report.queries_observed));
    metrics.drift_pct->Set(int64_t(report.drift * 100.0 + 0.5));
    return report;
  }

  CostModel model(workload, report.params_used);
  report.current_cost = model.ScanCost(current);
  report.current_dram_bytes = model.MemoryUsed(current);
  report.all_dram_cost = model.AllDramCost();
  report.budget_bytes = options_.budget_bytes < 0.0
                            ? report.current_dram_bytes
                            : options_.budget_bytes;

  SelectionProblem problem;
  problem.workload = &workload;
  problem.params = report.params_used;
  problem.budget_bytes = report.budget_bytes;
  SelectionResult recommended;
  if (options_.use_portfolio) {
    SolverPortfolio portfolio(options_.portfolio);
    PortfolioResult solved = portfolio.Solve(problem);
    recommended = std::move(solved.selection);
    report.solver_winner = std::move(solved.winner);
    report.solver_gap = solved.gap;
    report.solver_deadline_hit = solved.deadline_hit;
  } else {
    recommended = SelectExplicit(problem, true);
  }
  report.recommended_cost = recommended.scan_cost;
  report.recommended_dram_bytes = recommended.dram_bytes;
  report.regret = report.current_cost - report.recommended_cost;
  report.regret_pct = report.recommended_cost > 0.0
                          ? 100.0 * report.regret / report.recommended_cost
                          : 0.0;

  // Misplaced columns ranked by their separable cost term a_i * |S_i|: the
  // scan-cost swing of moving the column to its recommended tier.
  const std::vector<double>& s = model.S();
  for (ColumnId c = 0; c < workload.column_count(); ++c) {
    const bool now = c < current.size() && current[c] != 0;
    const bool want = c < recommended.in_dram.size() &&
                      recommended.in_dram[c] != 0;
    if (now == want) continue;
    MisplacedColumn column;
    column.column = c;
    column.name = c < workload.column_names.size() ? workload.column_names[c]
                                                   : std::to_string(c);
    column.in_dram_now = now;
    column.in_dram_recommended = want;
    column.size_bytes = uint64_t(workload.column_sizes[c]);
    column.cost_delta = workload.column_sizes[c] * std::abs(s[c]);
    report.misplaced.push_back(std::move(column));
  }
  std::sort(report.misplaced.begin(), report.misplaced.end(),
            [](const MisplacedColumn& a, const MisplacedColumn& b) {
              if (a.cost_delta != b.cost_delta) {
                return a.cost_delta > b.cost_delta;
              }
              return a.column < b.column;
            });
  const size_t total_misplaced = report.misplaced.size();
  if (report.misplaced.size() > options_.top_k) {
    report.misplaced.resize(options_.top_k);
  }

  DoctorMetrics& metrics = DoctorMetrics::Get();
  metrics.diagnoses->Add();
  metrics.regret_pct_milli->Set(int64_t(report.regret_pct * 1000.0 + 0.5));
  metrics.misplaced_columns->Set(int64_t(total_misplaced));
  metrics.windows_used->Set(int64_t(report.windows_used));
  metrics.queries_observed->Set(int64_t(report.queries_observed));
  metrics.drift_pct->Set(int64_t(report.drift * 100.0 + 0.5));
  return report;
}

std::string DoctorReport::ToText() const {
  std::ostringstream out;
  out << "placement doctor report\n";
  out << "  windows used:       " << windows_used << "\n";
  out << "  queries observed:   " << queries_observed << "\n";
  out << "  drift:              " << TraceFormatDouble(drift) << "\n";
  out << "  params (c_mm/c_ss): " << TraceFormatDouble(params_used.c_mm)
      << " / " << TraceFormatDouble(params_used.c_ss)
      << (calibrated ? "  [calibrated]" : "") << "\n";
  out << "  fitted (c_mm/c_ss): " << TraceFormatDouble(fitted_params.c_mm)
      << " / " << TraceFormatDouble(fitted_params.c_ss) << "  ("
      << calibration_samples << " samples)\n";
  out << "  budget bytes:       " << TraceFormatDouble(budget_bytes) << "\n";
  out << "  dram bytes now/rec: " << TraceFormatDouble(current_dram_bytes)
      << " / " << TraceFormatDouble(recommended_dram_bytes) << "\n";
  out << "  F(current):         " << TraceFormatDouble(current_cost) << "\n";
  out << "  F(recommended):     " << TraceFormatDouble(recommended_cost)
      << "\n";
  out << "  F(all-DRAM):        " << TraceFormatDouble(all_dram_cost) << "\n";
  out << "  regret:             " << TraceFormatDouble(regret) << " ("
      << TraceFormatDouble(regret_pct) << " %)\n";
  if (!solver_winner.empty()) {
    out << "  solver winner:      " << solver_winner << "  gap="
        << TraceFormatDouble(solver_gap)
        << (solver_deadline_hit ? "  [deadline]" : "") << "\n";
  }
  out << "  misplaced columns (top " << misplaced.size() << "):\n";
  for (const MisplacedColumn& column : misplaced) {
    out << "    " << column.name << " [" << column.column << "] "
        << (column.in_dram_now ? "dram" : "ssd") << " -> "
        << (column.in_dram_recommended ? "dram" : "ssd") << "  bytes="
        << column.size_bytes << "  cost_delta="
        << TraceFormatDouble(column.cost_delta) << "\n";
  }
  return out.str();
}

std::string DoctorReport::ToJson() const {
  std::string out = "{";
  auto field = [&out](const char* key, const std::string& value,
                      bool quote) {
    if (out.size() > 1) out += ",";
    out += "\"";
    out += key;
    out += "\":";
    if (quote) out += "\"";
    out += value;
    if (quote) out += "\"";
  };
  field("windows_used", std::to_string(windows_used), false);
  field("queries_observed", std::to_string(queries_observed), false);
  field("drift", TraceFormatDouble(drift), false);
  field("budget_bytes", TraceFormatDouble(budget_bytes), false);
  field("current_dram_bytes", TraceFormatDouble(current_dram_bytes), false);
  field("recommended_dram_bytes", TraceFormatDouble(recommended_dram_bytes),
        false);
  field("current_cost", TraceFormatDouble(current_cost), false);
  field("recommended_cost", TraceFormatDouble(recommended_cost), false);
  field("all_dram_cost", TraceFormatDouble(all_dram_cost), false);
  field("regret", TraceFormatDouble(regret), false);
  field("regret_pct", TraceFormatDouble(regret_pct), false);
  field("c_mm", TraceFormatDouble(params_used.c_mm), false);
  field("c_ss", TraceFormatDouble(params_used.c_ss), false);
  field("fitted_c_mm", TraceFormatDouble(fitted_params.c_mm), false);
  field("fitted_c_ss", TraceFormatDouble(fitted_params.c_ss), false);
  field("calibrated", calibrated ? "true" : "false", false);
  field("calibration_samples", std::to_string(calibration_samples), false);
  if (!solver_winner.empty()) {
    field("solver_winner", solver_winner, true);
    field("solver_gap", TraceFormatDouble(solver_gap), false);
    field("solver_deadline_hit", solver_deadline_hit ? "true" : "false",
          false);
  }
  out += ",\"misplaced\":[";
  for (size_t i = 0; i < misplaced.size(); ++i) {
    const MisplacedColumn& column = misplaced[i];
    if (i > 0) out += ",";
    out += "{\"column\":" + std::to_string(column.column);
    out += ",\"name\":\"";
    out += JsonEscape(column.name);
    out += "\",\"in_dram_now\":";
    out += column.in_dram_now ? "true" : "false";
    out += ",\"in_dram_recommended\":";
    out += column.in_dram_recommended ? "true" : "false";
    out += ",\"size_bytes\":" + std::to_string(column.size_bytes);
    out += ",\"cost_delta\":" + TraceFormatDouble(column.cost_delta);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace hytap
