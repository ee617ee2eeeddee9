// Shared pieces of the perfbench binary: wall clock, latency samples with
// the tail-percentile rule, the in-memory span tracer, and the per-run
// report every workload fills.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/phases.h"
#include "common/random.h"
#include "storage/column.h"
#include "storage/sscg.h"

namespace hytap {
class Table;
class TieredTable;
struct Query;
}  // namespace hytap

namespace perfbench {

inline uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// Latency samples of one op class over the passes of a run. A workload runs
/// its op list several times, each pass from a fresh set-up; every pass adds
/// the same ops in the same order, and an op's sample is its lowest time over
/// the passes. A shared host has slow spells of a second or so in which
/// everything runs up to 1.7x slower (measured on a 4-core x86 VM); an op is
/// slow in every pass only if every pass met such a spell at that op.
/// A failed, refused or shed op is a miss in every pass it fails in, and a
/// miss in any pass stays a miss: it sorts above every real sample, so it
/// counts against every percentile.
class Samples {
 public:
  /// Starts the next pass over the op list.
  void NextPass() { passes_.emplace_back(); }
  void Add(uint64_t ns);
  void AddMiss() { Add(UINT64_MAX); }
  /// Ops per pass (of the first pass).
  size_t size() const { return passes_.empty() ? 0 : passes_.front().size(); }
  /// True when every pass added the same number of samples.
  bool aligned() const;
  /// Each op's best over the passes.
  std::vector<uint64_t> Best() const;
  /// Nearest-rank quantile in ms (q in [0, 1]) of the best samples; +inf
  /// when it lands on a miss.
  double QuantileMs(double q) const;
  double MedianMs() const { return QuantileMs(0.5); }
  /// Sum of the best samples, misses left out.
  double SumMs() const;

 private:
  std::vector<std::vector<uint64_t>> passes_;
};

/// The highest percentile of {50, 90, 99} that leaves at least ten samples
/// beyond it at `n` samples (the tail_ms rule). The ladder stops at p99: one
/// 40 ms stall of the host covers 1 % of a 4 s pass, so any higher
/// percentile would measure the host rather than the program.
double TailPercentile(size_t n);

/// Median of a few set-up timings (setup_s is measured several times).
double Median(std::vector<double> values);

/// One traced call: a span around a public library call made by the
/// benchmark. Parent -1 = root. Times are steady-clock ns.
struct Span {
  const char* name = "";
  uint64_t start = 0;
  uint64_t end = 0;
  int32_t parent = -1;
  uint32_t op = 0;
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call site; spans are written out only when the run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  /// Opens a span and returns its id (-1 when disabled).
  int32_t Open(const char* name, uint32_t op, int32_t parent);
  void Close(int32_t id);
  /// Closes span `id` at an already-taken time.
  void CloseAt(int32_t id, uint64_t end);
  /// Records an already-timed interval.
  int32_t Add(const char* name, uint32_t op, int32_t parent, uint64_t start,
              uint64_t end);
  /// Self time (duration minus the part covered by children) summed per
  /// layer, the span-name prefix before the first '.'.
  std::map<std::string, double> SelfNsByLayer() const;
  size_t span_count() const { return spans_.size(); }
  bool WriteJson(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// What one run of a workload reports. `e2e` holds every end-to-end metric,
/// `layer` the per-layer ones, `det` the values that must repeat bit-exactly
/// (exact decimal strings; every pass reports them, and a pass that differs
/// from an earlier one is an error), `record` free-form facts for the run
/// record.
struct Report {
  std::vector<std::pair<std::string, double>> e2e;
  std::vector<std::pair<std::string, double>> layer;
  std::vector<std::pair<std::string, std::string>> det;
  std::vector<std::pair<std::string, std::string>> record;
  std::vector<std::string> errors;
  /// Ops attempted and failed, summed over the passes.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Median wall seconds of a pass's measured phase (tracing overhead
  /// compares these).
  double measured_s = 0.0;

  void E2e(const std::string& name, double v) { e2e.emplace_back(name, v); }
  void Layer(const std::string& name, double v) { layer.emplace_back(name, v); }
  void Det(const std::string& name, double v);
  void Det(const std::string& name, uint64_t v);
  void Det(const std::string& name, const std::string& v);
  void Record(const std::string& name, const std::string& v) {
    record.emplace_back(name, v);
  }
  void Error(const std::string& message) { errors.push_back(message); }
};

/// Starts the next pass of every set.
void NextPass(std::initializer_list<Samples*> sets);
/// Adds an error unless every set got the same op count in every pass.
void CheckAligned(std::initializer_list<const Samples*> sets, Report* report);

/// Stratified draws in [0, 1): draw j of `n` lies in stratum perm[j] of n
/// equal strata (perm a seeded permutation), so every seed spreads an op
/// parameter over its range alike and the cost mix of an op list barely
/// depends on the seed; only the order and the jitter within a stratum do.
class Strata {
 public:
  Strata(size_t n, hytap::Rng& rng);
  double Next(hytap::Rng& rng);

 private:
  std::vector<uint32_t> perm_;
  size_t next_ = 0;
};

/// Seed of the generated table data and of advise_large's instance. The data
/// set is fixed, like a benchmark scale factor, so runs with different --seed
/// values compare like with like; --seed drives the op lists, arrival
/// schedules, update streams and the simulated device-timing draws.
inline constexpr uint64_t kDataSeed = 42;

struct RunConfig {
  uint64_t seed = 1;
  /// Length of one pass: the op count is the workload's nominal rate times
  /// this. An untraced run splits `--seconds` evenly over its passes; a
  /// traced run's one pass has the same length, so it runs the same op list.
  double pass_seconds = 1.0;
  /// Passes to run (the workload's pass count untraced, one traced).
  size_t passes = 1;
  Tracer* tracer = nullptr;  // never null; disabled on untraced runs
};

Report RunOlapScan(const RunConfig& config);
Report RunHtapServe(const RunConfig& config);
Report RunRetierShift(const RunConfig& config);
Report RunAdviseLarge(const RunConfig& config);

// --- helpers shared by the table workloads ---------------------------------

/// Peak resident set size of the process in MB.
double PeakRssMb();

/// Raw user bytes of `rows` rows of `schema` (fixed on-page widths).
double RawUserBytes(const hytap::Schema& schema, size_t rows);

/// (MainDramBytes + IndexDramBytes) / raw user bytes.
double DramPerUserByte(const hytap::Table& table);

/// The table's placement as the selection model's 0/1 vector.
std::vector<uint8_t> PlacementVector(const hytap::Table& table);

/// Gap of the table's current placement vs the exact optimum at the same
/// DRAM budget, judged on the plan cache's recorded workload:
/// 100 * (F(current) - F(opt)) / F(opt).
double PlacementGapPct(const hytap::TieredTable& table);

/// Sums of the per-layer facts the table workloads collect from query
/// results (deterministic) and from the storage replays (traced only).
struct QueryTotals {
  uint64_t queries = 0;
  uint64_t sim_ns = 0;
  uint64_t page_reads = 0;
  uint64_t cache_hits = 0;
  uint64_t retries = 0;
  uint64_t examined = 0;  // sum of candidate_trace
  uint64_t result_rows = 0;
  hytap::PhaseVector phases;
};

/// Storage-level spans of the traced run: replays an op's predicates through
/// ScanMainColumn (and its delivered rows through a full-width
/// reconstruction) on a private cold page cache fed by its own read stream,
/// so the workload's page cache and timing draws stay untouched.
/// Accumulates the storage.* facts.
struct StorageReplay {
  double mrc_ns = 0, mrc_rows = 0;
  double sscg_ns = 0, sscg_pages = 0;
  double morsels = 0, morsels_pruned = 0;
  double pages = 0, pages_pruned = 0;
  double reconstruct_ns = 0, reconstruct_rows = 0;

  void Scan(const hytap::Table& table, const hytap::Query& query,
            uint32_t threads, uint64_t stream_id, Tracer* tracer, uint32_t op,
            int32_t parent);
  /// Full-width reconstruction of `rows` (main rows), SSCG part through a
  /// private cache, MRC part from the columns.
  void Reconstruct(const hytap::Table& table,
                   const std::vector<uint64_t>& rows, uint64_t stream_id,
                   Tracer* tracer, uint32_t op, int32_t parent);
  void Emit(perfbench::Report* report) const;
};

/// Emits the tiering.*, query.sim.* and query.examined_per_result metrics
/// and their deterministic counterparts.
void ReportQueryTotals(const QueryTotals& totals, perfbench::Report* report,
                       bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
