#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/thread_pool.h"
#include "core/tiered_table.h"
#include "query/scan.h"
#include "selection/selectors.h"
#include "storage/table.h"

namespace perfbench {

using namespace hytap;

void Samples::Add(uint64_t ns) {
  if (passes_.empty()) passes_.emplace_back();
  passes_.back().push_back(ns);
}

bool Samples::aligned() const {
  for (const std::vector<uint64_t>& pass : passes_) {
    if (pass.size() != size()) return false;
  }
  return true;
}

std::vector<uint64_t> Samples::Best() const {
  if (passes_.empty()) return {};
  std::vector<uint64_t> best = passes_.front();
  for (size_t p = 1; p < passes_.size(); ++p) {
    const std::vector<uint64_t>& pass = passes_[p];
    for (size_t i = 0; i < best.size() && i < pass.size(); ++i) {
      best[i] = best[i] == UINT64_MAX || pass[i] == UINT64_MAX
                    ? UINT64_MAX
                    : std::min(best[i], pass[i]);
    }
  }
  return best;
}

double Samples::QuantileMs(double q) const {
  std::vector<uint64_t> sorted = Best();
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest sample with at least q of the set at or
  // below it.
  size_t rank = size_t(std::ceil(q * double(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  const uint64_t v = sorted[rank - 1];
  if (v == UINT64_MAX) return std::numeric_limits<double>::infinity();
  return double(v) / 1e6;
}

double Samples::SumMs() const {
  double total = 0.0;
  for (uint64_t v : Best()) {
    if (v != UINT64_MAX) total += double(v);
  }
  return total / 1e6;
}

double TailPercentile(size_t n) {
  double best = 50.0;
  for (double p : {50.0, 90.0, 99.0}) {
    // Samples strictly above the nearest-rank p-th percentile.
    const size_t rank = size_t(std::ceil(p / 100.0 * double(n)));
    if (n >= rank + 10) best = p;
  }
  return best;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

int32_t Tracer::Open(const char* name, uint32_t op, int32_t parent) {
  if (!on_) return -1;
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, op});
  return int32_t(spans_.size() - 1);
}

void Tracer::Close(int32_t id) { CloseAt(id, NowNs()); }

void Tracer::CloseAt(int32_t id, uint64_t end) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[size_t(id)].end = end;
}

int32_t Tracer::Add(const char* name, uint32_t op, int32_t parent,
                    uint64_t start, uint64_t end) {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, parent, op});
  return int32_t(spans_.size() - 1);
}

std::map<std::string, double> Tracer::SelfNsByLayer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[size_t(s.parent)].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = s.start;
    for (const auto& [start, end] : kids) {
      const uint64_t lo = std::max(start, cursor);
      const uint64_t hi = std::min(end, s.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += double(s.end - s.start) - double(covered);
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
  std::fputs("{\"unit\":\"ns\",\"spans\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"op\":%u,\"parent\":%d,"
                 "\"start\":%" PRId64 ",\"end\":%" PRId64 "}",
                 i == 0 ? "" : ",", i, s.name, s.op, s.parent,
                 int64_t(s.start - origin), int64_t(s.end - origin));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void Report::Det(const std::string& name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  Det(name, std::string(buf));
}

void Report::Det(const std::string& name, uint64_t v) {
  Det(name, std::to_string(v));
}

void Report::Det(const std::string& name, const std::string& v) {
  for (const auto& [known, value] : det) {
    if (known != name) continue;
    if (value != v) {
      Error("determinism: " + name + " was " + value + " in an earlier pass, " +
            v + " now");
    }
    return;
  }
  det.emplace_back(name, v);
}

void NextPass(std::initializer_list<Samples*> sets) {
  for (Samples* s : sets) s->NextPass();
}

void CheckAligned(std::initializer_list<const Samples*> sets, Report* report) {
  for (const Samples* s : sets) {
    if (!s->aligned()) {
      report->Error("passes timed different op counts");
      return;
    }
  }
}

Strata::Strata(size_t n, Rng& rng) : perm_(std::max<size_t>(1, n)) {
  for (size_t i = 0; i < perm_.size(); ++i) perm_[i] = uint32_t(i);
  rng.Shuffle(perm_);
}

double Strata::Next(Rng& rng) {
  const double stratum = double(perm_[next_++ % perm_.size()]);
  return (stratum + rng.NextDouble()) / double(perm_.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

double RawUserBytes(const Schema& schema, size_t rows) {
  double row_bytes = 0.0;
  for (const ColumnDefinition& def : schema) {
    row_bytes += double(FixedWidth(def.type, def.string_width));
  }
  return row_bytes * double(rows);
}

double DramPerUserByte(const Table& table) {
  return double(table.MainDramBytes() + table.IndexDramBytes()) /
         RawUserBytes(table.schema(), table.row_count());
}

std::vector<uint8_t> PlacementVector(const Table& table) {
  std::vector<uint8_t> x(table.column_count());
  for (size_t c = 0; c < x.size(); ++c) x[c] = table.placement()[c] ? 1 : 0;
  return x;
}

double PlacementGapPct(const TieredTable& table) {
  const Workload workload = table.plan_cache().ToWorkload(table.table());
  if (workload.queries.empty()) return 0.0;
  const CostModel model(workload, ScanCostParams());
  const std::vector<uint8_t> current = PlacementVector(table.table());
  SelectionProblem problem;
  problem.workload = &workload;
  problem.budget_bytes = model.MemoryUsed(current);
  const SelectionResult optimum = SelectIntegerOptimal(problem);
  if (optimum.scan_cost <= 0.0) return 0.0;
  return 100.0 * (model.ScanCost(current) - optimum.scan_cost) /
         optimum.scan_cost;
}

void StorageReplay::Scan(const Table& table, const Query& query,
                         uint32_t threads, uint64_t stream_id, Tracer* tracer,
                         uint32_t op, int32_t parent) {
  BufferManager cache(table.store(), 64);
  SecondaryStore::ReadStream stream = table.store()->MakeStream(stream_id);
  cache.set_stream(&stream);
  for (const Predicate& pred : query.predicates) {
    const bool dram = table.placement()[pred.column];
    PositionList out;
    IoStats io;
    const uint64_t start = NowNs();
    const Status status =
        ScanMainColumn(table, pred.column, pred, threads, &out, &io,
                       /*restrict_to=*/nullptr, &cache);
    const uint64_t end = NowNs();
    tracer->Add(dram ? "storage.ScanMainColumn.mrc"
                     : "storage.ScanMainColumn.sscg",
                op, parent, start, end);
    if (!status.ok()) continue;
    if (dram) {
      mrc_ns += double(end - start);
      mrc_rows += double(table.main_row_count());
      morsels += double(
          ThreadPool::MorselCount(0, table.main_row_count(), kScanMorselRows));
      morsels_pruned += double(io.morsels_pruned);
    } else {
      sscg_ns += double(end - start);
      sscg_pages += double(io.page_reads + io.cache_hits);
      pages += double(table.sscg()->page_count());
      pages_pruned += double(io.pages_pruned);
    }
  }
}

void StorageReplay::Reconstruct(const Table& table,
                                const std::vector<uint64_t>& rows,
                                uint64_t stream_id, Tracer* tracer,
                                uint32_t op, int32_t parent) {
  BufferManager cache(table.store(), 64);
  SecondaryStore::ReadStream stream = table.store()->MakeStream(stream_id);
  cache.set_stream(&stream);
  const Sscg* sscg = table.sscg();
  const bool grouped = sscg != nullptr && sscg->layout().member_count() > 0;
  for (uint64_t row : rows) {
    if (row >= table.main_row_count()) continue;
    IoStats io;
    const uint64_t start = NowNs();
    bool ok = true;
    if (grouped) ok = sscg->ReconstructTuple(row, &cache, 1, &io).ok();
    for (ColumnId c = 0; c < table.column_count(); ++c) {
      if (table.placement()[c]) (void)table.mrc(c)->GetValue(row);
    }
    const uint64_t end = NowNs();
    tracer->Add("storage.ReconstructRow", op, parent, start, end);
    if (!ok) continue;
    reconstruct_ns += double(end - start);
    reconstruct_rows += 1.0;
  }
}

void StorageReplay::Emit(perfbench::Report* report) const {
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  report->Layer("storage.mrc_scan_ns_per_row", ratio(mrc_ns, mrc_rows));
  report->Layer("storage.sscg_scan_ns_per_page", ratio(sscg_ns, sscg_pages));
  report->Layer("storage.reconstruct_us",
                ratio(reconstruct_ns, reconstruct_rows) / 1e3);
  report->Layer("storage.morsel_skip_ratio", ratio(morsels_pruned, morsels));
  report->Layer("storage.page_skip_ratio", ratio(pages_pruned, pages));
  report->Det("storage.replay_morsels_pruned", uint64_t(morsels_pruned));
  report->Det("storage.replay_pages_pruned", uint64_t(pages_pruned));
  report->Det("storage.replay_sscg_pages", uint64_t(sscg_pages));
}

void ReportQueryTotals(const QueryTotals& t, perfbench::Report* report,
                       bool traced) {
  const double n = t.queries == 0 ? 1.0 : double(t.queries);
  const uint64_t touched = t.page_reads + t.cache_hits;
  report->Layer("tiering.page_reads_per_op", double(t.page_reads) / n);
  report->Layer("tiering.hit_rate",
                touched == 0 ? 0.0 : double(t.cache_hits) / double(touched));
  report->Layer("tiering.retries", double(t.retries));
  report->Layer("query.examined_per_result",
                t.result_rows == 0
                    ? 0.0
                    : double(t.examined) / double(t.result_rows));
  report->Det("query.count", t.queries);
  report->Det("query.sim_ns", t.sim_ns);
  report->Det("tiering.page_reads", t.page_reads);
  report->Det("tiering.cache_hits", t.cache_hits);
  report->Det("tiering.retries", t.retries);
  report->Det("query.examined", t.examined);
  report->Det("query.result_rows", t.result_rows);
  if (!traced) return;
  static const char* kNames[kQueryPhaseCount] = {
      "query.sim.scan_probe_us", "query.sim.delta_us",
      "query.sim.materialize_us", "query.sim.store_io_us",
      "query.sim.retry_backoff_us"};
  uint64_t phase_sum = 0;
  for (size_t i = 0; i < kQueryPhaseCount; ++i) {
    report->Layer(kNames[i], double(t.phases.ns[i]) / n / 1e3);
    phase_sum += t.phases.ns[i];
  }
  // Phase accounting must partition the simulated cost exactly.
  if (phase_sum != t.sim_ns) {
    report->Error("phase vector sum " + std::to_string(phase_sum) +
                  " != simulated ns " + std::to_string(t.sim_ns));
  }
}

}  // namespace perfbench
