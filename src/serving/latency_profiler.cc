#include "serving/latency_profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/assert.h"
#include "common/env.h"
#include "common/flight_recorder.h"

namespace hytap {
namespace {

const char* ClassName(QueryClass cls) {
  return cls == QueryClass::kOltp ? "oltp" : "olap";
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) out->append(buffer, std::min<size_t>(size_t(n), sizeof(buffer)));
}

/// Per-(class, phase) latency histograms plus the phase and SLO counters,
/// registered once and updated lock-free afterward.
struct ProfilerMetrics {
  Counter* observations;
  Counter* attributions;
  Counter* attributions_dropped;
  Counter* slo_observations;
  Counter* slo_violations;
  Counter* slo_breaches;
  Counter* slo_clears;
  HistogramMetric* phase_ns[kQueryClassCount][kQueryPhaseCount];

  static ProfilerMetrics& Get() {
    static ProfilerMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      ProfilerMetrics out;
      out.observations = reg.GetCounter("hytap_phase_observations_total");
      out.attributions = reg.GetCounter("hytap_phase_attributions_total");
      out.attributions_dropped =
          reg.GetCounter("hytap_phase_attributions_dropped_total");
      out.slo_observations = reg.GetCounter("hytap_slo_observations_total");
      out.slo_violations = reg.GetCounter("hytap_slo_violations_total");
      out.slo_breaches = reg.GetCounter("hytap_slo_breaches_total");
      out.slo_clears = reg.GetCounter("hytap_slo_clears_total");
      const std::vector<uint64_t> bounds = DurationNsBuckets();
      for (size_t c = 0; c < kQueryClassCount; ++c) {
        for (size_t p = 0; p < kQueryPhaseCount; ++p) {
          std::string name = "hytap_phase_";
          name += ClassName(static_cast<QueryClass>(c));
          name += '_';
          name += QueryPhaseName(static_cast<QueryPhase>(p));
          name += "_ns";
          out.phase_ns[c][p] = reg.GetHistogram(name, bounds);
        }
      }
      return out;
    }();
    return m;
  }
};

int64_t BurnMilli(double burn) {
  return static_cast<int64_t>(std::min(burn, 1e15) * 1000.0);
}

/// Greedy descent from the root: at every level follow the child with the
/// largest inclusive simulated time (ties -> first child, which is the
/// earlier execution step), recording exclusive time and the selectivity
/// annotations the scan spans carry.
std::vector<LatencyProfiler::CriticalStep> WalkCriticalPath(
    const TraceSpan& root) {
  std::vector<LatencyProfiler::CriticalStep> path;
  const TraceSpan* node = &root;
  while (true) {
    LatencyProfiler::CriticalStep step;
    step.name = node->name;
    step.inclusive_ns = node->simulated_ns;
    uint64_t child_sum = 0;
    for (const TraceSpan& child : node->children) {
      child_sum += child.simulated_ns;
    }
    step.exclusive_ns =
        node->simulated_ns > child_sum ? node->simulated_ns - child_sum : 0;
    step.est_selectivity = node->Annotation("est_selectivity");
    step.actual_selectivity = node->Annotation("actual_selectivity");
    path.push_back(std::move(step));
    if (node->children.empty()) break;
    const TraceSpan* best = &node->children[0];
    for (const TraceSpan& child : node->children) {
      if (child.simulated_ns > best->simulated_ns) best = &child;
    }
    node = best;
  }
  return path;
}

}  // namespace

LatencyProfiler::Options LatencyProfiler::Options::FromEnv() {
  Options options;
  options.oltp_slo_ns = EnvU64("HYTAP_SLO_OLTP_NS", options.oltp_slo_ns);
  options.target_ppm = std::min<uint64_t>(
      EnvU64("HYTAP_SLO_TARGET_PPM", options.target_ppm), 999'999);
  return options;
}

LatencyProfiler::LatencyProfiler(Options options)
    : options_(options),
      budget_(std::max(1e-9, (1e6 - static_cast<double>(std::min<uint64_t>(
                                        options.target_ppm, 999'999))) /
                                 1e6)) {
  const std::vector<uint64_t> bounds = DurationNsBuckets();
  for (ClassState& state : classes_) {
    state.latencies.bounds = bounds;
    state.latencies.counts.assign(bounds.size() + 1, 0);
  }
}

void LatencyProfiler::Observe(uint64_t ticket, QueryClass cls,
                              StatusCode status, bool executed,
                              uint64_t latency_ns, const PhaseVector& phases,
                              const TraceSpan* trace, uint64_t window,
                              uint64_t sim_ns) {
  HYTAP_ASSERT(executed || latency_ns == 0,
               "non-executed tickets accrue no simulated time");
  // The invariant the phase fold rests on: the phase vector partitions the
  // ticket's end-to-end simulated latency exactly, on every terminal path.
  HYTAP_ASSERT(phases.Sum() == latency_ns,
               "phase vector must sum to the simulated latency");
  // One verdict for both folds: it burns SLO budget and marks a tail ticket.
  const bool slo_breach =
      status != StatusCode::kOk || latency_ns > ObjectiveNs(cls);

  std::lock_guard<std::mutex> lock(mutex_);
  // Cancellation is caller-initiated, not a service failure: it does not
  // burn SLO budget. Sheds and failed executions do.
  if (status != StatusCode::kCancelled) {
    ObserveSloLocked(cls, slo_breach, window, sim_ns, ticket);
  }

  ProfilerMetrics& metrics = ProfilerMetrics::Get();
  metrics.observations->Add();
  ClassState& state = classes_[static_cast<size_t>(cls)];
  ++state.observations;
  if (!executed) {
    ++state.shed;
    return;
  }
  if (status == StatusCode::kCancelled) {
    // Where the stop token landed (and so the partial accrual) depends on
    // wall-clock timing; the invariant above still held, but the sample
    // would make the aggregates nondeterministic.
    ++state.cancelled;
    return;
  }
  ++state.executed;
  if (status != StatusCode::kOk) ++state.failed;
  state.latency_sum_ns += latency_ns;
  for (size_t p = 0; p < kQueryPhaseCount; ++p) {
    state.phase_sum.ns[p] += phases.ns[p];
    metrics.phase_ns[static_cast<size_t>(cls)][p]->Observe(phases.ns[p]);
  }

  // Tail test *before* folding this sample in, so the running p99 is the
  // one an operator would have seen when the ticket completed.
  const bool p99_tail = state.latencies.count >= options_.min_tail_samples &&
                        latency_ns >= state.latencies.Quantile(0.99);

  size_t bucket = state.latencies.bounds.size();  // overflow
  for (size_t i = 0; i < state.latencies.bounds.size(); ++i) {
    if (latency_ns <= state.latencies.bounds[i]) {
      bucket = i;
      break;
    }
  }
  ++state.latencies.counts[bucket];
  ++state.latencies.count;
  state.latencies.sum += latency_ns;

  if (!slo_breach && !p99_tail) return;
  ++state.tail;
  metrics.attributions->Add();

  Attribution attribution;
  attribution.ticket = ticket;
  attribution.cls = cls;
  attribution.status = status;
  attribution.latency_ns = latency_ns;
  attribution.slo_breach = slo_breach;
  attribution.p99_tail = p99_tail;
  attribution.phases = phases;
  attribution.ranked.resize(kQueryPhaseCount);
  for (size_t p = 0; p < kQueryPhaseCount; ++p) {
    attribution.ranked[p] = static_cast<QueryPhase>(p);
  }
  std::stable_sort(attribution.ranked.begin(), attribution.ranked.end(),
                   [&phases](QueryPhase a, QueryPhase b) {
                     return phases[a] > phases[b];
                   });
  attribution.dominant = attribution.ranked[0];
  if (trace != nullptr) {
    attribution.critical_path = WalkCriticalPath(*trace);
  }

  const uint16_t code =
      uint16_t(uint16_t(cls) << 2 | (p99_tail ? 2 : 0) | (slo_breach ? 1 : 0));
  FlightRecorder::Global().Record(
      FlightEventType::kPhaseAttribution, code, ticket, window, sim_ns,
      uint64_t(attribution.dominant), latency_ns);

  if (attributions_.size() < options_.max_attributions) {
    attributions_.push_back(std::move(attribution));
  } else {
    ++dropped_;
    metrics.attributions_dropped->Add();
  }
}

void LatencyProfiler::ObserveSloLocked(QueryClass cls, bool bad,
                                       uint64_t window, uint64_t sim_ns,
                                       uint64_t ticket) {
  ProfilerMetrics& metrics = ProfilerMetrics::Get();
  ClassState& state = classes_[static_cast<size_t>(cls)];
  if (state.windows.empty() || state.windows.back().index < window) {
    state.windows.push_back(WindowBucket{window, 0, 0});
    while (state.windows.size() > std::max<size_t>(1, options_.slow_windows)) {
      state.windows.pop_front();
    }
  }
  WindowBucket& bucket = state.windows.back();
  if (bad) {
    ++bucket.bad;
    ++state.violations;
    metrics.slo_violations->Add();
  } else {
    ++bucket.good;
  }
  ++state.slo_observations;
  metrics.slo_observations->Add();

  state.fast_burn = BurnOver(state, options_.fast_windows);
  state.slow_burn = BurnOver(state, options_.slow_windows);
  const bool breached = state.fast_burn >= options_.burn_threshold &&
                        state.slow_burn >= options_.burn_threshold;
  if (breached && !state.breached) {
    state.breached = true;
    ++state.breaches;
    metrics.slo_breaches->Add();
    const uint64_t burn_milli = uint64_t(BurnMilli(state.fast_burn));
    FlightRecorder::Global().Record(
        FlightEventType::kSloBreach, static_cast<uint16_t>(window & 0xffff),
        ticket, window, sim_ns, static_cast<uint64_t>(cls), burn_milli);
    FlightRecorder::Global().Anomaly(
        AnomalyKind::kSloBreach,
        cls == QueryClass::kOltp ? "slo_breach_oltp" : "slo_breach_olap",
        ticket, window, sim_ns, static_cast<uint64_t>(cls), burn_milli);
  } else if (!breached && state.breached) {
    state.breached = false;
    ++state.clears;
    metrics.slo_clears->Add();
    FlightRecorder::Global().Record(FlightEventType::kSloClear, 0, ticket,
                                    window, sim_ns,
                                    static_cast<uint64_t>(cls));
  }
}

double LatencyProfiler::BurnOver(const ClassState& state, size_t span) const {
  uint64_t good = 0;
  uint64_t bad = 0;
  size_t counted = 0;
  for (auto it = state.windows.rbegin();
       it != state.windows.rend() && counted < span; ++it, ++counted) {
    good += it->good;
    bad += it->bad;
  }
  const uint64_t total = good + bad;
  if (total == 0) return 0.0;
  return static_cast<double>(bad) / static_cast<double>(total) / budget_;
}

LatencyProfiler::ClassSnapshot LatencyProfiler::Snapshot(
    QueryClass cls) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ClassState& state = classes_[static_cast<size_t>(cls)];
  ClassSnapshot out;
  out.observations = state.observations;
  out.executed = state.executed;
  out.shed = state.shed;
  out.cancelled = state.cancelled;
  out.failed = state.failed;
  out.tail = state.tail;
  out.latency_sum_ns = state.latency_sum_ns;
  out.phase_sum = state.phase_sum;
  out.latency_p50_ns = state.latencies.Quantile(0.50);
  out.latency_p99_ns = state.latencies.Quantile(0.99);
  out.latency_p999_ns = state.latencies.Quantile(0.999);
  out.slo_observations = state.slo_observations;
  out.violations = state.violations;
  out.fast_burn = state.fast_burn;
  out.slow_burn = state.slow_burn;
  out.breached = state.breached;
  out.breaches = state.breaches;
  out.clears = state.clears;
  return out;
}

std::vector<LatencyProfiler::Attribution> LatencyProfiler::Attributions()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attributions_;
}

uint64_t LatencyProfiler::attributions_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::string LatencyProfiler::ReportText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "latency phase report\n";
  for (size_t c = 0; c < kQueryClassCount; ++c) {
    const ClassState& state = classes_[c];
    AppendF(&out,
            "  class %s: observations=%" PRIu64 " executed=%" PRIu64
            " shed=%" PRIu64 " cancelled=%" PRIu64 " failed=%" PRIu64
            " tail=%" PRIu64 "\n",
            ClassName(static_cast<QueryClass>(c)), state.observations,
            state.executed, state.shed, state.cancelled, state.failed,
            state.tail);
    AppendF(&out,
            "    latency_ns: sum=%" PRIu64 " p50=%" PRIu64 " p99=%" PRIu64
            " p999=%" PRIu64 "\n",
            state.latency_sum_ns, state.latencies.Quantile(0.50),
            state.latencies.Quantile(0.99), state.latencies.Quantile(0.999));
    const uint64_t total = state.phase_sum.Sum();
    for (size_t p = 0; p < kQueryPhaseCount; ++p) {
      const uint64_t ns = state.phase_sum.ns[p];
      AppendF(&out, "    phase %-13s total_ns=%" PRIu64 " share_ppm=%" PRIu64
              "\n",
              QueryPhaseName(static_cast<QueryPhase>(p)), ns,
              total == 0 ? 0 : ns * 1'000'000 / total);
    }
  }
  AppendF(&out, "tail attributions: %zu shown, %" PRIu64 " dropped\n",
          attributions_.size(), dropped_);
  for (const Attribution& a : attributions_) {
    AppendF(&out,
            "  ticket %" PRIu64 " class=%s status=%u latency_ns=%" PRIu64
            " slo_breach=%d p99_tail=%d dominant=%s\n",
            a.ticket, ClassName(a.cls), unsigned(a.status), a.latency_ns,
            a.slo_breach ? 1 : 0, a.p99_tail ? 1 : 0,
            QueryPhaseName(a.dominant));
    out += "    phases:";
    for (QueryPhase p : a.ranked) {
      AppendF(&out, " %s=%" PRIu64, QueryPhaseName(p), a.phases[p]);
    }
    out += '\n';
    if (!a.critical_path.empty()) {
      out += "    critical path:";
      for (const CriticalStep& step : a.critical_path) {
        AppendF(&out, " > %s[excl=%" PRIu64 "]", step.name.c_str(),
                step.exclusive_ns);
        if (!step.actual_selectivity.empty()) {
          AppendF(&out, "(sel est=%s actual=%s)",
                  step.est_selectivity.empty() ? "?"
                                               : step.est_selectivity.c_str(),
                  step.actual_selectivity.c_str());
        }
      }
      out += '\n';
    }
  }
  return out;
}

std::string LatencyProfiler::ReportJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n  \"classes\": [";
  for (size_t c = 0; c < kQueryClassCount; ++c) {
    const ClassState& state = classes_[c];
    AppendF(&out,
            "%s\n    {\"class\": \"%s\", \"observations\": %" PRIu64
            ", \"executed\": %" PRIu64 ", \"shed\": %" PRIu64
            ", \"cancelled\": %" PRIu64 ", \"failed\": %" PRIu64
            ", \"tail\": %" PRIu64 ", \"latency_sum_ns\": %" PRIu64
            ", \"latency_p50_ns\": %" PRIu64 ", \"latency_p99_ns\": %" PRIu64
            ", \"latency_p999_ns\": %" PRIu64 ", \"phases\": {",
            c == 0 ? "" : ",", ClassName(static_cast<QueryClass>(c)),
            state.observations, state.executed, state.shed, state.cancelled,
            state.failed, state.tail, state.latency_sum_ns,
            state.latencies.Quantile(0.50), state.latencies.Quantile(0.99),
            state.latencies.Quantile(0.999));
    for (size_t p = 0; p < kQueryPhaseCount; ++p) {
      AppendF(&out, "%s\"%s\": %" PRIu64, p == 0 ? "" : ", ",
              QueryPhaseName(static_cast<QueryPhase>(p)),
              state.phase_sum.ns[p]);
    }
    out += "}}";
  }
  AppendF(&out, "\n  ],\n  \"attributions_dropped\": %" PRIu64
          ",\n  \"attributions\": [",
          dropped_);
  for (size_t i = 0; i < attributions_.size(); ++i) {
    const Attribution& a = attributions_[i];
    AppendF(&out,
            "%s\n    {\"ticket\": %" PRIu64
            ", \"class\": \"%s\", \"status\": %u, \"latency_ns\": %" PRIu64
            ", \"slo_breach\": %s, \"p99_tail\": %s, \"dominant\": \"%s\", "
            "\"phases\": {",
            i == 0 ? "" : ",", a.ticket, ClassName(a.cls), unsigned(a.status),
            a.latency_ns, a.slo_breach ? "true" : "false",
            a.p99_tail ? "true" : "false", QueryPhaseName(a.dominant));
    for (size_t p = 0; p < kQueryPhaseCount; ++p) {
      AppendF(&out, "%s\"%s\": %" PRIu64, p == 0 ? "" : ", ",
              QueryPhaseName(static_cast<QueryPhase>(p)),
              a.phases.ns[p]);
    }
    out += "}, \"critical_path\": [";
    for (size_t s = 0; s < a.critical_path.size(); ++s) {
      const CriticalStep& step = a.critical_path[s];
      AppendF(&out,
              "%s{\"name\": \"%s\", \"inclusive_ns\": %" PRIu64
              ", \"exclusive_ns\": %" PRIu64,
              s == 0 ? "" : ", ", JsonEscape(step.name).c_str(),
              step.inclusive_ns, step.exclusive_ns);
      if (!step.est_selectivity.empty()) {
        AppendF(&out, ", \"est_selectivity\": \"%s\"",
                JsonEscape(step.est_selectivity).c_str());
      }
      if (!step.actual_selectivity.empty()) {
        AppendF(&out, ", \"actual_selectivity\": \"%s\"",
                JsonEscape(step.actual_selectivity).c_str());
      }
      out += "}";
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

void LatencyProfiler::ExportMetrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsRegistry& reg = MetricsRegistry::Global();
  for (size_t c = 0; c < kQueryClassCount; ++c) {
    const ClassState& state = classes_[c];
    const char* cls = ClassName(static_cast<QueryClass>(c));
    const uint64_t total = state.phase_sum.Sum();
    std::string prefix = std::string("hytap_phase_") + cls + "_";
    reg.GetGauge(prefix + "dominant")
        ->Set(int64_t(state.phase_sum.Dominant()));
    for (size_t p = 0; p < kQueryPhaseCount; ++p) {
      reg.GetGauge(prefix + QueryPhaseName(static_cast<QueryPhase>(p)) +
                   "_share_ppm")
          ->Set(total == 0
                    ? 0
                    : int64_t(state.phase_sum.ns[p] * 1'000'000 / total));
    }
    const std::string slo = std::string("hytap_slo_") + cls + "_";
    reg.GetGauge(slo + "burn_milli")->Set(BurnMilli(state.fast_burn));
    reg.GetGauge(slo + "breached")->Set(state.breached ? 1 : 0);
  }
}

void LatencyProfiler::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (ClassState& state : classes_) {
    const std::vector<uint64_t> bounds = state.latencies.bounds;
    state = ClassState();
    state.latencies.bounds = bounds;
    state.latencies.counts.assign(bounds.size() + 1, 0);
  }
  attributions_.clear();
  dropped_ = 0;
}

}  // namespace hytap
