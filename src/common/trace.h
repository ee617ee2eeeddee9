#ifndef HYTAP_COMMON_TRACE_H_
#define HYTAP_COMMON_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hytap {

/// Per-query trace spans (DESIGN.md §11).
///
/// A span records one executor step (a predicate scan, a probe, the
/// materialization pass, ...) with its simulated cost, real wall time, and
/// ordered string annotations (estimated vs. actual selectivity, the
/// scan-vs-probe decision, pruning counters, retries drawn). Spans nest into
/// an operator tree rooted at the `execute` span that is attached to
/// `QueryResult::trace` while tracing is on.
///
/// Determinism: spans are created and annotated only on the executor's
/// serial control path (the same path that keeps IoStats and fault
/// schedules deterministic), never inside worker morsels. Everything except
/// `wall_ns` — and `simulated_ns`, whose queue-depth-dependent device costs
/// legitimately vary with the *requested* thread count — is therefore
/// invariant under the worker count (`trace_test` asserts it).

namespace trace_internal {
extern std::atomic<bool> g_enabled;
}  // namespace trace_internal

/// Master switch, initialized from HYTAP_TRACE ("1"/"on"/"true" enable;
/// default off — tracing allocates per query).
inline bool TraceEnabled() {
  return trace_internal::g_enabled.load(std::memory_order_relaxed);
}

/// Runtime override used by tests and benchmarks. The executor only reads
/// the switch; Explain() traces its own call without touching it.
void SetTraceEnabled(bool enabled);

/// One node of a query's operator/step tree.
struct TraceSpan {
  std::string name;
  /// Simulated device + DRAM ns accrued during this span (IoStats delta).
  uint64_t simulated_ns = 0;
  /// Real elapsed ns (steady clock). Never compared by determinism tests.
  uint64_t wall_ns = 0;
  /// Ordered key/value annotations (deterministic formatting).
  std::vector<std::pair<std::string, std::string>> annotations;
  std::vector<TraceSpan> children;

  void Annotate(std::string key, std::string value) {
    annotations.emplace_back(std::move(key), std::move(value));
  }
  /// Returns the value of `key`, or an empty string.
  const std::string& Annotation(const std::string& key) const;

  bool operator==(const TraceSpan& other) const {
    return name == other.name && simulated_ns == other.simulated_ns &&
           wall_ns == other.wall_ns && annotations == other.annotations &&
           children == other.children;
  }
};

/// Deterministic value formatting shared by all annotation writers.
std::string TraceFormatDouble(double value);

/// `in` escaped for a JSON string literal: quote, backslash, newline and
/// tab get their short escapes, other control characters \u00XX; every
/// other byte passes through. Shared by every JSON writer in the engine.
std::string JsonEscape(const std::string& in);

/// Human-readable tree rendering (indented, one span per line with its
/// annotations inline).
std::string RenderTraceText(const TraceSpan& root);

/// JSON rendering: {"name": ..., "simulated_ns": ..., "wall_ns": ...,
/// "annotations": {...}, "children": [...]}. Round-trips through
/// ParseTraceJson.
std::string RenderTraceJson(const TraceSpan& root);

/// Deepest span tree ParseTraceJson accepts, the root being level 1. The
/// executor's trees are 3 levels deep; the bound keeps the recursive parser
/// off the end of the stack on hostile input.
inline constexpr size_t kMaxTraceDepth = 64;

/// Parses the exact schema RenderTraceJson emits (accepting arbitrary
/// whitespace). Returns false on malformed input or a tree deeper than
/// kMaxTraceDepth; `out` is then unspecified.
bool ParseTraceJson(const std::string& json, TraceSpan* out);

/// `root` with wall_ns and simulated_ns zeroed recursively — what the
/// determinism tests compare across thread counts.
TraceSpan StripTimes(const TraceSpan& root);

}  // namespace hytap

#endif  // HYTAP_COMMON_TRACE_H_
