#!/usr/bin/env bash
# promtool-style lint of the engine's Prometheus text exposition.
#
# Usage: check_prometheus.sh <metrics.txt> [--require-solver]
#     [--require-sessions] [--require-slo] [--require-phases]
#
# Validates (with plain grep -E, no promtool dependency) that:
#   - every line is a `# TYPE` comment or a `name[{labels}] value` sample;
#   - metric names match [a-zA-Z_:][a-zA-Z0-9_:]*;
#   - every sample's metric family was declared by a preceding # TYPE line
#     (histogram families own their _bucket/_sum/_count series);
#   - histogram families expose _bucket series with an le label, a +Inf
#     bucket, and _sum/_count series;
#   - the core engine families instrumented by the observability layer are
#     present;
#   - with --require-solver, the hytap_solver_* families of the anytime
#     solver portfolio are present too (snapshots from `stats_cli --solver`);
#   - with --require-sessions, the hytap_session_* families of the serving
#     front end are present (snapshots from `stats_cli --sessions`);
#   - with --require-slo, the hytap_slo_* burn-rate families of the latency
#     profiler plus the hytap_flight_* recorder counters are present
#     (snapshots from `stats_cli --slo`);
#   - with --require-phases, the hytap_phase_* families of the latency
#     profiler (per-class phase histograms with interpolated quantile
#     gauges, dominant-phase/share gauges, attribution counters) are
#     present (snapshots from `stats_cli --phases`).
set -u

require_solver=0
require_sessions=0
require_slo=0
require_phases=0
file=""
for arg in "$@"; do
  case "$arg" in
    --require-solver) require_solver=1 ;;
    --require-sessions) require_sessions=1 ;;
    --require-slo) require_slo=1 ;;
    --require-phases) require_phases=1 ;;
    -*)
      echo "check_prometheus: unknown flag '$arg'" >&2
      exit 2
      ;;
    *) file="$arg" ;;
  esac
done
if [ -z "$file" ] || [ ! -r "$file" ]; then
  echo "usage: check_prometheus.sh <metrics.txt> [--require-solver]" \
       "[--require-sessions] [--require-slo] [--require-phases]" >&2
  exit 2
fi
status=0

fail() {
  echo "check_prometheus: FAIL: $*" >&2
  status=1
}

name_re='[a-zA-Z_:][a-zA-Z0-9_:]*'
value_re='(-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+?Inf|-Inf|NaN)'

# 1. Line grammar: TYPE comments, HELP comments, samples, blank lines.
bad_lines=$(grep -n -E -v \
  "^(# (TYPE ${name_re} (counter|gauge|histogram)|HELP ${name_re}.*)|${name_re}(\{[^}]*\})? ${value_re}|)$" \
  "$file" || true)
if [ -n "$bad_lines" ]; then
  fail "malformed lines:"$'\n'"$bad_lines"
fi

# 2. Every sample belongs to a declared family.
declared=$(sed -n -E "s/^# TYPE (${name_re}) .*/\1/p" "$file" | sort -u)
samples=$(grep -E -o "^${name_re}" "$file" | sort -u)
for sample in $samples; do
  base=$(printf '%s' "$sample" | sed -E 's/_(bucket|sum|count)$//')
  if ! printf '%s\n' "$declared" | grep -q -x -e "$sample" -e "$base"; then
    fail "sample '$sample' has no # TYPE declaration"
  fi
done

# 3. Histogram families are complete: le-labelled buckets, +Inf, sum, count.
histograms=$(sed -n -E "s/^# TYPE (${name_re}) histogram$/\1/p" "$file")
for h in $histograms; do
  grep -q -E "^${h}_bucket\{le=\"[^\"]+\"\} [0-9]+$" "$file" \
    || fail "histogram '$h' has no le-labelled buckets"
  grep -q -E "^${h}_bucket\{le=\"\+Inf\"\} [0-9]+$" "$file" \
    || fail "histogram '$h' has no +Inf bucket"
  grep -q -E "^${h}_sum [0-9]+" "$file" || fail "histogram '$h' has no _sum"
  grep -q -E "^${h}_count [0-9]+" "$file" \
    || fail "histogram '$h' has no _count"
done

# 4. The engine's core metric families must be exported after a workload run.
for family in \
  hytap_buffer_hits_total \
  hytap_buffer_misses_total \
  hytap_store_reads_total \
  hytap_store_read_latency_ns \
  hytap_sscg_pages_scanned_total \
  hytap_scan_morsels_scanned_total \
  hytap_query_executions_total \
  hytap_query_simulated_ns \
  hytap_txn_begins_total; do
  grep -q -E "^# TYPE ${family} (counter|gauge|histogram)$" "$file" \
    || fail "expected engine metric family '$family' missing"
done

# 5. Opt-in: solver-portfolio families (only emitted when a diagnosis ran
# through the portfolio, e.g. `stats_cli --solver`).
if [ "$require_solver" -eq 1 ]; then
  for family in \
    hytap_solver_runs_total \
    hytap_solver_nodes_total \
    hytap_solver_pruned_total \
    hytap_solver_incumbent_updates_total \
    hytap_solver_deadline_stops_total \
    hytap_solver_last_gap_ppm \
    hytap_solver_last_budget_ms \
    hytap_solver_wall_ns; do
    grep -q -E "^# TYPE ${family} (counter|gauge|histogram)$" "$file" \
      || fail "expected solver metric family '$family' missing"
  done
  grep -q -E "^hytap_solver_wins_(exact|explicit|greedy)_total " "$file" \
    || fail "no hytap_solver_wins_*_total sample found"
fi

# 6. Opt-in: serving front-end families (emitted once a SessionManager ran,
# e.g. `stats_cli --sessions`).
if [ "$require_sessions" -eq 1 ]; then
  for family in \
    hytap_session_submitted_total \
    hytap_session_admitted_total \
    hytap_session_rejected_total \
    hytap_session_shed_deadline_total \
    hytap_session_cancelled_total \
    hytap_session_completed_total \
    hytap_session_inflight \
    hytap_session_queued \
    hytap_session_oltp_latency_ns \
    hytap_session_olap_latency_ns \
    hytap_session_oltp_queue_wait_ns \
    hytap_session_olap_queue_wait_ns; do
    grep -q -E "^# TYPE ${family} (counter|gauge|histogram)$" "$file" \
      || fail "expected serving metric family '$family' missing"
  done
fi

# 7. Opt-in: SLO burn-rate families plus the flight-recorder counters
# (emitted once a LatencyProfiler observed sessions and exported its gauges,
# e.g. `stats_cli --slo`).
if [ "$require_slo" -eq 1 ]; then
  for family in \
    hytap_slo_observations_total \
    hytap_slo_violations_total \
    hytap_slo_breaches_total \
    hytap_slo_clears_total \
    hytap_slo_oltp_burn_milli \
    hytap_slo_olap_burn_milli \
    hytap_slo_oltp_breached \
    hytap_slo_olap_breached \
    hytap_flight_events_total; do
    grep -q -E "^# TYPE ${family} (counter|gauge|histogram)$" "$file" \
      || fail "expected SLO metric family '$family' missing"
  done
fi

# 8. Opt-in: latency-profiler phase families (emitted once a LatencyProfiler
# observed sessions and exported its gauges, e.g. `stats_cli --phases`).
if [ "$require_phases" -eq 1 ]; then
  for family in \
    hytap_phase_observations_total \
    hytap_phase_attributions_total \
    hytap_phase_attributions_dropped_total \
    hytap_phase_oltp_dominant \
    hytap_phase_olap_dominant; do
    grep -q -E "^# TYPE ${family} (counter|gauge|histogram)$" "$file" \
      || fail "expected phase metric family '$family' missing"
  done
  for cls in oltp olap; do
    for phase in scan_probe delta materialize store_io retry_backoff; do
      family="hytap_phase_${cls}_${phase}_ns"
      grep -q -E "^# TYPE ${family} histogram$" "$file" \
        || fail "expected phase histogram family '$family' missing"
      grep -q -E "^# TYPE ${family}_p99 gauge$" "$file" \
        || fail "expected interpolated quantile gauge '${family}_p99' missing"
      grep -q -E "^# TYPE hytap_phase_${cls}_${phase}_share_ppm gauge$" \
        "$file" \
        || fail "expected share gauge 'hytap_phase_${cls}_${phase}_share_ppm'"
    done
  done
fi

if [ "$status" -eq 0 ]; then
  echo "check_prometheus: OK ($(grep -c -E "^# TYPE " "$file") families)"
fi
exit "$status"
