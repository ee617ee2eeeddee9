// hytap-flight-decode: render a binary flight-recorder dump as a merged
// human-readable, JSON, or Perfetto timeline correlating serving,
// re-tiering, and fault events.
//
// Usage:
//   flight_decode_cli <dump.bin> [--format text|json|perfetto]
//                     [--trace explain.json] [--out <path>]
//                     [--ticket N] [--window N] [--type NAME]
//
// Text and JSON print events in the dump's canonical order (window, sim_ns,
// ticket, type, code, seq, a, b) — the deterministic timeline the recorder
// sorted them into — so two decoders over the same dump always agree byte
// for byte. Perfetto fuses the events (and, with --trace, an EXPLAIN span
// tree from `stats_cli --trace-out`) into Chrome trace-event JSON for
// ui.perfetto.dev. The filter flags keep large dumps greppable without
// decoding everything: each may be given once, they compose with AND, and
// they apply before any format renders. An unknown --type name is a usage
// error.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/phases.h"
#include "common/trace.h"
#include "io/perfetto_export.h"
#include "tools/cli_flags.h"

using namespace hytap;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: flight_decode_cli <dump.bin> "
               "[--format text|json|perfetto] [--trace explain.json] "
               "[--out <path>] [--ticket N] [--window N] [--type NAME]\n");
  return 2;
}

/// Resolves an event type name. Type values are contiguous from kNone (the
/// enum is append-only), so the first "unknown" ends the search.
bool ParseEventType(const std::string& name, uint16_t* type) {
  for (uint16_t t = 0;; ++t) {
    const char* candidate = FlightEventTypeName(t);
    if (std::strcmp(candidate, "unknown") == 0) return false;
    if (name == candidate) {
      *type = t;
      return true;
    }
  }
}

const char* QueryClassName(uint64_t cls) {
  switch (cls) {
    case 0:
      return "oltp";
    case 1:
      return "olap";
    default:
      return "?";
  }
}

const char* AnomalyKindName(uint16_t code) {
  switch (AnomalyKind(code)) {
    case AnomalyKind::kManual:
      return "manual";
    case AnomalyKind::kSloBreach:
      return "slo_breach";
    case AnomalyKind::kStickyQuarantine:
      return "sticky_quarantine";
    case AnomalyKind::kRetierAbort:
      return "retier_abort";
    case AnomalyKind::kChecksumFailure:
      return "checksum_failure";
  }
  return "?";
}

/// One-line human reading of the type-specific operands.
std::string Detail(const FlightEvent& e) {
  char buf[160];
  switch (FlightEventType(e.type)) {
    case FlightEventType::kSessionAdmit:
      std::snprintf(buf, sizeof buf, "class=%s deadline_ns=%" PRIu64,
                    QueryClassName(e.a), e.b);
      break;
    case FlightEventType::kSessionReject:
      std::snprintf(buf, sizeof buf, "class=%s status=%u",
                    QueryClassName(e.a), unsigned(e.code));
      break;
    case FlightEventType::kSessionDispatch:
      std::snprintf(buf, sizeof buf, "class=%s", QueryClassName(e.a));
      break;
    case FlightEventType::kSessionCancel:
      std::snprintf(buf, sizeof buf, "class=%s accrued_ns=%" PRIu64,
                    QueryClassName(e.a), e.b);
      break;
    case FlightEventType::kSessionShed:
      // Shed queries never execute: b is their simulated queue wait
      // (identically 0 — queueing is instantaneous on the simulated clock),
      // never a latency.
      std::snprintf(buf, sizeof buf, "class=%s queue_wait_ns=%" PRIu64
                    " status=%u",
                    QueryClassName(e.a), e.b, unsigned(e.code));
      break;
    case FlightEventType::kSessionComplete:
      std::snprintf(buf, sizeof buf, "class=%s latency_ns=%" PRIu64
                    " status=%u",
                    QueryClassName(e.a), e.b, unsigned(e.code));
      break;
    case FlightEventType::kRetierTrigger:
      std::snprintf(buf, sizeof buf, "plan=%" PRIu64 " steps=%" PRIu64
                    " reason=%s",
                    e.ticket, e.a, e.code == 1 ? "drift" : "periodic");
      break;
    case FlightEventType::kRetierStep:
      std::snprintf(buf, sizeof buf, "plan=%" PRIu64 " column=%" PRIu64
                    " bytes=%" PRIu64 " dir=%s",
                    e.ticket, e.a, e.b, e.code == 1 ? "to_dram" : "to_disk");
      break;
    case FlightEventType::kRetierQuarantine:
      std::snprintf(buf, sizeof buf, "plan=%" PRIu64 " column=%" PRIu64
                    " bytes=%" PRIu64,
                    e.ticket, e.a, e.b);
      break;
    case FlightEventType::kRetierAbort:
      std::snprintf(buf, sizeof buf, "plan=%" PRIu64 " aborted_steps=%" PRIu64
                    " applied_steps=%" PRIu64,
                    e.ticket, e.a, e.b);
      break;
    case FlightEventType::kRetierPlanDone:
      std::snprintf(buf, sizeof buf, "plan=%" PRIu64 " applied=%" PRIu64
                    " moved_bytes=%" PRIu64 "%s",
                    e.ticket, e.a, e.b, e.code == 1 ? " aborted" : "");
      break;
    case FlightEventType::kStoreFault:
      std::snprintf(buf, sizeof buf, "page=%" PRIu64 " attempt=%" PRIu64
                    " fault=%u",
                    e.a, e.b, unsigned(e.code));
      break;
    case FlightEventType::kStoreChecksumFail:
      std::snprintf(buf, sizeof buf, "page=%" PRIu64 " attempt=%" PRIu64,
                    e.a, e.b);
      break;
    case FlightEventType::kStoreQuarantine:
      std::snprintf(buf, sizeof buf, "page=%" PRIu64 " status=%u", e.a,
                    unsigned(e.code));
      break;
    case FlightEventType::kStoreVerifyFail:
      std::snprintf(buf, sizeof buf, "page=%" PRIu64, e.a);
      break;
    case FlightEventType::kMergeBegin:
    case FlightEventType::kMergeEnd:
      std::snprintf(buf, sizeof buf, "delta_rows=%" PRIu64 " status=%u", e.a,
                    unsigned(e.code));
      break;
    case FlightEventType::kMigrationBegin:
      std::snprintf(buf, sizeof buf, "column=%" PRIu64 " dir=%s", e.a,
                    e.code == 1 ? "to_dram" : "to_disk");
      break;
    case FlightEventType::kMigrationEnd:
      std::snprintf(buf, sizeof buf, "column=%" PRIu64 " moved_bytes=%" PRIu64
                    "%s",
                    e.a, e.b, e.code == 1 ? " failed" : "");
      break;
    case FlightEventType::kSloBreach:
      std::snprintf(buf, sizeof buf, "class=%s burn_milli=%" PRIu64
                    " window=%u",
                    QueryClassName(e.a), e.b, unsigned(e.code));
      break;
    case FlightEventType::kSloClear:
      std::snprintf(buf, sizeof buf, "class=%s", QueryClassName(e.a));
      break;
    case FlightEventType::kAnomaly:
      std::snprintf(buf, sizeof buf, "kind=%s", AnomalyKindName(e.code));
      break;
    case FlightEventType::kPhaseAttribution:
      std::snprintf(buf, sizeof buf,
                    "class=%s dominant=%s latency_ns=%" PRIu64
                    "%s%s",
                    QueryClassName(e.code >> 2),
                    e.a < kQueryPhaseCount ? QueryPhaseName(QueryPhase(e.a))
                                           : "?",
                    e.b,
                    (e.code & 1) != 0 ? " slo_breach" : "",
                    (e.code & 2) != 0 ? " p99_tail" : "");
      break;
    default:
      std::snprintf(buf, sizeof buf, "a=%" PRIu64 " b=%" PRIu64, e.a, e.b);
      break;
  }
  return buf;
}

void RenderText(FILE* out, const std::string& reason,
                const std::vector<FlightEvent>& events) {
  std::fprintf(out, "# flight dump: %zu events, trigger \"%s\"\n",
               events.size(), reason.c_str());
  std::fprintf(out, "%10s %15s %8s %4s %-18s %s\n", "window", "sim_ns",
               "ticket", "seq", "event", "detail");
  for (const FlightEvent& e : events) {
    std::fprintf(out, "%10" PRIu64 " %15" PRIu64 " %8" PRIu64 " %4u %-18s %s\n",
                 e.window, e.sim_ns, e.ticket, e.seq,
                 FlightEventTypeName(e.type), Detail(e).c_str());
  }
}

void RenderJson(FILE* out, const std::string& reason,
                const std::vector<FlightEvent>& events) {
  std::fprintf(out, "{\"reason\":\"%s\",\"event_count\":%zu,\"events\":[",
               reason.c_str(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    std::fprintf(out,
                 "%s{\"window\":%" PRIu64 ",\"sim_ns\":%" PRIu64
                 ",\"ticket\":%" PRIu64 ",\"seq\":%u,\"type\":\"%s\""
                 ",\"code\":%u,\"a\":%" PRIu64 ",\"b\":%" PRIu64 "}",
                 i == 0 ? "" : ",", e.window, e.sim_ns, e.ticket, e.seq,
                 FlightEventTypeName(e.type), unsigned(e.code), e.a, e.b);
  }
  std::fprintf(out, "]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string format = "text";
  std::string out_path;
  std::string trace_path;
  bool have_ticket = false, have_window = false, have_type = false;
  uint64_t ticket_filter = 0, window_filter = 0;
  uint16_t type_filter = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--format") {
      if (i + 1 >= argc) return Usage();
      format = argv[++i];
    } else if (arg == "--out") {
      if (i + 1 >= argc) return Usage();
      out_path = argv[++i];
    } else if (arg == "--trace") {
      if (i + 1 >= argc) return Usage();
      trace_path = argv[++i];
    } else if (arg == "--ticket") {
      if (!NextNumber(argc, argv, &i, &ticket_filter)) return Usage();
      have_ticket = true;
    } else if (arg == "--window") {
      if (!NextNumber(argc, argv, &i, &window_filter)) return Usage();
      have_window = true;
    } else if (arg == "--type") {
      if (i + 1 >= argc) return Usage();
      if (!ParseEventType(argv[++i], &type_filter)) {
        std::fprintf(stderr, "unknown event type: %s\n", argv[i]);
        return Usage();
      }
      have_type = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path.empty() ||
      (format != "text" && format != "json" && format != "perfetto") ||
      (!trace_path.empty() && format != "perfetto")) {
    return Usage();
  }

  std::vector<FlightEvent> events;
  std::string reason;
  if (!ReadFlightDump(path, &events, &reason)) {
    std::fprintf(stderr, "cannot decode %s (short read or bad header)\n",
                 path.c_str());
    return 1;
  }

  TraceSpan explain;
  if (!trace_path.empty()) {
    std::ifstream in(trace_path, std::ios::binary);
    std::ostringstream json;
    json << in.rdbuf();
    if (!in.is_open() || !ParseTraceJson(json.str(), &explain)) {
      std::fprintf(stderr, "cannot parse trace json %s\n",
                   trace_path.c_str());
      return 1;
    }
  }

  if (have_ticket || have_window || have_type) {
    std::vector<FlightEvent> kept;
    kept.reserve(events.size());
    for (const FlightEvent& e : events) {
      if (have_ticket && e.ticket != ticket_filter) continue;
      if (have_window && e.window != window_filter) continue;
      if (have_type && e.type != type_filter) continue;
      kept.push_back(e);
    }
    events.swap(kept);
  }

  FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  if (format == "perfetto") {
    const std::string timeline = RenderPerfettoJson(
        events, reason, trace_path.empty() ? nullptr : &explain);
    std::fwrite(timeline.data(), 1, timeline.size(), out);
  } else if (format == "json") {
    RenderJson(out, reason, events);
  } else {
    RenderText(out, reason, events);
  }
  if (out != stdout) std::fclose(out);
  return 0;
}
