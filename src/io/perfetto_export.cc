#include "io/perfetto_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>

namespace hytap {
namespace {

// Fixed process/thread ids of the track layout (see the header comment).
constexpr int kPidServing = 1;
constexpr int kPidMaintenance = 2;
constexpr int kPidStore = 3;
constexpr int kPidExplain = 4;
constexpr int kTidOltp = 1;
constexpr int kTidOlap = 2;
constexpr int kTidSlo = 3;
constexpr int kTidRetier = 1;
constexpr int kTidStructural = 2;
constexpr int kTidStore = 1;
constexpr int kTidExplain = 1;

void AppendF(std::string* out, const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) out->append(buffer, std::min<size_t>(size_t(n), sizeof(buffer)));
}

/// Simulated ns -> trace-event µs. Three decimals keep full ns precision.
void AppendTs(std::string* out, const char* key, uint64_t ns) {
  AppendF(out, "\"%s\": %.3f", key, double(ns) / 1000.0);
}

void AppendMeta(std::string* out, int pid, int tid, const char* what,
                const char* name) {
  AppendF(out,
          ",\n    {\"ph\": \"M\", \"pid\": %d, \"tid\": %d, \"name\": "
          "\"%s\", \"args\": {\"name\": \"%s\"}}",
          pid, tid, what, name);
}

struct TicketInfo {
  uint64_t start_ns = 0;  // clamped to its lane's cursor
  uint64_t end_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t cls = 0;  // QueryClass
  uint16_t type = 0;
  uint16_t status = 0;
};

int LaneOf(uint64_t cls) { return cls == 0 ? kTidOltp : kTidOlap; }

bool IsSessionTerminal(uint16_t type) {
  return type == uint16_t(FlightEventType::kSessionShed) ||
         type == uint16_t(FlightEventType::kSessionCancel) ||
         type == uint16_t(FlightEventType::kSessionComplete);
}

bool IsStoreEvent(uint16_t type) {
  return type >= uint16_t(FlightEventType::kStoreFault) &&
         type <= uint16_t(FlightEventType::kStoreVerifyFail);
}

bool IsRetierEvent(uint16_t type) {
  return type >= uint16_t(FlightEventType::kRetierTrigger) &&
         type <= uint16_t(FlightEventType::kRetierPlanDone);
}

bool IsStructuralEvent(uint16_t type) {
  return type >= uint16_t(FlightEventType::kMergeBegin) &&
         type <= uint16_t(FlightEventType::kMigrationEnd);
}

/// One trace event with common fields; `extra` holds pre-rendered
/// ph/dur/args fragments.
void AppendEvent(std::string* out, const char* name, int pid, int tid,
                 uint64_t ts_ns, const std::string& extra) {
  AppendF(out, ",\n    {\"name\": \"%s\", \"pid\": %d, \"tid\": %d, ", name,
          pid, tid);
  AppendTs(out, "ts", ts_ns);
  *out += extra;
  *out += "}";
}

std::string InstantExtra(const FlightEvent& event) {
  std::string extra = ", \"ph\": \"i\", \"s\": \"t\"";
  AppendF(&extra,
          ", \"args\": {\"window\": %" PRIu64 ", \"ticket\": %" PRIu64
          ", \"a\": %" PRIu64 ", \"b\": %" PRIu64 ", \"code\": %u}",
          event.window, event.ticket, event.a, event.b, unsigned(event.code));
  return extra;
}

void EmitExplainSpan(std::string* out, const TraceSpan& span,
                     uint64_t start_ns) {
  std::string extra = ", \"ph\": \"X\", ";
  AppendTs(&extra, "dur", span.simulated_ns);
  extra += ", \"args\": {";
  bool first = true;
  for (const auto& [key, value] : span.annotations) {
    AppendF(&extra, "%s\"%s\": \"%s\"", first ? "" : ", ",
            JsonEscape(key).c_str(), JsonEscape(value).c_str());
    first = false;
  }
  extra += "}";
  AppendEvent(out, JsonEscape(span.name).c_str(), kPidExplain, kTidExplain,
              start_ns, extra);
  // Children nest sequentially from the parent's start, each occupying its
  // own inclusive span.
  uint64_t cursor = start_ns;
  for (const TraceSpan& child : span.children) {
    EmitExplainSpan(out, child, cursor);
    cursor += child.simulated_ns;
  }
}

}  // namespace

std::string RenderPerfettoJson(const std::vector<FlightEvent>& events,
                               const std::string& label,
                               const TraceSpan* explain) {
  // Pass 1: reconstruct per-ticket execute intervals from terminal events.
  // The flush emits terminals in ticket order and the simulated clock only
  // advances there, so end instants are nondecreasing in ticket; lane
  // cursors clamp the derived starts when the monitor was detached (then
  // sim_ns stalls while costs stay positive).
  std::map<uint64_t, TicketInfo> tickets;
  std::set<uint64_t> admitted;  // tickets whose admit survived the ring
  for (const FlightEvent& event : events) {
    if (event.type == uint16_t(FlightEventType::kSessionAdmit)) {
      admitted.insert(event.ticket);
    }
    if (!IsSessionTerminal(event.type)) continue;
    TicketInfo info;
    info.end_ns = event.sim_ns;
    info.dur_ns =
        event.type == uint16_t(FlightEventType::kSessionShed) ? 0 : event.b;
    info.cls = event.a;
    info.type = event.type;
    info.status = event.code;
    tickets[event.ticket] = info;
  }
  uint64_t lane_cursor[2] = {0, 0};
  for (auto& [ticket, info] : tickets) {
    (void)ticket;
    uint64_t& cursor = lane_cursor[info.cls == 0 ? 0 : 1];
    if (info.end_ns < cursor) info.end_ns = cursor;
    uint64_t start =
        info.dur_ns > info.end_ns ? 0 : info.end_ns - info.dur_ns;
    if (start < cursor) start = cursor;
    if (start > info.end_ns) info.end_ns = start;
    info.start_ns = start;
    info.dur_ns = info.end_ns - start;
    cursor = info.end_ns;
  }

  std::string out = "{\n  \"displayTimeUnit\": \"ns\",\n";
  AppendF(&out, "  \"otherData\": {\"label\": \"%s\"},\n",
          JsonEscape(label).c_str());
  out += "  \"traceEvents\": [";
  out += "\n    {\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"serving\"}}";
  AppendMeta(&out, kPidServing, kTidOltp, "thread_name", "oltp");
  AppendMeta(&out, kPidServing, kTidOlap, "thread_name", "olap");
  AppendMeta(&out, kPidServing, kTidSlo, "thread_name", "slo");
  AppendMeta(&out, kPidMaintenance, 0, "process_name", "maintenance");
  AppendMeta(&out, kPidMaintenance, kTidRetier, "thread_name", "retier");
  AppendMeta(&out, kPidMaintenance, kTidStructural, "thread_name",
             "structural");
  AppendMeta(&out, kPidStore, 0, "process_name", "secondary_store");
  AppendMeta(&out, kPidStore, kTidStore, "thread_name", "store");
  if (explain != nullptr) {
    AppendMeta(&out, kPidExplain, 0, "process_name", "explain");
    AppendMeta(&out, kPidExplain, kTidExplain, "thread_name",
               "operator_tree");
  }

  // Execute slices + admit/dispatch flows, in ticket (= simulated) order so
  // every lane's X slices are emitted ts-monotonic and non-overlapping.
  for (const auto& [ticket, info] : tickets) {
    const int tid = LaneOf(info.cls);
    const uint64_t flow_id = ticket + 1;
    std::string extra = ", \"ph\": \"X\", ";
    AppendTs(&extra, "dur", info.dur_ns);
    AppendF(&extra,
            ", \"args\": {\"ticket\": %" PRIu64
            ", \"class\": \"%s\", \"status\": %u, \"outcome\": \"%s\", "
            "\"simulated_ns\": %" PRIu64 "}",
            ticket, info.cls == 0 ? "oltp" : "olap", unsigned(info.status),
            FlightEventTypeName(info.type), info.dur_ns);
    char name[64];
    std::snprintf(name, sizeof(name), "ticket %" PRIu64 " %s", ticket,
                  FlightEventTypeName(info.type));
    AppendEvent(&out, name, kPidServing, tid, info.start_ns, extra);
    // Close the admit -> dispatch -> terminal flow. Skipped when the ring
    // evicted this ticket's admit event (then no flow start exists either).
    if (admitted.count(ticket) != 0) {
      std::string flow_end = ", \"ph\": \"f\", \"bp\": \"e\", \"cat\": "
                             "\"ticket\"";
      AppendF(&flow_end, ", \"id\": %" PRIu64, flow_id);
      AppendEvent(&out, "ticket", kPidServing, tid, info.end_ns, flow_end);
    }
  }

  for (const FlightEvent& event : events) {
    const char* name = FlightEventTypeName(event.type);
    switch (static_cast<FlightEventType>(event.type)) {
      case FlightEventType::kSessionAdmit:
      case FlightEventType::kSessionDispatch: {
        // Admit/dispatch events are deliberately unstamped (their wall-clock
        // instants vary with worker interleaving); both phases are
        // instantaneous on the simulated clock, so they pin to the owning
        // ticket's execute start.
        auto it = tickets.find(event.ticket);
        if (it == tickets.end()) break;  // dump window missed the terminal
        const int tid = LaneOf(it->second.cls);
        const bool admit =
            event.type == uint16_t(FlightEventType::kSessionAdmit);
        // A dispatch step without its admit (ring eviction) would dangle a
        // flow with no start; keep the instant, drop the flow step.
        if (admit || admitted.count(event.ticket) != 0) {
          std::string flow =
              admit ? std::string(", \"ph\": \"s\", \"cat\": \"ticket\"")
                    : std::string(", \"ph\": \"t\", \"cat\": \"ticket\"");
          AppendF(&flow, ", \"id\": %" PRIu64, event.ticket + 1);
          AppendEvent(&out, "ticket", kPidServing, tid, it->second.start_ns,
                      flow);
        }
        AppendEvent(&out, name, kPidServing, tid, it->second.start_ns,
                    InstantExtra(event));
        break;
      }
      case FlightEventType::kSessionReject:
        AppendEvent(&out, name, kPidServing, LaneOf(event.a), 0,
                    InstantExtra(event));
        break;
      case FlightEventType::kSessionShed:
      case FlightEventType::kSessionCancel:
      case FlightEventType::kSessionComplete:
        break;  // rendered as X slices above
      case FlightEventType::kPhaseAttribution:
        AppendEvent(&out, name, kPidServing, LaneOf(event.code >> 2),
                    event.sim_ns, InstantExtra(event));
        break;
      case FlightEventType::kSloBreach:
      case FlightEventType::kSloClear:
        AppendEvent(&out, name, kPidServing, kTidSlo, event.sim_ns,
                    InstantExtra(event));
        break;
      case FlightEventType::kAnomaly: {
        std::string extra = ", \"ph\": \"i\", \"s\": \"g\"";
        AppendF(&extra, ", \"args\": {\"kind\": %u, \"detail\": %" PRIu64
                "}",
                unsigned(event.code), event.a);
        AppendEvent(&out, name, kPidServing, kTidSlo, event.sim_ns, extra);
        break;
      }
      default: {
        if (IsStoreEvent(event.type)) {
          // Streamed store events carry window=0/sim=0 and a (ticket, seq)
          // key; place them just inside the owning execute slice. Serial
          // store events carry real stamps and map directly.
          uint64_t ts = event.sim_ns;
          if (event.window == 0 && event.sim_ns == 0) {
            auto it = tickets.find(event.ticket);
            if (it != tickets.end()) {
              ts = it->second.start_ns + event.seq;
              if (ts > it->second.end_ns) ts = it->second.end_ns;
            }
          }
          AppendEvent(&out, name, kPidStore, kTidStore, ts,
                      InstantExtra(event));
        } else if (IsRetierEvent(event.type)) {
          AppendEvent(&out, name, kPidMaintenance, kTidRetier, event.sim_ns,
                      InstantExtra(event));
        } else if (IsStructuralEvent(event.type)) {
          AppendEvent(&out, name, kPidMaintenance, kTidStructural,
                      event.sim_ns, InstantExtra(event));
        }
        // kNone / unknown types are dropped.
        break;
      }
    }
  }

  if (explain != nullptr) {
    EmitExplainSpan(&out, *explain, 0);
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace hytap
