#include "common/flight_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <utility>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/random.h"
#include "core/retier_daemon.h"
#include "core/tiered_table.h"
#include "serving/session_manager.h"
#include "workload/enterprise.h"

namespace hytap {
namespace {

// ---------------------------------------------------------------------------
// Recorder unit tests (private FlightRecorder instances).
// ---------------------------------------------------------------------------

FlightEvent MakeEvent(uint64_t window, uint64_t sim_ns, uint64_t ticket,
                      FlightEventType type = FlightEventType::kSessionComplete,
                      uint32_t seq = 0) {
  FlightEvent event{};
  event.window = window;
  event.sim_ns = sim_ns;
  event.ticket = ticket;
  event.seq = seq;
  event.type = static_cast<uint16_t>(type);
  return event;
}

TEST(FlightRecorderTest, RingWraparoundKeepsNewestEvents) {
  SetFlightRecorderEnabled(true);
  FlightRecorder recorder(64);
  for (uint64_t i = 0; i < 200; ++i) {
    recorder.Record(MakeEvent(/*window=*/1, /*sim_ns=*/i, /*ticket=*/i));
  }
  EXPECT_EQ(recorder.total_recorded(), 200u);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  // A full ring drops the oldest events, never the newest.
  for (const FlightEvent& event : events) {
    EXPECT_GE(event.ticket, 200u - 64u);
  }
}

TEST(FlightRecorderTest, SnapshotSortsCanonicallyNotByArrival) {
  SetFlightRecorderEnabled(true);
  FlightRecorder recorder(64);
  // Arrival order is deliberately scrambled relative to the canonical
  // (window, sim_ns, ticket, type, ...) tuple.
  recorder.Record(MakeEvent(2, 5, 1));
  recorder.Record(MakeEvent(1, 9, 3));
  recorder.Record(MakeEvent(1, 3, 7));
  recorder.Record(MakeEvent(1, 3, 2, FlightEventType::kSessionDispatch));
  recorder.Record(MakeEvent(1, 3, 2, FlightEventType::kSessionAdmit));

  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].ticket, 2u);
  EXPECT_EQ(events[0].type,
            static_cast<uint16_t>(FlightEventType::kSessionAdmit));
  EXPECT_EQ(events[1].ticket, 2u);
  EXPECT_EQ(events[1].type,
            static_cast<uint16_t>(FlightEventType::kSessionDispatch));
  EXPECT_EQ(events[2].ticket, 7u);
  EXPECT_EQ(events[3].sim_ns, 9u);
  EXPECT_EQ(events[4].window, 2u);
}

TEST(FlightRecorderTest, DisabledRecorderDropsEverything) {
  SetFlightRecorderEnabled(false);
  FlightRecorder recorder(64);
  recorder.Record(MakeEvent(1, 1, 1));
  recorder.Record(FlightEventType::kMergeBegin, 0, 0, 1, 1, 42);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
  SetFlightRecorderEnabled(true);
  recorder.Record(MakeEvent(1, 1, 1));
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
}

TEST(FlightRecorderTest, DumpRoundTripPreservesEventsAndReason) {
  SetFlightRecorderEnabled(true);
  FlightRecorder recorder(64);
  for (uint64_t i = 0; i < 7; ++i) {
    recorder.Record(MakeEvent(1, 10 * i, i, FlightEventType::kRetierStep));
  }
  const std::string path = ::testing::TempDir() + "flight_roundtrip.bin";
  ASSERT_TRUE(recorder.DumpTo(path, "unit_roundtrip"));

  std::vector<FlightEvent> decoded;
  std::string reason;
  ASSERT_TRUE(ReadFlightDump(path, &decoded, &reason));
  EXPECT_EQ(reason, "unit_roundtrip");
  const std::vector<FlightEvent> expected = recorder.Snapshot();
  ASSERT_EQ(decoded.size(), expected.size());
  EXPECT_EQ(0, std::memcmp(decoded.data(), expected.data(),
                           decoded.size() * sizeof(FlightEvent)));
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ReadRejectsTruncatedDump) {
  SetFlightRecorderEnabled(true);
  FlightRecorder recorder(64);
  for (uint64_t i = 0; i < 4; ++i) recorder.Record(MakeEvent(1, i, i));
  const std::string path = ::testing::TempDir() + "flight_truncated.bin";
  ASSERT_TRUE(recorder.DumpTo(path, "unit_truncated"));
  std::vector<FlightEvent> decoded;
  ASSERT_TRUE(ReadFlightDump(path, &decoded, nullptr));
  ASSERT_EQ(decoded.size(), 4u);
  // The last event loses its final byte.
  std::filesystem::resize_file(
      path, sizeof(FlightDumpHeader) + 4 * sizeof(FlightEvent) - 1);
  EXPECT_FALSE(ReadFlightDump(path, &decoded, nullptr));
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ReadRejectsOversizedEventCount) {
  // A header-only dump claiming 2^60 events must fail cleanly, not try to
  // allocate them.
  FlightDumpHeader header{};
  std::memcpy(header.magic, "HYFR", 4);
  header.version = 1;
  header.event_size = sizeof(FlightEvent);
  header.event_count = uint64_t(1) << 60;
  const std::string path = ::testing::TempDir() + "flight_oversized.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  }
  ASSERT_EQ(std::filesystem::file_size(path), 88u);
  std::vector<FlightEvent> decoded;
  EXPECT_FALSE(ReadFlightDump(path, &decoded, nullptr));
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ConcurrentWritersNeverTearEvents) {
  SetFlightRecorderEnabled(true);
  FlightRecorder recorder(4096);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 1000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        // A torn read would mix the words of two events; making every word
        // a function of the ticket lets the post-join snapshot verify each
        // event is internally consistent.
        const uint64_t ticket = uint64_t(t) * kPerThread + i;
        FlightEvent event = MakeEvent(1, ticket * 3, ticket);
        event.a = ticket + 7;
        event.b = ticket + 11;
        recorder.Record(event);
      }
    });
  }
  // Concurrent snapshots must not crash or return torn events.
  for (int i = 0; i < 8; ++i) {
    for (const FlightEvent& event : recorder.Snapshot()) {
      EXPECT_EQ(event.sim_ns, event.ticket * 3);
      EXPECT_EQ(event.a, event.ticket + 7);
      EXPECT_EQ(event.b, event.ticket + 11);
    }
  }
  for (std::thread& w : writers) w.join();

  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), size_t(kThreads) * kPerThread);
  for (const FlightEvent& event : events) {
    EXPECT_EQ(event.sim_ns, event.ticket * 3);
    EXPECT_EQ(event.a, event.ticket + 7);
    EXPECT_EQ(event.b, event.ticket + 11);
  }
}

TEST(FlightRecorderTest, CapacityIsProcessWide) {
  SetFlightRecorderEnabled(true);
  FlightRecorder recorder(64);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100;
  // Every writer stays alive until all have recorded, so the four are
  // concurrent recording threads however the scheduler runs them.
  std::latch recorded(kThreads);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, &recorded, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t ticket = uint64_t(t) * kPerThread + i;
        FlightEvent event = MakeEvent(1, ticket * 3, ticket);
        event.a = ticket + 7;
        event.b = ticket + 11;
        recorder.Record(event);
      }
      recorded.arrive_and_wait();
    });
  }
  for (std::thread& w : writers) w.join();

  // The capacity bounds the whole recorder, not each recording thread.
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  for (const FlightEvent& event : events) {
    EXPECT_EQ(event.sim_ns, event.ticket * 3);
    EXPECT_EQ(event.a, event.ticket + 7);
    EXPECT_EQ(event.b, event.ticket + 11);
  }
  EXPECT_EQ(recorder.total_recorded(), size_t(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// End-to-end acceptance: serving load + throttled re-tiering + seeded write
// corruption, dumped through the process-global recorder. The decoded
// timeline must contain the fault, the quarantine, the abort, and the
// session tickets in simulated-time order — byte-identical at 1/2/4 workers.
// ---------------------------------------------------------------------------

constexpr size_t kRows = 3000;
constexpr size_t kCols = 16;
constexpr size_t kQueriesPerPhase = 32;
constexpr uint64_t kSeed = 42;
constexpr size_t kHotCount = 5;
constexpr size_t kHotA = 1;
constexpr size_t kHotB = kCols - kHotCount;

std::unique_ptr<TieredTable> MakeBseg() {
  EnterpriseProfile profile = BsegProfile();
  profile.attribute_count = kCols;
  TieredTableOptions options;
  options.device = DeviceKind::kCssd;
  options.timing_seed = kSeed;
  // Phases are separated via ForceRoll(): make windows effectively
  // unbounded on the simulated clock so each phase stays in one window.
  options.monitor.window_ns = 1'000'000'000'000'000ull;
  auto table = std::make_unique<TieredTable>(
      "bseg", MakeEnterpriseSchema(profile), options);
  table->Load(GenerateEnterpriseRows(profile, kRows, kSeed));
  return table;
}

double TotalBytes(const TieredTable& table) {
  double total = 0.0;
  for (ColumnId c = 0; c < table.table().column_count(); ++c) {
    total += double(table.table().ColumnDramBytes(c));
  }
  return total;
}

uint64_t MaxColumnBytes(const TieredTable& table) {
  uint64_t max_bytes = 0;
  for (ColumnId c = 0; c < table.table().column_count(); ++c) {
    max_bytes = std::max<uint64_t>(max_bytes, table.table().ColumnDramBytes(c));
  }
  return max_bytes;
}

RetierOptions TestOptions(const TieredTable& table) {
  RetierOptions options;
  options.drift_threshold = 0.25;
  options.min_improvement_pct = 1.0;
  options.dwell_windows = 0;
  options.periodic_windows = 1;
  options.bytes_per_window = 0;
  options.budget_bytes = 0.4 * TotalBytes(table);
  options.recent_windows = 1;
  options.amortization_windows = 16;
  return options;
}

/// The retier_daemon_test phase mix, but submitted through the serving front
/// end with alternating priority classes (per-query threads = 1 keeps each
/// session's execution deterministic by ticket).
void ServePhase(SessionManager* sm, size_t hot_base, size_t hot_count) {
  Rng rng(kSeed * 7919 + hot_base);
  std::vector<SessionHandle> handles;
  handles.reserve(kQueriesPerPhase);
  for (size_t q = 0; q < kQueriesPerPhase; ++q) {
    Query query;
    const size_t hot = hot_base + size_t(rng.NextBounded(hot_count));
    query.predicates.push_back(
        Predicate::Equals(ColumnId(hot), Value(int32_t(rng.NextBounded(8)))));
    if (q % 3 == 0) {
      const size_t other = hot_base + size_t(rng.NextBounded(hot_count));
      if (other != hot) {
        query.predicates.push_back(Predicate::Between(
            ColumnId(other), Value(int32_t{0}), Value(int32_t{40})));
      }
    }
    query.aggregates = {Aggregate::Count()};
    SubmitOptions opts;
    opts.query_class = q % 2 == 0 ? QueryClass::kOltp : QueryClass::kOlap;
    opts.threads = 1;
    auto session = sm->Submit(query, opts);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    handles.push_back(*session);
  }
  for (const SessionHandle& session : handles) (void)session->Await();
}

void DrainPlan(TieredTable* table, RetierDaemon* daemon,
               size_t max_windows = 64) {
  for (size_t i = 0; i < max_windows; ++i) {
    if (daemon->state() == RetierState::kIdle) break;
    table->monitor().ForceRoll();
    (void)daemon->Tick();
  }
}

bool HasEvent(const std::vector<FlightEvent>& events, FlightEventType type,
              uint16_t code = 0xffff) {
  for (const FlightEvent& event : events) {
    if (event.type != static_cast<uint16_t>(type)) continue;
    if (code != 0xffff && event.code != code) continue;
    return true;
  }
  return false;
}

std::string RunAcceptance(uint32_t workers, std::vector<FlightEvent>* decoded) {
  FlightRecorder::Global().Reset();
  SetFlightRecorderEnabled(true);

  auto table = MakeBseg();
  SessionOptions so;
  so.max_sessions = workers;
  so.default_threads = 1;
  SessionManager& sm = table->EnableServing(so);

  RetierOptions options = TestOptions(*table);
  // Roughly one column move per window: the phase-B plan stays mid-flight
  // so the abort genuinely cancels pending steps.
  options.bytes_per_window = MaxColumnBytes(*table) + 1024;
  RetierDaemon daemon(table.get(), options);

  // Phase A under serving load, then seeded silent write corruption armed
  // before the first plan drains: evictions corrupt on the media and
  // verify-by-read-back quarantines the affected columns.
  ServePhase(&sm, kHotA, kHotCount);
  FaultConfig faults;
  faults.seed = 1;
  faults.write_corruption_rate = 0.02;
  table->store().ConfigureFaults(faults);

  RetierTickReport tick = daemon.Tick();
  EXPECT_TRUE(tick.plan_started);
  DrainPlan(table.get(), &daemon);
  EXPECT_EQ(daemon.state(), RetierState::kIdle);
  EXPECT_GE(daemon.history().size(), 1u);
  EXPECT_GT(daemon.history()[0].quarantined_steps, 0u)
      << "seed produced no quarantine";

  // Phase B: skew flip starts a second plan; abort it mid-flight.
  table->monitor().ForceRoll();
  ServePhase(&sm, kHotB, kHotCount);
  tick = daemon.Tick();
  EXPECT_TRUE(tick.plan_started);
  EXPECT_EQ(daemon.state(), RetierState::kMigrating);
  daemon.RequestAbort();
  table->monitor().ForceRoll();
  tick = daemon.Tick();
  EXPECT_TRUE(tick.plan_aborted);

  sm.Drain();
  // PID-qualified path: TempDir() is machine-global, so concurrent runs of
  // this binary must not race on the same dump file.
  const std::string path = ::testing::TempDir() + "flight_accept_p" +
                           std::to_string(getpid()) + "_w" +
                           std::to_string(workers) + ".bin";
  EXPECT_TRUE(FlightRecorder::Global().DumpTo(path, "acceptance"));
  if (decoded != nullptr) {
    std::string reason;
    EXPECT_TRUE(ReadFlightDump(path, decoded, &reason));
    EXPECT_EQ(reason, "acceptance");
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  return bytes.str();
}

TEST(FlightRecorderAcceptanceTest, AnomalyTimelineIsBitIdenticalAcrossWorkers) {
  // Anomaly hooks fire during the scenario; keep them from writing their own
  // dump files (the test takes one manual dump at the quiesced end).
  setenv("HYTAP_FLIGHT_DUMP", "0", 1);

  std::vector<FlightEvent> events;
  const std::string one = RunAcceptance(1, &events);
  const std::string two = RunAcceptance(2, nullptr);
  const std::string four = RunAcceptance(4, nullptr);
  ASSERT_GT(one.size(), sizeof(FlightDumpHeader));
  EXPECT_EQ(one, two) << "dump differs between 1 and 2 workers";
  EXPECT_EQ(one, four) << "dump differs between 1 and 4 workers";

  // The decoded timeline contains the whole causal chain: the injected
  // corrupt write, the read-back verify failure, the quarantine, the abort,
  // and the anomaly markers for the latter two.
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(HasEvent(events, FlightEventType::kStoreFault, /*code=*/5))
      << "no corrupt-write fault event";
  EXPECT_TRUE(HasEvent(events, FlightEventType::kStoreVerifyFail));
  EXPECT_TRUE(HasEvent(events, FlightEventType::kRetierQuarantine));
  EXPECT_TRUE(HasEvent(events, FlightEventType::kRetierAbort));
  EXPECT_TRUE(HasEvent(
      events, FlightEventType::kAnomaly,
      static_cast<uint16_t>(AnomalyKind::kStickyQuarantine)));
  EXPECT_TRUE(HasEvent(events, FlightEventType::kAnomaly,
                       static_cast<uint16_t>(AnomalyKind::kRetierAbort)));

  // Every admitted session's lifecycle is on the timeline: both phases'
  // tickets admit, dispatch, and complete.
  std::vector<bool> admitted(2 * kQueriesPerPhase, false);
  std::vector<bool> completed(2 * kQueriesPerPhase, false);
  for (const FlightEvent& event : events) {
    if (event.type == static_cast<uint16_t>(FlightEventType::kSessionAdmit) &&
        event.ticket < admitted.size()) {
      admitted[event.ticket] = true;
    }
    if (event.type ==
            static_cast<uint16_t>(FlightEventType::kSessionComplete) &&
        event.ticket < completed.size()) {
      completed[event.ticket] = true;
    }
  }
  for (size_t t = 0; t < admitted.size(); ++t) {
    EXPECT_TRUE(admitted[t]) << "ticket " << t << " never admitted";
    EXPECT_TRUE(completed[t]) << "ticket " << t << " never completed";
  }

  // Simulated-time order: the canonical sort is non-decreasing in
  // (window, sim_ns), and the abort lands after the quarantine.
  size_t quarantine_at = events.size();
  size_t abort_at = 0;
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(std::make_pair(events[i].window, events[i].sim_ns),
              std::make_pair(events[i - 1].window, events[i - 1].sim_ns))
        << "event " << i << " out of simulated-time order";
  }
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].type ==
        static_cast<uint16_t>(FlightEventType::kRetierQuarantine)) {
      quarantine_at = std::min(quarantine_at, i);
    }
    if (events[i].type ==
        static_cast<uint16_t>(FlightEventType::kRetierAbort)) {
      abort_at = std::max(abort_at, i);
    }
  }
  EXPECT_LT(quarantine_at, abort_at);
}

}  // namespace
}  // namespace hytap
