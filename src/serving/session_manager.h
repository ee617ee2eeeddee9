#ifndef HYTAP_SERVING_SESSION_MANAGER_H_
#define HYTAP_SERVING_SESSION_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "txn/transaction_manager.h"

namespace hytap {

class TieredTable;
class LatencyProfiler;

/// Priority class of a submitted query. OLTP dispatches before OLAP and its
/// morsels preempt OLAP morsels at the thread-pool level (TaskPriority).
enum class QueryClass { kOltp = 0, kOlap = 1 };
inline constexpr size_t kQueryClassCount = 2;

/// Serving-layer configuration (DESIGN.md §15).
struct SessionOptions {
  /// Maximum concurrently executing queries — the serving worker count.
  size_t max_sessions = 4;
  /// Bounded admission queue: Submit() rejects with kResourceExhausted once
  /// this many queries are waiting.
  size_t queue_capacity = 256;
  /// Default ParallelFor width per query when SubmitOptions::threads is 0.
  uint32_t default_threads = 1;
  /// Frames in each query's private page cache. Private cold caches are
  /// what make a query's IoStats a pure function of its ticket — see the
  /// determinism note on SessionManager.
  size_t session_frames = 64;
};

/// Per-submission options.
struct SubmitOptions {
  QueryClass query_class = QueryClass::kOlap;
  /// Absolute steady-clock deadline in ns (SessionManager::NowNs() domain;
  /// 0 = none). A query still queued past its deadline is shed with
  /// kDeadlineExceeded instead of dispatched.
  uint64_t deadline_ns = 0;
  /// ParallelFor width for this query (0 = SessionOptions::default_threads).
  uint32_t threads = 0;
};

/// Handle to one admitted query. Shared between the caller and the serving
/// workers; all methods are thread-safe.
class QuerySession {
 public:
  /// Blocks until the query reaches a terminal state and returns its result.
  /// Terminal states: executed (any executor status), shed
  /// (kDeadlineExceeded), or cancelled (kCancelled, with no partial
  /// results). Idempotent.
  QueryResult Await();

  /// True once the session is terminal (non-blocking).
  bool Done() const;

  /// Revokes the query: still-queued sessions finish as kCancelled without
  /// executing; running sessions observe the stop token at the executor's
  /// next serial control point and abort with kCancelled and no partial
  /// results. Idempotent; a no-op once terminal.
  void Cancel();

  /// Admission ticket — the global submission sequence number. Results and
  /// fault schedules are a pure function of (table state, query, ticket).
  uint64_t ticket() const { return ticket_; }

  /// Position in the dispatch order (0-based), valid once Done(). Tests use
  /// it to assert EDF-within-class scheduling.
  uint64_t dispatch_index() const;

  QueryClass query_class() const { return class_; }
  /// Absolute deadline (0 = none), as submitted.
  uint64_t deadline_ns() const { return deadline_ns_; }

 private:
  friend class SessionManager;

  QuerySession() = default;

  // Immutable after Submit().
  Query query_;
  QueryClass class_ = QueryClass::kOlap;
  uint64_t deadline_ns_ = 0;
  uint32_t threads_ = 1;
  uint64_t ticket_ = 0;
  Transaction txn_;        // snapshot captured at submit
  size_t delta_limit_ = 0; // delta row count at submit
  uint64_t submit_ns_ = 0; // steady clock at submit (metrics only)

  std::atomic<bool> stop_{false};

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  uint64_t dispatch_index_ = 0;
  QueryResult result_;
};

using SessionHandle = std::shared_ptr<QuerySession>;

/// High-concurrency serving front end over one TieredTable (DESIGN.md §15):
/// admission control, earliest-deadline-first dispatch within two priority
/// classes, per-query cancellation, and true inter-query parallelism on the
/// shared thread pool.
///
/// Determinism ("session-hermetic execution"): every admitted query captures
/// its MVCC snapshot, its delta bound, and its ticket atomically at submit,
/// and executes against a private cold page cache whose device-timing and
/// fault-injection streams are seeded from the ticket alone
/// (SecondaryStore::MakeStream). Writes run exclusively between queries
/// (ExecuteWrite), so the table state a query sees is determined by its
/// ticket. A query's complete result — positions, rows, aggregates, IoStats,
/// injected faults — is therefore a pure function of (submission history,
/// ticket), independent of worker count and dispatch interleaving; the
/// concurrent run is bit-identical to a serial submit-and-await replay
/// (session_test asserts this).
///
/// Observations are replayed into the workload monitor and plan cache in
/// ticket order through a reorder buffer, so the monitor's window time
/// series and the plan cache's templates are also interleaving-independent.
class SessionManager {
 public:
  SessionManager(TieredTable* table, SessionOptions options);

  /// Drains the queue, completes in-flight queries, and joins the workers.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Admits `query` into the serving queue. Fails with kResourceExhausted —
  /// before a ticket is assigned — when the admission queue is full, and
  /// with kFailedPrecondition after shutdown began.
  StatusOr<SessionHandle> Submit(const Query& query,
                                 const SubmitOptions& opts = SubmitOptions());

  /// Convenience: Submit + Await. On admission failure the result carries
  /// the rejection status.
  QueryResult Execute(const Query& query,
                      const SubmitOptions& opts = SubmitOptions());

  /// Runs `write` while no query is admitted or executing: Submit() blocks
  /// for the duration and the call waits for in-flight queries to release
  /// the read gate. Commit order therefore equals submission order. Meant
  /// for OLTP writes (Insert/Delete), whose effects are invisible to queued
  /// readers anyway (MVCC snapshot + delta bound); structural rewrites
  /// (MergeDelta, ApplyPlacement) should Drain() first — TieredTable routes
  /// them accordingly.
  Status ExecuteWrite(const std::function<Status()>& write);

  /// Blocks until the admission queue is empty and no query is in flight.
  void Drain();

  /// Steady-clock nanoseconds — the domain of SubmitOptions::deadline_ns.
  static uint64_t NowNs();

  /// Attaches a latency profiler (not owned; null detaches). It is fed one
  /// terminal outcome per ticket from the reorder-buffer flush, in ticket
  /// order — simulated latency, phase vector, and trace tree (when tracing
  /// is on) — so its SLO state and phase reports are deterministic across
  /// worker counts.
  void set_latency_profiler(LatencyProfiler* profiler);

  const SessionOptions& options() const { return options_; }

  /// Introspection (tests, leak checks).
  size_t queued() const;
  size_t in_flight() const;
  /// Tickets issued so far.
  uint64_t tickets_issued() const;

 private:
  struct EdfOrder {
    bool operator()(const SessionHandle& a, const SessionHandle& b) const;
  };

  void WorkerLoop();
  /// Executes one dequeued session end to end (gate, private cache, stream,
  /// executor) and finishes it.
  void RunSession(const SessionHandle& s, uint64_t dispatch_index);
  /// Moves `s` to its terminal state and wakes Await()ers.
  void FinishSession(const SessionHandle& s, QueryResult result,
                     uint64_t dispatch_index);
  /// Ticket-order observation replay.
  struct RecordItem {
    QueryClass cls = QueryClass::kOlap;
    StatusCode status = StatusCode::kOk;
    /// True when the ticket reached the executor (even if the execution was
    /// then cancelled or failed). Executions that were not cancelled replay
    /// into the table; cancelled ones still carry their partial accrual.
    bool executed = false;
    Query query;
    QueryObservation obs;
    bool obs_filled = false;
    /// Phase decomposition of the execution (all-zero when it never ran)
    /// and the execution's total simulated ns — the one latency every
    /// consumer reads; phases.Sum() == exec_sim_ns is the profiler's core
    /// invariant.
    PhaseVector phases;
    uint64_t exec_sim_ns = 0;
    /// Trace tree for tail critical-path walks (null unless tracing is on).
    std::shared_ptr<const TraceSpan> trace;
  };
  /// Buffers `s`'s terminal outcome — `status`, plus the execution in
  /// `item` when it ran — and flushes the reorder buffer: contiguous tickets
  /// record into the table (monitor + plan cache), emit terminal flight
  /// events, and feed the latency profiler in ticket order.
  void RecordInOrder(const QuerySession& s, StatusCode status,
                     RecordItem item);

  TieredTable* table_;
  SessionOptions options_;

  /// Guards admission state: queues, ticket counter, in-flight count.
  /// ExecuteWrite holds it for the write's duration so no ticket can be
  /// issued or dispatched while table state changes.
  mutable std::mutex submit_mutex_;
  std::condition_variable dispatch_cv_;  // workers: work available / stop
  std::condition_variable drain_cv_;     // Drain(): queue + in-flight empty
  std::set<SessionHandle, EdfOrder> queues_[kQueryClassCount];
  size_t queued_count_ = 0;
  size_t in_flight_ = 0;
  uint64_t next_ticket_ = 0;
  uint64_t next_dispatch_index_ = 0;
  bool stopping_ = false;

  /// Readers (query executions) hold it shared; ExecuteWrite exclusively.
  std::shared_mutex rw_gate_;

  std::mutex record_mutex_;
  std::map<uint64_t, RecordItem> record_buffer_;
  uint64_t next_record_ticket_ = 0;

  /// Fed from the flush under record_mutex_ (null = detached).
  LatencyProfiler* profiler_ = nullptr;

  std::vector<std::thread> workers_;
};

}  // namespace hytap

#endif  // HYTAP_SERVING_SESSION_MANAGER_H_
