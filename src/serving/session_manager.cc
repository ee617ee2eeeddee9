#include "serving/session_manager.h"

#include <chrono>
#include <utility>

#include "common/assert.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/tiered_table.h"
#include "serving/latency_profiler.h"
#include "tiering/buffer_manager.h"

namespace hytap {

namespace {

/// Registry handles resolved once; updates are gated on MetricsEnabled().
struct SessionMetrics {
  Counter* submitted;
  Counter* admitted;
  Counter* rejected;
  Counter* shed_deadline;
  Counter* cancelled;
  Counter* completed;
  Gauge* inflight;
  Gauge* queued;
  HistogramMetric* oltp_latency_ns;
  HistogramMetric* olap_latency_ns;
  HistogramMetric* oltp_queue_wait_ns;
  HistogramMetric* olap_queue_wait_ns;

  static SessionMetrics& Get() {
    static SessionMetrics metrics;
    return metrics;
  }

  HistogramMetric* LatencyFor(QueryClass cls) {
    return cls == QueryClass::kOltp ? oltp_latency_ns : olap_latency_ns;
  }
  HistogramMetric* QueueWaitFor(QueryClass cls) {
    return cls == QueryClass::kOltp ? oltp_queue_wait_ns : olap_queue_wait_ns;
  }

 private:
  SessionMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    submitted = registry.GetCounter("hytap_session_submitted_total");
    admitted = registry.GetCounter("hytap_session_admitted_total");
    rejected = registry.GetCounter("hytap_session_rejected_total");
    shed_deadline = registry.GetCounter("hytap_session_shed_deadline_total");
    cancelled = registry.GetCounter("hytap_session_cancelled_total");
    completed = registry.GetCounter("hytap_session_completed_total");
    inflight = registry.GetGauge("hytap_session_inflight");
    queued = registry.GetGauge("hytap_session_queued");
    oltp_latency_ns = registry.GetHistogram("hytap_session_oltp_latency_ns",
                                            DurationNsBuckets());
    olap_latency_ns = registry.GetHistogram("hytap_session_olap_latency_ns",
                                            DurationNsBuckets());
    oltp_queue_wait_ns = registry.GetHistogram(
        "hytap_session_oltp_queue_wait_ns", DurationNsBuckets());
    olap_queue_wait_ns = registry.GetHistogram(
        "hytap_session_olap_queue_wait_ns", DurationNsBuckets());
  }
};

/// Deadline-less queries sort after every deadline.
uint64_t EffectiveDeadline(const QuerySession& s) {
  return s.deadline_ns() == 0 ? UINT64_MAX : s.deadline_ns();
}

}  // namespace

QueryResult QuerySession::Await() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return done_; });
  return result_;
}

bool QuerySession::Done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

void QuerySession::Cancel() {
  stop_.store(true, std::memory_order_relaxed);
}

uint64_t QuerySession::dispatch_index() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dispatch_index_;
}

bool SessionManager::EdfOrder::operator()(const SessionHandle& a,
                                          const SessionHandle& b) const {
  const uint64_t da = EffectiveDeadline(*a);
  const uint64_t db = EffectiveDeadline(*b);
  if (da != db) return da < db;
  return a->ticket() < b->ticket();  // FIFO among equal deadlines
}

SessionManager::SessionManager(TieredTable* table, SessionOptions options)
    : table_(table), options_(options) {
  HYTAP_ASSERT(table != nullptr, "serving requires a table");
  HYTAP_ASSERT(options_.max_sessions >= 1, "max_sessions must be >= 1");
  HYTAP_ASSERT(options_.queue_capacity >= 1, "queue_capacity must be >= 1");
  if (options_.default_threads == 0) options_.default_threads = 1;
  workers_.reserve(options_.max_sessions);
  for (size_t i = 0; i < options_.max_sessions; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SessionManager::~SessionManager() {
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    stopping_ = true;
  }
  dispatch_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

uint64_t SessionManager::NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

StatusOr<SessionHandle> SessionManager::Submit(const Query& query,
                                               const SubmitOptions& opts) {
  SessionMetrics& metrics = SessionMetrics::Get();
  metrics.submitted->Add();
  SessionHandle s(new QuerySession());
  s->query_ = query;
  s->class_ = opts.query_class;
  s->deadline_ns_ = opts.deadline_ns;
  s->threads_ = opts.threads != 0 ? opts.threads : options_.default_threads;
  s->submit_ns_ = NowNs();
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    if (stopping_) {
      metrics.rejected->Add();
      FlightRecorder::Global().Record(
          FlightEventType::kSessionReject,
          uint16_t(StatusCode::kFailedPrecondition), 0, 0, 0,
          uint64_t(opts.query_class));
      return Status::FailedPrecondition("session manager is shutting down");
    }
    // Admission control: reject before a ticket is assigned, so the ticket
    // sequence (and with it every downstream seed) only counts admitted
    // queries.
    if (queued_count_ >= options_.queue_capacity) {
      metrics.rejected->Add();
      FlightRecorder::Global().Record(
          FlightEventType::kSessionReject,
          uint16_t(StatusCode::kResourceExhausted), 0, 0, 0,
          uint64_t(opts.query_class));
      return Status::ResourceExhausted("session admission queue is full");
    }
    // Ticket, snapshot, and delta bound are captured atomically under the
    // submit mutex — the core of session-hermetic execution. ExecuteWrite
    // holds the same mutex, so a query's snapshot can never straddle a
    // write.
    s->ticket_ = next_ticket_++;
    s->txn_ = table_->Begin();
    s->delta_limit_ = table_->table().delta_row_count();
    queues_[size_t(s->class_)].insert(s);
    ++queued_count_;
    metrics.queued->Set(int64_t(queued_count_));
    // Admit events carry only submit-time-deterministic fields (ticket,
    // class, deadline) — never queue depth or clocks — so flight dumps stay
    // bit-identical across worker counts.
    FlightRecorder::Global().Record(FlightEventType::kSessionAdmit, 0,
                                    s->ticket_, 0, 0, uint64_t(s->class_),
                                    s->deadline_ns_);
  }
  metrics.admitted->Add();
  dispatch_cv_.notify_one();
  return s;
}

QueryResult SessionManager::Execute(const Query& query,
                                    const SubmitOptions& opts) {
  StatusOr<SessionHandle> s = Submit(query, opts);
  if (!s.ok()) {
    QueryResult result;
    result.status = s.status();
    return result;
  }
  return (*s)->Await();
}

Status SessionManager::ExecuteWrite(const std::function<Status()>& write) {
  // Lock order: submit mutex (stops admission + dispatch), then the write
  // gate exclusively (waits for in-flight queries, which never take the
  // submit mutex while holding the gate).
  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  std::unique_lock<std::shared_mutex> gate(rw_gate_);
  return write();
}

void SessionManager::Drain() {
  std::unique_lock<std::mutex> lock(submit_mutex_);
  drain_cv_.wait(lock,
                 [this] { return queued_count_ == 0 && in_flight_ == 0; });
}

size_t SessionManager::queued() const {
  std::lock_guard<std::mutex> lock(submit_mutex_);
  return queued_count_;
}

size_t SessionManager::in_flight() const {
  std::lock_guard<std::mutex> lock(submit_mutex_);
  return in_flight_;
}

uint64_t SessionManager::tickets_issued() const {
  std::lock_guard<std::mutex> lock(submit_mutex_);
  return next_ticket_;
}

void SessionManager::WorkerLoop() {
  SessionMetrics& metrics = SessionMetrics::Get();
  for (;;) {
    SessionHandle s;
    uint64_t dispatch_index = 0;
    {
      std::unique_lock<std::mutex> lock(submit_mutex_);
      dispatch_cv_.wait(
          lock, [this] { return stopping_ || queued_count_ > 0; });
      if (queued_count_ == 0) return;  // stopping and fully drained
      // Class priority first (OLTP before OLAP), earliest deadline within
      // the class, ticket order among equal deadlines.
      for (auto& queue : queues_) {
        if (queue.empty()) continue;
        s = *queue.begin();
        queue.erase(queue.begin());
        break;
      }
      --queued_count_;
      ++in_flight_;
      dispatch_index = next_dispatch_index_++;
      metrics.queued->Set(int64_t(queued_count_));
      metrics.inflight->Set(int64_t(in_flight_));
    }
    metrics.QueueWaitFor(s->class_)->Observe(NowNs() - s->submit_ns_);
    if (s->stop_.load(std::memory_order_relaxed)) {
      // Cancelled while queued: never executes, no partial results. The
      // ticket still advances the recorder (recording nothing) so later
      // tickets are not blocked behind it.
      QueryResult result;
      result.status = Status::Cancelled("session cancelled while queued");
      metrics.cancelled->Add();
      RecordInOrder(*s, StatusCode::kCancelled, {});
      FinishSession(s, std::move(result), dispatch_index);
    } else if (s->deadline_ns_ != 0 && NowNs() > s->deadline_ns_) {
      // Late: shed instead of dispatched (EDF makes this the query that
      // would miss anyway — earlier deadlines dispatched first).
      QueryResult result;
      result.status =
          Status::DeadlineExceeded("admission deadline passed before dispatch");
      metrics.shed_deadline->Add();
      RecordInOrder(*s, StatusCode::kDeadlineExceeded, {});
      FinishSession(s, std::move(result), dispatch_index);
    } else {
      // Dispatch events, like admit events, carry only ticket + class: the
      // dispatch *index* varies with worker interleaving and would break
      // dump bit-identity.
      FlightRecorder::Global().Record(FlightEventType::kSessionDispatch, 0,
                                      s->ticket_, 0, 0, uint64_t(s->class_));
      RunSession(s, dispatch_index);
    }
    {
      std::lock_guard<std::mutex> lock(submit_mutex_);
      --in_flight_;
      metrics.inflight->Set(int64_t(in_flight_));
      if (queued_count_ == 0 && in_flight_ == 0) drain_cv_.notify_all();
    }
  }
}

void SessionManager::set_latency_profiler(LatencyProfiler* profiler) {
  std::lock_guard<std::mutex> lock(record_mutex_);
  profiler_ = profiler;
}

void SessionManager::RunSession(const SessionHandle& s,
                                uint64_t dispatch_index) {
  SessionMetrics& metrics = SessionMetrics::Get();
  // Shared gate: writes wait for us, we never start while a write runs.
  std::shared_lock<std::shared_mutex> gate(rw_gate_);
  // Session-private cold page cache with ticket-seeded timing and fault
  // streams: the query's hit/miss sequence, device jitter, and injected
  // faults depend only on its ticket, never on what other sessions did to
  // the shared cache in the meantime.
  BufferManager private_cache(&table_->store(), options_.session_frames);
  SecondaryStore::ReadStream stream = table_->store().MakeStream(s->ticket_);
  private_cache.set_stream(&stream);

  // The flush's view of this execution.
  RecordItem item;
  ExecOptions eopts;
  eopts.threads = s->threads_;
  eopts.stop = &s->stop_;
  eopts.buffers = &private_cache;
  eopts.delta_limit = s->delta_limit_;
  eopts.observation = &item.obs;
  eopts.observation_filled = &item.obs_filled;
  eopts.phases = &item.phases;

  QueryResult result;
  {
    // OLTP morsels preempt OLAP morsels at helper-yield points.
    ThreadPool::PriorityGuard priority(s->class_ == QueryClass::kOltp
                                           ? ThreadPool::TaskPriority::kHigh
                                           : ThreadPool::TaskPriority::kNormal);
    result = table_->executor().Execute(s->txn_, s->query_, eopts);
  }
  gate.unlock();

  const bool was_cancelled = result.status.code() == StatusCode::kCancelled;
  if (was_cancelled) {
    metrics.cancelled->Add();
  } else {
    metrics.completed->Add();
    metrics.LatencyFor(s->class_)->Observe(NowNs() - s->submit_ns_);
  }
  item.executed = true;
  item.query = s->query_;
  item.exec_sim_ns = result.io.TotalNs();
  item.trace = result.trace;
  RecordInOrder(*s, result.status.code(), std::move(item));
  FinishSession(s, std::move(result), dispatch_index);
}

void SessionManager::FinishSession(const SessionHandle& s, QueryResult result,
                                   uint64_t dispatch_index) {
  {
    std::lock_guard<std::mutex> lock(s->mutex_);
    s->result_ = std::move(result);
    s->dispatch_index_ = dispatch_index;
    s->done_ = true;
  }
  s->cv_.notify_all();
}

void SessionManager::RecordInOrder(const QuerySession& s, StatusCode status,
                                   RecordItem item) {
  item.cls = s.class_;
  item.status = status;
  std::lock_guard<std::mutex> lock(record_mutex_);
  record_buffer_.emplace(s.ticket_, std::move(item));
  // Flush the contiguous prefix: observations reach the monitor, the plan
  // cache, the flight recorder, and the latency profiler in ticket order,
  // so their window series and aggregates are deterministic.
  const bool stamp = FlightRecorderEnabled() || profiler_ != nullptr;
  auto it = record_buffer_.find(next_record_ticket_);
  while (it != record_buffer_.end()) {
    const RecordItem& flushed = it->second;
    // Executed sessions (even failed ones, matching the synchronous path)
    // replay their observation; cancelled executions record nothing — a
    // serial replay without the cancel would observe different work, so
    // the monitor only ever sees completed executions.
    if (flushed.executed && flushed.status != StatusCode::kCancelled) {
      table_->RecordExecution(flushed.query, flushed.obs, flushed.obs_filled);
    }
    if (stamp) {
      // Terminal events are stamped *here*, after the ticket-order record:
      // the monitor's window index and simulated clock are deterministic at
      // this point regardless of worker interleaving.
      const uint64_t window = table_->monitor().windows_started();
      const uint64_t sim_ns = table_->monitor().now_ns();
      FlightEventType type = FlightEventType::kSessionComplete;
      if (flushed.status == StatusCode::kCancelled) {
        type = FlightEventType::kSessionCancel;
      } else if (!flushed.executed) {
        type = FlightEventType::kSessionShed;
      }
      // Event operand b: completes carry the end-to-end simulated latency,
      // cancels the simulated ns accrued before the abort, sheds their
      // simulated queue wait — identically 0, queueing is instantaneous on
      // the simulated clock (never a latency).
      FlightRecorder::Global().Record(type, uint16_t(flushed.status),
                                      it->first, window, sim_ns,
                                      uint64_t(flushed.cls),
                                      flushed.exec_sim_ns);
      if (profiler_ != nullptr) {
        profiler_->Observe(it->first, flushed.cls, flushed.status,
                           flushed.executed, flushed.exec_sim_ns,
                           flushed.phases, flushed.trace.get(), window,
                           sim_ns);
      }
    }
    record_buffer_.erase(it);
    it = record_buffer_.find(++next_record_ticket_);
  }
}

}  // namespace hytap
