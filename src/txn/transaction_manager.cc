#include "txn/transaction_manager.h"

#include "common/assert.h"
#include "common/metrics.h"

namespace hytap {

namespace {

/// Registry handles resolved once; Add() is gated on MetricsEnabled().
struct TxnMetrics {
  Counter* begins;
  Counter* commits;
  Counter* aborts;

  static TxnMetrics& Get() {
    static TxnMetrics metrics;
    return metrics;
  }

 private:
  TxnMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    begins = registry.GetCounter("hytap_txn_begins_total");
    commits = registry.GetCounter("hytap_txn_commits_total");
    aborts = registry.GetCounter("hytap_txn_aborts_total");
  }
};

}  // namespace

Transaction TransactionManager::Begin() {
  Transaction txn;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    txn.tid = next_tid_++;
    txn.snapshot_cid = next_cid_ - 1;
  }
  TxnMetrics::Get().begins->Add();
  return txn;
}

void TransactionManager::Commit(Transaction* txn) {
  HYTAP_ASSERT(!txn->finished, "transaction already finished");
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    commit_cids_[txn->tid] = next_cid_++;
  }
  txn->finished = true;
  TxnMetrics::Get().commits->Add();
}

void TransactionManager::Abort(Transaction* txn) {
  HYTAP_ASSERT(!txn->finished, "transaction already finished");
  txn->finished = true;
  TxnMetrics::Get().aborts->Add();
}

bool TransactionManager::IsVisible(TransactionId writer_tid,
                                   const Transaction& reader) const {
  if (writer_tid == 0) return true;  // bulk-loaded / merged baseline data
  if (writer_tid == reader.tid) return true;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = commit_cids_.find(writer_tid);
  if (it == commit_cids_.end()) return false;  // in flight or aborted
  return it->second <= reader.snapshot_cid;
}

bool TransactionManager::IsDeleted(TransactionId deleter_tid,
                                   const Transaction& reader) const {
  if (deleter_tid == kMaxTransactionId) return false;
  return IsVisible(deleter_tid, reader);
}

}  // namespace hytap
