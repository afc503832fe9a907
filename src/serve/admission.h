#ifndef SDADCS_SERVE_ADMISSION_H_
#define SDADCS_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/run_control.h"

namespace sdadcs::serve {

/// Bounds concurrent mining runs and sheds load explicitly.
///
/// At most `max_concurrent` requests hold a slot at once. Up to
/// `max_queue` more wait in FIFO order; anything beyond that is turned
/// away immediately with kRejectedBusy — the controller never blocks a
/// caller that cannot eventually be served, so a spike can raise latency
/// but not deadlock the server. A queued request that hits its own
/// deadline or is cancelled leaves the queue with kExpiredInQueue /
/// kCancelledInQueue.
///
/// Thread-safe. Admission is strictly FIFO among waiters (ticket
/// numbers), so a heavy request cannot be starved by a stream of light
/// ones.
class AdmissionController {
 public:
  AdmissionController(int max_concurrent, int max_queue);

  enum class Outcome {
    kAdmitted = 0,
    kRejectedBusy,      ///< queue already holds max_queue waiters
    kExpiredInQueue,    ///< the request's deadline passed while queued
    kCancelledInQueue,  ///< the request was cancelled while queued
  };
  static const char* OutcomeToString(Outcome outcome);

  /// Tries to take a run slot, queueing (bounded, FIFO) if none is free.
  /// On kAdmitted the caller MUST call Release() when the run finishes
  /// (use SlotGuard). `queue_wait_seconds`, when non-null, receives the
  /// time spent queued.
  Outcome Admit(const util::RunControl& control,
                double* queue_wait_seconds = nullptr);

  void Release();

  /// RAII slot: releases on destruction if the outcome was kAdmitted.
  class SlotGuard {
   public:
    SlotGuard(AdmissionController& controller, Outcome outcome)
        : controller_(controller), admitted_(outcome == Outcome::kAdmitted) {}
    ~SlotGuard() {
      if (admitted_) controller_.Release();
    }
    SlotGuard(const SlotGuard&) = delete;
    SlotGuard& operator=(const SlotGuard&) = delete;

   private:
    AdmissionController& controller_;
    bool admitted_;
  };

  struct Stats {
    int max_concurrent = 0;
    int max_queue = 0;
    int running = 0;          ///< slots currently held
    int queued = 0;           ///< waiters currently queued
    uint64_t admitted = 0;
    uint64_t admitted_after_wait = 0;  ///< of those, how many had queued
    uint64_t rejected_busy = 0;
    uint64_t expired_in_queue = 0;     ///< deadline + cancellation exits
    double total_queue_wait_seconds = 0.0;
  };
  Stats stats() const;

  /// Blocks until no run holds a slot and no waiter is queued, or until
  /// `timeout_ms` passes (0 = wait forever). Returns true when idle.
  /// This is the graceful-drain hook: a front end that has stopped
  /// feeding new requests calls WaitIdle to let in-flight runs finish.
  bool WaitIdle(int64_t timeout_ms = 0) const;

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable slot_free_;
  int max_concurrent_;
  int max_queue_;
  int running_ = 0;
  uint64_t next_ticket_ = 0;
  std::deque<uint64_t> queue_;  // tickets of waiters, FIFO
  Stats counters_;
};

/// Per-tenant in-flight quota, layered in front of the shared
/// AdmissionController by the socket front end: one tenant may hold at
/// most `max_inflight` mining requests (queued or running) at a time, so
/// a single chatty producer cannot monopolize the global queue. Tenants
/// are free-form strings; the empty tenant is a bucket like any other.
///
/// Thread-safe. TryAcquire never blocks — quota pressure is shed
/// immediately (kQuotaExceeded on the wire), unlike global admission
/// which queues FIFO first.
class TenantQuota {
 public:
  /// `max_inflight` per tenant; <= 0 disables the quota (every acquire
  /// succeeds).
  explicit TenantQuota(int max_inflight);

  /// Takes one in-flight unit for `tenant`; false when the tenant is at
  /// its cap. On true the caller MUST Release(tenant) when the request
  /// leaves the server (any verdict).
  bool TryAcquire(const std::string& tenant);
  void Release(const std::string& tenant);

  struct Stats {
    int max_inflight = 0;       ///< per-tenant cap (0 = unlimited)
    int tenants_inflight = 0;   ///< tenants holding at least one unit
    uint64_t acquired = 0;
    uint64_t rejected = 0;      ///< TryAcquire refusals
  };
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  int max_inflight_;
  std::unordered_map<std::string, int> inflight_;
  Stats counters_;
};

}  // namespace sdadcs::serve

#endif  // SDADCS_SERVE_ADMISSION_H_
