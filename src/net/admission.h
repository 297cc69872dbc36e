// AdmissionController: the server's overload front door for scans.
//
// Two mechanisms compose (ROADMAP item 5, paper §3.5's "server caps what a
// query can do" made explicit):
//
//   1. Concurrent-scan slots with a FIFO wait queue. At most
//      max_concurrent_scans streaming queries execute at once; the next
//      max_queued_scans wait in arrival order, each with a queue-wait
//      deadline. Anything beyond that is shed immediately — an explicit
//      error reply, never a silent drop. Waiting costs no worker thread:
//      the waiter is a parked connection, resumed when a slot frees.
//
//   2. Per-tenant token buckets, keyed by the ConfigStore network id the
//      connection bound with kSetTenant: a queries/s bucket charged at
//      admission (an empty bucket sheds the query before it costs
//      anything) and a scanned-rows/s bucket charged as the scan proceeds
//      (a scan that outruns its tenant's row budget is shed mid-stream).
//      Rows are charged after the fact, so the bucket can go into debt;
//      the debt delays the tenant's next queries instead of this one —
//      which keeps the hot loop charge-and-check, not reserve-and-commit.
//
// All time comes from an injected Clock, so SimClock tests can exhaust and
// refill buckets or expire queue waits deterministically.
#ifndef LITTLETABLE_NET_ADMISSION_H_
#define LITTLETABLE_NET_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "util/clock.h"

namespace lt {

/// Rate limits for one tenant (a ConfigStore network). Zero rate =
/// unlimited on that axis. Burst defaults to one second's worth of rate
/// (minimum 1) when left 0.
struct TenantQuota {
  double queries_per_sec = 0;
  double query_burst = 0;
  double scanned_rows_per_sec = 0;
  double row_burst = 0;

  bool Unlimited() const {
    return queries_per_sec <= 0 && scanned_rows_per_sec <= 0;
  }
};

struct AdmissionOptions {
  /// Streaming scans allowed to execute concurrently (0 = unlimited, which
  /// disables the slot machinery entirely — quotas still apply).
  size_t max_concurrent_scans = 0;
  /// Scans allowed to wait for a slot; arrivals past this are shed with
  /// kResourceExhausted.
  size_t max_queued_scans = 64;
  /// How long a queued scan may wait before it is shed with kServerBusy
  /// (0 = wait forever).
  int queue_wait_timeout_ms = 1000;
  /// Quota applied to any bound tenant without an explicit entry. A
  /// connection that never bound a tenant (network id 0) is exempt unless
  /// tenant_quotas carries an explicit entry for 0.
  TenantQuota default_quota;
  std::map<int64_t, TenantQuota> tenant_quotas;
};

class AdmissionController {
 public:
  AdmissionController(const AdmissionOptions& options,
                      std::shared_ptr<Clock> clock);

  enum class Decision {
    kAdmitted,       // Slot granted; caller must Release() when done.
    kQueued,         // Parked in the FIFO wait queue; a later Release()
                     // grants it (reported via the granted list) or
                     // ExpireWaiters sheds it.
    kShedQueueFull,  // Queue at max_queued_scans: reply kResourceExhausted.
    kShedQuota,      // Tenant's query bucket is empty: kResourceExhausted.
  };

  /// One admission attempt for `waiter_id` (the server's connection id —
  /// unique among live waiters because a connection runs one scan at a
  /// time). Charges the tenant's query bucket on anything but
  /// kShedQueueFull.
  Decision Request(uint64_t waiter_id, int64_t tenant);

  /// Quota-only admission for a slot-exempt (small) query: charges the
  /// tenant's query bucket without taking a slot. False means shed with
  /// the quota error — the bucket is empty or paying off row debt.
  bool ChargeQuery(int64_t tenant);

  /// Charges `n` scanned rows against the tenant's row bucket. False when
  /// the bucket is now in debt — the caller should shed the scan with
  /// kResourceExhausted. Always true for unlimited tenants.
  bool ChargeScannedRows(int64_t tenant, uint64_t n);

  /// A waiter leaving the queue, with how long it waited (for the
  /// queue-wait histogram).
  struct Departure {
    uint64_t id = 0;
    int64_t waited_micros = 0;
  };

  /// Returns one slot and grants it to the queue head if any; granted
  /// waiters are appended to *granted (the caller resumes those parked
  /// connections). Call exactly once per kAdmitted request (and per
  /// granted waiter) when its scan finishes, fails, or is cancelled.
  void Release(std::vector<Departure>* granted);

  /// Removes a still-queued waiter (client cancel or connection death).
  /// True if it was found — i.e. it had NOT been granted; a false return
  /// means the waiter either was never queued or now holds a slot the
  /// caller must Release.
  bool CancelWaiter(uint64_t waiter_id);

  /// Moves waiters whose queue-wait deadline has passed out of the queue,
  /// appending them to *expired; the caller sheds each with kServerBusy.
  /// No-op when queue_wait_timeout_ms is 0.
  void ExpireWaiters(std::vector<Departure>* expired);

  size_t active_scans() const;
  size_t queued_scans() const;

 private:
  struct Bucket {
    double query_tokens = 0;
    double row_tokens = 0;
    Timestamp last_refill = 0;
    bool initialized = false;
  };
  struct Waiter {
    uint64_t id = 0;
    Timestamp enqueued_at = 0;
    Timestamp deadline = 0;  // 0 = none.
  };

  /// Resolves the quota for `tenant`; null means unlimited (skip buckets).
  const TenantQuota* QuotaFor(int64_t tenant) const;
  /// Charges the tenant's query bucket; false = shed on quota.
  bool ChargeQueryLocked(int64_t tenant, Timestamp now);
  Bucket& BucketFor(int64_t tenant, const TenantQuota& q, Timestamp now);
  static void Refill(Bucket* b, const TenantQuota& q, Timestamp now);
  static double BurstOr(double burst, double rate) {
    if (burst > 0) return burst;
    return rate > 1 ? rate : 1;
  }

  const AdmissionOptions opts_;
  const std::shared_ptr<Clock> clock_;

  mutable std::mutex mu_;
  size_t active_ = 0;
  std::deque<Waiter> queue_;
  std::map<int64_t, Bucket> buckets_;
};

}  // namespace lt

#endif  // LITTLETABLE_NET_ADMISSION_H_
