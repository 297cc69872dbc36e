// AdmissionController: the per-tenant half of the server's overload front
// door (paper §3.5's "server caps what a query can do" made explicit).
//
// Per-tenant token buckets, keyed by the ConfigStore network id the
// connection bound with kSetTenant: a queries/s bucket charged at
// admission (an empty bucket sheds the query before it costs anything)
// and a scanned-rows/s bucket charged as the scan proceeds (a scan that
// outruns its tenant's row budget is shed mid-stream). Rows are charged
// after the fact, so the bucket can go into debt; the debt delays the
// tenant's next queries instead of this one — which keeps the hot loop
// charge-and-check, not reserve-and-commit.
//
// The concurrent-scan slots and their FIFO wait queue (the slot fields of
// AdmissionOptions) are not here: the server owns them under its
// scheduling lock, beside the parked streams they describe (DESIGN.md
// §10).
//
// All time comes from an injected Clock, so SimClock tests can exhaust and
// refill buckets deterministically.
#ifndef LITTLETABLE_NET_ADMISSION_H_
#define LITTLETABLE_NET_ADMISSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

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

  /// Charges the tenant's query bucket for one query. Every query pays,
  /// before the server decides whether it takes a slot, waits for one or
  /// is shed because the wait queue is full — so a queue-full shed has
  /// already spent a token. False means shed with the quota error: the
  /// bucket is empty or paying off row debt.
  bool ChargeQuery(int64_t tenant);

  /// Charges `n` scanned rows against the tenant's row bucket. False when
  /// the bucket is now in debt — the caller should shed the scan with
  /// kResourceExhausted. Always true for unlimited tenants.
  bool ChargeScannedRows(int64_t tenant, uint64_t n);

 private:
  struct Bucket {
    double query_tokens = 0;
    double row_tokens = 0;
    Timestamp last_refill = 0;
    bool initialized = false;
  };
  /// Resolves the quota for `tenant`; null means unlimited (skip buckets).
  const TenantQuota* QuotaFor(int64_t tenant) const;
  Bucket& BucketFor(int64_t tenant, const TenantQuota& q, Timestamp now);
  static void Refill(Bucket* b, const TenantQuota& q, Timestamp now);
  static double BurstOr(double burst, double rate) {
    if (burst > 0) return burst;
    return rate > 1 ? rate : 1;
  }

  const AdmissionOptions opts_;
  const std::shared_ptr<Clock> clock_;

  std::mutex mu_;
  std::map<int64_t, Bucket> buckets_;
};

}  // namespace lt

#endif  // LITTLETABLE_NET_ADMISSION_H_
