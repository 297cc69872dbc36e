#include "net/admission.h"

#include <algorithm>

namespace lt {

AdmissionController::AdmissionController(const AdmissionOptions& options,
                                         std::shared_ptr<Clock> clock)
    : opts_(options), clock_(std::move(clock)) {}

const TenantQuota* AdmissionController::QuotaFor(int64_t tenant) const {
  auto it = opts_.tenant_quotas.find(tenant);
  if (it != opts_.tenant_quotas.end()) {
    return it->second.Unlimited() ? nullptr : &it->second;
  }
  // An unbound connection (tenant 0) is exempt from the default quota:
  // lumping every anonymous client into one shared bucket would make them
  // shed each other. Operators who want that bind an explicit entry for 0.
  if (tenant == 0) return nullptr;
  return opts_.default_quota.Unlimited() ? nullptr : &opts_.default_quota;
}

void AdmissionController::Refill(Bucket* b, const TenantQuota& q,
                                 Timestamp now) {
  const double dt_sec =
      b->last_refill > 0 && now > b->last_refill
          ? static_cast<double>(now - b->last_refill) / 1e6
          : 0;
  b->last_refill = now;
  if (q.queries_per_sec > 0) {
    b->query_tokens = std::min(BurstOr(q.query_burst, q.queries_per_sec),
                               b->query_tokens + dt_sec * q.queries_per_sec);
  }
  if (q.scanned_rows_per_sec > 0) {
    b->row_tokens =
        std::min(BurstOr(q.row_burst, q.scanned_rows_per_sec),
                 b->row_tokens + dt_sec * q.scanned_rows_per_sec);
  }
}

AdmissionController::Bucket& AdmissionController::BucketFor(
    int64_t tenant, const TenantQuota& q, Timestamp now) {
  Bucket& b = buckets_[tenant];
  if (!b.initialized) {
    // A fresh tenant starts with a full burst allowance.
    b.query_tokens = BurstOr(q.query_burst, q.queries_per_sec);
    b.row_tokens = BurstOr(q.row_burst, q.scanned_rows_per_sec);
    b.last_refill = now;
    b.initialized = true;
  } else {
    Refill(&b, q, now);
  }
  return b;
}

bool AdmissionController::ChargeQuery(int64_t tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  const Timestamp now = clock_->Now();
  const TenantQuota* q = QuotaFor(tenant);
  if (q == nullptr) return true;
  Bucket& b = BucketFor(tenant, *q, now);
  if (q->queries_per_sec > 0) {
    if (b.query_tokens < 1) return false;
    b.query_tokens -= 1;
  }
  // A scan admitted while the row bucket is still paying off an earlier
  // scan's debt would shed on its first chunk anyway; shed it now, before
  // it costs a slot.
  return q->scanned_rows_per_sec <= 0 || b.row_tokens >= 0;
}

bool AdmissionController::ChargeScannedRows(int64_t tenant, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  const TenantQuota* q = QuotaFor(tenant);
  if (q == nullptr || q->scanned_rows_per_sec <= 0) return true;
  Bucket& b = BucketFor(tenant, *q, clock_->Now());
  b.row_tokens -= static_cast<double>(n);
  return b.row_tokens >= 0;
}

}  // namespace lt
