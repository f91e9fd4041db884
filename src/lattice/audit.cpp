#include "lattice/audit.h"

#include <utility>

namespace qcdoc::lattice {

AuditedLoop::AuditedLoop(const AuditPolicy* policy, AuditCounters* counters,
                         int* progress, std::function<void()> rollback)
    : policy_(policy),
      counters_(counters),
      progress_(progress),
      rollback_(std::move(rollback)) {}

int AuditedLoop::max_trips(int steps) const {
  if (gave_up_) return 0;
  if (policy_ == nullptr) return steps;
  return steps * (policy_->max_restarts + 1) + policy_->max_restarts;
}

bool AuditedLoop::interval_clean() {
  ++counters_->audits;
  bool ok = true;
  if (policy_->clean && !policy_->clean()) {
    ++counters_->audit_failures;
    ok = false;
  }
  if (policy_->mem_clean && !policy_->mem_clean()) {
    ++counters_->mem_checks;
    ok = false;
  }
  return ok;
}

bool AuditedLoop::baseline(const std::function<void()>& redo) {
  if (policy_ == nullptr) return true;
  while (!interval_clean()) {
    if (counters_->restarts >= policy_->max_restarts) {
      gave_up_ = true;
      return false;
    }
    ++counters_->restarts;
    redo();
  }
  return true;
}

AuditVerdict AuditedLoop::end_step(bool force) {
  if (policy_ == nullptr) return AuditVerdict::kNotDue;
  ++since_audit_;
  if (!force && since_audit_ < policy_->interval) return AuditVerdict::kNotDue;
  if (interval_clean()) {
    since_audit_ = 0;
    return AuditVerdict::kClean;
  }
  // Corruption somewhere in this interval -- bad link traffic or an
  // uncorrectable memory word: every iterate since the checkpoint is
  // suspect.  The rollback rewrites any poisoned words with known-good
  // data, and what it recomputes is itself audited.
  while (counters_->restarts < policy_->max_restarts) {
    ++counters_->restarts;
    *progress_ -= since_audit_;  // the interval was wasted
    since_audit_ = 0;
    rollback_();
    if (interval_clean()) return AuditVerdict::kRolledBack;
  }
  gave_up_ = true;
  return AuditVerdict::kGaveUp;
}

}  // namespace qcdoc::lattice
