// Fault-tolerance mechanics shared by every audited Krylov solver.
//
// The paper compares per-link checksums at the end of a calculation.
// Auditing every few steps instead lets a multi-day run roll back to its
// last known-clean checkpoint when an undetected corruption slips past the
// link parity, or when a node latches an uncorrectable memory word.  A
// solver keeps its recurrence, its checkpoint save and its rollback action;
// AuditedLoop owns the rest: the baseline audit of the setup work, the
// interval audit, rollback with progress rewind, and give-up.
#pragma once

#include <functional>

#include "common/types.h"

namespace qcdoc::lattice {

/// When to audit and which detectors to ask.
struct AuditPolicy {
  /// Returns true when all link traffic since the *previous* call matched
  /// checksums (e.g. fault::ChecksumAuditor::clean_since_last).  Called at
  /// step boundaries, where the BSP runtime leaves the mesh quiescent.
  std::function<bool()> clean;
  /// Returns true when no node latched an ECC machine check since the
  /// previous call (e.g. fault::MemCheckAuditor::clean_since_last).  An
  /// uncorrectable memory word is treated exactly like corrupted link
  /// traffic: roll back to the checkpoint -- whose copy rewrites the
  /// poisoned words with known-good data -- and recompute.  Either or both
  /// of `clean` / `mem_clean` may be set.
  std::function<bool()> mem_clean;
  int interval = 10;     ///< productive steps between audits
  int max_restarts = 8;  ///< give up after this many rollbacks
};

/// What the audits of one solve found.
struct AuditCounters {
  int restarts = 0;         ///< rollbacks to the last clean checkpoint
  u64 audits = 0;           ///< audits performed
  u64 audit_failures = 0;   ///< audits that found corrupted link traffic
  u64 mem_checks = 0;       ///< audits that found uncorrectable memory
};

/// The outcome of AuditedLoop::end_step.
enum class AuditVerdict {
  kNotDue,      ///< no audit this step (or the loop is unaudited)
  kClean,       ///< the interval passed: the solver saves its checkpoint
  kRolledBack,  ///< dirty, restored to the checkpoint and re-audited clean
  kGaveUp,      ///< dirty with no restarts left: the solve has failed
};

/// The one audit/rollback loop.  With a null policy every call is a no-op
/// that reports clean or not due, so the unaudited solvers run the same
/// code with no audit operations in their sequence.
class AuditedLoop {
 public:
  /// `progress` is the solver's count of productive steps; a rollback
  /// rewinds it by the steps wasted since the last clean audit.
  /// `rollback` restores the last clean checkpoint's loop-top state.
  AuditedLoop(const AuditPolicy* policy, AuditCounters* counters,
              int* progress, std::function<void()> rollback);

  /// Loop-trip budget for `steps` productive steps: rolled-back steps are
  /// not productive, so every restart may add up to one wasted interval.
  /// Zero after a baseline give-up, so the solver's loop never starts.
  int max_trips(int steps) const;

  /// Audits the setup work (the initial residual crosses the mesh, and a
  /// corruption there would poison the reference scale).  While dirty and
  /// restarts remain, `redo` repeats the setup and it is audited again.
  /// Returns false on give-up: the solver must not checkpoint or iterate.
  bool baseline(const std::function<void()>& redo);

  /// Counts one productive step and audits when `force` is set or a full
  /// interval has passed.  On a dirty interval, rolls back and re-audits
  /// until an interval comes back clean or the restarts run out.
  AuditVerdict end_step(bool force);

  bool gave_up() const { return gave_up_; }

 private:
  /// One audit of the interval since the previous call.  Both detectors
  /// are always polled, links first, never short-circuited, so each
  /// detector's baseline advances and a dirty interval is fully consumed.
  bool interval_clean();

  const AuditPolicy* policy_;
  AuditCounters* counters_;
  int* progress_;
  std::function<void()> rollback_;
  int since_audit_ = 0;
  bool gave_up_ = false;
};

}  // namespace qcdoc::lattice
