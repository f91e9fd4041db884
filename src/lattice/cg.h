// Conjugate-gradient solver on the normal equations.
//
// "Standard Krylov space solvers work well to produce the solution and
// dominate the calculational time for QCD simulations" -- the paper's
// headline numbers (40% / 38% / 46.5% of peak) are CG efficiencies.  The
// solver runs the paper's loop: two Dirac applications per iteration
// (M and M^dagger), three vector updates, and two machine-wide inner
// products through the SCU global-sum hardware.
#pragma once

#include <functional>

#include "lattice/audit.h"
#include "lattice/dirac.h"
#include "snapshot/format.h"

namespace qcdoc::lattice {

struct CgParams {
  double tolerance = 1e-8;  ///< on |r| / |rhs|
  int max_iterations = 500;
  /// Run exactly this many iterations regardless of convergence (benchmarks
  /// measure steady-state rates, not solution quality).
  int fixed_iterations = 0;
};

/// Solver scalars at a clean audit checkpoint.  Together with the field
/// contents -- x and the workspace fields live in simulated node memory and
/// ride a machine snapshot -- this is everything needed to resume the exact
/// Krylov trajectory in a fresh process.
struct CgCheckpoint : AuditCounters {
  int iterations = 0;
  double rsq = 0;        ///< |r|^2 at the checkpoint (bit pattern matters)
  double rhs_norm2 = 0;  ///< reference scale |M^+ b|^2

  /// The snapshot's kSecSolver payload, little-endian: u32 iterations,
  /// f64 rsq, f64 rhs_norm2, u32 restarts, u64 audits, u64 audit_failures,
  /// u64 mem_checks.
  void encode(snapshot::ByteSink* sink) const;
  /// Reads `file`'s kSecSolver section.  A missing or truncated section, or
  /// trailing bytes, is a failure that leaves `out` untouched.
  static snapshot::Status decode(const snapshot::SnapshotFile& file,
                                 CgCheckpoint* out);

 protected:
  /// Reads the fields above from the rest of a section payload.
  snapshot::Status decode_fields(snapshot::ByteSource* src);
};

/// The audited solver's working fields, in the solver's canonical
/// allocation order.  Normally allocated internally; a resuming process
/// must create the allocations *before* overwriting node memory from a
/// snapshot, so it builds a workspace first, restores into it, and passes
/// it to the solver.
struct CgWorkspace {
  DistField tmp, r, p, ap, xck;
  static CgWorkspace make(DiracOperator& op);
};

/// Audit policy plus the crash-consistency hooks of the fault-tolerant CG.
struct CgAuditParams : AuditPolicy {
  /// Fired whenever the solver lands on a clean checkpoint: after the
  /// baseline audit, and at the end of every loop trip whose audit passed.
  /// The mesh is quiescent and the fields hold exactly loop-top state, so
  /// this is where the snapshot layer writes a generation.
  std::function<void(const CgCheckpoint&)> on_checkpoint;
  /// Pre-allocated working fields (see CgWorkspace); null = allocate
  /// internally.  Required when `resume` is set.
  CgWorkspace* workspace = nullptr;
  /// Resume from these scalars instead of computing the initial residual.
  /// x and the workspace fields must already hold the checkpoint's restored
  /// contents; the solver continues the trajectory bit-identically.
  const CgCheckpoint* resume = nullptr;
};

/// Outcome of a Krylov solve.  The audit counters stay zero unless the
/// solve was audited.
struct CgResult : AuditCounters, SolveCost {
  bool converged = false;
  int iterations = 0;
  double relative_residual = 0;

  // Mixed-precision accounting (reliable-update solvers only).
  int reliable_updates = 0;  ///< double-precision residual replacements

  /// Sustained fraction of machine peak.
  double efficiency(double peak_flops_per_cycle_machine) const {
    return cycles > 0
               ? flops / (peak_flops_per_cycle_machine * static_cast<double>(cycles))
               : 0.0;
  }
};

/// Solve M^dagger M x = M^dagger b by CG; x must be zero-initialized (or a
/// starting guess).  Advances the machine clock; all arithmetic is real.
CgResult cg_solve(DiracOperator& op, DistField& x, DistField& b,
                  const CgParams& params);

/// Fault-tolerant CG: every `audit.interval` iterations (and before
/// declaring convergence) the solver audits the link checksums and memory
/// machine checks.  A clean audit checkpoints x; a dirty one rolls x back
/// to the checkpoint and recomputes the true residual, so corrupted halo
/// traffic costs at most one audit interval.  Convergence is only ever
/// declared on clean data.
CgResult cg_solve_audited(DiracOperator& op, DistField& x, DistField& b,
                          const CgParams& params,
                          const CgAuditParams& audit);

}  // namespace qcdoc::lattice
