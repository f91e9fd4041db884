#include "lattice/cg.h"

#include <cmath>
#include <optional>

#include "common/log.h"

namespace qcdoc::lattice {

namespace {

// Shared CG engine.  `audit` == nullptr runs the plain solver; otherwise
// every audit->interval iterations (and before declaring convergence) the
// detectors are audited, with rollback to the last clean checkpoint on a
// mismatch.
CgResult cg_run(DiracOperator& op, DistField& x, DistField& b,
                const CgParams& params, const CgAuditParams* audit) {
  FieldOps& ops = op.ops();
  const SolveMeter meter(ops);

  // Working fields: an externally supplied workspace (the resume path, which
  // must allocate before restoring memory contents) or internal allocations
  // in the exact same order.  The plain solver keeps its original layout
  // (no checkpoint field).
  std::optional<CgWorkspace> own_ws;
  CgWorkspace* ws = audit ? audit->workspace : nullptr;
  if (audit && ws == nullptr) {
    own_ws.emplace(CgWorkspace::make(op));
    ws = &*own_ws;
  }
  std::optional<DistField> plain_tmp, plain_r, plain_p, plain_ap;
  if (ws == nullptr) {
    plain_tmp.emplace(op.make_field("cg.tmp"));
    plain_r.emplace(op.make_field("cg.r"));
    plain_p.emplace(op.make_field("cg.p"));
    plain_ap.emplace(op.make_field("cg.ap"));
  }
  DistField& tmp = ws ? ws->tmp : *plain_tmp;
  DistField& r = ws ? ws->r : *plain_r;
  DistField& p = ws ? ws->p : *plain_p;
  DistField& ap = ws ? ws->ap : *plain_ap;
  DistField* xck = ws ? &ws->xck : nullptr;  // last known-clean checkpoint

  double rsq = 0;
  // r = M^+ b - M^+ M x (normal equations); with x = 0 this is r = M^+ b.
  const auto recompute_residual = [&] {
    op.apply_dag(r, b);
    op.apply(tmp, x);
    op.apply_dag(ap, tmp);
    ops.axpy(-1.0, ap, r);
    ops.copy(r, p);
    rsq = ops.norm2(r);
  };
  // The rollback: recompute the true residual from the clean x; p == r
  // afterwards, so the Krylov space restarts.
  const auto rollback = [&] {
    ops.copy(*xck, x);
    recompute_residual();
  };

  CgResult result;
  AuditedLoop loop(audit, &result, &result.iterations, rollback);
  double rhs_norm2 = 0;  // reference scale: |M^+ b| for x0 = 0
  const auto fire_checkpoint = [&] {
    if (!audit || !audit->on_checkpoint) return;
    audit->on_checkpoint(CgCheckpoint{result, result.iterations, rsq,
                                      rhs_norm2});
  };
  if (audit && audit->resume) {
    // x and the workspace fields already hold the checkpoint's restored
    // contents (loop-top state); recomputing anything would diverge from
    // the uninterrupted run's event trace.
    const CgCheckpoint& ck = *audit->resume;
    static_cast<AuditCounters&>(result) = ck;
    result.iterations = ck.iterations;
    rsq = ck.rsq;
    rhs_norm2 = ck.rhs_norm2;
  } else {
    if (audit) ops.copy(x, *xck);
    recompute_residual();
    const bool clean = loop.baseline(rollback);
    rhs_norm2 = rsq;
    if (clean) fire_checkpoint();
  }
  const double target =
      params.tolerance * params.tolerance * (rhs_norm2 > 0 ? rhs_norm2 : 1.0);

  const int iters = params.fixed_iterations > 0 ? params.fixed_iterations
                                                : params.max_iterations;
  const int max_trips = loop.max_trips(iters);
  for (int trip = 0; trip < max_trips && result.iterations < iters; ++trip) {
    // ap = M^+ M p   (two Dirac applications per iteration)
    op.apply(tmp, p);
    op.apply_dag(ap, tmp);

    const double p_ap = ops.dot_re(p, ap);
    if (p_ap == 0.0) break;
    const double alpha = rsq / p_ap;
    ops.axpy(alpha, p, x);
    ops.axpy(-alpha, ap, r);
    const double rsq_new = ops.norm2(r);
    ++result.iterations;

    const bool looks_converged =
        params.fixed_iterations == 0 && rsq_new < target;
    const AuditVerdict verdict =
        loop.end_step(looks_converged || result.iterations == iters);
    if (verdict == AuditVerdict::kGaveUp) {
      rsq = rsq_new;
      break;
    }
    if (verdict == AuditVerdict::kRolledBack) continue;
    if (verdict == AuditVerdict::kClean) ops.copy(x, *xck);

    if (looks_converged) {
      // Without auditing this is immediate; with auditing we only reach
      // here after the interval just passed a clean audit.
      result.converged = true;
      rsq = rsq_new;
      break;
    }
    const double beta = rsq_new / rsq;
    rsq = rsq_new;
    ops.xpay(r, beta, p);
    // Loop-top state is complete (p updated): a clean checkpoint taken this
    // trip is now resumable, so let the snapshot layer persist it.
    if (verdict == AuditVerdict::kClean) fire_checkpoint();
  }
  result.relative_residual =
      rhs_norm2 > 0 ? std::sqrt(rsq / rhs_norm2) : std::sqrt(rsq);
  if (params.fixed_iterations > 0 && !loop.gave_up()) {
    result.converged = result.relative_residual <= params.tolerance;
  }

  meter.finish(&result);
  QCDOC_INFO << "cg[" << op.name() << "]: " << result.iterations
             << " iterations, |r|/|b| = " << result.relative_residual
             << (audit ? (", " + std::to_string(result.restarts) + " restarts")
                       : std::string());
  return result;
}

}  // namespace

void CgCheckpoint::encode(snapshot::ByteSink* sink) const {
  sink->put_u32(static_cast<u32>(iterations));
  sink->put_double(rsq);
  sink->put_double(rhs_norm2);
  sink->put_u32(static_cast<u32>(restarts));
  sink->put_u64(audits);
  sink->put_u64(audit_failures);
  sink->put_u64(mem_checks);
}

snapshot::Status CgCheckpoint::decode_fields(snapshot::ByteSource* src) {
  // The section ends with these fields: trailing bytes are a failure too.
  u32 iters = 0, rest = 0;
  if (snapshot::Status s = src->get_u32(&iters); !s) return s;
  if (snapshot::Status s = src->get_double(&rsq); !s) return s;
  if (snapshot::Status s = src->get_double(&rhs_norm2); !s) return s;
  if (snapshot::Status s = src->get_u32(&rest); !s) return s;
  if (snapshot::Status s = src->get_u64(&audits); !s) return s;
  if (snapshot::Status s = src->get_u64(&audit_failures); !s) return s;
  if (snapshot::Status s = src->get_u64(&mem_checks); !s) return s;
  iterations = static_cast<int>(iters);
  restarts = static_cast<int>(rest);
  return src->expect_exhausted();
}

snapshot::Status CgCheckpoint::decode(const snapshot::SnapshotFile& file,
                                      CgCheckpoint* out) {
  std::optional<snapshot::ByteSource> src;
  if (snapshot::Status s = file.open(snapshot::kSecSolver, &src); !s) return s;
  CgCheckpoint ck;
  if (snapshot::Status s = ck.decode_fields(&*src); !s) return s;
  *out = ck;
  return snapshot::Status::good();
}

CgWorkspace CgWorkspace::make(DiracOperator& op) {
  // Allocation order is load-bearing: it must match what cg_run would
  // allocate internally, so a resuming process reproduces the snapshotted
  // memory layout exactly.
  return CgWorkspace{op.make_field("cg.tmp"), op.make_field("cg.r"),
                     op.make_field("cg.p"), op.make_field("cg.ap"),
                     op.make_field("cg.xck")};
}

CgResult cg_solve(DiracOperator& op, DistField& x, DistField& b,
                  const CgParams& params) {
  return cg_run(op, x, b, params, nullptr);
}

CgResult cg_solve_audited(DiracOperator& op, DistField& x, DistField& b,
                          const CgParams& params,
                          const CgAuditParams& audit) {
  if (!audit.clean && !audit.mem_clean && !audit.on_checkpoint &&
      audit.workspace == nullptr && audit.resume == nullptr) {
    return cg_run(op, x, b, params, nullptr);
  }
  return cg_run(op, x, b, params, &audit);
}

}  // namespace qcdoc::lattice
