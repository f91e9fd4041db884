#include "lattice/mixed.h"

#include <cmath>
#include <optional>

#include "common/log.h"

namespace qcdoc::lattice {

MixedCgWorkspace MixedCgWorkspace::make(DiracOperator& op, Precision sloppy) {
  // Allocation order is load-bearing (snapshot resume replays it).
  MixedCgWorkspace ws{
      op.make_field("mx.tmp"), op.make_field("mx.r"),  op.make_field("mx.ap"),
      op.make_field("mx.bp"),  op.make_field("mx.e"),  op.make_field("mx.rs"),
      op.make_field("mx.ps"),  op.make_field("mx.aps"),
      op.make_field("mx.tmps"), op.make_field("mx.xck")};
  ws.e.set_precision(sloppy);
  ws.rs.set_precision(sloppy);
  ws.ps.set_precision(sloppy);
  ws.aps.set_precision(sloppy);
  ws.tmps.set_precision(sloppy);
  return ws;
}

void MixedCgCheckpoint::encode(snapshot::ByteSink* sink) const {
  sink->put_u32(static_cast<u32>(outer));
  CgCheckpoint::encode(sink);
}

snapshot::Status MixedCgCheckpoint::decode(const snapshot::SnapshotFile& file,
                                           MixedCgCheckpoint* out) {
  std::optional<snapshot::ByteSource> src;
  if (snapshot::Status s = file.open(snapshot::kSecSolver, &src); !s) return s;
  u32 outer = 0;
  if (snapshot::Status s = src->get_u32(&outer); !s) return s;
  MixedCgCheckpoint ck;
  if (snapshot::Status s = ck.decode_fields(&*src); !s) return s;
  ck.outer = static_cast<int>(outer);
  *out = ck;
  return snapshot::Status::good();
}

namespace {

CgResult mixed_cg_run(DiracOperator& op, DiracOperator& sloppy_op,
                      DistField& x, DistField& b, const MixedCgParams& params,
                      const MixedCgAuditParams* audit) {
  FieldOps& ops = op.ops();
  const SolveMeter meter(ops);

  std::optional<MixedCgWorkspace> own_ws;
  MixedCgWorkspace* ws = audit ? audit->workspace : nullptr;
  if (ws == nullptr) {
    own_ws.emplace(MixedCgWorkspace::make(op, params.sloppy));
    ws = &*own_ws;
  }
  DistField& tmp = ws->tmp;
  DistField& r = ws->r;
  DistField& ap = ws->ap;
  DistField& bp = ws->bp;

  double rsq = 0;
  // True residual in double: r = M^+ b - M^+ M x (bp caches M^+ b so a
  // resumed process never re-derives it -- it rides the snapshot).
  const auto recompute_residual = [&] {
    op.apply(tmp, x);
    op.apply_dag(ap, tmp);
    ops.copy(bp, r);
    ops.axpy(-1.0, ap, r);
    rsq = ops.norm2(r);
  };

  CgResult result;
  int outer = 0;
  AuditedLoop loop(audit, &result, &outer, [&] {
    ops.copy(ws->xck, x);
    recompute_residual();
  });
  double rhs_norm2 = 0;
  const auto fire_checkpoint = [&] {
    if (!audit || !audit->on_checkpoint) return;
    audit->on_checkpoint(MixedCgCheckpoint{
        {result, result.iterations, rsq, rhs_norm2}, outer});
  };

  if (audit && audit->resume) {
    // x, r, bp and xck already hold the checkpoint's restored contents.
    const MixedCgCheckpoint& ck = *audit->resume;
    static_cast<AuditCounters&>(result) = ck;
    outer = ck.outer;
    result.iterations = ck.iterations;
    rsq = ck.rsq;
    rhs_norm2 = ck.rhs_norm2;
  } else {
    op.apply_dag(bp, b);
    if (audit) ops.copy(x, ws->xck);
    recompute_residual();
    // A dirty baseline may have corrupted the cached M^+ b too: redo it all.
    const bool clean = loop.baseline([&] {
      ops.copy(ws->xck, x);
      op.apply_dag(bp, b);
      recompute_residual();
    });
    rhs_norm2 = rsq;
    if (clean) fire_checkpoint();
  }
  const double target =
      params.tolerance * params.tolerance * (rhs_norm2 > 0 ? rhs_norm2 : 1.0);

  const int max_trips = loop.max_trips(params.max_outer);
  for (int trip = 0; trip < max_trips && outer < params.max_outer; ++trip) {
    if (rsq < target) {
      result.converged = true;
      break;
    }
    // Sloppy inner cycle on the correction equation A e = r: copying the
    // double residual into rs rounds it to the sloppy representable set,
    // and every inner load/store moves narrow bytes.
    ops.zero(ws->e);
    ops.copy(r, ws->rs);
    ops.copy(ws->rs, ws->ps);
    double in_rsq = ops.norm2(ws->rs);
    const double in_target = params.delta * params.delta * in_rsq;
    for (int it = 0; it < params.max_inner && in_rsq > in_target; ++it) {
      sloppy_op.apply(ws->tmps, ws->ps);
      sloppy_op.apply_dag(ws->aps, ws->tmps);
      const double p_ap = ops.dot_re(ws->ps, ws->aps);
      if (p_ap == 0.0) break;
      const double alpha = in_rsq / p_ap;
      ops.axpy(alpha, ws->ps, ws->e);
      ops.axpy(-alpha, ws->aps, ws->rs);
      const double in_rsq_new = ops.norm2(ws->rs);
      ++result.iterations;
      if (in_rsq_new <= in_target || in_rsq_new == 0.0) {
        in_rsq = in_rsq_new;
        break;
      }
      const double beta = in_rsq_new / in_rsq;
      in_rsq = in_rsq_new;
      ops.xpay(ws->rs, beta, ws->ps);
    }

    // Reliable update: fold the correction in and replace the residual in
    // double precision, so sloppy rounding never outlives one cycle.
    ops.axpy(1.0, ws->e, x);
    recompute_residual();
    ++result.reliable_updates;
    ++outer;

    const bool looks_converged = rsq < target;
    const AuditVerdict verdict =
        loop.end_step(looks_converged || outer == params.max_outer);
    if (verdict == AuditVerdict::kGaveUp) break;
    if (verdict == AuditVerdict::kRolledBack) continue;
    if (verdict == AuditVerdict::kClean) {
      ops.copy(x, ws->xck);
      // Loop-top state (x, r, rsq) is complete and the mesh quiescent:
      // let the snapshot layer persist a generation.
      fire_checkpoint();
    }
    if (looks_converged) {
      result.converged = true;
      break;
    }
  }
  result.relative_residual =
      rhs_norm2 > 0 ? std::sqrt(rsq / rhs_norm2) : std::sqrt(rsq);

  meter.finish(&result);
  QCDOC_INFO << "mixed-cg[" << op.name() << "/"
             << precision_name(params.sloppy) << "]: " << result.iterations
             << " sloppy iterations, " << result.reliable_updates
             << " reliable updates, |r|/|b| = " << result.relative_residual;
  return result;
}

}  // namespace

CgResult mixed_cg_solve(DiracOperator& op, DiracOperator& sloppy_op,
                        DistField& x, DistField& b,
                        const MixedCgParams& params) {
  return mixed_cg_run(op, sloppy_op, x, b, params, nullptr);
}

CgResult mixed_cg_solve_audited(DiracOperator& op, DiracOperator& sloppy_op,
                                DistField& x, DistField& b,
                                const MixedCgParams& params,
                                const MixedCgAuditParams& audit) {
  if (!audit.clean && !audit.mem_clean && !audit.on_checkpoint &&
      audit.workspace == nullptr && audit.resume == nullptr) {
    return mixed_cg_run(op, sloppy_op, x, b, params, nullptr);
  }
  return mixed_cg_run(op, sloppy_op, x, b, params, &audit);
}

CgResult mixed_bicgstab_solve(DiracOperator& op, DiracOperator& sloppy_op,
                              DistField& x, DistField& b,
                              const MixedCgParams& params) {
  FieldOps& ops = op.ops();
  const SolveMeter meter(ops);

  DistField r = op.make_field("mxb.r");
  DistField tmp = op.make_field("mxb.tmp");
  DistField e = op.make_field("mxb.e");
  DistField rs = op.make_field("mxb.rs");
  e.set_precision(params.sloppy);
  rs.set_precision(params.sloppy);
  auto inner_ws = BicgWorkspace::make(op);
  inner_ws.set_precision(params.sloppy);

  // r = b - M x in double.
  const auto recompute_residual = [&] {
    op.apply(tmp, x);
    ops.copy(b, r);
    ops.axpy(-1.0, tmp, r);
  };
  recompute_residual();
  const double rhs_norm2 = ops.norm2(r);
  const double target =
      params.tolerance * params.tolerance * (rhs_norm2 > 0 ? rhs_norm2 : 1.0);

  CgResult result;
  double rsq = rhs_norm2;
  CgParams inner_params;
  inner_params.tolerance = params.delta;
  inner_params.max_iterations = params.max_inner;
  for (int cycle = 0; cycle < params.max_outer && rsq >= target; ++cycle) {
    // Sloppy BiCGstab on M e = r, one delta-reduction cycle.
    ops.copy(r, rs);
    e.zero();
    const CgResult inner = bicgstab_solve(sloppy_op, e, rs, inner_params,
                                          inner_ws);
    result.iterations += inner.iterations;
    ops.axpy(1.0, e, x);
    recompute_residual();
    rsq = ops.norm2(r);
    ++result.reliable_updates;
    if (inner.iterations == 0) break;  // inner breakdown; don't spin
  }
  result.converged = rsq < target;
  result.relative_residual =
      rhs_norm2 > 0 ? std::sqrt(rsq / rhs_norm2) : std::sqrt(rsq);

  meter.finish(&result);
  QCDOC_INFO << "mixed-bicgstab[" << op.name() << "/"
             << precision_name(params.sloppy) << "]: " << result.iterations
             << " sloppy iterations, " << result.reliable_updates
             << " reliable updates, |r|/|b| = " << result.relative_residual;
  return result;
}

}  // namespace qcdoc::lattice
