#include "lattice/eo_cg.h"

#include <cmath>

#include "common/log.h"
#include "comms/global_sum.h"

namespace qcdoc::lattice {
namespace {

/// Parity-restricted streaming linear algebra.  Functional loops touch only
/// sites of `parity`; machine time is accounted as half-volume streams.
class ParityOps {
 public:
  ParityOps(FieldOps* ops, const GlobalGeometry* geom, int parity)
      : ops_(ops), geom_(geom), parity_(parity) {}

  void copy(const DistField& a, DistField& b) const {
    for_sites(a, [&](int r, int s) {
      const double* pa = a.site(r, s);
      double* pb = b.site(r, s);
      for (int k = 0; k < a.site_doubles(); ++k) pb[k] = pa[k];
    });
    account(a, 1, true, 0, 0);
  }

  void axpy(double alpha, const DistField& a, DistField& b) const {
    for_sites(a, [&](int r, int s) {
      const double* pa = a.site(r, s);
      double* pb = b.site(r, s);
      for (int k = 0; k < a.site_doubles(); ++k) pb[k] += alpha * pa[k];
    });
    account(a, 2, true, 2, 0);
  }

  void xpay(const DistField& a, double alpha, DistField& b) const {
    for_sites(a, [&](int r, int s) {
      const double* pa = a.site(r, s);
      double* pb = b.site(r, s);
      for (int k = 0; k < a.site_doubles(); ++k) {
        pb[k] = pa[k] + alpha * pb[k];
      }
    });
    account(a, 2, true, 2, 0);
  }

  /// b = alpha * a + beta * b.
  void lincomb(double alpha, const DistField& a, double beta,
               DistField& b) const {
    for_sites(a, [&](int r, int s) {
      const double* pa = a.site(r, s);
      double* pb = b.site(r, s);
      for (int k = 0; k < a.site_doubles(); ++k) {
        pb[k] = alpha * pa[k] + beta * pb[k];
      }
    });
    account(a, 2, true, 3, 0);
  }

  /// gamma_5 on this parity's sites (spin components 2,3 negate).
  void gamma5(DistField& f) const {
    for_sites(f, [&](int r, int s) {
      double* p = f.site(r, s);
      for (int k = 12; k < 24; ++k) p[k] = -p[k];
    });
  }

  /// b = m2 * a - b  (the Schur-complement assembly).
  void m2_minus(double m2, const DistField& a, DistField& b) const {
    for_sites(a, [&](int r, int s) {
      const double* pa = a.site(r, s);
      double* pb = b.site(r, s);
      for (int k = 0; k < a.site_doubles(); ++k) {
        pb[k] = m2 * pa[k] - pb[k];
      }
    });
    account(a, 2, true, 2, 0);
  }

  double norm2(const DistField& a) const {
    std::vector<double> partials(static_cast<std::size_t>(a.ranks()), 0.0);
    for_sites(a, [&](int r, int s) {
      const double* p = a.site(r, s);
      double acc = 0;
      for (int k = 0; k < a.site_doubles(); ++k) acc += p[k] * p[k];
      partials[static_cast<std::size_t>(r)] += acc;
    });
    account(a, 1, false, 2, 0);
    return global_sum(partials);
  }

  double dot_re(const DistField& a, const DistField& b) const {
    std::vector<double> partials(static_cast<std::size_t>(a.ranks()), 0.0);
    for_sites(a, [&](int r, int s) {
      const double* pa = a.site(r, s);
      const double* pb = b.site(r, s);
      double acc = 0;
      for (int k = 0; k < a.site_doubles(); ++k) acc += pa[k] * pb[k];
      partials[static_cast<std::size_t>(r)] += acc;
    });
    account(a, 2, false, 2, 0);
    return global_sum(partials);
  }

 private:
  template <typename Fn>
  void for_sites(const DistField& f, Fn&& fn) const {
    for (int r = 0; r < f.ranks(); ++r) {
      for (int s = 0; s < geom_->local().volume(); ++s) {
        if (geom_->parity(r, s) == parity_) fn(r, s);
      }
    }
  }

  void account(const DistField& ref, int reads, bool writes,
               double fmadd_per_double, double other_per_double) const {
    const double n = 0.5 * geom_->local().volume() * ref.site_doubles();
    cpu::KernelProfile p;
    p.name = "eo.blas";
    p.fmadd_flops = fmadd_per_double * n;
    p.other_flops = other_per_double * n;
    p.load_bytes = 8.0 * n * reads;
    p.store_bytes = writes ? 8.0 * n : 0.0;
    const double traffic = p.load_bytes + p.store_bytes;
    if (ref.body_region() == memsys::Region::kEdram) {
      p.edram_bytes = traffic;
    } else {
      p.ddr_bytes = traffic;
    }
    p.streams = reads + (writes ? 1 : 0);
    p.overhead_cycles = 32;
    ops_->account_kernel(p, 1, Precision::kDouble);
    ops_->bsp().compute(ops_->cpu().kernel_cycles(p));
  }

  double global_sum(std::vector<double>& partials) const {
    const auto result = ops_->comm().global_sum(partials);
    ops_->bsp().global_op(result.cycles);
    return result.value;
  }

  FieldOps* ops_;
  const GlobalGeometry* geom_;
  int parity_;
};

}  // namespace

CgResult asqtad_eo_solve(AsqtadDirac& op, DistField& x, DistField& b,
                         const CgParams& params) {
  FieldOps& ops = op.ops();
  const auto& geom = op.geometry();
  const double m = op.params().mass;
  const double m2 = m * m;

  const SolveMeter meter(ops);

  ParityOps even(&ops, &geom, 0);
  ParityOps odd(&ops, &geom, 1);

  DistField tmp = op.make_field("eo.tmp");
  DistField r = op.make_field("eo.r");
  DistField p = op.make_field("eo.p");
  DistField ap = op.make_field("eo.ap");

  // rhs_e = m b_e - (D b)_e, materialized into r (x = 0 start).
  tmp.zero();
  r.zero();
  op.dslash_parity(r, b, /*parity=*/0);  // r_e = (D b)_e
  even.m2_minus(m, b, r);                // r_e = m b_e - (D b)_e

  // p starts as r on even sites, zero on odd (dslash_parity(.., p, odd)
  // must see a pure-even field).
  p.zero();
  even.copy(r, p);

  double rsq = even.norm2(r);
  const double rhs_norm2 = rsq > 0 ? rsq : 1.0;
  const double target = params.tolerance * params.tolerance * rhs_norm2;

  CgResult result;
  const int iters = params.fixed_iterations > 0 ? params.fixed_iterations
                                                : params.max_iterations;
  for (int it = 0; it < iters; ++it) {
    // ap_e = A p = m^2 p_e - (D_eo D_oe p)_e : two half-volume Dslashes.
    op.dslash_parity(tmp, p, /*parity=*/1);  // tmp_o = (D p)_o
    op.dslash_parity(ap, tmp, /*parity=*/0); // ap_e = (D tmp)_e
    even.m2_minus(m2, p, ap);                // ap_e = m^2 p_e - ap_e

    const double p_ap = even.dot_re(p, ap);
    if (p_ap == 0.0) break;
    const double alpha = rsq / p_ap;
    even.axpy(alpha, p, x);
    even.axpy(-alpha, ap, r);
    const double rsq_new = even.norm2(r);
    result.iterations = it + 1;
    if (params.fixed_iterations == 0 && rsq_new < target) {
      result.converged = true;
      rsq = rsq_new;
      break;
    }
    const double beta = rsq_new / rsq;
    rsq = rsq_new;
    even.xpay(r, beta, p);
  }

  // Reconstruct the odd half: x_o = (b_o - (D x)_o) / m.
  op.dslash_parity(tmp, x, /*parity=*/1);  // tmp_o = (D x)_o
  for (int rk = 0; rk < x.ranks(); ++rk) {
    for (int s = 0; s < geom.local().volume(); ++s) {
      if (geom.parity(rk, s) != 1) continue;
      const double* pb = b.site(rk, s);
      const double* pt = tmp.site(rk, s);
      double* px = x.site(rk, s);
      for (int k = 0; k < x.site_doubles(); ++k) {
        px[k] = (pb[k] - pt[k]) / m;
      }
    }
  }
  odd.axpy(0.0, b, x);  // account the reconstruction pass's stream cost

  // Full-system residual: |b - M x| / |b|.
  DistField mx = op.make_field("eo.mx");
  op.apply(mx, x);
  ops.axpy(-1.0, b, mx);
  const double full_r = ops.norm2(mx);
  const double full_b = ops.norm2(b);
  result.relative_residual = full_b > 0 ? std::sqrt(full_r / full_b) : 0.0;
  if (params.fixed_iterations > 0) {
    result.converged = result.relative_residual <= params.tolerance;
  }

  meter.finish(&result);
  QCDOC_INFO << "eo-cg[asqtad]: " << result.iterations
             << " iterations, |r|/|b| = " << result.relative_residual;
  return result;
}

CgResult wilson_eo_solve(WilsonDirac& op, DistField& x, DistField& b,
                         const CgParams& params) {
  FieldOps& ops = op.ops();
  const auto& geom = op.geometry();
  const double kappa = op.params().kappa;
  const double k2 = kappa * kappa;

  const SolveMeter meter(ops);

  ParityOps even(&ops, &geom, 0);

  DistField tmp = op.make_field("weo.tmp");
  DistField t2 = op.make_field("weo.t2");
  DistField r = op.make_field("weo.r");
  DistField p = op.make_field("weo.p");
  DistField ap = op.make_field("weo.ap");

  // Mhat v (v pure-even): out_e = v_e - kappa^2 (D (D v)_odd)_e.
  const auto apply_mhat = [&](DistField& out, DistField& v) {
    op.dslash_parity(tmp, v, /*parity=*/1);   // tmp_o = (D v)_o
    op.dslash_parity(out, tmp, /*parity=*/0); // out_e = (D tmp)_e
    even.lincomb(1.0, v, -k2, out);           // out_e = v_e - k^2 out_e
  };
  // Mhat^+ = g5 Mhat g5 on the even sublattice.
  const auto apply_mhat_dag = [&](DistField& out, DistField& v) {
    even.gamma5(v);
    apply_mhat(out, v);
    even.gamma5(v);
    even.gamma5(out);
  };

  // rhs_e = b_e + kappa (D b)_e, built into t2 (pure even).
  tmp.zero();
  t2.zero();
  op.dslash_parity(t2, b, /*parity=*/0);  // t2_e = (D b)_e
  even.lincomb(1.0, b, kappa, t2);        // t2_e = b_e + kappa t2_e

  // Normal equations on the even sublattice: r = Mhat^+ rhs (x = 0).
  r.zero();
  apply_mhat_dag(r, t2);
  p.zero();
  even.copy(r, p);

  double rsq = even.norm2(r);
  const double rhs_norm2 = rsq > 0 ? rsq : 1.0;
  const double target = params.tolerance * params.tolerance * rhs_norm2;

  CgResult result;
  const int iters = params.fixed_iterations > 0 ? params.fixed_iterations
                                                : params.max_iterations;
  DistField mp = op.make_field("weo.mp");
  for (int it = 0; it < iters; ++it) {
    apply_mhat(mp, p);
    apply_mhat_dag(ap, mp);
    const double p_ap = even.dot_re(p, ap);
    if (p_ap == 0.0) break;
    const double alpha = rsq / p_ap;
    even.axpy(alpha, p, x);
    even.axpy(-alpha, ap, r);
    const double rsq_new = even.norm2(r);
    result.iterations = it + 1;
    if (params.fixed_iterations == 0 && rsq_new < target) {
      result.converged = true;
      rsq = rsq_new;
      break;
    }
    const double beta = rsq_new / rsq;
    rsq = rsq_new;
    even.xpay(r, beta, p);
  }

  // Odd reconstruction: x_o = b_o + kappa (D x)_o.
  op.dslash_parity(tmp, x, /*parity=*/1);
  for (int rk = 0; rk < x.ranks(); ++rk) {
    for (int s = 0; s < geom.local().volume(); ++s) {
      if (geom.parity(rk, s) != 1) continue;
      const double* pb = b.site(rk, s);
      const double* pt = tmp.site(rk, s);
      double* px = x.site(rk, s);
      for (int k = 0; k < x.site_doubles(); ++k) {
        px[k] = pb[k] + kappa * pt[k];
      }
    }
  }
  ParityOps odd(&ops, &geom, 1);
  odd.axpy(0.0, b, x);  // account the reconstruction stream pass

  // Full-system residual.
  DistField mx = op.make_field("weo.mx");
  op.apply(mx, x);
  ops.axpy(-1.0, b, mx);
  const double full_r = ops.norm2(mx);
  const double full_b = ops.norm2(b);
  result.relative_residual = full_b > 0 ? std::sqrt(full_r / full_b) : 0.0;
  if (params.fixed_iterations > 0) {
    result.converged = result.relative_residual <= params.tolerance;
  }

  meter.finish(&result);
  QCDOC_INFO << "eo-cg[wilson]: " << result.iterations
             << " iterations, |r|/|b| = " << result.relative_residual;
  return result;
}

}  // namespace qcdoc::lattice
