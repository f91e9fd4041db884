// E1: CG efficiency of the Dirac solvers on a 4^4 local volume.
//
// Paper Section 4: "Our current performance figures come from solving the
// Dirac equation, using a conjugate gradient solver, on a 128 node QCDOC
// ... On a 4^4 local volume, we sustain 40%, 38% and 46.5% of peak speed"
// for naive Wilson, ASQTAD staggered, and clover-improved Wilson, in full
// double precision; "performance for single precision is slightly higher
// due to the decreased bandwidth"; domain-wall fermions are "expect[ed]
// [to] surpass the performance of the clover improved Wilson operator".
#include <memory>

#include "bench_util.h"
#include "lattice/cg.h"
#include "lattice/clover.h"
#include "lattice/dwf.h"
#include "lattice/rig.h"
#include "lattice/staggered.h"
#include "lattice/twisted_mass.h"
#include "lattice/wilson.h"

namespace {

using namespace qcdoc;
using namespace qcdoc::lattice;

struct RunResult {
  double efficiency = 0;
  double sustained_mflops = 0;
  TrafficByPrecision traffic{};
  sim::EngineReport engine;
};

template <typename MakeOp>
RunResult run_cg(Coord4 global, MakeOp make_op) {
  SolverRig rig({2, 2, 2, 2, 1, 1}, global);
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(7);
  gauge.randomize_near_unit(rng, 0.15);
  auto op = make_op(rig, gauge);
  DistField x = op->make_field("x");
  DistField b = op->make_field("b");
  x.zero();
  rig.fill_source(b);
  CgParams params;
  params.fixed_iterations = 10;
  const CgResult r = cg_solve(*op, x, b, params);
  return RunResult{perf::cg_efficiency(*rig.m, r),
                   perf::cg_sustained_mflops(*rig.m, r), r.traffic,
                   rig.m->engine().report()};
}

}  // namespace

int main() {
  bench::print_header(
      "E1: bench_dirac_efficiency -- CG efficiency, 4^4 local volume",
      "Wilson 40%, ASQTAD 38%, clover 46.5% of peak (double precision); "
      "single precision slightly higher; domain wall expected > clover");

  const Coord4 g44{8, 8, 8, 8};  // 4^4 local on a 2^4-node partition

  const auto wilson = run_cg(g44, [](SolverRig& rig, GaugeField& g) {
    return std::make_unique<WilsonDirac>(rig.ops.get(), rig.geom.get(), &g,
                                         WilsonParams{});
  });
  const auto wilson_sp = run_cg(g44, [](SolverRig& rig, GaugeField& g) {
    WilsonParams p;
    p.single_precision = true;
    return std::make_unique<WilsonDirac>(rig.ops.get(), rig.geom.get(), &g, p);
  });
  const auto clover = run_cg(g44, [](SolverRig& rig, GaugeField& g) {
    return std::make_unique<CloverDirac>(rig.ops.get(), rig.geom.get(), &g,
                                         CloverParams{});
  });
  const auto asqtad = run_cg(g44, [](SolverRig& rig, GaugeField& g) {
    return std::make_unique<AsqtadDirac>(rig.ops.get(), rig.geom.get(), &g,
                                         AsqtadParams{});
  });
  const auto dwf = run_cg(g44, [](SolverRig& rig, GaugeField& g) {
    return std::make_unique<DwfDirac>(rig.ops.get(), rig.geom.get(), &g,
                                      DwfParams{.ls = 8});
  });
  const auto wilson_hp = run_cg(g44, [](SolverRig& rig, GaugeField& g) {
    return std::make_unique<WilsonDirac>(
        rig.ops.get(), rig.geom.get(), &g,
        WilsonParams{.precision = Precision::kHalf});
  });
  const auto twisted = run_cg(g44, [](SolverRig& rig, GaugeField& g) {
    return std::make_unique<TwistedMassDirac>(rig.ops.get(), rig.geom.get(),
                                              &g,
                                              TwistedMassParams{.mu = 0.05});
  });

  std::vector<qcdoc::perf::Row> rows = {
      {"E1", "wilson dp", 40.0, 100 * wilson.efficiency, "% of peak"},
      {"E1", "asqtad dp", 38.0, 100 * asqtad.efficiency, "% of peak"},
      {"E1", "clover dp", 46.5, 100 * clover.efficiency, "% of peak"},
      {"E1", "wilson sp", 40.0, 100 * wilson_sp.efficiency,
       "% (paper: slightly > dp)"},
      {"E1", "wilson hp", 40.0, 100 * wilson_hp.efficiency,
       "% (block-float 16-bit storage)"},
      {"E1", "twisted dp", 40.0, 100 * twisted.efficiency,
       "% (twist term rides the Wilson kernel)"},
      {"E1", "dwf dp", 46.5, 100 * dwf.efficiency,
       "% (paper: expected > clover)"},
  };
  bench::print_rows(rows);
  std::printf("\nwilson hp per-precision traffic (10 iterations):\n%s",
              perf::format_traffic_report(wilson_hp.traffic).c_str());
  std::printf(
      "\nsustained per node (16-node machine, 500 MHz):\n"
      "  wilson %.0f Mflops, clover %.0f, asqtad %.0f, dwf %.0f of 1000 peak\n",
      wilson.sustained_mflops / 16, clover.sustained_mflops / 16,
      asqtad.sustained_mflops / 16, dwf.sustained_mflops / 16);
  std::printf("\nwilson dp %s\n",
              perf::format_engine_report(wilson.engine).c_str());
  return 0;
}
