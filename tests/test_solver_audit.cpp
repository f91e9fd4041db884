// The fault-audit contract every audited Krylov solver keeps, checked once
// for CG, reliable-update mixed CG and multi-shift CG.  Scripted detectors
// stand in for the link-checksum and ECC machine-check auditors: each
// `clean()` / `mem_clean()` call returns the next scripted answer (clean
// past the end of the script).  Poll #1 is the baseline audit of the initial
// residual; poll #n (n >= 2) ends the (n-1)-th audit interval.
//
// The cases:
//   - every interval clean: the result is bit-identical to the unaudited
//     solve;
//   - one dirty link interval, or one dirty memory interval: one rollback,
//     then convergence, on the same bits either way;
//   - dirty past max_restarts: give-up, reported as not converged;
//   - a dirty baseline: recovered by a restart when one is allowed, and a
//     give-up before the first checkpoint when none is.
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lattice/cg.h"
#include "lattice/mixed.h"
#include "lattice/multishift.h"
#include "lattice/wilson.h"
#include "lattice_fixture.h"
#include "sim/engine.h"

namespace qcdoc::lattice {
namespace {

using testing::LatticeRig;
using testing::fill_by_global_site;
using testing::fill_gauge_by_global_site;
using testing::gather_global;

/// Scripted detector answers plus the policy knobs under test.
struct Script {
  std::vector<bool> links;  ///< clean() answer per call
  std::vector<bool> mem;    ///< mem_clean() answer per call
  int max_restarts = 8;
};

/// `clean()` answers `links`, `mem_clean()` is always clean.
Script dirty_links(std::vector<bool> links, int max_restarts = 8) {
  Script s;
  s.links = std::move(links);
  s.max_restarts = max_restarts;
  return s;
}

/// `mem_clean()` answers `mem`, `clean()` is always clean.
Script dirty_mem(std::vector<bool> mem) {
  Script s;
  s.mem = std::move(mem);
  return s;
}

/// Everything the contract asserts about one solve.
struct Outcome {
  bool converged = false;
  int restarts = 0;
  u64 audits = 0;
  u64 audit_failures = 0;
  u64 mem_checks = 0;
  int link_polls = 0;   ///< clean() calls
  int mem_polls = 0;    ///< mem_clean() calls
  int checkpoints = 0;  ///< on_checkpoint calls (CG and mixed CG)
  std::vector<double> x;  ///< every solution field, gathered in global order

  u64 x_fnv() const {
    u64 h = sim::detail::kFnvOffset;
    for (const double v : x) h = sim::detail::fnv1a(h, std::bit_cast<u64>(v));
    return h;
  }
};

/// One 2x2-node Wilson fixture, fresh per solve.
struct Fixture {
  LatticeRig rig{{2, 2, 1, 1, 1, 1}, {4, 4, 4, 4}};
  GaugeField gauge{rig.comm.get(), rig.geom.get()};
  std::optional<WilsonDirac> op, sloppy;
  std::optional<DistField> b;

  Fixture() {
    fill_gauge_by_global_site(*rig.geom, gauge, 0xa0d17);
    op.emplace(rig.ops.get(), rig.geom.get(), &gauge,
               WilsonParams{.kappa = 0.124});
    sloppy.emplace(rig.ops.get(), rig.geom.get(), &gauge,
                   WilsonParams{.kappa = 0.124, .precision = Precision::kSingle});
    b.emplace(op->make_field("b"));
    fill_by_global_site(*rig.geom, *b);
  }

  void gather(const DistField& f, Outcome* out) const {
    const auto g = gather_global(*rig.geom, f);
    out->x.insert(out->x.end(), g.begin(), g.end());
  }
};

/// Wires the script into a solver's audit parameters; `out` counts polls.
template <class AuditParams>
void install(const Script& s, int interval, Outcome* out, AuditParams* a) {
  a->interval = interval;
  a->max_restarts = s.max_restarts;
  a->clean = [&s, out] {
    const auto k = static_cast<std::size_t>(out->link_polls++);
    return k >= s.links.size() || s.links[k];
  };
  a->mem_clean = [&s, out] {
    const auto k = static_cast<std::size_t>(out->mem_polls++);
    return k >= s.mem.size() || s.mem[k];
  };
}

template <class Result>
void record(const Result& r, Outcome* out) {
  out->converged = r.converged;
  out->restarts = r.restarts;
  out->audits = r.audits;
  out->audit_failures = r.audit_failures;
  out->mem_checks = r.mem_checks;
}

// Per-solver traits.  kInterval is the audit grain (iterations, or outer
// cycles for mixed CG); kCheckpoints says whether the solver has an
// on_checkpoint hook; kExactRestore says whether a rollback lands back on
// the clean trajectory.  The FNV pins are the solution bits after one
// dirty interval and after a give-up, so any change to what a rollback
// recomputes shows up as a digest change.
struct Cg {
  static constexpr int kInterval = 5;
  static constexpr bool kCheckpoints = true;
  static constexpr bool kExactRestore = false;
  static constexpr u64 kRollbackFnv = 0x8f736b361599d80eull;
  static constexpr u64 kGiveUpFnv = 0x7933f3bbdf3cd62full;

  static Outcome solve(const Script* script) {
    Fixture f;
    DistField x = f.op->make_field("x");
    x.zero();
    CgParams params;
    params.tolerance = 1e-8;
    params.max_iterations = 400;
    Outcome out;
    if (script == nullptr) {
      record(cg_solve(*f.op, x, *f.b, params), &out);
    } else {
      CgAuditParams audit;
      install(*script, kInterval, &out, &audit);
      audit.on_checkpoint = [&out](const CgCheckpoint&) { ++out.checkpoints; };
      record(cg_solve_audited(*f.op, x, *f.b, params, audit), &out);
    }
    f.gather(x, &out);
    return out;
  }
};

struct MixedCg {
  static constexpr int kInterval = 1;
  static constexpr bool kCheckpoints = true;
  static constexpr bool kExactRestore = true;
  static constexpr u64 kRollbackFnv = 0x4b1855942904d6eeull;
  static constexpr u64 kGiveUpFnv = 0xc1a0542c4c5b2deeull;

  static Outcome solve(const Script* script) {
    Fixture f;
    DistField x = f.op->make_field("x");
    x.zero();
    MixedCgParams params;
    params.tolerance = 1e-8;
    params.sloppy = Precision::kSingle;
    Outcome out;
    if (script == nullptr) {
      record(mixed_cg_solve(*f.op, *f.sloppy, x, *f.b, params), &out);
    } else {
      MixedCgAuditParams audit;
      install(*script, kInterval, &out, &audit);
      audit.on_checkpoint = [&out](const MixedCgCheckpoint&) {
        ++out.checkpoints;
      };
      record(mixed_cg_solve_audited(*f.op, *f.sloppy, x, *f.b, params, audit),
             &out);
    }
    f.gather(x, &out);
    return out;
  }
};

struct MultishiftCg {
  static constexpr int kInterval = 5;
  static constexpr bool kCheckpoints = false;
  static constexpr bool kExactRestore = true;
  static constexpr u64 kRollbackFnv = 0xf21590af16ecaca6ull;
  static constexpr u64 kGiveUpFnv = 0x13dc4b674342f57eull;

  static Outcome solve(const Script* script) {
    Fixture f;
    MultishiftParams params;
    params.shifts = {0.0, 0.1, 0.5};
    params.tolerance = 1e-8;
    params.max_iterations = 400;
    std::vector<DistField> x;
    for (std::size_t i = 0; i < params.shifts.size(); ++i) {
      x.push_back(f.op->make_field("x" + std::to_string(i)));
    }
    Outcome out;
    if (script == nullptr) {
      record(multishift_solve(*f.op, x, *f.b, params), &out);
    } else {
      MultishiftAuditParams audit;
      install(*script, kInterval, &out, &audit);
      record(multishift_solve_audited(*f.op, x, *f.b, params, audit), &out);
    }
    for (const DistField& xi : x) f.gather(xi, &out);
    return out;
  }
};

template <class Solver>
class SolverAudit : public ::testing::Test {
 protected:
  static Outcome unaudited() { return Solver::solve(nullptr); }
  static Outcome audited(const Script& s) { return Solver::solve(&s); }

  /// Both detectors are polled on every audit, never short-circuited.
  static void expect_both_polled(const Outcome& o) {
    EXPECT_EQ(static_cast<u64>(o.link_polls), o.audits);
    EXPECT_EQ(static_cast<u64>(o.mem_polls), o.audits);
  }
};

using Solvers = ::testing::Types<Cg, MixedCg, MultishiftCg>;
TYPED_TEST_SUITE(SolverAudit, Solvers);

TYPED_TEST(SolverAudit, AllCleanIsBitIdenticalToUnaudited) {
  const Outcome plain = this->unaudited();
  const Outcome a = this->audited(Script{});
  ASSERT_TRUE(plain.converged);
  EXPECT_TRUE(a.converged);
  EXPECT_EQ(a.restarts, 0);
  EXPECT_EQ(a.audit_failures, 0u);
  EXPECT_EQ(a.mem_checks, 0u);
  EXPECT_GE(a.audits, 3u);  // the baseline plus at least two intervals
  this->expect_both_polled(a);
  if (TypeParam::kCheckpoints) {
    EXPECT_GE(a.checkpoints, 2);
  }
  ASSERT_EQ(a.x.size(), plain.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    ASSERT_EQ(std::bit_cast<u64>(a.x[i]), std::bit_cast<u64>(plain.x[i]))
        << "word " << i;
  }
}

/// Shared checks for one dirty interval (poll #3, the end of the second
/// interval) seen by either detector: one rollback, then convergence on the
/// same bits whichever detector fired.
template <class Solver>
void expect_one_rollback(const Outcome& a, const Outcome& clean) {
  EXPECT_TRUE(a.converged);
  EXPECT_EQ(a.restarts, 1);
  // A rollback costs the poll that recovers it plus at least one re-audited
  // interval.
  EXPECT_GE(a.audits, clean.audits + 2);
  EXPECT_EQ(static_cast<u64>(a.link_polls), a.audits);
  EXPECT_EQ(static_cast<u64>(a.mem_polls), a.audits);
  EXPECT_EQ(a.x_fnv(), Solver::kRollbackFnv);
  ASSERT_EQ(a.x.size(), clean.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    if (Solver::kExactRestore) {
      // The checkpoint holds the whole loop-top state, so the replayed
      // interval reproduces the clean trajectory bit for bit.
      ASSERT_EQ(std::bit_cast<u64>(a.x[i]), std::bit_cast<u64>(clean.x[i]))
          << "word " << i;
    } else {
      // CG restarts its Krylov space from the checkpointed x: a different
      // trajectory to the same solution.
      ASSERT_NEAR(a.x[i], clean.x[i], 1e-5) << "word " << i;
    }
  }
}

TYPED_TEST(SolverAudit, DirtyLinkIntervalRollsBackAndConverges) {
  const Outcome clean = this->audited(Script{});
  const Outcome a = this->audited(dirty_links({true, true, false}));
  EXPECT_EQ(a.audit_failures, 1u);
  EXPECT_EQ(a.mem_checks, 0u);
  expect_one_rollback<TypeParam>(a, clean);
}

TYPED_TEST(SolverAudit, DirtyMemoryIntervalRollsBackAndConverges) {
  const Outcome clean = this->audited(Script{});
  const Outcome a = this->audited(dirty_mem({true, true, false}));
  EXPECT_EQ(a.audit_failures, 0u);
  EXPECT_EQ(a.mem_checks, 1u);
  expect_one_rollback<TypeParam>(a, clean);
}

TYPED_TEST(SolverAudit, DirtyBeyondMaxRestartsGivesUp) {
  // Poll #3 is dirty and so is every retry: two restarts, then give-up.
  const Outcome a = this->audited(
      dirty_links({true, true, false, false, false}, /*max_restarts=*/2));
  EXPECT_FALSE(a.converged);
  EXPECT_EQ(a.restarts, 2);
  EXPECT_EQ(a.audits, 5u);
  EXPECT_EQ(a.audit_failures, 3u);
  EXPECT_EQ(a.mem_checks, 0u);
  this->expect_both_polled(a);
  // The baseline and the first interval were clean checkpoints.
  if (TypeParam::kCheckpoints) {
    EXPECT_EQ(a.checkpoints, 2);
  }
  EXPECT_EQ(a.x_fnv(), TypeParam::kGiveUpFnv);
}

TYPED_TEST(SolverAudit, DirtyBaselineRestartsOrGivesUp) {
  const Outcome clean = this->audited(Script{});
  {
    // One restart redoes the setup: same state, same bits as the clean run.
    const Outcome a = this->audited(dirty_links({false}));
    EXPECT_TRUE(a.converged);
    EXPECT_EQ(a.restarts, 1);
    EXPECT_EQ(a.audits, clean.audits + 1);
    EXPECT_EQ(a.audit_failures, 1u);
    EXPECT_EQ(a.mem_checks, 0u);
    EXPECT_EQ(a.checkpoints, clean.checkpoints);
    ASSERT_EQ(a.x.size(), clean.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i) {
      ASSERT_EQ(std::bit_cast<u64>(a.x[i]), std::bit_cast<u64>(clean.x[i]))
          << "word " << i;
    }
  }
  // No restart allowed: the reference scale would come from a corrupted
  // residual, so the solver must give up before its first checkpoint.
  const Outcome a =
      this->audited(dirty_links({false}, /*max_restarts=*/0));
  EXPECT_FALSE(a.converged);
  EXPECT_EQ(a.restarts, 0);
  EXPECT_EQ(a.audits, 1u);
  EXPECT_EQ(a.audit_failures, 1u);
  EXPECT_EQ(a.mem_checks, 0u);
  EXPECT_EQ(a.checkpoints, 0);
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    ASSERT_EQ(std::bit_cast<u64>(a.x[i]), 0u) << "word " << i;
  }
}

}  // namespace
}  // namespace qcdoc::lattice
