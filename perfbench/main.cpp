// The simulator's host-cost benchmark.
//
//   qcdoc_perfbench --workload <halo-cg|local-dwf|fault-resume> --seed <n>
//                   --seconds <s> --trace <0|1> [--workdir <dir>]
//                   [--trace-out <file>] [--perturb-pin]
//
// Every simulated number (cycles, efficiency, residual bits, order digest)
// is deterministic, so the benchmark checks them against pins instead of
// reporting them as performance.  What it reports is host cost: wall time
// of set-up, solve and resume, per-iteration time and peak memory
// (untraced run), or the per-layer split of that time (traced run).
//
// A run repeats one *episode* -- build the machine, solve, checkpoint,
// resume in a fresh machine -- until --seconds have elapsed, and reports
// medians over episodes.  The last line of stdout is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/checksum_audit.h"
#include "fault/fault.h"
#include "host/qdaemon.h"
#include "lattice/cg.h"
#include "lattice/dwf.h"
#include "lattice/rig.h"
#include "lattice/wilson.h"
#include "perf/report.h"
#include "snapshot/machine_state.h"
#include "snapshot/store.h"
#include "trace.h"

namespace {

using namespace qcdoc;
using perfbench::Counters;
using perfbench::now_s;
using perfbench::Scope;
using perfbench::Span;
using perfbench::TracedDirac;
using perfbench::Tracer;

constexpr u64 kDefaultSeed = 1;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0.  Names and units match BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"solve_s", "s"},      {"iter_ms_p50", "ms"},
    {"iter_ms_tail", "ms"},  {"resume_s", "s"},     {"peak_rss_mb", "MB"},
};

// Printed with --trace 1.
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_word", "ratio"},
    {"sim.ns_per_event", "ns"},
    {"sim.cross_shard_events", "count"},
    {"sim.barrier_stall_s", "s"},
    {"sim.windows_parallel", "count"},
    {"sim.windows_serial", "count"},
    {"sim.peak_pending_events", "count"},
    {"sim.heap_blocks_steady", "count"},
    {"scu.data_words", "count"},
    {"scu.acks", "count"},
    {"scu.resends", "count"},
    {"scu.detected_errors", "count"},
    {"scu.undetected_errors", "count"},
    {"hssl.frames", "count"},
    {"scu.goodput", "ratio"},
    {"memsys.edram_bytes", "B"},
    {"memsys.ddr_bytes", "B"},
    {"memsys.ddr_share", "ratio"},
    {"memsys.ecc_corrected", "count"},
    {"memsys.ecc_uncorrectable", "count"},
    {"lattice.dirac_applies", "count"},
    {"lattice.dirac_ms_p50", "ms"},
    {"lattice.dirac_ms_tail", "ms"},
    {"lattice.dirac_share", "ratio"},
    {"lattice.ns_per_site", "ns"},
    {"lattice.cg_glue_s", "s"},
    {"lattice.cg_iterations", "count"},
    {"lattice.cg_restarts", "count"},
    {"lattice.cg_useful_ratio", "ratio"},
    {"fault.audit_ms_p50", "ms"},
    {"fault.audits", "count"},
    {"fault.audit_failures", "count"},
    {"fault.injected", "count"},
    {"snapshot.capture_ms_p50", "ms"},
    {"snapshot.save_ms_p50", "ms"},
    {"snapshot.save_ms_tail", "ms"},
    {"snapshot.bytes", "B"},
    {"snapshot.generations", "count"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.restore_ms", "ms"},
    {"machine.build_s", "s"},
    {"machine.train_events", "count"},
    {"host.boot_s", "s"},
    {"host.boot_packets", "count"},
    {"trace.overhead", "ratio"},
    {"trace.spans", "count"},
};

// ---------------------------------------------------------------------------
// Operations and correctness checks.

/// Attempted and failed operations.  The operations are each solve, each
/// checkpoint save and each resume; one fails if it throws, returns a
/// non-OK status or fails any correctness check.
class Ledger {
 public:
  int begin() {
    failed_op_.push_back(false);
    return static_cast<int>(failed_op_.size()) - 1;
  }
  /// Record a check of operation `op`; false marks the operation failed.
  bool check(int op, bool ok, const std::string& what) {
    if (!ok) {
      failures_.push_back(what);
      failed_op_[static_cast<std::size_t>(op)] = true;
    }
    return ok;
  }
  int attempted() const { return static_cast<int>(failed_op_.size()); }
  int failed() const {
    return static_cast<int>(
        std::count(failed_op_.begin(), failed_op_.end(), true));
  }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<bool> failed_op_;
  std::vector<std::string> failures_;
};

std::string hex(u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Pinned simulated outputs.  Zero means "not pinned".  `cycles` and
/// `efficiency_permille` hold for every seed of a fixed-iteration solve;
/// the rest only for the default seed.
struct Pins {
  Cycle cycles = 0;
  int efficiency_permille = 0;
  u64 residual_bits = 0;
  u64 fnv = 0;
  u64 digest = 0;
  Cycle default_seed_cycles = 0;
  int default_seed_restarts = -1;
};

/// Flip every pin (the self-test uses this to prove a mismatch is caught).
Pins perturbed(Pins p) {
  p.cycles ^= 1;
  p.efficiency_permille += 1;
  p.residual_bits ^= 1;
  p.fnv ^= 1;
  p.digest ^= 1;
  p.default_seed_cycles ^= 1;
  p.default_seed_restarts += 1;
  return p;
}

// ---------------------------------------------------------------------------
// Small numeric helpers.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest order statistic with at least ten samples beyond it, with its
/// percentile.  Below 21 samples that statistic would not lie above the
/// median, so the maximum is reported instead (percentile 100).
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t k = n >= 21 ? n - 11 : n - 1;
  t.value = v[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return t;
}

u64 field_fnv(const lattice::DistField& f) {
  u64 h = sim::detail::kFnvOffset;
  for (int r = 0; r < f.ranks(); ++r) {
    for (const double v : f.data(r)) {
      h = sim::detail::fnv1a(h, std::bit_cast<u64>(v));
    }
  }
  return h;
}

/// |M^+ b - M^+ M x| / |M^+ b|: the normal-equation residual the solver
/// tracks recursively, recomputed from scratch.
double true_relative_residual(lattice::DiracOperator& op, lattice::DistField& x,
                              lattice::DistField& b) {
  lattice::FieldOps& ops = op.ops();
  lattice::DistField rhs = op.make_field("check.rhs");
  lattice::DistField tmp = op.make_field("check.tmp");
  lattice::DistField ax = op.make_field("check.ax");
  op.apply_dag(rhs, b);
  op.apply(tmp, x);
  op.apply_dag(ax, tmp);
  const double rhs2 = ops.norm2(rhs);
  ops.axpy(-1.0, ax, rhs);
  return rhs2 > 0 ? std::sqrt(ops.norm2(rhs) / rhs2) : 0.0;
}

bool residuals_agree(double solver, double recomputed) {
  return std::isfinite(solver) && std::isfinite(recomputed) &&
         std::fabs(solver - recomputed) <= 1e-10 + 1e-6 * std::fabs(solver);
}

u64 gauge_seed(u64 seed) { return seed * 0x9e3779b97f4a7c15ull + 0x51ed27ull; }

// The solver section's layout, as bench_fault_campaign and the snapshot
// tests write it: the library exports no codec for CgCheckpoint.
void encode_solver(const lattice::CgCheckpoint& ck, snapshot::ByteSink* sink) {
  sink->put_u32(static_cast<u32>(ck.iterations));
  sink->put_double(ck.rsq);
  sink->put_double(ck.rhs_norm2);
  sink->put_u32(static_cast<u32>(ck.restarts));
  sink->put_u64(ck.audits);
  sink->put_u64(ck.audit_failures);
  sink->put_u64(ck.mem_checks);
}

snapshot::Status decode_solver(const snapshot::SnapshotFile& file,
                               lattice::CgCheckpoint* ck) {
  std::optional<snapshot::ByteSource> src;
  if (snapshot::Status s = file.open(snapshot::kSecSolver, &src); !s) return s;
  u32 iterations = 0, restarts = 0;
  if (snapshot::Status s = src->get_u32(&iterations); !s) return s;
  if (snapshot::Status s = src->get_double(&ck->rsq); !s) return s;
  if (snapshot::Status s = src->get_double(&ck->rhs_norm2); !s) return s;
  if (snapshot::Status s = src->get_u32(&restarts); !s) return s;
  if (snapshot::Status s = src->get_u64(&ck->audits); !s) return s;
  if (snapshot::Status s = src->get_u64(&ck->audit_failures); !s) return s;
  if (snapshot::Status s = src->get_u64(&ck->mem_checks); !s) return s;
  ck->iterations = static_cast<int>(iterations);
  ck->restarts = static_cast<int>(restarts);
  return src->expect_exhausted();
}

// ---------------------------------------------------------------------------
// Episodes.

struct Options {
  std::string workload;
  u64 seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_run";
  std::string trace_out;
  bool perturb_pin = false;
};

/// Set-up is short next to the solve, so every episode also times this many
/// set-up-only repetitions; setup_s is the median over all of them.
constexpr int kSetupRepeats = 4;

/// What one episode leaves behind for the metrics: span indices into its
/// tracer, iteration times, and the layer facts spans cannot carry.
struct Episode {
  const Tracer* tracer = nullptr;
  int solve_op = -1;
  std::vector<double> setup_s;  ///< every set-up timed in this episode
  int setup_span = -1;
  int solve_span = -1;
  int resume_span = -1;
  std::vector<double> iter_s;

  lattice::CgResult result;
  double efficiency = 0;
  u64 residual_bits = 0;
  u64 fnv = 0;
  u64 digest = 0;
  Cycle end_cycle = 0;
  double sites = 0;  ///< global sites x Ls, per Dirac apply

  sim::EngineReport engine_before;
  sim::EngineReport engine_after;
  memsys::EccCounters ecc;
  u64 injected = 0;
  u64 train_events = 0;
  u64 boot_packets = 0;
  u64 snapshot_bytes = 0;
  int generations = 0;
  u64 resumed_generation = 0;
  bool resume_bit_exact = false;
  bool resume_digest_matches = true;
};

/// Iteration times: one M apply start to the next; the last iteration ends
/// when the solve returns.
std::vector<double> iteration_times(const std::vector<double>& m_starts,
                                    double solve_end) {
  std::vector<double> out;
  for (std::size_t i = 0; i < m_starts.size(); ++i) {
    const double next = i + 1 < m_starts.size() ? m_starts[i + 1] : solve_end;
    out.push_back(next - m_starts[i]);
  }
  return out;
}

/// Checks one episode's simulated outputs against the pins and against the
/// run's first episode: simulated results do not depend on host timing, so
/// every episode of a run must reproduce the first bit for bit.
void check_outputs(Ledger& ledger, int op, const Episode& e,
                   const Episode* first, const Pins& pins, bool default_seed) {
  if (pins.cycles != 0) {
    ledger.check(op, e.result.cycles == pins.cycles,
                 "cycles " + std::to_string(e.result.cycles) + " != pinned " +
                     std::to_string(pins.cycles));
    const int permille = static_cast<int>(std::lround(1000 * e.efficiency));
    ledger.check(op, permille == pins.efficiency_permille,
                 "CG efficiency " + std::to_string(permille) +
                     " per mille != pinned " +
                     std::to_string(pins.efficiency_permille));
  }
  if (default_seed) {
    if (pins.residual_bits != 0) {
      ledger.check(op, e.residual_bits == pins.residual_bits,
                   "residual bits " + hex(e.residual_bits) + " != pinned " +
                       hex(pins.residual_bits));
    }
    if (pins.fnv != 0) {
      ledger.check(op, e.fnv == pins.fnv,
                   "solution FNV " + hex(e.fnv) + " != pinned " + hex(pins.fnv));
    }
    if (pins.digest != 0) {
      ledger.check(op, e.digest == pins.digest,
                   "trace digest " + hex(e.digest) + " != pinned " +
                       hex(pins.digest));
    }
    if (pins.default_seed_cycles != 0) {
      ledger.check(op, e.result.cycles == pins.default_seed_cycles,
                   "cycles " + std::to_string(e.result.cycles) +
                       " != pinned " + std::to_string(pins.default_seed_cycles));
    }
    if (pins.default_seed_restarts >= 0) {
      ledger.check(op, e.result.restarts == pins.default_seed_restarts,
                   "restarts " + std::to_string(e.result.restarts) +
                       " != pinned " +
                       std::to_string(pins.default_seed_restarts));
    }
  }
  if (first != nullptr) {
    ledger.check(op,
                 e.residual_bits == first->residual_bits &&
                     e.fnv == first->fnv && e.digest == first->digest &&
                     e.result.cycles == first->result.cycles,
                 "episode differs from the run's first episode");
  }
}

// --- halo-cg and local-dwf: plain fixed-iteration CG -----------------------

struct PlainSpec {
  std::array<int, 6> extents;
  lattice::Coord4 global;
  int ls = 1;
  int iterations = 0;
  std::function<std::unique_ptr<lattice::DiracOperator>(
      lattice::SolverRig&, lattice::GaugeField&)>
      make_op;
  Pins pins;
};

/// Everything a plain solve allocates, in allocation order (the resume
/// replays exactly this sequence before restoring memory).
struct PlainRig {
  std::unique_ptr<machine::Machine> m;
  std::unique_ptr<torus::Partition> partition;
  std::unique_ptr<lattice::SolverRig> rig;
  std::unique_ptr<lattice::GaugeField> gauge;
  std::unique_ptr<lattice::DiracOperator> op;
  std::optional<lattice::DistField> x, b;
};

void build_plain(const PlainSpec& spec, u64 seed, Tracer& t, PlainRig& r,
                 u64* train_events) {
  machine::MachineConfig cfg;
  cfg.shape.extent = spec.extents;
  cfg.sim_threads = 1;  // pinned here so QCDOC_SIM_THREADS cannot change it
  t.bind(nullptr);
  {
    Scope s(t, "machine.build");
    r.m = std::make_unique<machine::Machine>(cfg);
  }
  t.bind(r.m.get());
  {
    Scope s(t, "machine.power_on");
    const u64 e0 = r.m->engine().events_executed();
    r.m->power_on();
    *train_events = r.m->engine().events_executed() - e0;
  }
  Scope s(t, "lattice.setup");
  r.partition = std::make_unique<torus::Partition>(torus::Partition::whole_machine(
      r.m->topology(), torus::FoldSpec::identity(4)));
  r.rig = std::make_unique<lattice::SolverRig>(r.m.get(), r.partition.get(),
                                               spec.global);
  r.gauge = std::make_unique<lattice::GaugeField>(r.rig->comm.get(),
                                                  r.rig->geom.get());
  Rng rng(gauge_seed(seed));
  r.gauge->randomize_near_unit(rng, 0.15);
  r.op = spec.make_op(*r.rig, *r.gauge);
  r.x.emplace(r.op->make_field("x"));
  r.b.emplace(r.op->make_field("b"));
  r.x->zero();
  r.rig->fill_source(*r.b);
}

Episode plain_episode(const PlainSpec& spec, const Options& opt, Tracer& t,
                      Ledger& ledger, const Episode* first,
                      const std::string& dir) {
  Episode e;
  e.tracer = &t;
  e.sites = static_cast<double>(spec.global[0]) * spec.global[1] *
            spec.global[2] * spec.global[3] * spec.ls;
  const int solve_op = ledger.begin();
  e.solve_op = solve_op;
  try {
    for (int i = 0; i < kSetupRepeats; ++i) {
      Tracer quiet(false);
      PlainRig extra;
      u64 ignored = 0;
      const double t0 = now_s();
      build_plain(spec, opt.seed, quiet, extra, &ignored);
      e.setup_s.push_back(now_s() - t0);
    }
    PlainRig r;
    e.setup_span = t.open("episode.setup", true);
    build_plain(spec, opt.seed, t, r, &e.train_events);
    machine::Machine& m = *r.m;
    TracedDirac traced(*r.op, t);
    t.close(e.setup_span);
    e.setup_s.push_back(t.spans()[static_cast<std::size_t>(e.setup_span)].seconds());

    lattice::CgParams params;
    params.fixed_iterations = spec.iterations;
    e.engine_before = m.engine().report();
    {
      Scope solve(t, "lattice.cg_solve", true);
      e.solve_span = solve.index();
      e.result = lattice::cg_solve(traced, *r.x, *r.b, params);
    }
    const Span& solve = t.spans()[static_cast<std::size_t>(e.solve_span)];
    e.iter_s = iteration_times(traced.m_starts(), solve.end);
    e.engine_after = m.engine().report();
    e.efficiency = perf::cg_efficiency(m, e.result);
    e.residual_bits = std::bit_cast<u64>(e.result.relative_residual);
    e.fnv = field_fnv(*r.x);
    e.digest = m.engine().trace_digest();
    e.end_cycle = m.engine().now();
    e.ecc = m.mesh().total_ecc();

    // Checkpoint the end-of-solve machine: the generation the resume
    // restores.
    const int save_op = ledger.begin();
    snapshot::SnapshotStore store(dir, opt.workload);
    snapshot::SnapshotFile file;
    snapshot::Status st;
    {
      Scope s(t, "snapshot.capture");
      st = snapshot::capture_machine(m, snapshot::MachineExtras{}, &file);
    }
    if (ledger.check(save_op, st.ok, "capture: " + st.reason)) {
      Scope s(t, "snapshot.save");
      st = store.save(&file);
    }
    if (ledger.check(save_op, st.ok, "save: " + st.reason)) {
      e.generations = 1;
      e.snapshot_bytes = store.list().back().bytes;
    }

    // Correctness of the solve (after the snapshot: the checks allocate and
    // run more operator applications).
    ledger.check(solve_op, m.mesh().verify_link_checksums(),
                 "link checksums do not verify");
    const double recomputed = true_relative_residual(*r.op, *r.x, *r.b);
    ledger.check(solve_op,
                 residuals_agree(e.result.relative_residual, recomputed),
                 "true residual " + std::to_string(recomputed) +
                     " disagrees with solver residual " +
                     std::to_string(e.result.relative_residual));
    check_outputs(ledger, solve_op, e, first,
                  opt.perturb_pin ? perturbed(spec.pins) : spec.pins,
                  opt.seed == kDefaultSeed);
    t.bind(nullptr);  // the machine dies with this scope
  } catch (const std::exception& ex) {
    ledger.check(solve_op, false, std::string("solve threw: ") + ex.what());
    t.bind(nullptr);
    return e;
  }

  // Resume: replay construction in a fresh machine, load the newest
  // generation and restore it.  The generation is the end of the solve, so
  // nothing is left to iterate; the restored machine must equal the solved
  // one bit for bit.
  const int resume_op = ledger.begin();
  try {
    PlainRig replay;
    Scope resume(t, "episode.resume", true);
    e.resume_span = resume.index();
    u64 ignored = 0;
    build_plain(spec, opt.seed, t, replay, &ignored);
    std::vector<lattice::DistField> cg_fields;
    for (const char* label : {"cg.tmp", "cg.r", "cg.p", "cg.ap"}) {
      cg_fields.push_back(replay.op->make_field(label));
    }
    snapshot::SnapshotStore store(dir, opt.workload);
    snapshot::SnapshotFile file;
    snapshot::Status st;
    {
      Scope s(t, "snapshot.load");
      st = store.load_latest(&file);
    }
    if (ledger.check(resume_op, st.ok, "load: " + st.reason)) {
      Scope s(t, "snapshot.restore");
      st = snapshot::restore_machine(*replay.m, snapshot::MachineExtras{},
                                     file);
    }
    if (ledger.check(resume_op, st.ok, "restore: " + st.reason)) {
      e.resumed_generation = file.generation();
      e.resume_bit_exact = field_fnv(*replay.x) == e.fnv &&
                           replay.m->engine().trace_digest() == e.digest &&
                           replay.m->engine().now() == e.end_cycle;
      ledger.check(resume_op, e.resume_bit_exact,
                   "restored machine differs from the solved one");
    }
  } catch (const std::exception& ex) {
    ledger.check(resume_op, false, std::string("resume threw: ") + ex.what());
  }
  t.bind(nullptr);
  return e;
}

// --- fault-resume: audited CG under faults, checkpoint and resume ----------

constexpr int kFaultIterations = 60;
constexpr int kAuditInterval = 5;
constexpr int kCrashIteration = 30;  ///< checkpoint the resume starts from
constexpr int kMaxRestarts = 16;
/// Simulated cycles of one clean iteration on this machine; only used to
/// spread the fault plan over the solve.
constexpr Cycle kIterationCycles = 75000;
/// The measured episodes run the serial engine.  The traced run adds one
/// episode on the parallel engine for its window and barrier counters; it
/// must reproduce the serial results bit for bit.
constexpr int kParallelThreads = 2;

/// A random link of the partition's four logical dims.
torus::LinkIndex partition_link(Rng& rng) {
  return torus::link_index(static_cast<int>(rng.next_below(4)),
                           rng.next_bool(0.5) ? torus::Dir::kPlus
                                              : torus::Dir::kMinus);
}

/// Seed-generated fault plan.  The counts are fixed so every seed does the
/// same amount of recovery work; the seed picks times, nodes, links and
/// words.  Link faults stay well before the crash checkpoint: pending
/// forced-corruption and ack-drop counters are link protocol state that the
/// snapshot format does not carry.
fault::FaultPlan fault_plan(u64 seed, const torus::Shape& shape, Cycle start) {
  const double horizon = static_cast<double>(kFaultIterations) *
                         static_cast<double>(kIterationCycles);
  Rng rng(gauge_seed(seed) ^ 0xfa17ull);
  const u64 nodes = static_cast<u64>(torus::Torus(shape).num_nodes());
  const auto at = [&](double frac) {
    const double jitter = (rng.next_double() - 0.5) * 0.04;
    return start + static_cast<Cycle>((frac + jitter) * horizon);
  };
  const auto node = [&] { return NodeId{static_cast<u32>(rng.next_below(nodes))}; };

  // 38 correctable upsets over the whole solve.  Bits stay in the low
  // mantissa so that two upsets meeting in one codeword (which makes it
  // uncorrectable and writes the flips to storage) never produce a
  // non-finite value.
  std::vector<fault::FaultEvent> events =
      fault::FaultPlan::sustained_mem_upsets(seed, shape, 38, start,
                                             static_cast<Cycle>(horizon), 0.0)
          .events();
  for (fault::FaultEvent& ev : events) ev.mem_bit %= 40;

  fault::FaultPlan extra;
  // Two uncorrectable upsets (5% of the memory faults), one on each side of
  // the crash checkpoint, so the resumed half rolls back too.
  for (const double frac : {0.22, 0.85}) {
    extra.mem_upset_indexed(at(frac), node(), rng.next_u64(), 2,
                            static_cast<int>(rng.next_below(40)));
  }
  extra.data_corruption(at(0.08), node(), partition_link(rng), 3);
  events.insert(events.end(), extra.events().begin(), extra.events().end());
  std::stable_sort(events.begin(), events.end(),
                   [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                     return a.at < b.at;
                   });
  return fault::FaultPlan::from_events(std::move(events));
}

/// An ack-drop burst, injected right before the `m_apply`-th M apply.
struct AckBurst {
  std::size_t m_apply = 0;
  fault::FaultEvent event;
};

/// Four seed-generated ack-drop bursts of 4-7 acks.  They are not timed in
/// cycles: a burst that swallows the last acks of a transfer whose receive
/// DMA has already completed is never recovered (see README, Known
/// defects), and a cycle-timed burst lands there on about 1 seed in 40.
/// Injected at the start of an M apply, a burst is consumed by the first
/// acks of that apply's halo transfers, which are long enough to recover
/// it through timeout resends.  Every burst fires before iteration 25, so
/// before the crash checkpoint.
std::vector<AckBurst> ack_bursts(u64 seed, const torus::Shape& shape) {
  Rng rng(gauge_seed(seed) ^ 0xac4ull);
  const u64 nodes = static_cast<u64>(torus::Torus(shape).num_nodes());
  std::vector<AckBurst> bursts;
  for (const std::size_t m_apply : {2, 8, 15, 21}) {
    fault::FaultPlan one;
    one.ack_drop_burst(0, NodeId{static_cast<u32>(rng.next_below(nodes))},
                       partition_link(rng),
                       4 + static_cast<int>(rng.next_below(4)));
    bursts.push_back(AckBurst{m_apply + rng.next_below(3), one.events().front()});
  }
  return bursts;
}

/// One Qdaemon-managed machine with its fault machinery.
struct FaultRig {
  std::unique_ptr<machine::Machine> m;
  std::unique_ptr<host::Qdaemon> qd;
  std::optional<host::PartitionHandle> handle;
  std::unique_ptr<fault::ChecksumAuditor> auditor;
  std::unique_ptr<fault::MemCheckAuditor> mem_auditor;
  std::unique_ptr<fault::FaultInjector> injector;
  snapshot::MachineExtras extras;
};

constexpr std::array<int, 6> kFaultExtents{2, 2, 2, 2, 1, 1};
constexpr lattice::Coord4 kFaultGlobal{4, 4, 4, 4};

bool build_fault_rig(Tracer& t, FaultRig& r, int threads, u64* boot_packets,
                     u64* boot_events) {
  machine::MachineConfig cfg;
  cfg.shape.extent = kFaultExtents;
  cfg.sim_threads = threads;
  t.bind(nullptr);
  {
    Scope s(t, "machine.build");
    r.m = std::make_unique<machine::Machine>(cfg);
  }
  t.bind(r.m.get());
  r.qd = std::make_unique<host::Qdaemon>(r.m.get());
  {
    Scope s(t, "host.boot");
    const u64 e0 = r.m->engine().events_executed();
    const host::BootReport& boot = r.qd->boot();
    *boot_packets = boot.jtag_packets + boot.udp_packets;
    *boot_events = r.m->engine().events_executed() - e0;
  }
  {
    Scope s(t, "host.allocate_partition");
    torus::Shape box;
    box.extent = kFaultExtents;
    r.handle = r.qd->allocate_partition("cg", box, 4);
  }
  if (!r.handle) return false;
  r.auditor = std::make_unique<fault::ChecksumAuditor>(&r.m->mesh());
  r.mem_auditor = std::make_unique<fault::MemCheckAuditor>(
      &r.m->mesh(), r.handle->partition->nodes());
  r.injector = std::make_unique<fault::FaultInjector>(&r.m->mesh());
  r.extras.health = &r.qd->health();
  r.extras.auditor = r.auditor.get();
  r.extras.mem_auditor = r.mem_auditor.get();
  r.extras.injector = r.injector.get();
  return true;
}

/// Fields of one solve, allocated in the order the resume replays.
struct FaultFields {
  lattice::GlobalGeometry geom;
  machine::BspRunner bsp;
  cpu::CpuModel cpu;
  lattice::FieldOps ops;
  lattice::GaugeField gauge;
  lattice::WilsonDirac op;
  lattice::DistField x, b;
  lattice::CgWorkspace ws;

  FaultFields(FaultRig& r, comms::Communicator& comm, u64 seed)
      : geom(r.handle->partition, kFaultGlobal),
        bsp(r.m.get()),
        cpu(r.m->hw(), r.m->mem_timing()),
        ops(&bsp, &cpu, &comm),
        gauge(&comm, &geom),
        op(&ops, &geom, &gauge, lattice::WilsonParams{.kappa = 0.12}),
        x(op.make_field("x")),
        b(op.make_field("b")),
        ws(lattice::CgWorkspace::make(op)) {
    Rng rng(gauge_seed(seed));
    gauge.randomize_near_unit(rng, 0.1);
    x.zero();
    for (int rank = 0; rank < b.ranks(); ++rank) {
      for (int s = 0; s < geom.local().volume(); ++s) {
        const lattice::Coord4 g = geom.global_coords(rank, s);
        const double base = g[0] + 13.0 * g[1] + 41.0 * g[2] + 97.0 * g[3];
        double* p = b.site(rank, s);
        for (int k = 0; k < b.site_doubles(); ++k) {
          p[k] = std::sin(0.1 * base + 0.01 * k) + 0.05 * k;
        }
      }
    }
  }
};

lattice::CgAuditParams audit_params(FaultRig& r, Tracer& t) {
  lattice::CgAuditParams audit;
  audit.clean = [&r, &t] {
    Scope s(t, "fault.audit_links");
    return r.auditor->clean_since_last();
  };
  audit.mem_clean = [&r, &t] {
    Scope s(t, "fault.audit_mem");
    return r.mem_auditor->clean_since_last();
  };
  audit.interval = kAuditInterval;
  audit.max_restarts = kMaxRestarts;
  return audit;
}

Pins fault_pins();

Episode fault_episode(const Options& opt, Tracer& t, Ledger& ledger,
                      const Episode* first, const std::string& dir,
                      int threads) {
  Episode e;
  e.tracer = &t;
  e.sites = 4.0 * 4 * 4 * 4;
  const int solve_op = ledger.begin();
  e.solve_op = solve_op;
  u64 crash_generation = 0;
  lattice::CgParams params;
  params.fixed_iterations = kFaultIterations;
  try {
    snapshot::SnapshotStore store(dir, opt.workload);
    // Keep every generation: the crash is modelled afterwards by deleting
    // the generations committed after the crash checkpoint.
    store.set_keep_generations(1 << 20);
    for (int i = 0; i < kSetupRepeats; ++i) {
      Tracer quiet(false);
      FaultRig extra;
      u64 ignored_packets = 0, ignored_events = 0;
      const double t0 = now_s();
      if (build_fault_rig(quiet, extra, threads, &ignored_packets,
                          &ignored_events)) {
        extra.qd->run_job(
            *extra.handle,
            [&](comms::Communicator& comm, std::vector<std::string>&) {
              FaultFields f(extra, comm, opt.seed);
            });
      }
      e.setup_s.push_back(now_s() - t0);
    }
    FaultRig r;
    e.setup_span = t.open("episode.setup", true);
    u64 boot_events = 0;
    if (!ledger.check(solve_op,
                      build_fault_rig(t, r, threads, &e.boot_packets,
                                      &boot_events),
                      "partition allocation failed")) {
      t.close(e.setup_span);
      t.bind(nullptr);
      return e;
    }
    e.train_events = boot_events;
    machine::Machine& m = *r.m;
    const host::JobResult job = r.qd->run_job(
        *r.handle, [&](comms::Communicator& comm, std::vector<std::string>&) {
          std::optional<FaultFields> f;
          {
            Scope s(t, "lattice.setup");
            f.emplace(r, comm, opt.seed);
          }
          TracedDirac traced(f->op, t);
          r.injector->arm(fault_plan(opt.seed, m.config().shape, m.engine().now()));
          traced.set_before_apply(
              [&r, bursts = ack_bursts(opt.seed, m.config().shape)](
                  std::size_t m_apply) {
                for (const AckBurst& b : bursts) {
                  if (b.m_apply == m_apply) r.injector->apply(b.event);
                }
              });
          t.close(e.setup_span);
          e.setup_s.push_back(
              t.spans()[static_cast<std::size_t>(e.setup_span)].seconds());

          lattice::CgAuditParams audit = audit_params(r, t);
          audit.workspace = &f->ws;
          audit.on_checkpoint = [&](const lattice::CgCheckpoint& ck) {
            const int save_op = ledger.begin();
            snapshot::SnapshotFile file;
            snapshot::Status st;
            {
              Scope s(t, "snapshot.capture");
              st = snapshot::capture_machine(m, r.extras, &file);
            }
            if (!ledger.check(save_op, st.ok, "capture: " + st.reason)) return;
            snapshot::ByteSink solver;
            encode_solver(ck, &solver);
            file.add_section(snapshot::kSecSolver, std::move(solver));
            {
              Scope s(t, "snapshot.save");
              st = store.save(&file);
            }
            if (!ledger.check(save_op, st.ok, "save: " + st.reason)) return;
            ++e.generations;
            if (ck.iterations == kCrashIteration && crash_generation == 0) {
              crash_generation = file.generation();
            }
          };
          e.engine_before = m.engine().report();
          {
            Scope solve(t, "lattice.cg_solve_audited", true);
            e.solve_span = solve.index();
            e.result = lattice::cg_solve_audited(traced, f->x, f->b, params,
                                                 audit);
          }
          const Span& solve = t.spans()[static_cast<std::size_t>(e.solve_span)];
          e.iter_s = iteration_times(traced.m_starts(), solve.end);
          e.engine_after = m.engine().report();
          e.efficiency = perf::cg_efficiency(m, e.result);
          e.residual_bits = std::bit_cast<u64>(e.result.relative_residual);
          e.fnv = field_fnv(f->x);
          e.digest = m.engine().trace_digest();
          e.end_cycle = m.engine().now();
          e.ecc = m.mesh().total_ecc();
          e.injected = r.injector->injected();

          ledger.check(solve_op, e.result.iterations == kFaultIterations,
                       "audited solve gave up after " +
                           std::to_string(e.result.restarts) + " restarts");
          const bool links_clean = r.auditor->clean_since_last();
          const bool mem_clean = r.mem_auditor->clean_since_last();
          ledger.check(solve_op, links_clean && mem_clean,
                       "link or memory audit dirty after the solve");
          const double recomputed = true_relative_residual(f->op, f->x, f->b);
          ledger.check(solve_op,
                       residuals_agree(e.result.relative_residual, recomputed),
                       "true residual " + std::to_string(recomputed) +
                           " disagrees with solver residual " +
                           std::to_string(e.result.relative_residual));
        });
    ledger.check(solve_op, job.ok, "job failed");
    if (!store.list().empty()) e.snapshot_bytes = store.list().back().bytes;
    check_outputs(ledger, solve_op, e, first,
                  opt.perturb_pin ? perturbed(fault_pins()) : fault_pins(),
                  opt.seed == kDefaultSeed);
    // The crash: the process died right after committing the crash
    // checkpoint, so later generations never reached the disk.
    for (const snapshot::GenerationInfo& g : store.list()) {
      if (g.generation > crash_generation) std::filesystem::remove(g.path);
    }
    t.bind(nullptr);  // the machine dies with this scope
  } catch (const std::exception& ex) {
    ledger.check(solve_op, false, std::string("solve threw: ") + ex.what());
    t.bind(nullptr);
    return e;
  }

  const int resume_op = ledger.begin();
  try {
    ledger.check(resume_op, crash_generation > 0,
                 "no generation at the crash checkpoint");
    FaultRig r;
    Scope resume(t, "episode.resume", true);
    e.resume_span = resume.index();
    u64 ignored_packets = 0, ignored_events = 0;
    if (!ledger.check(resume_op,
                      build_fault_rig(t, r, threads, &ignored_packets,
                                      &ignored_events),
                      "replay partition allocation failed")) {
      t.bind(nullptr);
      return e;
    }
    machine::Machine& m = *r.m;
    const host::JobResult job = r.qd->run_job(
        *r.handle, [&](comms::Communicator& comm, std::vector<std::string>&) {
          std::optional<FaultFields> f;
          {
            Scope s(t, "lattice.setup");
            f.emplace(r, comm, opt.seed);
          }
          snapshot::SnapshotStore store(dir, opt.workload);
          snapshot::SnapshotFile file;
          snapshot::Status st;
          {
            Scope s(t, "snapshot.load");
            st = store.load_latest(&file);
          }
          if (!ledger.check(resume_op, st.ok, "load: " + st.reason)) return;
          lattice::CgCheckpoint ck;
          {
            Scope s(t, "snapshot.restore");
            st = snapshot::restore_machine(m, r.extras, file);
            if (st.ok) st = decode_solver(file, &ck);
          }
          if (!ledger.check(resume_op, st.ok, "restore: " + st.reason)) return;
          e.resumed_generation = file.generation();
          ledger.check(resume_op, file.generation() == crash_generation,
                       "resumed generation " +
                           std::to_string(file.generation()) +
                           " is not the crash generation " +
                           std::to_string(crash_generation));
          TracedDirac traced(f->op, t);
          lattice::CgAuditParams audit = audit_params(r, t);
          audit.workspace = &f->ws;
          audit.resume = &ck;
          lattice::CgResult res;
          {
            Scope s(t, "lattice.cg_solve_audited");
            res = lattice::cg_solve_audited(traced, f->x, f->b, params, audit);
          }
          e.resume_bit_exact =
              res.iterations == e.result.iterations &&
              res.restarts == e.result.restarts &&
              std::bit_cast<u64>(res.relative_residual) == e.residual_bits &&
              field_fnv(f->x) == e.fnv && m.engine().now() == e.end_cycle;
          ledger.check(
              resume_op, e.resume_bit_exact,
              "resumed solve is not bit-exact with the uninterrupted one");
          // Known defect, reported rather than counted: restore_machine
          // re-arms the unfired fault plan with fresh sequence numbers, so
          // the order digest of a resume with faults still pending differs
          // although every simulated result matches.
          e.resume_digest_matches = m.engine().trace_digest() == e.digest;
        });
    ledger.check(resume_op, job.ok, "resume job failed");
  } catch (const std::exception& ex) {
    ledger.check(resume_op, false, std::string("resume threw: ") + ex.what());
  }
  t.bind(nullptr);
  return e;
}

// ---------------------------------------------------------------------------
// Pins: simulated outputs measured on the commit that defined this
// benchmark.  A mismatch is a model change to report, never a value to
// re-pin to make a run pass.

PlainSpec halo_spec() {
  PlainSpec s;
  s.extents = {2, 2, 2, 2, 1, 1};  // 16 nodes
  s.global = {8, 8, 8, 8};         // the paper's 4^4 local volume
  s.iterations = 10;
  s.make_op = [](lattice::SolverRig& rig, lattice::GaugeField& g) {
    return std::make_unique<lattice::WilsonDirac>(
        rig.ops.get(), rig.geom.get(), &g, lattice::WilsonParams{});
  };
  s.pins = Pins{.cycles = 10979663,
                .efficiency_permille = 398,  // paper: 40%
                .residual_bits = 0x3fd2e3f36a00261bull,
                .fnv = 0xa83923bd7db986afull,
                .digest = 0xdc400d576e3da316ull};
  return s;
}

PlainSpec dwf_spec() {
  PlainSpec s;
  s.extents = {1, 1, 1, 1, 1, 1};  // one node: every halo is a local copy
  s.global = {8, 8, 8, 8};
  s.ls = 8;
  s.iterations = 10;
  s.make_op = [](lattice::SolverRig& rig, lattice::GaugeField& g) {
    return std::make_unique<lattice::DwfDirac>(
        rig.ops.get(), rig.geom.get(), &g, lattice::DwfParams{.ls = 8});
  };
  s.pins = Pins{.cycles = 1439404433,
                .efficiency_permille = 413,
                .residual_bits = 0x3fa0029d9754604cull,
                .fnv = 0x5920ec7640b1098dull,
                .digest = 0x188e9dc88db09125ull};
  return s;
}

// Cycles and restarts depend on the seed's fault plan, so they are pinned
// for the default seed only.
Pins fault_pins() {
  return Pins{.residual_bits = 0x3f394293a8e2d110ull,
              .fnv = 0x835fae139d14a1f9ull,
              .digest = 0x3c050c7e27ea9bbaull,
              .default_seed_cycles = 7018969,
              .default_seed_restarts = 5};
}

// ---------------------------------------------------------------------------
// Metrics.

std::vector<int> children(const std::vector<Span>& spans, int parent) {
  std::vector<int> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == parent) out.push_back(static_cast<int>(i));
  }
  return out;
}

/// Durations (seconds) of every span named `name` in the subtree of `root`.
std::vector<double> durations_under(const std::vector<Span>& spans, int root,
                                    const char* name) {
  std::vector<double> out;
  if (root < 0) return out;
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans.size();
       ++i) {
    int p = spans[i].parent;
    while (p > root) p = spans[static_cast<std::size_t>(p)].parent;
    if (p != root) continue;
    if (std::strcmp(spans[i].name, name) == 0) out.push_back(spans[i].seconds());
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double ms(double s) { return 1e3 * s; }

using MetricMap = std::map<std::string, double>;

/// Per-span timings pooled over every traced episode, so the tails rest on
/// enough samples.
struct Pooled {
  std::vector<double> dirac_ms;
  std::vector<double> save_ms;
};

/// Per-layer metrics of one traced episode.  Also checks that the solve
/// span's children account for it: they lie inside it and do not overlap,
/// so apply + audit + snapshot + glue = solve with glue >= 0.
MetricMap layer_metrics(const Episode& e, Ledger& ledger, Pooled* pooled) {
  const std::vector<Span>& spans = e.tracer->spans();
  MetricMap m;
  const Span& solve = spans[static_cast<std::size_t>(e.solve_span)];
  const Counters d = solve.finish - solve.begin;

  double apply_s = 0, audit_s = 0, snapshot_s = 0;
  u64 apply_events = 0;
  std::vector<double> dirac, audits;
  int m_applies = 0;
  double heap_base = -1;
  double prev_end = solve.start;
  bool nested = true;
  for (const int i : children(spans, e.solve_span)) {
    const Span& c = spans[static_cast<std::size_t>(i)];
    nested = nested && c.start >= prev_end && c.end <= solve.end;
    prev_end = c.end;
    const std::string name = c.name;
    if (name == "lattice.apply" || name == "lattice.apply_dag") {
      apply_s += c.seconds();
      apply_events += (c.finish - c.begin).events;
      dirac.push_back(ms(c.seconds()));
      if (name == "lattice.apply" && ++m_applies == 2) {
        heap_base = static_cast<double>(c.begin.pool_blocks);
      }
    } else if (name == "fault.audit_links" || name == "fault.audit_mem") {
      audit_s += c.seconds();
      audits.push_back(ms(c.seconds()));
    } else if (name == "snapshot.capture" || name == "snapshot.save") {
      snapshot_s += c.seconds();
    }
  }
  const double glue = solve.seconds() - apply_s - audit_s - snapshot_s;
  ledger.check(e.solve_op, nested && glue >= 0,
               "child spans do not account for the solve span");

  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const sim::EngineReport& b = e.engine_before;
  const sim::EngineReport& a = e.engine_after;
  m["sim.events"] = static_cast<double>(d.events);
  m["sim.events_per_word"] = ratio(static_cast<double>(d.events),
                                   static_cast<double>(d.data_words));
  m["sim.ns_per_event"] = ratio(1e9 * apply_s, static_cast<double>(apply_events));
  m["sim.cross_shard_events"] =
      static_cast<double>(a.cross_shard_events - b.cross_shard_events);
  m["sim.barrier_stall_s"] = a.barrier_stall_seconds - b.barrier_stall_seconds;
  m["sim.windows_parallel"] =
      static_cast<double>(a.windows_parallel - b.windows_parallel);
  m["sim.windows_serial"] =
      static_cast<double>(a.windows_serial - b.windows_serial);
  m["sim.peak_pending_events"] = static_cast<double>(a.peak_pending_events);
  m["sim.heap_blocks_steady"] =
      heap_base < 0 ? 0.0 : static_cast<double>(solve.finish.pool_blocks) - heap_base;
  m["scu.data_words"] = static_cast<double>(d.data_words);
  m["scu.acks"] = static_cast<double>(d.acks);
  m["scu.resends"] = static_cast<double>(d.resends);
  m["scu.detected_errors"] = static_cast<double>(d.detected);
  m["scu.undetected_errors"] = static_cast<double>(d.undetected);
  m["hssl.frames"] = static_cast<double>(d.frames);
  m["scu.goodput"] = ratio(static_cast<double>(d.data_words),
                           static_cast<double>(d.frames));
  double edram = 0, ddr = 0;
  for (const lattice::PrecisionTraffic& p : e.result.traffic) {
    edram += p.edram_bytes;
    ddr += p.ddr_bytes;
  }
  m["memsys.edram_bytes"] = edram;
  m["memsys.ddr_bytes"] = ddr;
  m["memsys.ddr_share"] = ratio(ddr, edram + ddr);
  m["memsys.ecc_corrected"] = static_cast<double>(e.ecc.corrected);
  m["memsys.ecc_uncorrectable"] = static_cast<double>(e.ecc.uncorrectable);
  m["lattice.dirac_applies"] = static_cast<double>(dirac.size());
  m["lattice.dirac_ms_p50"] = median(dirac);
  m["lattice.dirac_ms_tail"] = tail_of(dirac).value;
  m["lattice.dirac_share"] = ratio(apply_s, solve.seconds());
  m["lattice.ns_per_site"] =
      ratio(1e9 * apply_s, static_cast<double>(dirac.size()) * e.sites);
  m["lattice.cg_glue_s"] = glue;
  m["lattice.cg_iterations"] = e.result.iterations;
  m["lattice.cg_restarts"] = e.result.restarts;
  // Loop trips: every M apply except the residual recomputations (one at
  // the start, one per rollback).
  const double trips = m_applies - 1 - e.result.restarts;
  m["lattice.cg_useful_ratio"] = ratio(e.result.iterations, trips);
  m["fault.audit_ms_p50"] = median(audits);
  m["fault.audits"] = static_cast<double>(e.result.audits);
  m["fault.audit_failures"] =
      static_cast<double>(e.result.audit_failures + e.result.mem_checks);
  m["fault.injected"] = static_cast<double>(e.injected);

  std::vector<double> capture, save;
  for (const Span& s : spans) {
    if (s.solve != solve.solve) continue;
    if (std::strcmp(s.name, "snapshot.capture") == 0) capture.push_back(ms(s.seconds()));
    if (std::strcmp(s.name, "snapshot.save") == 0) save.push_back(ms(s.seconds()));
  }
  pooled->dirac_ms.insert(pooled->dirac_ms.end(), dirac.begin(), dirac.end());
  pooled->save_ms.insert(pooled->save_ms.end(), save.begin(), save.end());
  m["snapshot.capture_ms_p50"] = median(capture);
  m["snapshot.save_ms_p50"] = median(save);
  m["snapshot.save_ms_tail"] = tail_of(save).value;
  m["snapshot.bytes"] = static_cast<double>(e.snapshot_bytes);
  m["snapshot.generations"] = e.generations;
  m["snapshot.load_ms"] = ms(sum(durations_under(spans, e.resume_span, "snapshot.load")));
  m["snapshot.restore_ms"] =
      ms(sum(durations_under(spans, e.resume_span, "snapshot.restore")));
  m["machine.build_s"] = sum(durations_under(spans, e.setup_span, "machine.build"));
  m["machine.train_events"] = static_cast<double>(e.train_events);
  m["host.boot_s"] = sum(durations_under(spans, e.setup_span, "host.boot"));
  m["host.boot_packets"] = static_cast<double>(e.boot_packets);
  std::size_t n = 0;
  for (const Span& s : spans) n += s.solve == solve.solve ? 1 : 0;
  m["trace.spans"] = static_cast<double>(n);
  m["trace.overhead"] = 0;  // a ratio across episodes, filled in by main
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_metric(bool* first, const char* name, double value, const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", *first ? "" : ", ",
              name, value, unit);
  *first = false;
}

int usage() {
  std::fprintf(stderr,
               "usage: qcdoc_perfbench --workload <halo-cg|local-dwf|"
               "fault-resume> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>] [--trace-out <file>] [--perturb-pin]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--perturb-pin") {
      opt.perturb_pin = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--workdir" && has_value) {
      opt.workdir = argv[++i];
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  const PlainSpec halo = halo_spec();
  const PlainSpec dwf = dwf_spec();
  const PlainSpec* plain = nullptr;
  if (opt.workload == "halo-cg") {
    plain = &halo;
  } else if (opt.workload == "local-dwf") {
    plain = &dwf;
  } else if (opt.workload != "fault-resume") {
    return usage();
  }

  const std::string dir = opt.workdir + "/" + opt.workload + "-" +
                          std::to_string(opt.seed);
  std::filesystem::remove_all(dir);

  // The traced run alternates untraced and traced episodes so the tracing
  // overhead is measured on the same machine state and load.
  Tracer coarse(false);
  Tracer full(true);
  Ledger ledger;
  std::vector<Episode> episodes;
  // Peak memory of one episode: later episodes only add allocator
  // fragmentation, which grows with how many fit in --seconds.
  double episode_peak_rss_mb = 0;
  const double t0 = now_s();
  while (episodes.empty() || now_s() - t0 < opt.seconds ||
         (opt.trace && episodes.size() < 2)) {
    Tracer& t = opt.trace && episodes.size() % 2 == 1 ? full : coarse;
    t.set_solve(static_cast<int>(episodes.size()));
    const Episode* first = episodes.empty() ? nullptr : &episodes.front();
    std::filesystem::remove_all(dir);
    episodes.push_back(plain != nullptr
                           ? plain_episode(*plain, opt, t, ledger, first, dir)
                           : fault_episode(opt, t, ledger, first, dir, 1));
    if (episodes.size() == 1) episode_peak_rss_mb = peak_rss_mb();
  }
  std::optional<Episode> parallel;
  if (opt.trace && plain == nullptr) {
    full.set_solve(static_cast<int>(episodes.size()));
    std::filesystem::remove_all(dir);
    parallel = fault_episode(opt, full, ledger, &episodes.front(), dir,
                             kParallelThreads);
  }
  std::filesystem::remove_all(dir);

  std::vector<double> setup, solve, resume, iters;
  std::vector<double> traced_solve;
  std::vector<MetricMap> layers;
  Pooled pooled;
  for (const Episode& e : episodes) {
    const std::vector<Span>& spans = e.tracer->spans();
    const auto seconds = [&](int i) {
      return i < 0 ? 0.0 : spans[static_cast<std::size_t>(i)].seconds();
    };
    if (e.solve_span < 0) continue;  // the episode failed before solving
    if (e.tracer->full()) {
      traced_solve.push_back(seconds(e.solve_span));
      layers.push_back(layer_metrics(e, ledger, &pooled));
      continue;
    }
    setup.insert(setup.end(), e.setup_s.begin(), e.setup_s.end());
    solve.push_back(seconds(e.solve_span));
    resume.push_back(seconds(e.resume_span));
    for (const double s : e.iter_s) iters.push_back(ms(s));
  }
  const Tail iter_tail = tail_of(iters);
  const Episode& e0 = episodes.front();

  // Every metric is computed before anything is printed: computing the
  // per-layer ones also checks the spans, which can still fail the run.
  std::vector<std::pair<MetricDef, double>> results;
  if (opt.trace) {
    MetricMap med;
    for (const MetricDef& d : kPerLayer) {
      std::vector<double> v;
      for (const MetricMap& l : layers) v.push_back(l.at(d.name));
      med[d.name] = median(v);
    }
    med["trace.overhead"] = median(traced_solve) / median(solve);
    const Tail dirac_tail = tail_of(pooled.dirac_ms);
    const Tail save_tail = tail_of(pooled.save_ms);
    med["lattice.dirac_ms_p50"] = median(pooled.dirac_ms);
    med["lattice.dirac_ms_tail"] = dirac_tail.value;
    med["snapshot.save_ms_p50"] = median(pooled.save_ms);
    med["snapshot.save_ms_tail"] = save_tail.value;
    std::printf("lattice.dirac_ms_tail is p%.1f of %zu applies, "
                "snapshot.save_ms_tail p%.1f of %zu saves\n",
                dirac_tail.percentile, dirac_tail.samples,
                save_tail.percentile, save_tail.samples);
    if (parallel.has_value() && parallel->solve_span >= 0) {
      Pooled ignored;
      const MetricMap p = layer_metrics(*parallel, ledger, &ignored);
      for (const char* name :
           {"sim.cross_shard_events", "sim.barrier_stall_s",
            "sim.windows_parallel", "sim.windows_serial",
            "sim.peak_pending_events"}) {
        med[name] = p.at(name);
      }
    }
    for (const MetricDef& d : kPerLayer) results.emplace_back(d, med[d.name]);
  } else {
    const double values[] = {median(setup),  median(solve),
                             median(iters),  iter_tail.value,
                             median(resume), episode_peak_rss_mb};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      results.emplace_back(kEndToEnd[i], values[i]);
    }
    std::printf("iter_ms_tail is p%.1f of %zu iteration samples\n",
                iter_tail.percentile, iter_tail.samples);
  }

  std::printf("workload %s seed %llu: %zu episodes in %.2f s (%s)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              episodes.size() + (parallel.has_value() ? 1 : 0), now_s() - t0,
              opt.trace ? "traced" : "untraced");
  std::printf("simulated: %d iterations, %d restarts, %llu cycles, "
              "efficiency %.1f%%, residual %.6e\n",
              e0.result.iterations, e0.result.restarts,
              static_cast<unsigned long long>(e0.result.cycles),
              100 * e0.efficiency, e0.result.relative_residual);
  std::printf("pins: residual_bits %s fnv %s digest %s\n",
              hex(e0.residual_bits).c_str(), hex(e0.fnv).c_str(),
              hex(e0.digest).c_str());
  std::printf("resume: generation %llu, bit-exact %s, order digest %s\n",
              static_cast<unsigned long long>(e0.resumed_generation),
              e0.resume_bit_exact ? "yes" : "no",
              e0.resume_digest_matches
                  ? "matches"
                  : "differs (known defect: restore re-arms pending faults "
                    "with new sequence numbers)");
  for (const std::string& f : ledger.failures()) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::printf("error_rate %.6f (%d failed of %d operations)\n",
              ledger.attempted() > 0
                  ? static_cast<double>(ledger.failed()) / ledger.attempted()
                  : 0.0,
              ledger.failed(), ledger.attempted());

  if (!opt.trace_out.empty() && !full.write_chrome_trace(opt.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              ledger.failed() == 0 ? "true" : "false", ledger.attempted(),
              ledger.failed());
  bool first = true;
  for (const auto& [def, value] : results) {
    print_metric(&first, def.name, value, def.unit);
  }
  std::printf("}}\n");
  return ledger.failed() == 0 ? 0 : 1;
}
