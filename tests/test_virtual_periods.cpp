// Virtual link periods (net/virtual_periods.cpp) against the per-word
// oracle.
//
// Every case runs twice on fresh machines, once with MeshConfig::
// virtual_periods on (the default) and once with it off, where every event
// is dispatched.  The two runs must agree on everything the simulation
// produces: end cycle, field bits, link checksums, every StatSet counter of
// every node, every rank's (scheduled, executed, digest) stream and the
// executed-event count.  The fallback cases (a noisy wire, armed link
// faults, host faults inside the drain, scrubbing) must match as well,
// whether or not they splice.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "lattice/clover.h"
#include "lattice/dwf.h"
#include "lattice/staggered.h"
#include "lattice_fixture.h"
#include "net/mesh_net.h"
#include "scu/dma.h"
#include "sim/parallel_engine.h"

namespace qcdoc::lattice {
namespace {

using testing::LatticeRig;
using testing::fill_by_global_site;
using testing::fill_gauge_by_global_site;

struct Outcome {
  Cycle end_cycle = 0;
  u64 field_fnv = 0;
  u64 norm_bits = 0;
  bool checksums_match = false;
  std::vector<u64> checksums;
  std::vector<std::vector<std::pair<std::string, u64>>> stats;
  std::vector<sim::EngineStreamState> streams;
  u64 events = 0;
  u64 virtual_events = 0;
};

u64 fnv_of(const DistField& f) {
  u64 h = sim::detail::kFnvOffset;
  for (int r = 0; r < f.ranks(); ++r) {
    for (const double v : f.data(r)) {
      h = sim::detail::fnv1a(h, std::bit_cast<u64>(v));
    }
  }
  return h;
}

Outcome capture(net::MeshNet& mesh, u64 field_fnv, double norm) {
  sim::Engine& engine = mesh.engine();
  Outcome o;
  o.end_cycle = engine.now();
  o.field_fnv = field_fnv;
  o.norm_bits = std::bit_cast<u64>(norm);
  o.checksums_match = mesh.verify_link_checksums();
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    const NodeId node{static_cast<u32>(n)};
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      o.checksums.push_back(mesh.scu(node).send_checksum(torus::LinkIndex{l}));
      o.checksums.push_back(mesh.scu(node).recv_checksum(torus::LinkIndex{l}));
    }
    o.stats.push_back(mesh.stats(node).snapshot());
  }
  o.streams = engine.capture_clock().streams;
  o.events = engine.events_executed();
  o.virtual_events = engine.report().virtual_events;
  return o;
}

void expect_same(const Outcome& fast, const Outcome& oracle) {
  EXPECT_EQ(fast.end_cycle, oracle.end_cycle);
  EXPECT_EQ(fast.field_fnv, oracle.field_fnv);
  EXPECT_EQ(fast.norm_bits, oracle.norm_bits);
  EXPECT_EQ(fast.checksums_match, oracle.checksums_match);
  EXPECT_EQ(fast.checksums, oracle.checksums);
  EXPECT_EQ(fast.stats, oracle.stats);
  ASSERT_EQ(fast.streams.size(), oracle.streams.size());
  for (std::size_t i = 0; i < fast.streams.size(); ++i) {
    EXPECT_EQ(fast.streams[i].rank, oracle.streams[i].rank);
    EXPECT_EQ(fast.streams[i].scheduled, oracle.streams[i].scheduled)
        << "rank " << fast.streams[i].rank;
    EXPECT_EQ(fast.streams[i].executed, oracle.streams[i].executed)
        << "rank " << fast.streams[i].rank;
    EXPECT_EQ(fast.streams[i].digest, oracle.streams[i].digest)
        << "rank " << fast.streams[i].rank;
  }
  EXPECT_EQ(fast.events, oracle.events);
  EXPECT_EQ(oracle.virtual_events, 0u);
}

/// On a rig of `extents` nodes and `global` sites, apply the operator
/// `make_op` builds twice to a site-filled field (`before` runs first).
template <typename MakeOp>
Outcome run_operator(bool splice, std::array<int, 6> extents, Coord4 global,
                     MakeOp make_op,
                     const std::function<void(LatticeRig&)>& before = {}) {
  LatticeRig rig(extents, global);
  rig.m->mesh().set_virtual_periods(splice);
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  fill_gauge_by_global_site(*rig.geom, gauge, 0x5eed);
  auto op = make_op(rig, gauge);
  DistField in = op->make_field("in");
  DistField mid = op->make_field("mid");
  DistField out = op->make_field("out");
  fill_by_global_site(*rig.geom, in);
  if (before) before(rig);
  op->apply(mid, in);
  op->apply(out, mid);
  return capture(rig.m->mesh(), fnv_of(out), rig.ops->norm2(out));
}

constexpr std::array<int, 6> k16Nodes{2, 2, 2, 2, 1, 1};
constexpr Coord4 k8To4{8, 8, 8, 8};

auto wilson(LatticeRig& rig, GaugeField& gauge) {
  return std::make_unique<WilsonDirac>(rig.ops.get(), rig.geom.get(), &gauge,
                                       WilsonParams{.kappa = 0.124});
}

/// Wilson on perfbench's halo-cg machine: 16 nodes, 8^4 global, 4^4 local.
Outcome halo_cg_shape(bool splice,
                      const std::function<void(LatticeRig&)>& before = {}) {
  return run_operator(splice, k16Nodes, k8To4, wilson, before);
}

struct Case {
  const char* name;
  std::function<Outcome(bool)> run;
  bool splices;  ///< the fast run must actually fold keys
};

// Test listings show a parameter by its printed form; print the name, not
// the bytes (which hold pointers and so change from build to build).
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

std::vector<Case> cases() {
  return {
      {"HaloCgShape", [](bool s) { return halo_cg_shape(s); }, true},
      {"Staggered",
       [](bool s) {
         return run_operator(s, k16Nodes, k8To4, [](LatticeRig& rig,
                                                    GaugeField& gauge) {
           return std::make_unique<AsqtadDirac>(rig.ops.get(), rig.geom.get(),
                                                &gauge, AsqtadParams{});
         });
       },
       true},
      {"Dwf16Nodes",
       [](bool s) {
         return run_operator(s, k16Nodes, Coord4{8, 8, 4, 4},
                             [](LatticeRig& rig, GaugeField& gauge) {
                               return std::make_unique<DwfDirac>(
                                   rig.ops.get(), rig.geom.get(), &gauge,
                                   DwfParams{.ls = 4, .kappa5 = 0.17,
                                             .mf = 0.05});
                             });
       },
       true},
      {"Clover",
       [](bool s) {
         return run_operator(s, k16Nodes, k8To4, [](LatticeRig& rig,
                                                    GaugeField& gauge) {
           return std::make_unique<CloverDirac>(
               rig.ops.get(), rig.geom.get(), &gauge,
               CloverParams{.kappa = 0.124, .csw = 1.3});
         });
       },
       true},
      {"ExtentFourDim",
       [](bool s) {
         return run_operator(s, {4, 2, 2, 1, 1, 1}, Coord4{16, 8, 8, 4},
                             wilson);
       },
       true},
      {"BerWire",
       [](bool s) {
         return halo_cg_shape(s, [](LatticeRig& rig) {
           rig.m->mesh()
               .wire(NodeId{3}, torus::LinkIndex{0})
               .set_bit_error_rate(1e-5);
         });
       },
       false},
      {"PendingAckDrops",
       [](bool s) {
         return halo_cg_shape(s, [](LatticeRig& rig) {
           rig.m->scu(NodeId{5}).send_side(torus::LinkIndex{2}).drop_acks(4);
         });
       },
       false},
      {"PendingForcedCorruption",
       [](bool s) {
         return halo_cg_shape(s, [](LatticeRig& rig) {
           rig.m->scu(NodeId{9}).recv_side(torus::LinkIndex{1}).force_corrupt(
               2);
         });
       },
       false},
      {"HostFaultsInsideTheDrain",
       [](bool s) {
         std::unique_ptr<fault::FaultInjector> keep;
         return halo_cg_shape(s, [&keep](LatticeRig& rig) {
           const Cycle t = rig.m->engine().now();
           fault::FaultPlan plan;
           plan.ack_drop_burst(t + 20000, NodeId{1}, torus::LinkIndex{0}, 3)
               .data_corruption(t + 31003, NodeId{6}, torus::LinkIndex{3}, 1)
               .ber_spike(t + 45000, NodeId{12}, torus::LinkIndex{5}, 1e-4,
                          2000);
           keep = std::make_unique<fault::FaultInjector>(&rig.m->mesh());
           keep->arm(plan);
         });
       },
       false},
      {"Scrubbing",
       [](bool s) {
         return halo_cg_shape(s, [](LatticeRig& rig) {
           rig.m->start_memory_scrubbers();
         });
       },
       false},
  };
}

class VirtualPeriods : public ::testing::TestWithParam<Case> {};

TEST_P(VirtualPeriods, MatchesThePerWordPath) {
  const Case& c = GetParam();
  const Outcome fast = c.run(true);
  const Outcome oracle = c.run(false);
  expect_same(fast, oracle);
  // Only an injected undetected corruption may leave a checksum pair apart.
  EXPECT_EQ(oracle.checksums_match,
            std::string(c.name) != "HostFaultsInsideTheDrain");
  if (c.splices) {
    EXPECT_GT(fast.virtual_events, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, VirtualPeriods, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

// The fast path must keep engaging on the benchmark's shape: most keys of
// a halo-bound M apply are folded, not dispatched; the periods around the
// resend timeouts, the start and the tail run per word.
TEST(VirtualPeriodsGuard, MostHaloKeysAreVirtual) {
  const Outcome fast = halo_cg_shape(true);
  EXPECT_GE(fast.virtual_events * 100, fast.events * 80)
      << fast.virtual_events << " of " << fast.events << " events virtual";
}

// The splice runs at one engine thread only; more threads run every event
// and must land on the same results.
TEST(VirtualPeriodsGuard, ThreadCountsAgree) {
  const auto run = [](int threads) {
    LatticeRig rig(k16Nodes, k8To4, threads);
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    fill_gauge_by_global_site(*rig.geom, gauge, 0x5eed);
    WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                   WilsonParams{.kappa = 0.124});
    DistField in = op.make_field("in");
    DistField out = op.make_field("out");
    fill_by_global_site(*rig.geom, in);
    op.apply(out, in);
    return capture(rig.m->mesh(), fnv_of(out), rig.ops->norm2(out));
  };
  const Outcome one = run(1);
  EXPECT_GT(one.virtual_events, 0u);
  for (const int threads : {2, 4}) {
    Outcome many = run(threads);
    many.virtual_events = 0;
    expect_same(one, many);
  }
}

// Even-odd kernel: one parity's dslash moves half-size faces.
TEST(VirtualPeriodsOracle, EvenOddParityDslash) {
  const auto run = [](bool splice) {
    LatticeRig rig(k16Nodes, k8To4);
    rig.m->mesh().set_virtual_periods(splice);
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    fill_gauge_by_global_site(*rig.geom, gauge, 0x0dd);
    WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                   WilsonParams{.kappa = 0.124});
    DistField in = op.make_field("in");
    DistField out = op.make_field("out");
    fill_by_global_site(*rig.geom, in);
    op.dslash_parity(out, in, 0);
    op.dslash_parity(in, out, 1);
    return capture(rig.m->mesh(), fnv_of(in), rig.ops->norm2(in));
  };
  const Outcome fast = run(true);
  expect_same(fast, run(false));
  EXPECT_GT(fast.virtual_events, 0u);
}

struct Shift {
  bool send_first = false;  ///< start the sends well before the receives
  bool unequal = false;     ///< node i sends 4096 >> i words, not 4096
  int ack_window = 3;
};

/// Raw SCU traffic on a 4-node ring: node i sends 4096 words to node i+1
/// along dim 0 (block-strided), either with each receive posted first or
/// with the sends started -- and left blocked in idle receive -- well
/// before the receives.  Unequal lengths end the transfers one by one
/// while the others stream on.
Outcome run_shift(bool splice, Shift shift) {
  sim::ParallelEngine engine({.num_nodes = 4});
  net::MeshConfig cfg;
  cfg.shape.extent = {4, 1, 1, 1, 1, 1};
  cfg.scu.link.ack_window = shift.ack_window;
  cfg.virtual_periods = splice;
  net::MeshNet m(&engine, cfg);
  m.power_on();
  engine.run_until_idle();
  const int n = m.num_nodes();
  const bool unequal = shift.unequal;
  const torus::LinkIndex plus = torus::link_index(0, torus::Dir::kPlus);
  const auto words = [&](int i) -> u64 {
    return unequal ? u64{4096} >> ((i + n) % n) : 4096;
  };
  std::vector<scu::DmaDescriptor> sends;
  std::vector<scu::DmaDescriptor> recvs;
  for (int i = 0; i < n; ++i) {
    auto& mem = m.memory(NodeId{static_cast<u32>(i)});
    const memsys::Block src = mem.alloc(2 * words(i), "src");
    const memsys::Block dst = mem.alloc(2 * words(i - 1), "dst");
    for (u64 k = 0; k < 2 * words(i); ++k) {
      mem.write_word(src.word_addr + k,
                     (static_cast<u64>(i) << 40) ^ (k * 0x9e3779b97f4a7c15ull));
    }
    sends.push_back(scu::DmaDescriptor{
        src.word_addr, 8, static_cast<u32>(words(i) / 8), 16});
    recvs.push_back(scu::DmaDescriptor{
        dst.word_addr, 8, static_cast<u32>(words(i - 1) / 8), 16});
  }
  const auto start_sends = [&] {
    for (int i = 0; i < n; ++i) {
      m.scu(NodeId{static_cast<u32>(i)}).send_dma(plus).start(
          sends[static_cast<std::size_t>(i)]);
    }
  };
  const auto start_recvs = [&] {
    for (int i = 0; i < n; ++i) {
      m.scu(NodeId{static_cast<u32>(i)}).recv_dma(torus::facing_link(plus))
          .start(recvs[static_cast<std::size_t>(i)]);
    }
  };
  if (shift.send_first) {
    start_sends();
    engine.run_until(engine.now() + 3000);
    start_recvs();
  } else {
    start_recvs();
    start_sends();
  }
  EXPECT_TRUE(m.drain());
  u64 h = sim::detail::kFnvOffset;
  for (int i = 0; i < n; ++i) {
    const auto& mem = m.memory(NodeId{static_cast<u32>(i)});
    for (u64 k = 0; k < 2 * words(i - 1); ++k) {
      h = sim::detail::fnv1a(
          h, mem.read_word(recvs[static_cast<std::size_t>(i)].base_word + k));
    }
  }
  return capture(m, h, 0.0);
}

TEST(VirtualPeriodsOracle, OneDirectionShift) {
  const Outcome fast = run_shift(true, Shift{});
  expect_same(fast, run_shift(false, Shift{}));
  EXPECT_GT(fast.virtual_events, 0u);
}

// With a one-word window the stream waits on every ACK's round trip, not
// on the serializer, so it never repeats on the period drain() tries, and
// every event runs.
TEST(VirtualPeriodsOracle, OneWordWindowRunsPerWord) {
  const Shift shift{.ack_window = 1};
  const Outcome fast = run_shift(true, shift);
  expect_same(fast, run_shift(false, shift));
  EXPECT_EQ(fast.virtual_events, 0u);
}

// Each transfer that ends changes the set of streaming links, and with it
// the period, while the others stream on.
TEST(VirtualPeriodsOracle, TransfersEndOneByOne) {
  const Shift shift{.unequal = true};
  const Outcome fast = run_shift(true, shift);
  expect_same(fast, run_shift(false, shift));
  EXPECT_GT(fast.virtual_events, 0u);
}

TEST(VirtualPeriodsOracle, SendPostedBeforeItsReceive) {
  const Shift shift{.send_first = true};
  const Outcome fast = run_shift(true, shift);
  expect_same(fast, run_shift(false, shift));
  EXPECT_GT(fast.virtual_events, 0u);
}

}  // namespace
}  // namespace qcdoc::lattice
