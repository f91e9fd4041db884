// The assembled mesh: every node's SCU wired to its 12 neighbours through
// bit-serial HSSL links over the 6-D torus (paper Figure 2, red network).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hssl/hssl.h"
#include "memsys/memsys.h"
#include "memsys/scrub.h"
#include "scu/partition_interrupt.h"
#include "scu/scu.h"
#include "sim/engine.h"
#include "sim/parallel_engine.h"
#include "torus/coords.h"

namespace qcdoc::net {

/// Physical condition of one node's ASIC, as set by fault injection and read
/// back (indirectly) by the host's health sweeps.  A hung node stops making
/// forward progress but its SCU hardware still acknowledges; a crashed node
/// is electrically gone -- all its outgoing wires are dead.
enum class NodeCondition {
  kOk,
  kHung,
  kCrashed,
};

const char* to_string(NodeCondition c);

/// One directed link endpoint: `node`'s outgoing wire on `link`.
struct LinkRef {
  NodeId node;
  torus::LinkIndex link;
};

struct MeshConfig {
  torus::Shape shape;
  hssl::HsslConfig hssl;
  scu::ScuConfig scu;
  memsys::MemConfig mem;
  u64 seed = 0x9c0dull;
  /// Partition-interrupt transmit window (a multiple of the ~40 MHz global
  /// clock period, long enough for a flood to cross the machine).
  Cycle pirq_window_cycles = 1 << 14;
  /// Let drain() splice verified steady-state periods of a halo transfer
  /// instead of dispatching their events (net/virtual_periods.cpp).  Every
  /// result, the order digest included, is the same either way; off runs
  /// every event, the oracle the splice is tested against.
  bool virtual_periods = true;
};

class MeshNet {
 public:
  MeshNet(sim::Engine* engine, MeshConfig cfg);
  /// Untags this mesh's AFFSAN regions (no-op without QCDOC_AFFSAN), so a
  /// later mesh reusing the same heap addresses starts untainted.
  ~MeshNet();

  const torus::Torus& topology() const { return topology_; }
  int num_nodes() const { return topology_.num_nodes(); }
  sim::Engine& engine() { return *engine_; }
  const MeshConfig& config() const { return cfg_; }
  /// Switch MeshConfig::virtual_periods on a built mesh.
  void set_virtual_periods(bool on) { cfg_.virtual_periods = on; }

  scu::Scu& scu(NodeId n) { return *scus_[n.value]; }
  memsys::NodeMemory& memory(NodeId n) { return *memories_[n.value]; }
  sim::StatSet& stats(NodeId n) { return *stats_[n.value]; }
  hssl::Hssl& wire(NodeId from, torus::LinkIndex l);

  /// Power on every HSSL; links train and then exchange idle bytes.
  void power_on();
  [[nodiscard]] bool all_trained() const;
  /// Every outgoing wire that is not currently in the trained state.
  std::vector<LinkRef> untrained_links() const;
  /// Every outgoing link whose send side has declared a fault.
  std::vector<LinkRef> faulted_links() const;

  /// Node condition (fault-injection state; kOk unless a fault was applied).
  NodeCondition condition(NodeId n) const {
    return conditions_[n.value];
  }
  void set_condition(NodeId n, NodeCondition c) { conditions_[n.value] = c; }

  /// Machine-wide partition-interrupt domain (flooding over all mesh links).
  scu::PirqDomain& pirq() { return *pirq_; }

  /// Compare the send/receive checksums of every directed link; the paper's
  /// end-of-calculation confirmation that no erroneous data was exchanged.
  [[nodiscard]] bool verify_link_checksums(
      std::vector<std::string>* mismatches = nullptr) const;

  /// Sum a named statistic across all nodes.
  u64 total_stat(const std::string& name) const;

  /// Start a background ECC scrubber on every node (idempotent; the config
  /// of the first call wins).  Off by default: an unscrubbed machine
  /// schedules no scrub events, keeping fault-free traces -- including the
  /// committed golden trace -- bit-identical.
  void start_scrubbing(memsys::ScrubConfig cfg = memsys::ScrubConfig{});
  [[nodiscard]] bool scrubbing() const { return !scrubbers_.empty(); }
  memsys::MemScrubber& scrubber(NodeId n) { return *scrubbers_[n.value]; }

  /// ECC counters summed over every node (corrected errors, machine
  /// checks, scrub effort) for health reports and benches.
  memsys::EccCounters total_ecc() const;

  /// True when no data transfer is in progress anywhere in the machine
  /// (O(1): the DMA engines maintain a shared in-flight counter).
  [[nodiscard]] bool quiescent() const {
    return active_transfers_.value() == 0;
  }
  /// Exhaustive per-link check (used by tests to validate the counter).
  [[nodiscard]] bool quiescent_slow() const;

  /// Run the event engine until the mesh is quiescent.  Returns false (and
  /// stops) if the event queue empties while transfers are still pending --
  /// the signature of a stalled link, which on the real machine blocks the
  /// whole self-synchronizing calculation.
  [[nodiscard]] bool drain();

 private:
  // Virtual periods, implemented in virtual_periods.cpp.
  struct Boundary;
  struct Period {
    std::vector<u64> sig;    ///< relative state the period starts (and ends) in
    std::vector<u64> delta;  ///< growth of every lifetime counter per period
    std::vector<u64> words;  ///< words per period on each directed link
    sim::PeriodTemplate keys;
  };
  /// The engine, when it can splice: one shard, switch on, no scrubbers.
  sim::ParallelEngine* splice_engine() const;
  Cycle splice_period() const;
  bool take_boundary(Cycle at, Cycle period, const Boundary* prev,
                     Boundary& out) const;
  void learn_period(const Boundary& prev, const Boundary& cur,
                    const std::vector<std::vector<sim::EventKey>>& keys);
  u64 splice_bound(const Boundary& at) const;
  void splice(sim::ParallelEngine& pe, const Boundary& at, u64 n);
  bool drain_periodic(sim::ParallelEngine& pe);

  sim::Engine* engine_;
  MeshConfig cfg_;
  torus::Torus topology_;
  std::vector<std::unique_ptr<memsys::NodeMemory>> memories_;
  std::vector<std::unique_ptr<sim::StatSet>> stats_;
  std::vector<std::unique_ptr<scu::Scu>> scus_;
  // wires_[node * kLinksPerNode + link]: the outgoing serial wire.
  std::vector<std::unique_ptr<hssl::Hssl>> wires_;
  std::unique_ptr<scu::PirqDomain> pirq_;
  std::vector<std::unique_ptr<memsys::MemScrubber>> scrubbers_;
  std::vector<NodeCondition> conditions_;
  scu::ActiveCounter active_transfers_;
  bool powered_ = false;
  Period period_;  ///< last verified period; empty keys until one is seen
};

}  // namespace qcdoc::net
