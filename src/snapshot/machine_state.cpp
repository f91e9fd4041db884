#include "snapshot/machine_state.h"

#include <array>
#include <string>

#include "memsys/scrub.h"
#include "torus/coords.h"

namespace qcdoc::snapshot {

namespace {

using machine::Machine;

// Section payload versions.  Bump a section's version (and teach its decoder
// both) when its layout changes without a whole-format bump.
constexpr u32 kMetaVersion = 1;
constexpr u32 kEngineVersion = 1;
constexpr u32 kMemoryVersion = 1;
constexpr u32 kEccVersion = 1;
constexpr u32 kScuVersion = 1;
constexpr u32 kHealthVersion = 1;
constexpr u32 kAuditVersion = 1;
constexpr u32 kServiceVersion = 1;
constexpr u32 kLinkFaultVersion = 1;

Status check_version(const Section* s, u32 want) {
  if (s->version != want) {
    return Status::fail("section " + s->tag + " version skew: file has v" +
                        std::to_string(s->version) + ", reader expects v" +
                        std::to_string(want));
  }
  return Status::good();
}

void put_rng(ByteSink& sink, const Rng::State& st) {
  for (const u64 w : st.s) sink.put_u64(w);
  sink.put_bool(st.have_spare);
  sink.put_u64(st.spare_bits);
}

Status get_rng(ByteSource& src, Rng::State* st) {
  for (u64& w : st->s) {
    if (Status s = src.get_u64(&w); !s) return s;
  }
  if (Status s = src.get_bool(&st->have_spare); !s) return s;
  return src.get_u64(&st->spare_bits);
}

// --- META -------------------------------------------------------------------

void encode_meta(Machine& m, ByteSink& sink) {
  const machine::MachineConfig& cfg = m.config();
  for (const int e : cfg.shape.extent) sink.put_u32(static_cast<u32>(e));
  sink.put_double(cfg.clock_hz);
  sink.put_double(cfg.bit_error_rate);
  sink.put_u64(cfg.seed);
  sink.put_u64(cfg.mem.edram_words);
  sink.put_u64(cfg.mem.ddr_words);
  sink.put_u64(cfg.mem.ecc.edram_row_words);
  sink.put_u64(cfg.mem.ecc.ddr_burst_words);
  const bool scrubbing = m.mesh().scrubbing();
  sink.put_bool(scrubbing);
  memsys::ScrubConfig scfg;
  if (scrubbing) scfg = m.mesh().scrubber(NodeId{0}).config();
  sink.put_u64(scfg.period_cycles);
  sink.put_u64(scfg.rows_per_period);
  sink.put_u64(scfg.cycles_per_row);
}

Status restore_meta(Machine& m, ByteSource& src, bool* scrubbing,
                    memsys::ScrubConfig* scfg) {
  const machine::MachineConfig& cfg = m.config();
  for (int d = 0; d < torus::kMaxDims; ++d) {
    u32 extent = 0;
    if (Status s = src.get_u32(&extent); !s) return s;
    if (static_cast<int>(extent) != cfg.shape.extent[static_cast<size_t>(d)]) {
      return Status::fail(
          "geometry mismatch: snapshot mesh " + std::to_string(extent) +
          " in dim " + std::to_string(d) + ", machine has " +
          std::to_string(cfg.shape.extent[static_cast<size_t>(d)]));
    }
  }
  double clock_hz = 0, ber = 0;
  u64 seed = 0, edram = 0, ddr = 0, row = 0, burst = 0;
  if (Status s = src.get_double(&clock_hz); !s) return s;
  if (Status s = src.get_double(&ber); !s) return s;
  if (Status s = src.get_u64(&seed); !s) return s;
  if (Status s = src.get_u64(&edram); !s) return s;
  if (Status s = src.get_u64(&ddr); !s) return s;
  if (Status s = src.get_u64(&row); !s) return s;
  if (Status s = src.get_u64(&burst); !s) return s;
  if (clock_hz != cfg.clock_hz || ber != cfg.bit_error_rate) {
    return Status::fail("config mismatch: snapshot clock/BER differ");
  }
  if (seed != cfg.seed) {
    return Status::fail("seed mismatch: snapshot has " + std::to_string(seed) +
                        ", machine has " + std::to_string(cfg.seed) +
                        " (RNG streams would diverge)");
  }
  if (edram != cfg.mem.edram_words || ddr != cfg.mem.ddr_words ||
      row != cfg.mem.ecc.edram_row_words ||
      burst != cfg.mem.ecc.ddr_burst_words) {
    return Status::fail("memory geometry mismatch (EDRAM/DDR/ECC sizes)");
  }
  if (Status s = src.get_bool(scrubbing); !s) return s;
  if (Status s = src.get_u64(&scfg->period_cycles); !s) return s;
  if (Status s = src.get_u64(&scfg->rows_per_period); !s) return s;
  if (Status s = src.get_u64(&scfg->cycles_per_row); !s) return s;
  return src.expect_exhausted();
}

// --- ENGINE -----------------------------------------------------------------

void encode_engine(Machine& m, ByteSink& sink) {
  const sim::EngineClockState st = m.engine().capture_clock();
  sink.put_u64(st.now);
  sink.put_u64(st.events_executed);
  sink.put_u64(st.streams.size());
  for (const sim::EngineStreamState& s : st.streams) {
    sink.put_u32(s.rank);
    sink.put_u64(s.scheduled);
    sink.put_u64(s.executed);
    sink.put_u64(s.digest);
  }
}

Status restore_engine(Machine& m, ByteSource& src) {
  sim::EngineClockState st;
  u64 n = 0;
  if (Status s = src.get_u64(&st.now); !s) return s;
  if (Status s = src.get_u64(&st.events_executed); !s) return s;
  if (Status s = src.get_u64(&n); !s) return s;
  for (u64 i = 0; i < n; ++i) {
    sim::EngineStreamState e;
    if (Status s = src.get_u32(&e.rank); !s) return s;
    if (Status s = src.get_u64(&e.scheduled); !s) return s;
    if (Status s = src.get_u64(&e.executed); !s) return s;
    if (Status s = src.get_u64(&e.digest); !s) return s;
    st.streams.push_back(e);
  }
  if (Status s = src.expect_exhausted(); !s) return s;
  try {
    m.engine().restore_clock(st);
  } catch (const std::logic_error& e) {
    return Status::fail(std::string("engine restore: ") + e.what());
  }
  return Status::good();
}

// --- MEMORY -----------------------------------------------------------------

void encode_memory(Machine& m, ByteSink& sink) {
  const int n = m.num_nodes();
  sink.put_u32(static_cast<u32>(n));
  for (int i = 0; i < n; ++i) {
    const NodeId node{static_cast<u32>(i)};
    sink.put_u8(static_cast<u8>(m.mesh().condition(node)));
    const auto chunks = m.memory(node).chunks();
    sink.put_u64(chunks.size());
    for (const memsys::NodeMemory::ChunkView& c : chunks) {
      sink.put_u64(c.base);
      sink.put_u64_span(c.words);
    }
  }
}

Status restore_memory(Machine& m, ByteSource& src) {
  u32 n = 0;
  if (Status s = src.get_u32(&n); !s) return s;
  if (static_cast<int>(n) != m.num_nodes()) {
    return Status::fail("node count mismatch: snapshot has " +
                        std::to_string(n) + ", machine has " +
                        std::to_string(m.num_nodes()));
  }
  for (u32 i = 0; i < n; ++i) {
    const NodeId node{i};
    u8 condition = 0;
    if (Status s = src.get_u8(&condition); !s) return s;
    m.mesh().set_condition(node,
                           static_cast<net::NodeCondition>(condition));
    u64 chunk_count = 0;
    if (Status s = src.get_u64(&chunk_count); !s) return s;
    if (chunk_count != m.memory(node).chunks().size()) {
      return Status::fail(
          "allocation layout mismatch on node " + std::to_string(i) +
          ": snapshot has " + std::to_string(chunk_count) +
          " allocations, replayed machine has " +
          std::to_string(m.memory(node).chunks().size()) +
          " (the restoring process must replay the identical allocation "
          "sequence before restoring)");
    }
    for (u64 c = 0; c < chunk_count; ++c) {
      u64 base = 0;
      std::vector<u64> words;
      if (Status s = src.get_u64(&base); !s) return s;
      if (Status s = src.get_u64_vec(&words); !s) return s;
      if (!m.memory(node).restore_chunk(base, words)) {
        return Status::fail("allocation layout mismatch on node " +
                            std::to_string(i) + " at word address " +
                            std::to_string(base));
      }
    }
  }
  return src.expect_exhausted();
}

// --- ECC --------------------------------------------------------------------

void encode_ecc(Machine& m, ByteSink& sink) {
  const int n = m.num_nodes();
  sink.put_u32(static_cast<u32>(n));
  for (int i = 0; i < n; ++i) {
    const memsys::EccState st =
        m.memory(NodeId{static_cast<u32>(i)}).ecc().capture_state();
    sink.put_u64(st.counters.upsets);
    sink.put_u64(st.counters.corrected);
    sink.put_u64(st.counters.uncorrectable);
    sink.put_u64(st.counters.cleared_by_rewrite);
    sink.put_u64(st.counters.scrub_rows);
    sink.put_u64(st.counters.scrub_cycles);
    sink.put_u64(st.codewords.size());
    for (const memsys::EccState::CodewordState& cw : st.codewords) {
      sink.put_u64(cw.key);
      sink.put_bool(cw.poisoned);
      sink.put_u64(cw.flips.size());
      for (const memsys::EccState::FlipState& f : cw.flips) {
        sink.put_u64(f.word_addr);
        sink.put_u32(static_cast<u32>(f.bit));
        sink.put_u64(f.corrupted_value);
        sink.put_bool(f.applied);
      }
    }
    sink.put_u64(st.latched.size());
    for (const memsys::MemCheckEvent& e : st.latched) {
      sink.put_u64(e.word_addr);
      sink.put_u8(static_cast<u8>(e.region));
    }
    sink.put_u64(st.scrub_cursor);
  }
}

Status restore_ecc(Machine& m, ByteSource& src) {
  u32 n = 0;
  if (Status s = src.get_u32(&n); !s) return s;
  if (static_cast<int>(n) != m.num_nodes()) {
    return Status::fail("ECC section node count mismatch");
  }
  for (u32 i = 0; i < n; ++i) {
    memsys::EccState st;
    if (Status s = src.get_u64(&st.counters.upsets); !s) return s;
    if (Status s = src.get_u64(&st.counters.corrected); !s) return s;
    if (Status s = src.get_u64(&st.counters.uncorrectable); !s) return s;
    if (Status s = src.get_u64(&st.counters.cleared_by_rewrite); !s) return s;
    if (Status s = src.get_u64(&st.counters.scrub_rows); !s) return s;
    if (Status s = src.get_u64(&st.counters.scrub_cycles); !s) return s;
    u64 cw_count = 0;
    if (Status s = src.get_u64(&cw_count); !s) return s;
    for (u64 c = 0; c < cw_count; ++c) {
      memsys::EccState::CodewordState cw;
      if (Status s = src.get_u64(&cw.key); !s) return s;
      if (Status s = src.get_bool(&cw.poisoned); !s) return s;
      u64 flip_count = 0;
      if (Status s = src.get_u64(&flip_count); !s) return s;
      for (u64 f = 0; f < flip_count; ++f) {
        memsys::EccState::FlipState fl;
        u32 bit = 0;
        if (Status s = src.get_u64(&fl.word_addr); !s) return s;
        if (Status s = src.get_u32(&bit); !s) return s;
        fl.bit = static_cast<int>(bit);
        if (Status s = src.get_u64(&fl.corrupted_value); !s) return s;
        if (Status s = src.get_bool(&fl.applied); !s) return s;
        cw.flips.push_back(fl);
      }
      st.codewords.push_back(std::move(cw));
    }
    u64 latched_count = 0;
    if (Status s = src.get_u64(&latched_count); !s) return s;
    for (u64 l = 0; l < latched_count; ++l) {
      memsys::MemCheckEvent e;
      u8 region = 0;
      if (Status s = src.get_u64(&e.word_addr); !s) return s;
      if (Status s = src.get_u8(&region); !s) return s;
      e.region = static_cast<memsys::Region>(region);
      st.latched.push_back(e);
    }
    if (Status s = src.get_u64(&st.scrub_cursor); !s) return s;
    m.memory(NodeId{i}).ecc().restore_state(st);
  }
  return src.expect_exhausted();
}

// --- SCU --------------------------------------------------------------------

void encode_scu(Machine& m, ByteSink& sink) {
  const int n = m.num_nodes();
  sink.put_u32(static_cast<u32>(n));
  for (int i = 0; i < n; ++i) {
    scu::Scu& scu = m.scu(NodeId{static_cast<u32>(i)});
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      const torus::LinkIndex link{l};
      sink.put_bool(scu.has_link(link));
      if (!scu.has_link(link)) continue;
      scu::SendSide& send = scu.send_side(link);
      sink.put_u64(send.checksum());
      sink.put_u64(send.words_accepted());
      sink.put_u64(send.resends());
      scu::RecvSide& recv = scu.recv_side(link);
      sink.put_u64(recv.checksum());
      sink.put_u64(recv.words_received());
      sink.put_u64(recv.detected_errors());
      sink.put_u64(recv.undetected_errors());
      put_rng(sink, recv.corruption_rng().state());
    }
  }
}

Status restore_scu(Machine& m, ByteSource& src) {
  u32 n = 0;
  if (Status s = src.get_u32(&n); !s) return s;
  if (static_cast<int>(n) != m.num_nodes()) {
    return Status::fail("SCU section node count mismatch");
  }
  for (u32 i = 0; i < n; ++i) {
    scu::Scu& scu = m.scu(NodeId{i});
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      const torus::LinkIndex link{l};
      bool has = false;
      if (Status s = src.get_bool(&has); !s) return s;
      if (has != scu.has_link(link)) {
        return Status::fail("link topology mismatch on node " +
                            std::to_string(i) + " link " + std::to_string(l));
      }
      if (!has) continue;
      u64 send_ck = 0, send_words = 0, resends = 0;
      if (Status s = src.get_u64(&send_ck); !s) return s;
      if (Status s = src.get_u64(&send_words); !s) return s;
      if (Status s = src.get_u64(&resends); !s) return s;
      scu.send_side(link).restore_integrity(send_ck, send_words, resends);
      u64 recv_ck = 0, recv_words = 0, detected = 0, undetected = 0;
      if (Status s = src.get_u64(&recv_ck); !s) return s;
      if (Status s = src.get_u64(&recv_words); !s) return s;
      if (Status s = src.get_u64(&detected); !s) return s;
      if (Status s = src.get_u64(&undetected); !s) return s;
      scu::RecvSide& recv = scu.recv_side(link);
      recv.restore_integrity(recv_ck, recv_words, detected, undetected);
      Rng::State rng;
      if (Status s = get_rng(src, &rng); !s) return s;
      recv.corruption_rng().set_state(rng);
    }
  }
  return src.expect_exhausted();
}

// --- LINKFLT: link-fault injections still armed -----------------------------
// Ack drops and forced corruptions not yet applied, per link.  Sparse, and
// written only when there are any, so fault-free snapshots are unchanged.

bool encode_link_faults(Machine& m, ByteSink& sink) {
  std::vector<std::array<u32, 4>> armed;  // node, link, ack drops, corruptions
  for (int i = 0; i < m.num_nodes(); ++i) {
    scu::Scu& scu = m.scu(NodeId{static_cast<u32>(i)});
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      const torus::LinkIndex link{l};
      if (!scu.has_link(link)) continue;
      const int drops = scu.send_side(link).pending_ack_drops();
      const int corrupt = scu.recv_side(link).pending_forced_corruptions();
      if (drops == 0 && corrupt == 0) continue;
      armed.push_back({static_cast<u32>(i), static_cast<u32>(l),
                       static_cast<u32>(drops), static_cast<u32>(corrupt)});
    }
  }
  if (armed.empty()) return false;
  sink.put_u64(armed.size());
  for (const auto& row : armed) {
    for (const u32 v : row) sink.put_u32(v);
  }
  return true;
}

void clear_link_faults(Machine& m) {
  for (int i = 0; i < m.num_nodes(); ++i) {
    scu::Scu& scu = m.scu(NodeId{static_cast<u32>(i)});
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      const torus::LinkIndex link{l};
      if (!scu.has_link(link)) continue;
      scu.send_side(link).restore_ack_drops(0);
      scu.recv_side(link).restore_forced_corruptions(0);
    }
  }
}

Status restore_link_faults(Machine& m, ByteSource& src) {
  u64 count = 0;
  if (Status s = src.get_u64(&count); !s) return s;
  for (u64 k = 0; k < count; ++k) {
    std::array<u32, 4> row{};
    for (u32& v : row) {
      if (Status s = src.get_u32(&v); !s) return s;
    }
    const auto [node, l, drops, corrupt] = row;
    if (node >= static_cast<u32>(m.num_nodes()) ||
        l >= static_cast<u32>(torus::kLinksPerNode) ||
        !m.scu(NodeId{node}).has_link(torus::LinkIndex{static_cast<int>(l)}) ||
        drops > 0x7fffffffu || corrupt > 0x7fffffffu) {
      return Status::fail("link-fault section names no such link or count");
    }
    scu::Scu& scu = m.scu(NodeId{node});
    const torus::LinkIndex link{static_cast<int>(l)};
    scu.send_side(link).restore_ack_drops(static_cast<int>(drops));
    scu.recv_side(link).restore_forced_corruptions(static_cast<int>(corrupt));
  }
  return src.expect_exhausted();
}

// --- HEALTH -----------------------------------------------------------------

void encode_health(host::HealthMonitor& health, ByteSink& sink) {
  const host::HealthMonitor::State st = health.capture_state();
  sink.put_u64(st.health.size());
  for (const u8 h : st.health) sink.put_u8(h);
  sink.put_u64_span(st.resend_base);
  sink.put_u64_span(st.recv_err_base);
  sink.put_u64_span(st.mem_corrected_base);
  sink.put_u64(st.sweeps);
}

Status restore_health(host::HealthMonitor& health, ByteSource& src) {
  host::HealthMonitor::State st;
  u64 n = 0;
  if (Status s = src.get_u64(&n); !s) return s;
  for (u64 i = 0; i < n; ++i) {
    u8 h = 0;
    if (Status s = src.get_u8(&h); !s) return s;
    st.health.push_back(h);
  }
  if (Status s = src.get_u64_vec(&st.resend_base); !s) return s;
  if (Status s = src.get_u64_vec(&st.recv_err_base); !s) return s;
  if (Status s = src.get_u64_vec(&st.mem_corrected_base); !s) return s;
  if (Status s = src.get_u64(&st.sweeps); !s) return s;
  if (Status s = src.expect_exhausted(); !s) return s;
  if (!health.restore_state(st)) {
    return Status::fail("health section does not match machine geometry");
  }
  return Status::good();
}

// --- AUDIT ------------------------------------------------------------------

void encode_audit(const MachineExtras& extras, ByteSink& sink) {
  sink.put_bool(extras.auditor != nullptr);
  if (extras.auditor != nullptr) {
    sink.put_u64(extras.auditor->audits());
    sink.put_u64(extras.auditor->failures());
  }
  sink.put_bool(extras.mem_auditor != nullptr);
  if (extras.mem_auditor != nullptr) {
    sink.put_u64(extras.mem_auditor->audits());
    sink.put_u64(extras.mem_auditor->failures());
    sink.put_u64(extras.mem_auditor->machine_checks());
  }
}

Status restore_audit(const MachineExtras& extras, ByteSource& src) {
  bool has = false;
  if (Status s = src.get_bool(&has); !s) return s;
  if (has) {
    u64 audits = 0, failures = 0;
    if (Status s = src.get_u64(&audits); !s) return s;
    if (Status s = src.get_u64(&failures); !s) return s;
    if (extras.auditor != nullptr) {
      extras.auditor->restore_counters(audits, failures);
      // The restored link checksums are this instant's baselines: the
      // snapshot was taken right after an audit re-baselined.
      extras.auditor->rebaseline();
    }
  }
  if (Status s = src.get_bool(&has); !s) return s;
  if (has) {
    u64 audits = 0, failures = 0, checks = 0;
    if (Status s = src.get_u64(&audits); !s) return s;
    if (Status s = src.get_u64(&failures); !s) return s;
    if (Status s = src.get_u64(&checks); !s) return s;
    if (extras.mem_auditor != nullptr) {
      extras.mem_auditor->restore_counters(audits, failures, checks);
    }
  }
  return src.expect_exhausted();
}

// --- SERVICE ----------------------------------------------------------------

void encode_service(const MachineExtras& extras, ByteSink& sink) {
  sink.put_bool(extras.injector != nullptr);
  if (extras.injector == nullptr) return;
  sink.put_u64(extras.injector->injected());
  const std::vector<fault::FaultEvent> plan = extras.injector->pending_plan();
  sink.put_u64(plan.size());
  for (const fault::FaultEvent& e : plan) {
    sink.put_u64(e.at);
    sink.put_u8(static_cast<u8>(e.kind));
    sink.put_u32(e.node.value);
    sink.put_u32(static_cast<u32>(e.link.value));
    sink.put_double(e.bit_error_rate);
    sink.put_u64(e.duration);
    sink.put_u32(static_cast<u32>(e.count));
    sink.put_u64(e.mem_addr);
    sink.put_u32(static_cast<u32>(e.mem_bit));
    sink.put_bool(e.mem_addr_is_index);
  }
}

Status restore_service(const MachineExtras& extras, ByteSource& src) {
  bool has = false;
  if (Status s = src.get_bool(&has); !s) return s;
  if (!has) return src.expect_exhausted();
  u64 injected = 0, count = 0;
  if (Status s = src.get_u64(&injected); !s) return s;
  if (Status s = src.get_u64(&count); !s) return s;
  std::vector<fault::FaultEvent> plan;
  for (u64 i = 0; i < count; ++i) {
    fault::FaultEvent e;
    u8 kind = 0;
    u32 node = 0, link = 0, evcount = 0, bit = 0;
    if (Status s = src.get_u64(&e.at); !s) return s;
    if (Status s = src.get_u8(&kind); !s) return s;
    e.kind = static_cast<fault::FaultKind>(kind);
    if (Status s = src.get_u32(&node); !s) return s;
    e.node = NodeId{node};
    if (Status s = src.get_u32(&link); !s) return s;
    e.link = torus::LinkIndex{static_cast<int>(link)};
    if (Status s = src.get_double(&e.bit_error_rate); !s) return s;
    if (Status s = src.get_u64(&e.duration); !s) return s;
    if (Status s = src.get_u32(&evcount); !s) return s;
    e.count = static_cast<int>(evcount);
    if (Status s = src.get_u64(&e.mem_addr); !s) return s;
    if (Status s = src.get_u32(&bit); !s) return s;
    e.mem_bit = static_cast<int>(bit);
    if (Status s = src.get_bool(&e.mem_addr_is_index); !s) return s;
    plan.push_back(e);
  }
  if (Status s = src.expect_exhausted(); !s) return s;
  if (extras.injector != nullptr) {
    extras.injector->restore_injected(injected);
    if (!plan.empty()) {
      extras.injector->arm(fault::FaultPlan::from_events(std::move(plan)));
    }
  } else if (!plan.empty()) {
    return Status::fail(
        "snapshot carries " + std::to_string(plan.size()) +
        " unfired fault events but no injector was supplied to re-arm them");
  }
  return Status::good();
}

}  // namespace

Status capture_machine(Machine& m, const MachineExtras& extras,
                       SnapshotFile* file) {
  if (!m.mesh().quiescent()) {
    return Status::fail(
        "capture requires a quiescent mesh (DMA transfers in flight)");
  }
  // Pending events must all be owned by re-armable services: the unfired
  // remainder of the injector's plan plus one standing burst per running
  // scrubber.  Anything else (in-flight protocol events, transient fault
  // restores) cannot be serialized and must drain first.
  std::size_t service_owned = 0;
  if (extras.injector != nullptr) service_owned += extras.injector->pending_count();
  if (m.mesh().scrubbing()) {
    service_owned += static_cast<std::size_t>(m.num_nodes());
  }
  const std::size_t pending = m.engine().pending_events();
  if (pending != service_owned) {
    return Status::fail(
        "capture requires a quiescent engine: " + std::to_string(pending) +
        " events pending, only " + std::to_string(service_owned) +
        " owned by re-armable services");
  }

  ByteSink meta, engine, memory, ecc, scu;
  encode_meta(m, meta);
  encode_engine(m, engine);
  encode_memory(m, memory);
  encode_ecc(m, ecc);
  encode_scu(m, scu);
  file->add_section(kSecMeta, std::move(meta), kMetaVersion);
  file->add_section(kSecEngine, std::move(engine), kEngineVersion);
  file->add_section(kSecMemory, std::move(memory), kMemoryVersion);
  file->add_section(kSecEcc, std::move(ecc), kEccVersion);
  file->add_section(kSecScu, std::move(scu), kScuVersion);
  if (ByteSink faults; encode_link_faults(m, faults)) {
    file->add_section(kSecLinkFaults, std::move(faults), kLinkFaultVersion,
                      kSectionOptional);
  }
  if (extras.health != nullptr) {
    ByteSink health;
    encode_health(*extras.health, health);
    file->add_section(kSecHealth, std::move(health), kHealthVersion,
                      kSectionOptional);
  }
  if (extras.auditor != nullptr || extras.mem_auditor != nullptr) {
    ByteSink audit;
    encode_audit(extras, audit);
    file->add_section(kSecAudit, std::move(audit), kAuditVersion,
                      kSectionOptional);
  }
  if (extras.injector != nullptr) {
    ByteSink service;
    encode_service(extras, service);
    file->add_section(kSecService, std::move(service), kServiceVersion,
                      kSectionOptional);
  }
  return Status::good();
}

Status restore_machine(Machine& m, const MachineExtras& extras,
                       const SnapshotFile& file) {
  if (m.engine().pending_events() != 0) {
    return Status::fail(
        "restore requires a freshly replayed machine with no pending events "
        "(start services only after the restore)");
  }

  std::optional<ByteSource> src;
  bool scrubbing = false;
  memsys::ScrubConfig scfg;
  if (Status s = file.open(kSecMeta, &src); !s) return s;
  if (Status s = check_version(file.find(kSecMeta), kMetaVersion); !s) return s;
  if (Status s = restore_meta(m, *src, &scrubbing, &scfg); !s) return s;

  // Memory first (layout verification fails before anything else mutates),
  // then ECC bookkeeping over the restored contents, then the clock.
  if (Status s = file.open(kSecMemory, &src); !s) return s;
  if (Status s = check_version(file.find(kSecMemory), kMemoryVersion); !s) {
    return s;
  }
  if (Status s = restore_memory(m, *src); !s) return s;

  if (Status s = file.open(kSecEcc, &src); !s) return s;
  if (Status s = check_version(file.find(kSecEcc), kEccVersion); !s) return s;
  if (Status s = restore_ecc(m, *src); !s) return s;

  if (Status s = file.open(kSecEngine, &src); !s) return s;
  if (Status s = check_version(file.find(kSecEngine), kEngineVersion); !s) {
    return s;
  }
  if (Status s = restore_engine(m, *src); !s) return s;

  if (Status s = file.open(kSecScu, &src); !s) return s;
  if (Status s = check_version(file.find(kSecScu), kScuVersion); !s) return s;
  if (Status s = restore_scu(m, *src); !s) return s;
  // A link has no armed fault unless the snapshot lists one.
  clear_link_faults(m);
  if (const Section* sec = file.find(kSecLinkFaults); sec != nullptr) {
    if (Status s = check_version(sec, kLinkFaultVersion); !s) return s;
    if (Status st = file.open(kSecLinkFaults, &src); !st) return st;
    if (Status st = restore_link_faults(m, *src); !st) return st;
  }

  if (const Section* sec = file.find(kSecHealth); sec != nullptr) {
    if (Status s = check_version(sec, kHealthVersion); !s) return s;
    if (extras.health != nullptr) {
      if (Status st = file.open(kSecHealth, &src); !st) return st;
      if (Status st = restore_health(*extras.health, *src); !st) return st;
    }
  }
  if (const Section* sec = file.find(kSecAudit); sec != nullptr) {
    if (Status s = check_version(sec, kAuditVersion); !s) return s;
    if (Status st = file.open(kSecAudit, &src); !st) return st;
    if (Status st = restore_audit(extras, *src); !st) return st;
  }

  // Services last: re-armed events are scheduled against the restored clock.
  if (const Section* sec = file.find(kSecService); sec != nullptr) {
    if (Status s = check_version(sec, kServiceVersion); !s) return s;
    if (Status st = file.open(kSecService, &src); !st) return st;
    if (Status st = restore_service(extras, *src); !st) return st;
  }
  if (scrubbing && !m.mesh().scrubbing()) {
    m.start_memory_scrubbers(scfg);
  }
  return Status::good();
}

}  // namespace qcdoc::snapshot
