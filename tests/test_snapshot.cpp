// Tier-1 tests for the snapshot subsystem: byte codec, container format
// diagnostics, the atomic generation store (including a forked child that
// SIGKILLs itself mid-write), whole-machine capture/restore, and a small
// end-to-end crash-resume of an audited CG solve.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lattice/mixed.h"
#include "snapshot_rig.h"

namespace qcdoc::snapshot {
namespace {

using testing::SolveOutcome;
using testing::SolveScenario;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "qcdoc_snap_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- solver section codec ------------------------------------------------

/// A checkpoint with a distinct value in every field.
lattice::MixedCgCheckpoint sample_checkpoint() {
  lattice::MixedCgCheckpoint ck;
  ck.outer = 3;
  ck.iterations = 41;
  ck.rsq = 1.25e-9;
  ck.rhs_norm2 = -0.1;
  ck.restarts = 2;
  ck.audits = 9;
  ck.audit_failures = 1;
  ck.mem_checks = 5;
  return ck;
}

/// `ck` through the codec of `Checkpoint`: sample_checkpoint() encodes as
/// a plain CG section with Checkpoint = lattice::CgCheckpoint.
template <class Checkpoint>
std::vector<u8> encoded(const Checkpoint& ck) {
  ByteSink sink;
  ck.encode(&sink);
  return sink.take();
}

/// A file whose solver section carries exactly `payload`.
SnapshotFile solver_file(std::span<const u8> payload) {
  SnapshotFile file;
  ByteSink sink;
  sink.put_raw(payload);
  file.add_section(kSecSolver, std::move(sink));
  return file;
}

// --- bytes ---------------------------------------------------------------

TEST(SnapshotBytes, RoundTripsEveryType) {
  ByteSink sink;
  sink.put_u8(0xab);
  sink.put_u16(0xbeef);
  sink.put_u32(0xdeadbeef);
  sink.put_u64(0x0123456789abcdefull);
  sink.put_i64(-42);
  sink.put_double(-0.1);
  sink.put_bool(true);
  sink.put_string("hello");
  const std::vector<u64> words = {1, 2, 3};
  sink.put_u64_span(words);
  const std::vector<double> vals = {0.5, -2.25};
  sink.put_double_span(vals);

  const std::vector<u8> bytes = sink.take();
  ByteSource src(bytes, "test");
  u8 a = 0;
  u16 b = 0;
  u32 c = 0;
  u64 d = 0;
  i64 e = 0;
  double f = 0;
  bool g = false;
  std::string s;
  std::vector<u64> w;
  std::vector<double> v;
  EXPECT_TRUE(src.get_u8(&a).ok);
  EXPECT_TRUE(src.get_u16(&b).ok);
  EXPECT_TRUE(src.get_u32(&c).ok);
  EXPECT_TRUE(src.get_u64(&d).ok);
  EXPECT_TRUE(src.get_i64(&e).ok);
  EXPECT_TRUE(src.get_double(&f).ok);
  EXPECT_TRUE(src.get_bool(&g).ok);
  EXPECT_TRUE(src.get_string(&s).ok);
  EXPECT_TRUE(src.get_u64_vec(&w).ok);
  EXPECT_TRUE(src.get_double_vec(&v).ok);
  EXPECT_TRUE(src.expect_exhausted().ok);
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0xbeef);
  EXPECT_EQ(c, 0xdeadbeefu);
  EXPECT_EQ(d, 0x0123456789abcdefull);
  EXPECT_EQ(e, -42);
  EXPECT_EQ(f, -0.1);
  EXPECT_TRUE(g);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(w, words);
  EXPECT_EQ(v, vals);
}

TEST(SnapshotBytes, TruncationIsADiagnosticNotUb) {
  ByteSink sink;
  sink.put_u64(7);
  std::vector<u8> bytes = sink.take();
  bytes.resize(3);  // torn mid-integer
  ByteSource src(bytes, "ENGINE");
  u64 v = 0;
  const Status s = src.get_u64(&v);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.reason.find("ENGINE"), std::string::npos) << s.reason;

  // The solver checkpoint codecs: a section torn anywhere, down to empty,
  // fails with a reason naming the section and leaves the output alone.
  const std::vector<u8> cg = encoded<lattice::CgCheckpoint>(sample_checkpoint());
  const std::vector<u8> mixed = encoded(sample_checkpoint());
  for (std::size_t keep = 0; keep < cg.size(); ++keep) {
    lattice::CgCheckpoint out;
    out.iterations = -7;
    const Status st = lattice::CgCheckpoint::decode(
        solver_file(std::span(cg).first(keep)), &out);
    EXPECT_FALSE(st.ok) << keep;
    EXPECT_NE(st.reason.find("SOLVER"), std::string::npos) << st.reason;
    EXPECT_EQ(out.iterations, -7);
  }
  for (std::size_t keep = 0; keep < mixed.size(); ++keep) {
    lattice::MixedCgCheckpoint out;
    const Status st = lattice::MixedCgCheckpoint::decode(
        solver_file(std::span(mixed).first(keep)), &out);
    EXPECT_FALSE(st.ok) << keep;
    EXPECT_EQ(out.outer, 0);
  }
}

TEST(SnapshotBytes, HostileVectorLengthIsRejected) {
  // A length prefix claiming ~2^61 elements must fail cleanly instead of
  // attempting the allocation.
  ByteSink sink;
  sink.put_u64(~u64{0} / 4);
  const std::vector<u8> bytes = sink.take();
  ByteSource src(bytes, "MEMORY");
  std::vector<u64> v;
  EXPECT_FALSE(src.get_u64_vec(&v).ok);
}

TEST(SnapshotBytes, TrailingGarbageIsCaught) {
  ByteSink sink;
  sink.put_u32(1);
  sink.put_u32(2);
  const std::vector<u8> bytes = sink.take();
  ByteSource src(bytes, "META");
  u32 v = 0;
  EXPECT_TRUE(src.get_u32(&v).ok);
  EXPECT_FALSE(src.expect_exhausted().ok);

  // A solver section with one byte too many is refused by both codecs.  A
  // mixed-CG section read as a plain CG one is exactly that case plus four
  // bytes: the leading `outer` word shifts every field.
  const std::vector<u8> mixed = encoded(sample_checkpoint());
  std::vector<u8> long_cg = encoded<lattice::CgCheckpoint>(sample_checkpoint());
  std::vector<u8> long_mixed = mixed;
  long_cg.push_back(0);
  long_mixed.push_back(0);
  lattice::CgCheckpoint out_cg;
  lattice::MixedCgCheckpoint out_mixed;
  EXPECT_FALSE(lattice::CgCheckpoint::decode(solver_file(long_cg), &out_cg).ok);
  EXPECT_FALSE(
      lattice::MixedCgCheckpoint::decode(solver_file(long_mixed), &out_mixed)
          .ok);
  EXPECT_FALSE(
      lattice::CgCheckpoint::decode(solver_file(mixed), &out_cg).ok);
}

/// The bytewise table CRC-32 the sliced one must reproduce.
u32 crc32_bytewise(std::span<const u8> bytes, u32 seed) {
  std::array<u32, 256> table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  u32 c = seed ^ 0xffffffffu;
  for (const u8 b : bytes) c = table[(c ^ b) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

TEST(SnapshotBytes, Crc32MatchesBytewiseOracle) {
  const std::string check = "123456789";
  const std::span<const u8> check_bytes(
      reinterpret_cast<const u8*>(check.data()), check.size());
  EXPECT_EQ(crc32(check_bytes), 0xCBF43926u);  // the CRC-32 check value
  EXPECT_EQ(crc32(std::span<const u8>{}), 0u);

  // Random lengths at every alignment, and seeded continuation, so every
  // split between the 8-byte loop and the byte tail is covered.
  Rng rng(2024);
  std::vector<u8> buf(4096 + 16);
  for (u8& b : buf) b = static_cast<u8>(rng.next_u64());
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t offset = rng.next_below(16);
    const std::size_t len =
        trial < 40 ? static_cast<std::size_t>(trial) : rng.next_below(4096);
    const std::span<const u8> s(buf.data() + offset, len);
    const u32 seed = trial % 2 == 0 ? 0u : static_cast<u32>(rng.next_u64());
    ASSERT_EQ(crc32(s, seed), crc32_bytewise(s, seed))
        << "offset " << offset << " length " << len;
    const std::size_t cut = len == 0 ? 0 : rng.next_below(len);
    EXPECT_EQ(crc32(s.subspan(cut), crc32(s.subspan(0, cut), seed)),
              crc32_bytewise(s, seed));
  }
}

// --- container format ----------------------------------------------------

SnapshotFile sample_file() {
  SnapshotFile file;
  file.set_generation(7);
  ByteSink a, b;
  a.put_u64(0x1111);
  b.put_string("payload two");
  file.add_section(kSecMeta, std::move(a));
  file.add_section(kSecEngine, std::move(b), /*version=*/3, kSectionOptional);
  return file;
}

void patch_u32(std::vector<u8>* bytes, std::size_t at, u32 v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[at + static_cast<std::size_t>(i)] = static_cast<u8>(v >> (8 * i));
  }
}

/// Re-seal a hand-mutated image: recompute header and whole-file CRCs so
/// only the deliberately skewed field differs.
void reseal(std::vector<u8>* bytes) {
  patch_u32(bytes, 36, crc32(std::span<const u8>(*bytes).subspan(0, 36)));
  patch_u32(bytes, bytes->size() - 4,
            crc32(std::span<const u8>(*bytes).subspan(0, bytes->size() - 4)));
}

TEST(SnapshotFormat, EncodeDecodeRoundTrip) {
  const SnapshotFile file = sample_file();
  const std::vector<u8> bytes = file.encode();

  SnapshotFile back;
  ASSERT_TRUE(SnapshotFile::decode(bytes, &back).ok);
  EXPECT_EQ(back.generation(), 7u);
  ASSERT_EQ(back.sections().size(), 2u);
  const Section* eng = back.find(kSecEngine);
  ASSERT_NE(eng, nullptr);
  EXPECT_EQ(eng->version, 3u);
  EXPECT_EQ(eng->flags, kSectionOptional);
  std::optional<ByteSource> src;
  ASSERT_TRUE(back.open(kSecEngine, &src).ok);
  std::string s;
  ASSERT_TRUE(src->get_string(&s).ok);
  EXPECT_EQ(s, "payload two");
  EXPECT_FALSE(back.open(kSecSolver, &src).ok);  // missing section
  lattice::CgCheckpoint ck;
  EXPECT_FALSE(lattice::CgCheckpoint::decode(back, &ck).ok);
}

TEST(SnapshotFormat, SolverSectionLayoutRoundTrips) {
  // u32 iterations, f64 rsq, f64 rhs_norm2, u32 restarts, u64 audits,
  // u64 audit_failures, u64 mem_checks; mixed CG prefixes u32 outer.
  const lattice::MixedCgCheckpoint ck = sample_checkpoint();
  const std::vector<u8> cg = encoded<lattice::CgCheckpoint>(ck);
  const std::vector<u8> mixed = encoded(ck);
  ASSERT_EQ(cg.size(), 48u);
  ASSERT_EQ(mixed.size(), 52u);
  EXPECT_TRUE(std::equal(cg.begin(), cg.end(), mixed.begin() + 4));
  ByteSource src(cg, "layout");
  u32 iterations = 0;
  double rsq = 0;
  ASSERT_TRUE(src.get_u32(&iterations).ok);
  ASSERT_TRUE(src.get_double(&rsq).ok);
  EXPECT_EQ(iterations, 41u);
  EXPECT_EQ(rsq, 1.25e-9);

  // Through the whole container, as the checkpoint hooks write it.
  SnapshotFile back;
  ASSERT_TRUE(SnapshotFile::decode(solver_file(mixed).encode(), &back).ok);
  lattice::MixedCgCheckpoint out;
  ASSERT_TRUE(lattice::MixedCgCheckpoint::decode(back, &out).ok);
  EXPECT_EQ(out.outer, ck.outer);
  EXPECT_EQ(out.iterations, ck.iterations);
  EXPECT_EQ(std::bit_cast<u64>(out.rsq), std::bit_cast<u64>(ck.rsq));
  EXPECT_EQ(std::bit_cast<u64>(out.rhs_norm2), std::bit_cast<u64>(ck.rhs_norm2));
  EXPECT_EQ(out.restarts, ck.restarts);
  EXPECT_EQ(out.audits, ck.audits);
  EXPECT_EQ(out.audit_failures, ck.audit_failures);
  EXPECT_EQ(out.mem_checks, ck.mem_checks);
}

TEST(SnapshotFormat, EveryCorruptionLayerHasItsOwnDiagnostic) {
  const std::vector<u8> good = sample_file().encode();
  SnapshotFile out;

  {  // not a snapshot
    std::vector<u8> bad = good;
    bad[0] = 'X';
    const Status s = SnapshotFile::decode(bad, &out);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("not a snapshot"), std::string::npos) << s.reason;
  }
  {  // corrupt header (crc mismatch)
    std::vector<u8> bad = good;
    bad[12] ^= 0x40;  // section count field; header crc now disagrees
    const Status s = SnapshotFile::decode(bad, &out);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("corrupt header"), std::string::npos) << s.reason;
  }
  {  // version skew: bump the version field, re-seal the CRCs
    std::vector<u8> bad = good;
    patch_u32(&bad, 8, kFormatVersion + 1);
    reseal(&bad);
    const Status s = SnapshotFile::decode(bad, &out);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("version skew"), std::string::npos) << s.reason;
  }
  {  // torn write: the file ends early
    std::vector<u8> bad = good;
    bad.resize(bad.size() - 9);
    const Status s = SnapshotFile::decode(bad, &out);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("torn write"), std::string::npos) << s.reason;
  }
  {  // corrupt section table
    std::vector<u8> bad = good;
    bad[40 + 3] ^= 0x01;  // a tag byte inside the table
    reseal(&bad);
    const Status s = SnapshotFile::decode(bad, &out);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("section table"), std::string::npos) << s.reason;
  }
  {  // corrupt one payload byte: section-level crc catches it, named
    std::vector<u8> bad = good;
    bad[bad.size() - 21] ^= 0x80;  // last payload byte (before footer)
    reseal(&bad);
    const Status s = SnapshotFile::decode(bad, &out);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("ENGINE"), std::string::npos) << s.reason;
    // verify() reports per-section GOOD/BAD without decoding payloads.
    u64 generation = 0;
    std::vector<std::string> notes;
    EXPECT_FALSE(SnapshotFile::verify(bad, &generation, &notes).ok);
    ASSERT_EQ(notes.size(), 2u);
    EXPECT_EQ(notes[0].substr(0, 4), "GOOD");
    EXPECT_EQ(notes[1].substr(0, 4), "BAD ");
  }
}

// --- generation store ----------------------------------------------------

TEST(SnapshotStore, GenerationsAdvanceAndPruneKeepsLastTwo) {
  const std::string dir = fresh_dir("store");
  SnapshotStore store(dir, "cg");
  EXPECT_EQ(store.latest_generation(), 0u);

  for (int i = 0; i < 4; ++i) {
    SnapshotFile f = sample_file();
    ASSERT_TRUE(store.save(&f).ok);
    EXPECT_EQ(f.generation(), static_cast<u64>(i + 1));
  }
  // Retention: only generations 3 and 4 remain on disk.
  const auto gens = store.list();
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0].generation, 3u);
  EXPECT_EQ(gens[1].generation, 4u);
  EXPECT_EQ(store.latest_generation(), 4u);

  SnapshotFile back;
  ASSERT_TRUE(store.load_latest(&back).ok);
  EXPECT_EQ(back.generation(), 4u);
}

TEST(SnapshotStore, CorruptNewestFallsBackToPreviousGeneration) {
  const std::string dir = fresh_dir("fallback");
  SnapshotStore store(dir, "cg");
  SnapshotFile f1 = sample_file();
  ASSERT_TRUE(store.save(&f1).ok);
  SnapshotFile f2 = sample_file();
  ASSERT_TRUE(store.save(&f2).ok);

  // Truncate generation 2 on disk: a torn write that somehow became
  // visible (e.g. media truncation after the rename).
  const auto gens = store.list();
  ASSERT_EQ(gens.size(), 2u);
  std::filesystem::resize_file(gens[1].path,
                               std::filesystem::file_size(gens[1].path) / 2);

  SnapshotFile back;
  std::vector<std::string> diags;
  ASSERT_TRUE(store.load_latest(&back, &diags).ok);
  EXPECT_EQ(back.generation(), 1u);
  bool mentioned_fallback = false;
  for (const auto& d : diags) {
    if (d.find("falling back") != std::string::npos) mentioned_fallback = true;
  }
  EXPECT_TRUE(mentioned_fallback);

  // With every generation corrupt, load fails with the reasons listed.
  std::filesystem::resize_file(gens[0].path, 10);
  diags.clear();
  EXPECT_FALSE(store.load_latest(&back, &diags).ok);
  EXPECT_GE(diags.size(), 2u);
}

TEST(SnapshotStore, KilledMidWriteLeavesPreviousGenerationIntact) {
  const std::string dir = fresh_dir("midwrite");
  {
    SnapshotStore store(dir, "cg");
    SnapshotFile f1 = sample_file();
    ASSERT_TRUE(store.save(&f1).ok);
  }
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: die after 30 bytes of the generation-2 temp file.  The store
    // must never rename a partial file into place.
    setenv("QCDOC_SNAPSHOT_KILL_AT_BYTE", "30", 1);
    SnapshotStore store(dir, "cg");
    SnapshotFile f2 = sample_file();
    const Status s = store.save(&f2);  // raises SIGKILL inside
    _exit(s.ok ? 7 : 8);               // not reached
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  SnapshotStore store(dir, "cg");
  EXPECT_EQ(store.latest_generation(), 1u);
  SnapshotFile back;
  EXPECT_TRUE(store.load_latest(&back).ok);
  EXPECT_EQ(back.generation(), 1u);
}

// --- machine capture/restore ---------------------------------------------

TEST(SnapshotMachine, CaptureRefusesNonQuiescentEngine) {
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 1, 1, 1, 1};
  machine::Machine m(cfg);
  m.power_on();

  // An armed-but-unfired fault plan with no injector handed to the snapshot
  // layer: the pending event is unaccounted for, so capture must refuse.
  fault::FaultInjector injector(&m.mesh());
  fault::FaultPlan plan;
  plan.link_death(m.engine().now() + 100000, NodeId{0}, torus::LinkIndex{0});
  injector.arm(plan);

  SnapshotFile file;
  const Status s = capture_machine(m, MachineExtras{}, &file);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.reason.find("quiescent"), std::string::npos) << s.reason;

  // Declaring the injector makes the same pending event re-armable.
  MachineExtras extras;
  extras.injector = &injector;
  EXPECT_TRUE(capture_machine(m, extras, &file).ok);
}

TEST(SnapshotMachine, RestoreRejectsGeometryAndSeedMismatch) {
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 1, 1, 1, 1};
  machine::Machine m(cfg);
  m.power_on();
  SnapshotFile file;
  ASSERT_TRUE(capture_machine(m, MachineExtras{}, &file).ok);

  {  // different mesh shape
    machine::MachineConfig other = cfg;
    other.shape.extent = {4, 2, 1, 1, 1, 1};
    machine::Machine m2(other);
    m2.power_on();
    const Status s = restore_machine(m2, MachineExtras{}, file);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("geometry mismatch"), std::string::npos)
        << s.reason;
  }
  {  // different RNG seed
    machine::MachineConfig other = cfg;
    other.seed += 1;
    machine::Machine m2(other);
    m2.power_on();
    const Status s = restore_machine(m2, MachineExtras{}, file);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("seed mismatch"), std::string::npos) << s.reason;
  }
  {  // same config but allocation layout not replayed
    machine::MachineConfig other = cfg;
    machine::Machine m2(other);
    m2.power_on();
    (void)m2.memory(NodeId{0}).alloc(64, "stray");
    const Status s = restore_machine(m2, MachineExtras{}, file);
    ASSERT_FALSE(s.ok);
    EXPECT_NE(s.reason.find("allocation layout"), std::string::npos)
        << s.reason;
  }
}

// --- end-to-end crash-resume (small machine) ------------------------------

SolveScenario small_scenario(int sim_threads) {
  SolveScenario sc;
  sc.machine_extents = {2, 2, 1, 1, 1, 1};
  sc.partition_box.extent = {2, 2, 1, 1, 1, 1};
  sc.global = {4, 4, 2, 2};
  sc.kappa = 0.12;
  sc.fixed_iterations = 6;
  sc.audit_interval = 2;
  sc.sim_threads = sim_threads;
  return sc;
}

void expect_same_outcome(const SolveOutcome& got, const SolveOutcome& want,
                         const std::string& what) {
  EXPECT_TRUE(got.job_ok) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_EQ(got.residual_bits, want.residual_bits) << what;
  EXPECT_EQ(got.field_fnv, want.field_fnv) << what;
  EXPECT_EQ(got.trace_digest, want.trace_digest) << what;
  EXPECT_EQ(got.end_cycle, want.end_cycle) << what;
}

TEST(SnapshotResume, KilledMidCgResumesBitExactly) {
  const std::string dir = fresh_dir("resume_small");

  // Child: checkpoint every clean audit, SIGKILL itself right after the
  // iteration-4 generation commits -- mid-CG, two iterations from the end.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    (void)testing::run_solve(small_scenario(1), &dir, /*resume=*/false,
                             /*kill_at_iteration=*/4);
    _exit(9);  // not reached: the writer kills itself
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Checkpoints landed at iterations 0, 2 and 4.
  SnapshotStore store(dir, "cg");
  EXPECT_EQ(store.latest_generation(), 3u);

  // The uninterrupted reference in this (new) process.
  const SolveOutcome ref =
      testing::run_solve(small_scenario(1), nullptr, false);
  ASSERT_TRUE(ref.job_ok);
  ASSERT_EQ(ref.iterations, 6);

  // Restore in this process at 1 and 2 threads: final residual bits, field
  // FNV, event-order digest and end cycle all match the uninterrupted run.
  for (const int threads : {1, 2}) {
    const SolveOutcome got =
        testing::run_solve(small_scenario(threads), &dir, /*resume=*/true);
    EXPECT_TRUE(got.resumed) << (got.log.empty() ? "" : got.log.back());
    EXPECT_EQ(got.recovered_generation, 3u);
    expect_same_outcome(got, ref, std::to_string(threads) + " threads");
  }
}

}  // namespace
}  // namespace qcdoc::snapshot
