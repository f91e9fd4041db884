// Host-time tracing for the benchmark, kept entirely outside the library.
//
// The benchmark times each layer from the outside: it opens a span around
// every public call it makes (machine build, boot, solver, snapshot I/O) and
// hands the solver a forwarding DiracOperator that opens one around every
// apply.  At each span boundary it samples the engine and mesh counters, so
// per-layer ratios (events per halo word, ns per event) are measured where
// the work happens.  Spans stay in memory and are written out at exit.
//
// Two levels:
//   - coarse (untraced run): only the episode-level spans (setup, solve,
//     resume) plus one clock read at the start of every M apply -- the
//     numbers the end-to-end metrics come from;
//   - full (traced run): every span, with counters sampled at both ends.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "lattice/dirac.h"
#include "machine/machine.h"

namespace perfbench {

using qcdoc::u64;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Engine and mesh counters sampled at a span boundary.
struct Counters {
  u64 events = 0;
  u64 data_words = 0;
  u64 acks = 0;
  u64 resends = 0;  ///< nack + timeout resends
  u64 detected = 0;
  u64 undetected = 0;
  u64 frames = 0;
  u64 pool_blocks = 0;  ///< engine action-pool growth (process-global)

  static Counters sample(qcdoc::machine::Machine& m);
  Counters operator-(const Counters& o) const;
};

struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for roots
  int solve = -1;   ///< spans of one episode's solve share this id
  Counters begin;
  Counters finish;

  double seconds() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool full) : full_(full) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool full() const { return full_; }
  /// The machine whose counters later spans sample (null: none).
  void bind(qcdoc::machine::Machine* m) { machine_ = m; }
  void set_solve(int id) { solve_ = id; }

  /// Open a span; coarse spans are recorded at both levels, the rest only
  /// when tracing is full.  Returns the span index, or -1 if not recorded.
  int open(const char* name, bool coarse = false);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Write every span as a Chrome trace-event file (chrome://tracing and
  /// Perfetto open it).  Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool full_;
  qcdoc::machine::Machine* machine_ = nullptr;
  int solve_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, bool coarse = false)
      : tracer_(t), index_(t.open(name, coarse)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// Forwarding decorator handed to the solver in place of the real operator.
/// Records one clock read per M apply in both modes (the iteration clock)
/// and, when tracing is full, a span around every apply and apply_dag.
class TracedDirac : public qcdoc::lattice::DiracOperator {
 public:
  TracedDirac(qcdoc::lattice::DiracOperator& inner, Tracer& tracer);

  const char* name() const override { return inner_.name(); }
  int site_doubles() const override { return inner_.site_doubles(); }
  int halo_doubles() const override { return inner_.halo_doubles(); }
  int halo_slabs() const override { return inner_.halo_slabs(); }
  int halo_slabs_minus() const override { return inner_.halo_slabs_minus(); }
  double flops_per_apply() const override { return inner_.flops_per_apply(); }

  void apply(qcdoc::lattice::DistField& out,
             qcdoc::lattice::DistField& in) override;
  void apply_dag(qcdoc::lattice::DistField& out,
                 qcdoc::lattice::DistField& in) override;

  /// Start time of every M apply so far, in call order.
  const std::vector<double>& m_starts() const { return m_starts_; }

  /// Called with the M apply's index (0, 1, ...) before its clock read,
  /// while the mesh is quiescent and the apply's halo exchange is next.
  void set_before_apply(std::function<void(std::size_t)> fn) {
    before_apply_ = std::move(fn);
  }

 private:
  qcdoc::lattice::DiracOperator& inner_;
  Tracer& tracer_;
  std::vector<double> m_starts_;
  std::function<void(std::size_t)> before_apply_;
};

}  // namespace perfbench
