#include "trace.h"

#include <cstdio>

#include "sim/event_fn.h"

namespace perfbench {

Counters Counters::sample(qcdoc::machine::Machine& m) {
  qcdoc::net::MeshNet& mesh = m.mesh();
  Counters c;
  c.events = m.engine().events_executed();
  c.data_words = mesh.total_stat("scu.data_sent");
  c.acks = mesh.total_stat("scu.acks");
  c.resends = mesh.total_stat("scu.nack_resends") +
              mesh.total_stat("scu.timeout_resends");
  c.detected = mesh.total_stat("scu.detected_errors");
  c.undetected = mesh.total_stat("scu.undetected_errors");
  c.frames = mesh.total_stat("hssl.frames");
  c.pool_blocks = qcdoc::sim::detail::action_alloc_stats().heap_blocks();
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.events = events - o.events;
  d.data_words = data_words - o.data_words;
  d.acks = acks - o.acks;
  d.resends = resends - o.resends;
  d.detected = detected - o.detected;
  d.undetected = undetected - o.undetected;
  d.frames = frames - o.frames;
  d.pool_blocks = pool_blocks - o.pool_blocks;
  return d;
}

int Tracer::open(const char* name, bool coarse) {
  if (!full_ && !coarse) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.solve = solve_;
  if (full_ && machine_ != nullptr) s.begin = Counters::sample(*machine_);
  s.start = now_s();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = now_s();
  s.finish = full_ && machine_ != nullptr ? Counters::sample(*machine_)
                                          : s.begin;
  // Scopes close in LIFO order, so the span is on top of the stack.
  stack_.pop_back();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const Counters d = s.finish - s.begin;
    std::fprintf(
        f,
        "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
        "\"parent\": %d, \"solve\": %d, \"events\": %llu, "
        "\"data_words\": %llu, \"acks\": %llu, \"resends\": %llu, "
        "\"frames\": %llu}}%s\n",
        s.name, (s.start - t0) * 1e6, s.seconds() * 1e6, i, s.parent,
        s.solve, static_cast<unsigned long long>(d.events),
        static_cast<unsigned long long>(d.data_words),
        static_cast<unsigned long long>(d.acks),
        static_cast<unsigned long long>(d.resends),
        static_cast<unsigned long long>(d.frames),
        i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

TracedDirac::TracedDirac(qcdoc::lattice::DiracOperator& inner, Tracer& tracer)
    : DiracOperator(&inner.ops(), &inner.geometry()),
      inner_(inner),
      tracer_(tracer) {
  m_starts_.reserve(4096);
}

void TracedDirac::apply(qcdoc::lattice::DistField& out,
                        qcdoc::lattice::DistField& in) {
  if (before_apply_) before_apply_(m_starts_.size());
  if (tracer_.full()) {
    Scope s(tracer_, "lattice.apply");
    m_starts_.push_back(tracer_.spans()[static_cast<std::size_t>(s.index())].start);
    inner_.apply(out, in);
  } else {
    m_starts_.push_back(now_s());
    inner_.apply(out, in);
  }
}

void TracedDirac::apply_dag(qcdoc::lattice::DistField& out,
                            qcdoc::lattice::DistField& in) {
  Scope s(tracer_, "lattice.apply_dag");
  inner_.apply_dag(out, in);
}

}  // namespace perfbench
