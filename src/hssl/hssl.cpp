#include "hssl/hssl.h"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/log.h"
#include "sim/affinity_guard.h"

namespace qcdoc::hssl {

const char* to_string(LinkState s) {
  switch (s) {
    case LinkState::kDown: return "down";
    case LinkState::kTraining: return "training";
    case LinkState::kTrained: return "trained";
    case LinkState::kFailed: return "failed";
  }
  return "?";
}

Hssl::Hssl(sim::EngineRef engine, HsslConfig cfg, Rng error_stream,
           sim::StatSet* stats)
    : engine_(engine), delivery_(engine), cfg_(cfg), errors_(error_stream),
      stats_(stats),
      in_flight_(std::bit_ceil(
          2 * (static_cast<std::size_t>(cfg.wire_delay_cycles) + 2))) {
  if (stats_) {
    stat_frames_ = stats_->cell("hssl.frames");
    stat_bits_ = stats_->cell("hssl.bits");
  }
  set_bit_error_rate(cfg_.bit_error_rate);  // clamp whatever the config holds
}

void Hssl::begin_training() {
  state_ = LinkState::kTraining;
  engine_.schedule(cfg_.training_cycles, [this, epoch = epoch_] {
    if (epoch != epoch_) return;  // failed/retrained while training
    state_ = LinkState::kTrained;
    trained_at_ = engine_.now();
    busy_cycles_ = 0;
    ++times_trained_;
    if (stats_) stats_->add("hssl.trained");
    start_next();
    if (!busy_ && on_ready_) on_ready_();
  });
}

void Hssl::power_on() {
  if (state_ != LinkState::kDown) return;
  begin_training();
}

void Hssl::fail() {
  QCDOC_AFFSAN_CHECK(this);
  if (state_ == LinkState::kDown || state_ == LinkState::kFailed) {
    state_ = LinkState::kFailed;
    return;
  }
  state_ = LinkState::kFailed;
  busy_ = false;
  drop_queued();
  drop_in_flight();  // bits in flight never arrive
  ++epoch_;
  if (stats_) stats_->add("hssl.failures");
}

void Hssl::retrain() {
  QCDOC_AFFSAN_CHECK(this);
  if (state_ == LinkState::kDown || state_ == LinkState::kTraining) return;
  ++epoch_;
  busy_ = false;
  drop_queued();
  drop_in_flight();
  if (stats_) stats_->add("hssl.retrains");
  begin_training();
}

void Hssl::set_bit_error_rate(double rate) {
  QCDOC_AFFSAN_CHECK(this);
  if (!std::isfinite(rate) || rate < 0.0) rate = 0.0;
  if (rate > 1.0) rate = 1.0;
  cfg_.bit_error_rate = rate;
}

u64 Hssl::transmit(int bits, const Payload& payload) {
  QCDOC_AFFSAN_CHECK(this);
  if (state_ == LinkState::kDown || state_ == LinkState::kFailed ||
      bits <= 0) {
    ++rejected_frames_;
    if (stats_) stats_->add("hssl.rejected_frames");
    QCDOC_WARN << "hssl: transmit rejected (" << to_string(state_)
               << " link, " << bits << " bits)";
    return kRejected;
  }
  const u64 id = next_frame_id_++;
  if (state_ == LinkState::kTrained && !busy_) {
    // A trained link's serializer goes idle only with an empty queue, so
    // the frame starts at once, exactly as if it had passed through it.
    start(Frame{bits, payload});
    return id;
  }
  if (queue_head_ > 0 && queue_.size() == queue_.capacity()) {
    // Reclaim the sent prefix instead of growing.
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(queue_head_));
    queue_head_ = 0;
  }
  queue_.push_back(Frame{bits, payload});
  return id;
}

void Hssl::start_next() {
  if (state_ != LinkState::kTrained || busy_ || queue_head_ == queue_.size()) {
    return;
  }
  const Frame frame = queue_[queue_head_++];
  if (queue_head_ == queue_.size()) drop_queued();
  start(frame);
}

void Hssl::start(const Frame& frame) {
  busy_ = true;
  int flipped = 0;
  if (cfg_.bit_error_rate > 0.0) {
    for (int b = 0; b < frame.bits; ++b) {
      if (errors_.next_bool(cfg_.bit_error_rate)) ++flipped;
    }
  }
  busy_cycles_ += static_cast<Cycle>(frame.bits);
  if (stats_) {
    ++*stat_frames_;
    *stat_bits_ += static_cast<u64>(frame.bits);
    if (flipped > 0) stats_->add("hssl.bits_flipped", static_cast<u64>(flipped));
  }

  // The sender's serializer frees up after the last bit leaves; delivery at
  // the far end happens one wire delay later.  Both events are void if the
  // link fails or retrains in between (the bits die on the wire).
  const Cycle serialize = static_cast<Cycle>(frame.bits);
  engine_.schedule(serialize, [this, epoch = epoch_] {
    if (epoch != epoch_) return;
    busy_ = false;
    start_next();
    if (!busy_ && on_ready_) on_ready_();
  });
  // Delivery executes at the receiving node.  The serialization time plus
  // the wire delay is never shorter than a minimum frame plus the wire
  // delay, which is exactly the parallel engine's lookahead.
  const u64 tail = in_flight_tail_;
  if (tail - in_flight_head_.load(std::memory_order_acquire) >=
      in_flight_.size()) {
    throw std::logic_error("Hssl: more frames in flight than the wire holds");
  }
  in_flight_[tail & (in_flight_.size() - 1)] = frame;
  in_flight_tail_ = tail + 1;
  delivery_.schedule(serialize + cfg_.wire_delay_cycles,
                     [this, epoch = epoch_, flipped] { deliver(epoch, flipped); });
}

void Hssl::deliver(u64 epoch, int flipped) {
  // epoch_ moves only in host slices (fail/retrain), which fence every node
  // event, so this receiver-side read can never race the sender; AFFSAN
  // checks the mutators at runtime.  A stale epoch's frames were dropped
  // with the ring.
  // qcdoc-lint: allow(cross-affinity-access) epoch_ is window-frozen
  if (epoch != epoch_) return;
  const u64 head = in_flight_head_.load(std::memory_order_relaxed);
  // Copy out before releasing the slot to the producer.
  const Payload payload = in_flight_[head & (in_flight_.size() - 1)].payload;
  in_flight_head_.store(head + 1, std::memory_order_release);
  if (receiver_ != nullptr) receiver_->on_frame(payload, flipped);
}

void Hssl::drop_queued() {
  queue_.clear();
  queue_head_ = 0;
}

void Hssl::drop_in_flight() {
  in_flight_head_.store(in_flight_tail_, std::memory_order_relaxed);
}

Cycle Hssl::idle_cycles() const {
  if (state_ != LinkState::kTrained) return 0;
  const Cycle since_trained = engine_.now() - trained_at_;
  return since_trained > busy_cycles_ ? since_trained - busy_cycles_ : 0;
}

}  // namespace qcdoc::hssl
