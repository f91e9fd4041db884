// High Speed Serial Link model (paper Section 2.2).
//
// The fundamental physical link of the mesh is a unidirectional bit-serial
// connection running at the processor clock: one bit per CPU cycle.  On
// power-up the HSSL macros train by exchanging a known byte sequence to find
// the sampling point and byte boundaries; once trained they exchange idle
// bytes whenever no payload is queued.  The model serializes frames at
// 1 bit/cycle, adds a wire time-of-flight, and injects bit errors from a
// deterministic per-link stream so the SCU's parity/resend machinery is
// exercised for real.
//
// Fault model: a link can die outright (`fail()` -- a broken cable or
// daughterboard, paper Sec. 4's bring-up debugging) and be brought back by
// host-commanded retraining (`retrain()`), the recovery action the
// Ethernet/JTAG path enables.  A failed link rejects traffic with a clear
// sentinel instead of queueing it silently.
#pragma once

#include <atomic>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/engine.h"
#include "sim/stats.h"

namespace qcdoc::hssl {

struct HsslConfig {
  Cycle training_cycles = 2048;  ///< byte-sequence exchange after reset
  Cycle wire_delay_cycles = 2;   ///< time-of-flight through board + cable
  double bit_error_rate = 0.0;   ///< probability a transmitted bit flips
};

/// Lifecycle of one serial link.
enum class LinkState {
  kDown,      ///< not yet powered
  kTraining,  ///< exchanging the training byte sequence
  kTrained,   ///< carrying data / idle bytes
  kFailed,    ///< dead: rejects traffic until retrained
};

const char* to_string(LinkState s);

/// What one frame carries, as the sender emitted it: a word plus the SCU's
/// type code and sequence number.  The HSSL never looks inside; framing
/// (headers, parity) belongs to the SCU layer above.
struct Payload {
  u64 word = 0;
  u8 type = 0;
  u8 seq = 0;
};

/// The far end of a wire, fixed at wiring time (the SCU's receive side).
class Receiver {
 public:
  /// Called when the last bit of a frame (plus wire delay) reaches the
  /// receiver, with the number of bits the wire flipped on the way.
  virtual void on_frame(const Payload& sent, int flipped_bits) = 0;

 protected:
  ~Receiver() = default;
};

/// One unidirectional serial link.  To the HSSL a frame is a bit count
/// plus an opaque payload handed to the receiver.
class Hssl {
 public:
  /// Returned by transmit() when the link refuses the frame (failed or
  /// unpowered).  Callers must treat it as a hard link fault.
  static constexpr u64 kRejected = ~0ull;

  Hssl(sim::EngineRef engine, HsslConfig cfg, Rng error_stream,
       sim::StatSet* stats);

  /// Deliveries happen at the *receiving* node: tell the engine which one,
  /// so the parallel engine can route the delivery event to the right shard.
  /// Set by the network builder when the wire's far end is connected.
  void set_delivery_affinity(sim::Affinity a) {
    delivery_ = sim::EngineRef(engine_.get(), a);
  }

  /// Every delivered frame goes to `r`.  Set once, when the wire's far end
  /// is connected; frames delivered with no receiver are dropped.
  void set_receiver(Receiver* r) { receiver_ = r; }

  /// Begin the training sequence; the link carries data only once trained.
  void power_on();
  [[nodiscard]] bool trained() const { return state_ == LinkState::kTrained; }
  [[nodiscard]] bool failed() const { return state_ == LinkState::kFailed; }
  LinkState state() const { return state_; }
  Cycle trained_at() const { return trained_at_; }

  /// Kill the link: pending and in-flight frames are lost, and further
  /// transmit() calls are rejected until retrain().  Models a dead cable /
  /// daughterboard or an HSSL macro that dropped lock.
  void fail();

  /// Host-commanded recovery: re-run the training sequence.  Valid from the
  /// failed *or* trained state (retraining a marginal link re-finds the
  /// sampling point).  Anything queued is dropped, as on real re-lock.
  void retrain();

  /// Queue a frame of `bits` carrying `payload` for transmission.  Returns
  /// its frame id, or kRejected (with a stat and a warning) when the link
  /// cannot carry it.  Frames serialize strictly in order at 1 bit/cycle.
  u64 transmit(int bits, const Payload& payload);

  /// Called whenever the serializer becomes free (including right after
  /// training completes), so the SCU layer can make a fresh priority
  /// decision per frame instead of queueing ahead.
  void set_ready_callback(std::function<void()> fn) { on_ready_ = std::move(fn); }

  [[nodiscard]] bool busy() const { return busy_; }
  /// Cycles this link spent sending idle bytes (trained but no payload).
  Cycle idle_cycles() const;

  /// Change the error rate at runtime (fault injection for diagnostics).
  /// Clamped to [0, 1]; non-finite rates are treated as 0.
  void set_bit_error_rate(double rate);
  double bit_error_rate() const { return cfg_.bit_error_rate; }

  u64 times_trained() const { return times_trained_; }
  u64 rejected_frames() const { return rejected_frames_; }

 private:
  struct Frame {
    int bits = 0;
    Payload payload;
  };

  void begin_training();
  void start_next();
  void start(const Frame& frame);
  void deliver(u64 epoch, int flipped);
  void drop_queued();
  void drop_in_flight();

  sim::EngineRef engine_;
  sim::EngineRef delivery_;  ///< same engine, the receiving node's affinity
  HsslConfig cfg_;
  Rng errors_;
  sim::StatSet* stats_;
  // Per-frame hot counters, resolved once (StatSet::cell) instead of a
  // string-keyed map lookup per transmitted frame.
  u64* stat_frames_ = nullptr;
  u64* stat_bits_ = nullptr;

  LinkState state_ = LinkState::kDown;
  Cycle trained_at_ = 0;
  bool busy_ = false;
  u64 next_frame_id_ = 0;
  Cycle busy_cycles_ = 0;
  u64 times_trained_ = 0;
  u64 rejected_frames_ = 0;
  /// Bumped on fail()/retrain(): events scheduled under an older epoch
  /// (training completion, serializer free, deliveries) are void.
  u64 epoch_ = 0;

  /// Frames waiting for the serializer, oldest at queue_head_.  Only frames
  /// handed in while the serializer is busy or the link is training wait
  /// here; an idle trained link starts a frame at once.  A vector, not a
  /// deque: a link rarely holds more than one waiting frame, and a deque
  /// streaming frames through allocates and frees a chunk every few of
  /// them.
  std::vector<Frame> queue_;
  std::size_t queue_head_ = 0;
  /// Frames on the wire, oldest first.  Deliveries happen in serialization
  /// order, so the delivery event only carries (link, epoch, flipped bits)
  /// and takes its frame from the front here.  Single producer
  /// (start_next, sender affinity) and single consumer (deliver, receiver
  /// affinity), possibly on different engine threads: a fixed ring whose
  /// consumer index is atomic.  A frame stays on the wire its own length
  /// plus the wire delay and every later frame takes at least one cycle to
  /// serialize, so at most wire_delay_cycles + 2 frames are in flight at
  /// one simulated time.  Inside a parallel window the sender may run up to
  /// one lookahead ahead of the receiver, which lets at most as many again
  /// start early; the ring holds twice the bound and throws if it is ever
  /// exceeded.
  std::vector<Frame> in_flight_;
  u64 in_flight_tail_ = 0;             ///< producer: next slot to fill
  std::atomic<u64> in_flight_head_{0}; ///< consumer: next frame to deliver
  Receiver* receiver_ = nullptr;
  std::function<void()> on_ready_;
};

}  // namespace qcdoc::hssl
