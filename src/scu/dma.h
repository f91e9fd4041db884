// SCU DMA engines (paper Section 2.2, item 1).
//
// "The SCU's have DMA engines allowing block strided access to local memory.
// ... Data is not copied to a different memory location before it is sent,
// rather the SCUs are told the address of the starting word of a transfer
// and the SCU DMA engines handle the data from there."  This zero-copy path
// is where QCDOC's 600 ns memory-to-memory latency comes from: the send DMA
// fetches directly from EDRAM/DDR (setup ~150 cycles), the word serializes
// in 72 bit-times, and the receive DMA lands it in remote memory
// (~66 cycles), with no software in the loop.
#pragma once

#include <functional>
#include <vector>

#include "common/types.h"
#include "memsys/memsys.h"
#include "scu/link.h"
#include "sim/engine.h"

namespace qcdoc::scu {

/// Block-strided transfer: `num_blocks` blocks of `block_words` contiguous
/// 64-bit words, block starts `stride_words` apart.
struct DmaDescriptor {
  u64 base_word = 0;
  u32 block_words = 1;
  u32 num_blocks = 1;
  i64 stride_words = 0;

  u64 total_words() const {
    return static_cast<u64>(block_words) * num_blocks;
  }
  u64 word_addr(u64 i) const {
    const u64 block = i / block_words;
    const u64 within = i % block_words;
    return static_cast<u64>(static_cast<i64>(base_word) +
                            static_cast<i64>(block) * stride_words) +
           within;
  }
  /// Number of distinct contiguous streams this pattern touches at once.
  int streams() const { return num_blocks > 1 ? 2 : 1; }
};

struct DmaTiming {
  Cycle send_setup_cycles = 150;  ///< descriptor fetch + first-word injection
  Cycle recv_landing_cycles = 66; ///< receive-side store path to memory
};

/// Shared count of in-flight transfers, used by the machine to detect
/// quiescence in O(1) instead of scanning every link after every event.
using ActiveCounter = sim::ActiveCounter;

/// Send engine for one link: fetches words from local memory and feeds the
/// link's transmit side.
class SendDma {
 public:
  SendDma(sim::EngineRef engine, memsys::NodeMemory* memory, SendSide* channel,
          DmaTiming timing, ActiveCounter* active_counter = nullptr);

  /// Begin a transfer.  Completion (all words acknowledged by the remote
  /// SCU) is reported through `on_complete`.
  void start(const DmaDescriptor& desc, std::function<void()> on_complete = {});

  [[nodiscard]] bool active() const { return active_; }
  u64 transfers_started() const { return transfers_; }

 private:
  sim::EngineRef engine_;
  memsys::NodeMemory* memory_;
  SendSide* channel_;
  DmaTiming timing_;
  bool active_ = false;
  u64 transfers_ = 0;
  ActiveCounter* active_counter_ = nullptr;
  std::function<void()> on_complete_;
};

/// Receive engine for one link: lands arriving words into local memory.
class RecvDma {
 public:
  RecvDma(sim::EngineRef engine, memsys::NodeMemory* memory, RecvSide* channel,
          DmaTiming timing, ActiveCounter* active_counter = nullptr);

  /// Program the destination.  Until this is called the link sits in idle
  /// receive; calling it drains any held words immediately.
  void start(const DmaDescriptor& desc, std::function<void()> on_complete = {});

  [[nodiscard]] bool active() const { return active_; }
  u64 words_landed() const { return landed_; }
  /// Simulated time the first word of the current/last transfer reached
  /// memory (for latency measurements).
  Cycle first_word_landed_at() const { return first_landed_at_; }
  Cycle last_word_landed_at() const { return last_landed_at_; }

  // --- Virtual periods (see SendSide) --------------------------------------
  [[nodiscard]] bool period_ready() const { return skip_count_ == 0; }
  void period_signature(std::vector<u64>& sig, Cycle base) const;
  void period_counters(std::vector<u64>& out) const {
    out.push_back(landed_);
  }
  void skip_periods(u64 n, const u64*& delta, Cycle dt);
  /// Slots of the current transfer not yet claimed by an accepted word.
  u64 words_left() const {
    return active_ ? desc_.total_words() - next_index_ : 0;
  }
  /// Land `n` words a splice moved past the wire.  They follow the
  /// `in_transit` words still on their way, so they go straight to their
  /// slots, and the transfer skips those slots once the words in transit
  /// are in.
  void land_ahead(u64 in_transit, const u64* words, u64 n);

 private:
  void on_word(u64 word);

  sim::EngineRef engine_;
  memsys::NodeMemory* memory_;
  RecvSide* channel_;
  DmaTiming timing_;

  DmaDescriptor desc_;
  bool active_ = false;
  u64 next_index_ = 0;
  u64 skip_at_ = 0;     ///< slot index where land_ahead()'s words begin
  u64 skip_count_ = 0;  ///< ...and how many slots they fill
  u64 landed_ = 0;
  Cycle first_landed_at_ = 0;
  Cycle last_landed_at_ = 0;
  ActiveCounter* active_counter_ = nullptr;
  std::function<void()> on_complete_;
};

}  // namespace qcdoc::scu
