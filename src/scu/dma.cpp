#include "scu/dma.h"

#include <cassert>

namespace qcdoc::scu {

SendDma::SendDma(sim::EngineRef engine, memsys::NodeMemory* memory,
                 SendSide* channel, DmaTiming timing,
                 ActiveCounter* active_counter)
    : engine_(engine),
      memory_(memory),
      channel_(channel),
      timing_(timing),
      active_counter_(active_counter) {}

void SendDma::start(const DmaDescriptor& desc,
                    std::function<void()> on_complete) {
  assert(!active_ && "send DMA already running on this link");
  active_ = true;
  if (active_counter_) active_counter_->increment();
  ++transfers_;
  on_complete_ = std::move(on_complete);
  channel_->set_on_data_drained([this] {
    if (!active_) return;
    active_ = false;
    if (active_counter_) active_counter_->decrement(engine_.now());
    if (on_complete_) on_complete_();
  });
  // After the setup path (descriptor fetch, first memory access, SCU
  // injection) the DMA streams words faster than the 72-cycle serial link
  // can drain them, so the channel queue is filled in one go.
  engine_.schedule(timing_.send_setup_cycles, [this, desc] {
    for (u64 i = 0; i < desc.total_words(); ++i) {
      channel_->enqueue_data(memory_->read_word(desc.word_addr(i)));
    }
  });
}

RecvDma::RecvDma(sim::EngineRef engine, memsys::NodeMemory* memory,
                 RecvSide* channel, DmaTiming timing,
                 ActiveCounter* active_counter)
    : engine_(engine),
      memory_(memory),
      channel_(channel),
      timing_(timing),
      active_counter_(active_counter) {}

void RecvDma::start(const DmaDescriptor& desc,
                    std::function<void()> on_complete) {
  assert(!active_ && "receive DMA already running on this link");
  desc_ = desc;
  active_ = true;
  if (active_counter_) active_counter_->increment();
  next_index_ = 0;
  skip_count_ = 0;
  first_landed_at_ = 0;
  on_complete_ = std::move(on_complete);
  // Installing the sink ends idle receive and drains any held words.
  channel_->set_data_sink([this](u64 word) { on_word(word); });
}

void RecvDma::on_word(u64 word) {
  if (skip_count_ != 0 && next_index_ == skip_at_) {
    next_index_ += skip_count_;
    skip_count_ = 0;
  }
  assert(active_ && next_index_ < desc_.total_words());
  const u64 addr = desc_.word_addr(next_index_);
  const u64 index = next_index_++;
  const bool last = next_index_ == desc_.total_words();
  if (last) {
    // Stop consuming before further words arrive for a later transfer; the
    // engine stays active until the final landing completes.
    channel_->clear_data_sink();
  }
  engine_.schedule(timing_.recv_landing_cycles, [this, addr, word, index, last] {
    memory_->write_word(addr, word);
    ++landed_;
    last_landed_at_ = engine_.now();
    if (index == 0) first_landed_at_ = engine_.now();
    if (last) {
      active_ = false;
      if (active_counter_) active_counter_->decrement(engine_.now());
      if (on_complete_) on_complete_();
    }
  });
}

void RecvDma::period_signature(std::vector<u64>& sig, Cycle base) const {
  sig.push_back(active_);
  sig.push_back(active_ ? last_landed_at_ - base : 0);
}

void RecvDma::skip_periods(u64 n, const u64*& delta, Cycle dt) {
  landed_ += n * *delta++;
  if (active_) last_landed_at_ += dt;
}

void RecvDma::land_ahead(u64 in_transit, const u64* words, u64 n) {
  assert(active_ && skip_count_ == 0 &&
         next_index_ + in_transit + n < desc_.total_words());
  const u64 first = next_index_ + in_transit;
  for (u64 k = 0; k < n; ++k) {
    memory_->write_word(desc_.word_addr(first + k), words[k]);
  }
  if (in_transit == 0) {
    next_index_ += n;
  } else {
    skip_at_ = first;
    skip_count_ = n;
  }
}

}  // namespace qcdoc::scu
