#include "sim/stats.h"

namespace qcdoc::sim {

void StatSet::add(const std::string& name, u64 delta) { counters_[name] += delta; }

void StatSet::set(const std::string& name, u64 value) { counters_[name] = value; }

u64 StatSet::get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

bool StatSet::has(const std::string& name) const {
  return counters_.count(name) != 0;
}

void StatSet::clear() { counters_.clear(); }

void StatSet::values(std::vector<u64>& out) const {
  for (const auto& [name, v] : counters_) out.push_back(v);
}

void StatSet::add_times(const u64*& delta, u64 n) {
  for (auto& [name, v] : counters_) v += n * *delta++;
}

std::vector<std::pair<std::string, u64>> StatSet::snapshot() const {
  return {counters_.begin(), counters_.end()};
}

u64 StatSet::total(const std::vector<const StatSet*>& sets,
                   const std::string& name) {
  u64 sum = 0;
  for (const auto* s : sets) sum += s->get(name);
  return sum;
}

}  // namespace qcdoc::sim
