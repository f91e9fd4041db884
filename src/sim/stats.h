// Named statistics registry.
//
// Every hardware model publishes counters (packets sent, resends, page
// misses, stall cycles...) into a StatSet owned by its machine, so benches
// and diagnostics read one uniform interface.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace qcdoc::sim {

class StatSet {
 public:
  /// Add `delta` to counter `name`, creating it at zero if absent.
  void add(const std::string& name, u64 delta = 1);
  /// Stable pointer to the counter cell, creating it at zero if absent.
  /// std::map nodes never move, so hot paths (per-word, per-frame counters
  /// bumped tens of millions of times per solve) resolve the cell once at
  /// construction and increment through the pointer instead of paying a
  /// string-keyed tree lookup per event.
  u64* cell(const std::string& name) { return &counters_[name]; }
  /// Overwrite counter `name`.
  void set(const std::string& name, u64 value);
  /// Value of `name`, or 0 if never touched.
  u64 get(const std::string& name) const;
  bool has(const std::string& name) const;
  void clear();

  /// Number of counters (names are only ever added, so equal sizes mean
  /// equal name sets).
  std::size_t size() const { return counters_.size(); }
  /// Append every value in name order...
  void values(std::vector<u64>& out) const;
  /// ...and add `n` times the next size() entries of `delta`, in the same
  /// order, advancing `delta` past them.
  void add_times(const u64*& delta, u64 n);

  /// Stable-ordered snapshot for reports.
  std::vector<std::pair<std::string, u64>> snapshot() const;

  /// Sum counters of this name across a set of stat sets.
  static u64 total(const std::vector<const StatSet*>& sets,
                   const std::string& name);

 private:
  std::map<std::string, u64> counters_;
};

}  // namespace qcdoc::sim
