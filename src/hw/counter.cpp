#include "hw/counter.hpp"

#include "hw/gates.hpp"
#include "util/status.hpp"

namespace star::hw {

CounterArray::CounterArray(const TechNode& tech, int rows, int bits)
    : rows_(rows), bits_(bits), counts_(static_cast<std::size_t>(rows), 0) {
  require(rows >= 1, "CounterArray: rows must be >= 1");
  require(bits >= 1 && bits <= 32, "CounterArray: bits must be in [1, 32]");
  unit_ = GateLibrary(tech).counter(bits);
}

Cost CounterArray::array_cost() const {
  Cost c = unit_;
  c.area = c.area * static_cast<double>(rows_);
  c.leakage = c.leakage * static_cast<double>(rows_);
  // Per accumulate operation only one counter toggles (one-hot input).
  return c;
}

void CounterArray::reset() { counts_.assign(counts_.size(), 0); }

void CounterArray::accumulate(const std::vector<bool>& one_hot) {
  require(one_hot.size() == counts_.size(),
          "CounterArray::accumulate: match vector size mismatch");
  const std::int64_t sat = (std::int64_t{1} << bits_) - 1;
  int set_bits = 0;
  for (std::size_t i = 0; i < one_hot.size(); ++i) {
    if (one_hot[i]) {
      ++set_bits;
      if (counts_[i] < sat) {
        ++counts_[i];
      }
    }
  }
  STAR_ASSERT(set_bits <= 1, "CounterArray::accumulate: input must be one-hot");
}

}  // namespace star::hw
