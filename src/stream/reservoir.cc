#include "stream/reservoir.h"

namespace histk {

Reservoir::Reservoir(int64_t capacity, uint64_t seed) : capacity_(capacity), rng_(seed) {
  HISTK_CHECK(capacity >= 1);
  sample_.reserve(static_cast<size_t>(capacity));
}

void Reservoir::Add(int64_t item) {
  ++seen_;
  if (static_cast<int64_t>(sample_.size()) < capacity_) {
    sample_.push_back(item);
  } else {
    // Replace a random slot with probability capacity/seen (Algorithm R).
    const uint64_t j = rng_.UniformInt(static_cast<uint64_t>(seen_));
    if (j < static_cast<uint64_t>(capacity_)) {
      sample_[static_cast<size_t>(j)] = item;
    }
  }
  // Algorithm R's structural contract: the reservoir fills to exactly
  // min(seen, capacity) and never beyond — a violation means the sample is
  // no longer uniform over the stream.
  HISTK_CHECK_INVARIANT(
      static_cast<int64_t>(sample_.size()) == (seen_ < capacity_ ? seen_ : capacity_),
      "reservoir size must equal min(stream_size, capacity)");
}

}  // namespace histk
