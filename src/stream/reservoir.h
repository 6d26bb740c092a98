// Reservoir sampling over an item stream (Vitter's Algorithm R).
//
// The paper's algorithms consume i.i.d. samples of the data distribution;
// when the data arrives as a stream of items (the massive-data setting of
// the introduction and [TGIK02]), a uniform reservoir of the stream IS an
// i.i.d.-without-replacement sample of the empirical distribution — close
// enough to i.i.d. for reservoirs much smaller than the stream.
#ifndef HISTK_STREAM_RESERVOIR_H_
#define HISTK_STREAM_RESERVOIR_H_

#include <cstdint>
#include <vector>

#include "util/common.h"
#include "util/rng.h"

namespace histk {

/// Uniform fixed-capacity reservoir over a stream of int64 items.
class Reservoir {
 public:
  Reservoir(int64_t capacity, uint64_t seed);

  /// Offers one stream item.
  void Add(int64_t item);

  /// Items seen so far.
  int64_t stream_size() const { return seen_; }

  int64_t capacity() const { return capacity_; }

  /// The current sample (size = min(capacity, stream_size)).
  const std::vector<int64_t>& sample() const { return sample_; }

 private:
  int64_t capacity_;
  int64_t seen_ = 0;
  std::vector<int64_t> sample_;
  Rng rng_;
};

}  // namespace histk

#endif  // HISTK_STREAM_RESERVOIR_H_
