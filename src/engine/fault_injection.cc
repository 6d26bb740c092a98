#include "engine/fault_injection.h"

#include <algorithm>

#include "util/check.h"

namespace histk {

FaultSchedule FaultSchedule::FromSeed(uint64_t seed) {
  FaultSchedule schedule;
  schedule.seed = seed;
  schedule.transient_rate = 0.12;
  schedule.latency_rate = 0.06;
  schedule.latency_spike_ms = 2;
  schedule.short_batch_rate = 0.12;
  return schedule;
}

FaultInjectingSampler::FaultInjectingSampler(const Sampler& inner,
                                             FaultSchedule schedule)
    : inner_(inner), schedule_(schedule) {
  HISTK_CHECK_MSG(schedule_.transient_rate >= 0.0 &&
                      schedule_.latency_rate >= 0.0 &&
                      schedule_.short_batch_rate >= 0.0 &&
                      schedule_.transient_rate + schedule_.latency_rate +
                              schedule_.short_batch_rate <=
                          1.0,
                  "fault rates must be nonnegative and sum to <= 1");
  HISTK_CHECK_MSG(schedule_.latency_spike_ms >= 0,
                  "latency_spike_ms must be >= 0");
}

FaultInjectingSampler::Fault FaultInjectingSampler::NextFault(
    bool can_short_batch) const {
  const int64_t index = requests_++;
  // One splitmix64 step keyed on (seed, request index): the schedule is a
  // pure function of the two, independent of thread count and of whatever
  // rng state the draws themselves consume.
  uint64_t state =
      schedule_.seed ^ (static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ULL);
  const uint64_t bits = SplitMix64(state);
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  double edge = schedule_.transient_rate;
  if (u < edge) {
    ++transient_faults_;
    return Fault::kTransient;
  }
  edge += schedule_.latency_rate;
  if (u < edge) {
    ++latency_faults_;
    return Fault::kLatency;
  }
  edge += schedule_.short_batch_rate;
  if (u < edge) {
    if (can_short_batch) {
      ++short_batch_faults_;
      return Fault::kShortBatch;
    }
    // Sink-fed request: a served prefix could not be un-consumed, so the
    // schedule slot degrades to the strictly-safer transient fault.
    ++transient_faults_;
    return Fault::kTransient;
  }
  return Fault::kNone;
}

int64_t FaultInjectingSampler::ShortLength(int64_t m) const {
  // Deterministic half-open prefix in [0, m): keyed on the request index
  // that NextFault just consumed, so replays agree.
  uint64_t state = schedule_.seed ^ 0xda3e39cb94b95bdbULL ^
                   static_cast<uint64_t>(requests_);
  return static_cast<int64_t>(SplitMix64(state) % static_cast<uint64_t>(m));
}

void FaultInjectingSampler::DrawManyInto(int64_t* out, int64_t m,
                                         Rng& rng) const {
  // One-draw requests (Draw) cannot short-batch: their prefix is empty.
  switch (NextFault(/*can_short_batch=*/m > 1)) {
    case Fault::kTransient:
      throw TransientUnavailableError("injected transient fault");
    case Fault::kLatency:
      SleepMs(schedule_.latency_spike_ms);
      break;
    case Fault::kShortBatch: {
      // Serve a prefix (consuming rng for it), then fail the request. The
      // caller owns `out` and re-serves the whole batch on retry, so the
      // prefix is overwritten — never observed as data.
      const int64_t served = ShortLength(m);
      if (served > 0) inner_.DrawManyInto(out, served, rng);
      throw TransientUnavailableError("injected short batch (" +
                                      std::to_string(served) + " of " +
                                      std::to_string(m) + " served)");
    }
    default:
      break;
  }
  inner_.DrawManyInto(out, m, rng);
}

void FaultInjectingSampler::DrawCounts(int64_t m, Rng& rng, CountSink& sink,
                                       int threads) const {
  // can_short_batch=false: a prefix fed to the sink could not be taken
  // back, and a retry would double-count it.
  switch (NextFault(/*can_short_batch=*/false)) {
    case Fault::kTransient:
      throw TransientUnavailableError("injected transient fault");
    case Fault::kLatency:
      SleepMs(schedule_.latency_spike_ms);
      break;
    default:
      break;
  }
  inner_.DrawCounts(m, rng, sink, threads);
}

}  // namespace histk
