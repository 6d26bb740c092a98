// The traced run: replays request lines in one thread through the layers'
// public functions — the same calls, in the same order, the daemon makes —
// and records one span per call. Spans are timed from outside the library
// (nothing inside histkd is instrumented), kept in memory, and written out
// when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/dataset_store.h"
#include "serve/synopsis_cache.h"

namespace perfbench {

enum class Layer {
  kRequest,  ///< the root span of one replayed line
  kParse,    ///< api: ParseRequestJson
  kBuild,    ///< api: BuildTaskSpec + CanonicalSynopsisKey
  kEmit,     ///< api: WriteResponseJson
  kResolve,  ///< serve: DatasetStore::Resolve
  kCache,    ///< serve: SynopsisCache::Lookup / Insert
  kAnswer,   ///< histogram/dist: ReduceToKPieces, ToDistribution, Quantile, Mass
  kDraw,     ///< dist/sample/stats: GreedyEstimator::Draw, SampleSetGroup::Draw
  kGreedy,   ///< core: LearnHistogramWithEstimator
  kVerify,   ///< core: the testers' decision steps
};
constexpr int kNumLayers = 10;
/// "request", "api.parse", ..., "core.verify".
const char* LayerName(Layer layer);

struct Span {
  int64_t request = 0;
  Layer name = Layer::kRequest;
  int64_t parent = -1;  ///< index into the span list; -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  const std::vector<Span>& spans() const { return spans_; }
  int64_t Begin(int64_t request, Layer name, int64_t parent);
  void End(int64_t span);

 private:
  std::vector<Span> spans_;
};

/// Self time per layer (a span's duration minus what its children cover)
/// summed over all spans, plus the summed root (request) durations.
struct LayerTotals {
  std::array<double, kNumLayers> self_ns{};
  double request_ns = 0.0;
};
LayerTotals SumSelfTimes(const std::vector<Span>& spans);

/// Tab-separated: request, span, name, parent, start_ns, end_ns.
void WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// A serving core rebuilt from public calls, with its own dataset store and
/// synopsis cache at histkd's default sizes.
class TracedReplay {
 public:
  TracedReplay();

  /// Serves one line the way HistkdServer::HandleLine does and returns the
  /// response line (without the trailing newline). Records spans when
  /// `tracer` is non-null. Throws on a line the daemon would answer with
  /// an error: the benchmark only generates lines that succeed.
  std::string Handle(const std::string& line, int64_t request, Tracer* tracer);

 private:
  histk::serve::DatasetStore store_;
  histk::serve::SynopsisCache cache_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
