// Seeded request streams for the histkd benchmark.
//
// Every workload is a pure function of (workload, seed): the datasets, the
// set-up lines that warm the daemon, and the measured lines are generated
// here and nowhere else, so the daemon only ever sees generated NDJSON and
// two runs at one seed replay byte-identical streams. The benchmark keeps
// its own generator (SplitMix64 below) instead of the library's Rng, so a
// change to the library's random streams cannot silently change the load.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  int64_t Below(int64_t bound) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(bound));
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// One stateless mix of two words (seed derivation, subset selection).
uint64_t Mix(uint64_t a, uint64_t b);

enum class WorkloadId { kHitRead, kColdMiss, kIngestTest };

/// Request kinds the workloads send, in the order latency histograms and
/// share checks list them.
enum class Kind { kLearn, kEstimate, kPropertyTest, kCloseness, kTest };
constexpr int kNumKinds = 5;
const char* KindName(Kind kind);

/// The envelope "cache" state a correct daemon answers each line with.
enum class CacheExpect { kHit, kMiss, kBypass };
const char* CacheExpectName(CacheExpect cache);

struct RequestLine {
  int64_t index = 0;  ///< position in the measured stream (-1: set-up)
  Kind kind = Kind::kLearn;
  CacheExpect cache = CacheExpect::kBypass;
  /// Learn seed on the wire; measured misses draw from kMissSeedBase up.
  uint64_t seed = 0;
  /// The measured line ships a dataset the daemon has not seen yet.
  bool fresh_dataset = false;
  std::string id;
  std::string text;  ///< the NDJSON line, without the trailing newline
};

struct WorkloadSpec {
  WorkloadId id;
  const char* name;
  int connections;        ///< closed-loop connections, one request in flight each
  int datasets;           ///< datasets loaded during set-up
  int64_t items;          ///< items per dataset
  int64_t trace_lines;    ///< measured lines the traced run replays
  uint64_t check_every;   ///< byte-compare about one measured line in this many
  int64_t check_cap;      ///< ... but at most this many per run
};

/// Domain and piece count of every generated dataset.
constexpr int64_t kDomain = 256;
constexpr int kPieces = 4;
/// Seeds of warm-up learns are 1..kWarmSeeds; every measured miss uses a
/// seed at or above kMissSeedBase, so no warm synopsis can answer it.
constexpr uint64_t kWarmSeeds = 4;
constexpr uint64_t kMissSeedBase = 1000000;

const std::vector<WorkloadSpec>& AllWorkloads();
/// nullptr when the name is unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// A k-histogram item stream over [0, kDomain) with kPieces pieces.
std::vector<int64_t> MakeKHistogramItems(uint64_t seed, int64_t count);

/// Generates one workload's stream. Set-up phases run in order, each to
/// completion before the next starts (a fingerprint is only valid once its
/// inline load has been served); measured lines come from Next().
class StreamGenerator {
 public:
  StreamGenerator(const WorkloadSpec& spec, uint64_t seed);

  const std::vector<std::vector<RequestLine>>& setup_phases() const {
    return setup_;
  }
  int64_t setup_line_count() const;

  /// The next measured line.
  RequestLine Next();

  /// Whether measured line `index` is in this seed's byte-compare subset
  /// (before the per-run cap).
  bool InCheckSubset(int64_t index) const;

 private:
  struct Dataset {
    std::string items_json;   ///< "[3,17,...]"
    std::string fingerprint;  ///< lowercase hex, as the daemon reports it
  };

  Dataset MakeDataset(uint64_t index);
  std::string Header(const std::string& id, const char* kind,
                     uint64_t seed) const;
  std::string QueryFields();

  WorkloadSpec spec_;
  uint64_t seed_;
  SplitMix64 rng_;
  std::vector<Dataset> datasets_;   ///< fixed datasets (hit_read, cold_miss)
  std::deque<Dataset> recent_;      ///< ingest_test: the last 8 shipped
  uint64_t next_dataset_ = 0;
  int64_t next_index_ = 0;
  std::vector<std::vector<RequestLine>> setup_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
