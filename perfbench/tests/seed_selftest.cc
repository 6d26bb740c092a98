// Seed self-test of the benchmark's request streams:
//   * the same seed yields a byte-identical stream;
//   * another seed yields a different stream with the same per-kind shares
//     and the same sizes;
//   * no warm-up seed reappears as a measured miss seed, and every line is
//     a request the API accepts.
// Exits non-zero and names the first failed check.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "api/request.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int64_t kLines = 2000;

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

struct Stream {
  std::vector<std::string> setup;
  std::vector<RequestLine> measured;
};

Stream Generate(const WorkloadSpec& spec, uint64_t seed) {
  StreamGenerator gen(spec, seed);
  Stream stream;
  for (const auto& phase : gen.setup_phases()) {
    for (const RequestLine& line : phase) stream.setup.push_back(line.text);
  }
  for (int64_t i = 0; i < kLines; ++i) stream.measured.push_back(gen.Next());
  return stream;
}

/// Expected share of each kind in the measured stream.
std::vector<double> TargetShares(WorkloadId id) {
  switch (id) {
    case WorkloadId::kHitRead:
      return {0.2, 0.8, 0.0, 0.0, 0.0};
    case WorkloadId::kColdMiss:
      return {0.4, 0.3, 0.2, 0.1, 0.0};
    case WorkloadId::kIngestTest:
      return {0.0, 0.0, 0.0, 0.0, 1.0};
  }
  return {};
}

std::vector<double> Shares(const Stream& stream) {
  std::vector<double> shares(kNumKinds, 0.0);
  for (const RequestLine& line : stream.measured) {
    shares[static_cast<size_t>(line.kind)] += 1.0 / static_cast<double>(kLines);
  }
  return shares;
}

double MeanBytes(const Stream& stream) {
  double total = 0.0;
  for (const RequestLine& line : stream.measured) total += static_cast<double>(line.text.size());
  return total / static_cast<double>(kLines);
}

void CheckWorkload(const WorkloadSpec& spec) {
  const std::string name = spec.name;
  const Stream a = Generate(spec, 7);
  const Stream b = Generate(spec, 7);
  const Stream c = Generate(spec, 8);

  bool identical = a.setup == b.setup;
  for (int64_t i = 0; i < kLines; ++i) {
    identical = identical && a.measured[i].text == b.measured[i].text;
  }
  Check(identical, name + ": seed 7 twice gives different streams");

  bool differs = a.setup != c.setup;
  for (int64_t i = 0; i < kLines && !differs; ++i) {
    differs = a.measured[i].text != c.measured[i].text;
  }
  Check(differs, name + ": seeds 7 and 8 give the same stream");

  const std::vector<double> target = TargetShares(spec.id);
  const std::vector<double> share_a = Shares(a);
  const std::vector<double> share_c = Shares(c);
  for (int k = 0; k < kNumKinds; ++k) {
    // Binomial standard error at n = 2000 is at most 0.011.
    Check(std::fabs(share_a[k] - target[k]) < 0.04 && std::fabs(share_c[k] - target[k]) < 0.04,
          name + ": share of " + KindName(static_cast<Kind>(k)) + " is off target");
  }
  Check(a.setup.size() == c.setup.size(), name + ": set-up sizes differ between seeds");
  const double bytes_a = MeanBytes(a);
  const double bytes_c = MeanBytes(c);
  Check(std::fabs(bytes_a - bytes_c) < 0.05 * bytes_a,
        name + ": mean line size differs between seeds");
  if (spec.id == WorkloadId::kIngestTest) {
    int fresh = 0;
    for (const RequestLine& line : a.measured) fresh += line.fresh_dataset ? 1 : 0;
    Check(std::fabs(fresh / static_cast<double>(kLines) - 0.25) < 0.04,
          name + ": fresh-dataset share is off 1/4");
  }

  std::set<uint64_t> warm_seeds;
  for (const std::string& text : a.setup) {
    histk::Result<histk::api::RequestSpec> req = histk::api::ParseRequestJson(text);
    Check(req.ok(), name + ": set-up line does not parse: " + req.status().message());
    if (req.ok()) warm_seeds.insert(req->seed);
  }
  std::set<uint64_t> miss_seeds;
  for (const RequestLine& line : a.measured) {
    histk::Result<histk::api::RequestSpec> req = histk::api::ParseRequestJson(line.text);
    Check(req.ok(), name + ": measured line does not parse");
    if (!req.ok()) continue;
    Check(req->seed == line.seed, name + ": line seed disagrees with its text");
    if (line.cache == CacheExpect::kHit) {
      Check(warm_seeds.count(req->seed) == 1, name + ": a hit uses a seed never warmed");
    } else {
      Check(warm_seeds.count(req->seed) == 0, name + ": a warm-up seed reappears as a miss seed");
      Check(miss_seeds.insert(req->seed).second, name + ": a miss seed repeats");
    }
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  for (const perfbench::WorkloadSpec& spec : perfbench::AllWorkloads()) {
    perfbench::CheckWorkload(spec);
  }
  if (perfbench::failures > 0) return 1;
  std::printf("seed self-test ok\n");
  return 0;
}
