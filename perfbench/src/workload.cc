#include "workload.h"

#include <algorithm>
#include <cstdio>

#include "serve/fingerprint.h"

namespace perfbench {

uint64_t Mix(uint64_t a, uint64_t b) {
  SplitMix64 rng(a ^ (b * 0xd1342543de82ef95ULL));
  return rng.Next();
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kLearn:
      return "learn";
    case Kind::kEstimate:
      return "estimate";
    case Kind::kPropertyTest:
      return "property-test";
    case Kind::kCloseness:
      return "closeness";
    case Kind::kTest:
      return "test";
  }
  return "unknown";
}

const char* CacheExpectName(CacheExpect cache) {
  switch (cache) {
    case CacheExpect::kHit:
      return "hit";
    case CacheExpect::kMiss:
      return "miss";
    case CacheExpect::kBypass:
      return "bypass";
  }
  return "unknown";
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  // trace_lines and the check subset are sized so the traced replay and the
  // in-process byte-compare each stay within a few seconds per run.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {WorkloadId::kHitRead, "hit_read", 3, 8, 2000, 4000, 64, 256},
      {WorkloadId::kColdMiss, "cold_miss", 2, 8, 2000, 40, 32, 12},
      {WorkloadId::kIngestTest, "ingest_test", 2, 8, 20000, 120, 32, 24},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<int64_t> MakeKHistogramItems(uint64_t seed, int64_t count) {
  SplitMix64 rng(seed);
  // kPieces - 1 distinct cut points in [1, kDomain - 1].
  std::vector<int64_t> cuts;
  while (static_cast<int>(cuts.size()) < kPieces - 1) {
    const int64_t cut = 1 + rng.Below(kDomain - 1);
    if (std::find(cuts.begin(), cuts.end(), cut) == cuts.end()) {
      cuts.push_back(cut);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<int64_t> lo(kPieces);
  std::vector<int64_t> len(kPieces);
  std::vector<double> cumulative(kPieces);
  double total = 0.0;
  for (int j = 0; j < kPieces; ++j) {
    lo[j] = j == 0 ? 0 : cuts[j - 1];
    const int64_t hi = j == kPieces - 1 ? kDomain : cuts[j];
    len[j] = hi - lo[j];
    total += (1.0 + 7.0 * rng.Unit()) * static_cast<double>(len[j]);
    cumulative[j] = total;
  }
  std::vector<int64_t> items(static_cast<size_t>(count));
  for (int64_t& item : items) {
    const double u = rng.Unit() * total;
    int j = 0;
    while (j < kPieces - 1 && u >= cumulative[j]) ++j;
    item = lo[j] + rng.Below(len[j]);
  }
  return items;
}

StreamGenerator::StreamGenerator(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), seed_(seed), rng_(Mix(seed, 0x5eed)) {
  std::vector<RequestLine> loads;
  for (int d = 0; d < spec_.datasets; ++d) {
    Dataset ds = MakeDataset(next_dataset_++);
    RequestLine line;
    line.index = -1;
    line.kind = Kind::kLearn;
    line.cache = CacheExpect::kMiss;
    line.seed = 1;
    line.id = "s0-" + std::to_string(d);
    line.text = Header(line.id, "learn", line.seed) + ",\"n\":" +
                std::to_string(kDomain) + ",\"dataset\":{\"items\":" +
                ds.items_json + "}}";
    loads.push_back(std::move(line));
    if (spec_.id == WorkloadId::kIngestTest) {
      recent_.push_back(std::move(ds));
    } else {
      datasets_.push_back(std::move(ds));
    }
  }
  setup_.push_back(std::move(loads));

  if (spec_.id == WorkloadId::kHitRead) {
    // The remaining warm synopses: every dataset under every warm seed.
    std::vector<RequestLine> warm;
    for (int d = 0; d < spec_.datasets; ++d) {
      for (uint64_t w = 2; w <= kWarmSeeds; ++w) {
        RequestLine line;
        line.index = -1;
        line.kind = Kind::kLearn;
        line.cache = CacheExpect::kMiss;
        line.seed = w;
        line.id = "s1-" + std::to_string(d) + "-" + std::to_string(w);
        line.text = Header(line.id, "learn", w) +
                    ",\"dataset\":{\"fingerprint\":\"" +
                    datasets_[static_cast<size_t>(d)].fingerprint + "\"}}";
        warm.push_back(std::move(line));
      }
    }
    setup_.push_back(std::move(warm));
  }
}

int64_t StreamGenerator::setup_line_count() const {
  int64_t total = 0;
  for (const auto& phase : setup_) total += static_cast<int64_t>(phase.size());
  return total;
}

bool StreamGenerator::InCheckSubset(int64_t index) const {
  return Mix(seed_ ^ 0xc4ec, static_cast<uint64_t>(index)) % spec_.check_every ==
         0;
}

StreamGenerator::Dataset StreamGenerator::MakeDataset(uint64_t index) {
  const std::vector<int64_t> items =
      MakeKHistogramItems(Mix(seed_, 0xda7a0000 + index), spec_.items);
  Dataset ds;
  ds.items_json.reserve(static_cast<size_t>(spec_.items) * 4 + 2);
  ds.items_json += '[';
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) ds.items_json += ',';
    ds.items_json += std::to_string(items[i]);
  }
  ds.items_json += ']';
  ds.fingerprint = histk::serve::FingerprintHex(
      histk::serve::FingerprintItems(kDomain, items));
  return ds;
}

std::string StreamGenerator::Header(const std::string& id, const char* kind,
                                    uint64_t seed) const {
  const int k = std::string(kind) == "closeness" ? 2 : kPieces;
  return "{\"id\":\"" + id + "\",\"kind\":\"" + kind +
         "\",\"k\":" + std::to_string(k) +
         ",\"eps\":0.3,\"scale\":0.25,\"seed\":" + std::to_string(seed);
}

/// 1-8 quantile levels and 1-8 inclusive ranges within the domain.
std::string StreamGenerator::QueryFields() {
  std::string out = ",\"quantiles\":[";
  const int64_t nq = 1 + rng_.Below(8);
  for (int64_t i = 0; i < nq; ++i) {
    char level[16];
    std::snprintf(level, sizeof(level), "%.3f",
                  static_cast<double>(rng_.Below(1001)) / 1000.0);
    if (i > 0) out += ',';
    out += level;
  }
  out += "],\"ranges\":[";
  const int64_t nr = 1 + rng_.Below(8);
  for (int64_t i = 0; i < nr; ++i) {
    int64_t a = rng_.Below(kDomain);
    int64_t b = rng_.Below(kDomain);
    if (a > b) std::swap(a, b);
    if (i > 0) out += ',';
    out += "[" + std::to_string(a) + "," + std::to_string(b) + "]";
  }
  out += "]";
  return out;
}

RequestLine StreamGenerator::Next() {
  RequestLine line;
  line.index = next_index_++;
  line.id = "m" + std::to_string(line.index);
  switch (spec_.id) {
    case WorkloadId::kHitRead: {
      line.kind = rng_.Unit() < 0.8 ? Kind::kEstimate : Kind::kLearn;
      line.cache = CacheExpect::kHit;
      const Dataset& ds =
          datasets_[static_cast<size_t>(rng_.Below(spec_.datasets))];
      line.seed = 1 + static_cast<uint64_t>(rng_.Below(kWarmSeeds));
      line.text = Header(line.id, KindName(line.kind), line.seed);
      if (line.kind == Kind::kEstimate) line.text += QueryFields();
      line.text += ",\"dataset\":{\"fingerprint\":\"" + ds.fingerprint + "\"}}";
      break;
    }
    case WorkloadId::kColdMiss: {
      const double u = rng_.Unit();
      line.kind = u < 0.4   ? Kind::kLearn
                  : u < 0.7 ? Kind::kEstimate
                  : u < 0.9 ? Kind::kPropertyTest
                            : Kind::kCloseness;
      const bool cached = line.kind == Kind::kLearn || line.kind == Kind::kEstimate;
      line.cache = cached ? CacheExpect::kMiss : CacheExpect::kBypass;
      line.seed = kMissSeedBase + static_cast<uint64_t>(line.index);
      const int64_t d = rng_.Below(spec_.datasets);
      line.text = Header(line.id, KindName(line.kind), line.seed);
      if (line.kind == Kind::kEstimate) line.text += QueryFields();
      line.text += ",\"dataset\":{\"fingerprint\":\"" +
                   datasets_[static_cast<size_t>(d)].fingerprint + "\"}";
      if (line.kind == Kind::kCloseness) {
        const int64_t other = (d + 1 + rng_.Below(spec_.datasets - 1)) % spec_.datasets;
        line.text += ",\"other\":{\"fingerprint\":\"" +
                     datasets_[static_cast<size_t>(other)].fingerprint + "\"}";
      }
      line.text += "}";
      break;
    }
    case WorkloadId::kIngestTest: {
      line.kind = Kind::kTest;
      line.cache = CacheExpect::kBypass;
      line.seed = kMissSeedBase + static_cast<uint64_t>(line.index);
      line.fresh_dataset = rng_.Below(4) == 0;
      const Dataset* ds = nullptr;
      if (line.fresh_dataset) {
        recent_.push_back(MakeDataset(next_dataset_++));
        if (recent_.size() > 8) recent_.pop_front();
        ds = &recent_.back();
      } else {
        ds = &recent_[static_cast<size_t>(
            rng_.Below(static_cast<int64_t>(recent_.size())))];
      }
      line.text = Header(line.id, "test", line.seed) + ",\"norm\":\"l2\",\"n\":" +
                  std::to_string(kDomain) + ",\"dataset\":{\"items\":" +
                  ds->items_json + "}}";
      break;
    }
  }
  return line;
}

}  // namespace perfbench
