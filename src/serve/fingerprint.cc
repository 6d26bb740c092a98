#include "serve/fingerprint.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace histk {
namespace serve {

namespace {
// Domain-separation tags: an item stream and a sketch that happen to
// serialize alike must not collide. The items tag names the hash's
// version, so a fingerprint from another version never aliases.
constexpr uint64_t kItemsTag = 0x6974656d732d7632ULL;   // "items-v2"
constexpr uint64_t kSketchTag = 0x736b657463682d76ULL;  // "sketch-v"

// xxHash64's primes and round: one multiply-rotate-multiply per 64-bit
// word, with four independent lanes so the rounds overlap.
constexpr uint64_t kP1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kP3 = 0x165667b19e3779f9ULL;
constexpr uint64_t kP4 = 0x85ebca77c2b2ae63ULL;

constexpr uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

constexpr uint64_t Round(uint64_t acc, uint64_t word) {
  return Rotl(acc + word * kP2, 31) * kP1;
}

constexpr uint64_t Merge(uint64_t h, uint64_t word) {
  return Rotl(h ^ Round(0, word), 27) * kP1 + kP4;
}
}  // namespace

ItemsFingerprinter::ItemsFingerprinter(const std::vector<int64_t>& items)
    : count_(items.size()) {
  // Item i feeds lane i % 4. Finish merges the item count, which fixes
  // how many words each lane took, so lists of different lengths cannot
  // align. Locals, not members: stores to a uint64_t member could alias
  // the int64_t items and force a reload every round.
  uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  uint64_t max_word = 0;
  auto take = [&lane, &max_word](size_t j, int64_t item) {
    const auto word = static_cast<uint64_t>(item);
    max_word = std::max(max_word, word);
    lane[j] = Round(lane[j], word);
  };
  const size_t body = items.size() - items.size() % 4;
  for (size_t i = 0; i < body; i += 4) {
    for (size_t j = 0; j < 4; ++j) take(j, items[i + j]);
  }
  for (size_t i = body; i < items.size(); ++i) take(i - body, items[i]);
  std::copy(lane, lane + 4, lane_);
  max_word_ = max_word;
}

uint64_t ItemsFingerprinter::Finish(int64_t n) const {
  uint64_t h = Rotl(lane_[0], 1) + Rotl(lane_[1], 7) + Rotl(lane_[2], 12) +
               Rotl(lane_[3], 18);
  for (uint64_t v : lane_) h = Merge(h, v);
  h = Merge(h, kItemsTag);
  h = Merge(h, static_cast<uint64_t>(n));
  h = Merge(h, count_);
  // xxHash64's avalanche: every input bit reaches every output bit.
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

uint64_t FingerprintItems(int64_t n, const std::vector<int64_t>& items) {
  return ItemsFingerprinter(items).Finish(n);
}

uint64_t FingerprintSketchBytes(const std::string& wire) {
  Fingerprinter fp;
  fp.MixU64(kSketchTag);
  fp.MixU64(static_cast<uint64_t>(wire.size()));
  fp.MixBytes(wire.data(), wire.size());
  return fp.digest();
}

std::string FingerprintHex(uint64_t fingerprint) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[fingerprint & 0xF];
    fingerprint >>= 4;
  }
  return out;
}

Result<uint64_t> ParseFingerprintHex(const std::string& hex) {
  if (hex.size() != 16) {
    return Status::InvalidArgument("fingerprint must be 16 hex digits, got \"" +
                                   hex + "\"");
  }
  uint64_t value = 0;
  for (char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return Status::InvalidArgument(
          "fingerprint must be 16 hex digits, got \"" + hex + "\"");
    }
  }
  return value;
}

}  // namespace serve
}  // namespace histk
