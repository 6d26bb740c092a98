// Content fingerprints for served datasets: 64-bit hashes, printed as 16
// lowercase hex digits. Item lists hash one 64-bit word per item over
// four xxHash64-style lanes (tag "items-v2"); sketches hash their
// canonical wire bytes with FNV-1a. The fingerprint is the daemon's
// dataset identity — clients upload items once, then reference
// `{"fingerprint": "..."}` in follow-up requests, and the synopsis cache
// keys on it — so it must be a pure function of content: the same items
// at the same domain hash identically whether they arrived inline, from a
// file, or in a different request.
//
// Neither hash is collision-resistant; the DatasetStore therefore
// verifies actual content equality whenever freshly uploaded bytes hash
// onto a live entry (ServedDataset::MatchesItems/MatchesSketchWire), so a
// constructed collision is a typed error, never a silent alias.
#ifndef HISTK_SERVE_FINGERPRINT_H_
#define HISTK_SERVE_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace histk {
namespace serve {

/// Incremental FNV-1a (64-bit, standard offset basis / prime).
class Fingerprinter {
 public:
  void MixByte(uint8_t byte) {
    digest_ ^= byte;
    digest_ *= kPrime;
  }
  /// Mixes a 64-bit value little-endian, one byte at a time.
  void MixU64(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      MixByte(static_cast<uint8_t>(value >> (8 * i)));
    }
  }
  void MixBytes(const char* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      MixByte(static_cast<uint8_t>(data[i]));
    }
  }
  uint64_t digest() const { return digest_; }

 private:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t digest_ = kOffsetBasis;
};

/// Fingerprint of an item-backed dataset: every item in stream order
/// (order matters — it is the draw replay order), then a domain tag, n
/// and the item count.
uint64_t FingerprintItems(int64_t n, const std::vector<int64_t>& items);

/// FingerprintItems split at its one pass over the items, which also
/// finds the largest item: a caller that derives the domain from that
/// maximum reads the items once, not twice.
class ItemsFingerprinter {
 public:
  explicit ItemsFingerprinter(const std::vector<int64_t>& items);
  /// The largest item as an unsigned word (0 for no items), so a negative
  /// item reads as >= 2^63.
  uint64_t max_word() const { return max_word_; }
  /// FingerprintItems(n, items).
  uint64_t Finish(int64_t n) const;

 private:
  uint64_t lane_[4];
  uint64_t max_word_;
  uint64_t count_;
};

/// Fingerprint of a sketch-backed dataset: a sketch tag over the
/// canonical WriteSnapshot wire bytes.
uint64_t FingerprintSketchBytes(const std::string& wire);

/// 16 lowercase hex digits, zero-padded.
std::string FingerprintHex(uint64_t fingerprint);

/// Inverse of FingerprintHex; rejects anything but exactly 16 hex digits.
Result<uint64_t> ParseFingerprintHex(const std::string& hex);

}  // namespace serve
}  // namespace histk

#endif  // HISTK_SERVE_FINGERPRINT_H_
