// Pure helpers of the perfbench harness: percentiles with an explicit
// tail-sample count, and the order-sensitive response digest that the
// correctness gate compares between the wire run and the in-process
// reference pass. Header-only so selftest.cc can test them without the
// rest of the harness.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of quantile q over n samples (n >= 1).
inline size_t NearestRank(size_t n, double q) {
  // The epsilon keeps q*n that is integral in exact arithmetic (0.99 *
  // 1000) from rounding up to the next rank in floating point.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) -
                                              1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it. q in (0, 1]. Returns 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

/// Samples strictly beyond the nearest-rank q percentile of n samples. A
/// percentile is reported only when this is at least kMinTailSamples.
inline size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

inline constexpr size_t kMinTailSamples = 10;

/// Smallest sample size whose q percentile has kMinTailSamples beyond it.
inline size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (SamplesBeyond(n, q) < kMinTailSamples) ++n;
  return n;
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// The fields of one response that the correctness gate compares. A
/// batch frame contributes one record per set; a summarize response puts
/// its rendered items in `expression` and leaves `found`/`cost` unset.
struct AnswerRecord {
  std::string status;  ///< "OK", "DeadlineExceeded", ...
  bool found = false;
  double cost = 0.0;   ///< compared bit-exactly (JSON carries %.17g)
  std::string expression;
};

/// Order-sensitive 64-bit FNV-1a digest over a sequence of answers.
/// Field and record separators keep ("ab","c") and ("a","bc") apart.
class Digest {
 public:
  void Add(const AnswerRecord& r) {
    Mix(r.status);
    Mix("\x1f");
    Mix(r.found ? "1" : "0");
    Mix("\x1f");
    if (r.found) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", r.cost);
      Mix(buf);
    }
    Mix("\x1f");
    Mix(r.expression);
    Mix("\x1e");
    ++records_;
  }

  uint64_t value() const { return hash_; }
  size_t records() const { return records_; }

  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  void Mix(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<uint8_t>(c);
      hash_ *= 0x100000001b3ull;
    }
  }

  uint64_t hash_ = 0xcbf29ce484222325ull;
  size_t records_ = 0;
};

}  // namespace perfbench
