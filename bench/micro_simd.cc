// Scalar-vs-SIMD microbenchmark for the set kernels behind the search
// inner loop (query/simd_kernels.h), measured through the real EntitySet
// entry points so the numbers include dispatch overhead exactly as the
// miner pays it. For every operation x universe size, the harness forces
// each SIMD level the host can run (scalar always included), verifies the
// op result is identical to scalar, and reports ns/op plus the speedup
// over scalar. Results go to BENCH_simd.json:
//
//   ./bench_micro_simd [--universes 65536,262144,1048576]
//                      [--density 0.5] [--out BENCH_simd.json]
//
// Ops covered (bitmap x bitmap unless noted):
//   * intersect_count — EntitySet::IntersectCount, uncapped (word-AND +
//     popcount; the count-first node decision);
//   * intersect_count_capped — same with cap=64 (the DFS's |T|+k regime;
//     early exit bounds the win);
//   * intersect_into — EntitySet::IntersectInto into a reused frame
//     (fused AND-store-popcount; arena materialization);
//   * subset — EntitySet::SubsetOf (redundant-subtree prune);
//   * forced_bitmap_build — EntitySet::ForcedBitmap from a sparse vector
//     set (pinned-twin construction).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "query/entity_set.h"
#include "query/simd_kernels.h"
#include "util/cpu_features.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

using remi::EntitySet;
using remi::SimdLevel;
using remi::TermId;

struct Row {
  std::string op;
  size_t universe_bits = 0;
  const char* level = "scalar";
  double ns_per_op = 0.0;
  double speedup_vs_scalar = 1.0;
  bool matches_scalar = true;
};

std::vector<size_t> ParseUniverseList(const std::string& spec) {
  std::vector<size_t> universes;
  for (const std::string& tok : remi::SplitString(spec, ',')) {
    if (tok.empty()) continue;
    const long long v = std::atoll(tok.c_str());
    if (v > 0) universes.push_back(static_cast<size_t>(v));
  }
  if (universes.empty()) universes = {65536, 262144, 1048576};
  return universes;
}

EntitySet RandomBitmapSet(std::mt19937_64* rng, size_t universe,
                          double density) {
  std::bernoulli_distribution member(density);
  std::vector<TermId> ids;
  ids.reserve(static_cast<size_t>(static_cast<double>(universe) * density));
  for (size_t id = 0; id < universe; ++id) {
    if (member(*rng)) ids.push_back(static_cast<TermId>(id));
  }
  return EntitySet::FromSorted(std::move(ids), universe).ForcedBitmap(universe);
}

EntitySet SparseVectorSet(std::mt19937_64* rng, size_t universe) {
  // ~1/64 density: squarely in the vector regime regardless of universe,
  // the shape of a typical sparse queue entry before its bitmap twin.
  std::bernoulli_distribution member(1.0 / 64.0);
  std::vector<TermId> ids;
  for (size_t id = 0; id < universe; ++id) {
    if (member(*rng)) ids.push_back(static_cast<TermId>(id));
  }
  return EntitySet::FromSorted(std::move(ids), 0);
}

/// Runs `op` until ~80ms of wall time, returns ns per call. `op` returns a
/// uint64_t folded into *result so the compiler cannot elide the work;
/// the final value (same iteration count across levels is NOT guaranteed,
/// so callers compare single-shot results, not this accumulator).
template <typename Op>
double MeasureNsPerOp(const Op& op, uint64_t* sink) {
  size_t iters = 1;
  for (;;) {
    remi::Timer timer;
    uint64_t local = 0;
    for (size_t i = 0; i < iters; ++i) local += op();
    const double elapsed = timer.ElapsedSeconds();
    *sink += local;
    if (elapsed > 0.08) {
      return elapsed / static_cast<double>(iters) * 1e9;
    }
    const double target_iters =
        elapsed > 0 ? static_cast<double>(iters) * 0.12 / elapsed
                    : static_cast<double>(iters) * 8;
    iters = static_cast<size_t>(target_iters) + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  remi::Flags flags;
  flags.DefineString("universes", "65536,262144,1048576",
                     "comma-separated universe sizes in bits");
  flags.DefineDouble("density", 0.5, "bit density of the dense operands");
  flags.DefineString("out", "BENCH_simd.json", "JSON output path");
  REMI_CHECK_OK(flags.Parse(argc, argv));
  remi::bench::WarnIfNotReleaseBuild();

  const double density = flags.GetDouble("density");
  const std::vector<size_t> universes =
      ParseUniverseList(flags.GetString("universes"));

  // scalar first: every other level's speedup and result check is
  // relative to it.
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  const SimdLevel best = remi::DetectCpuFeatures().Best();
  for (SimdLevel level :
       {SimdLevel::kNeon, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level <= best &&
        &remi::SetKernelsFor(level) !=
            &remi::SetKernelsFor(SimdLevel::kScalar)) {
      levels.push_back(level);
    }
  }

  std::printf("micro_simd — cpu=%s, dispatch levels:",
              remi::DetectCpuFeatures().Describe().c_str());
  for (SimdLevel level : levels) {
    std::printf(" %s", remi::SimdLevelName(level));
  }
  std::printf("\n");

  std::vector<Row> rows;
  uint64_t sink = 0;
  for (const size_t universe : universes) {
    std::mt19937_64 rng(universe * 2654435761u + 17);
    const EntitySet a = RandomBitmapSet(&rng, universe, density);
    const EntitySet b = RandomBitmapSet(&rng, universe, density);
    const EntitySet sub = a.Intersect(b).ForcedBitmap(universe);
    const EntitySet sparse = SparseVectorSet(&rng, universe);
    EntitySet frame;

    struct OpDef {
      const char* name;
      std::function<uint64_t()> run;
    };
    const std::vector<OpDef> ops = {
        {"intersect_count",
         [&] { return a.IntersectCount(b, SIZE_MAX); }},
        // The cap contract is "any value > cap means exceeds": levels
        // legitimately overshoot by different amounts (scalar exits
        // per word, vector kernels per block), so the comparable result
        // is the clamped one.
        {"intersect_count_capped",
         [&] { return std::min<uint64_t>(a.IntersectCount(b, 64), 65); }},
        {"intersect_into",
         [&] {
           EntitySet::IntersectInto(a, b, &frame);
           return frame.size();
         }},
        {"subset", [&] { return sub.SubsetOf(a) ? 1u : 0u; }},
        {"forced_bitmap_build",
         [&] { return sparse.ForcedBitmap(universe).size(); }},
    };

    for (const OpDef& op : ops) {
      uint64_t scalar_result = 0;
      double scalar_ns = 0.0;
      for (const SimdLevel level : levels) {
        remi::ForceSimdLevel(level);
        const uint64_t single = op.run();
        Row row;
        row.op = op.name;
        row.universe_bits = universe;
        row.level = remi::SimdLevelName(level);
        row.ns_per_op = MeasureNsPerOp(op.run, &sink);
        if (level == SimdLevel::kScalar) {
          scalar_result = single;
          scalar_ns = row.ns_per_op;
        } else {
          row.matches_scalar = single == scalar_result;
          row.speedup_vs_scalar =
              row.ns_per_op > 0 ? scalar_ns / row.ns_per_op : 1.0;
        }
        std::printf("  %-22s u=%-8zu %-7s %10.1f ns/op  x%.2f%s\n",
                    op.name, universe, row.level, row.ns_per_op,
                    row.speedup_vs_scalar,
                    row.matches_scalar ? "" : "  RESULTS DIVERGE");
        rows.push_back(row);
      }
    }
  }
  remi::ClearForcedSimdLevel();

  const std::string out_path = flags.GetString("out");
  FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"context\": {\n");
  std::fprintf(out, "    \"build_type\": \"%s\",\n", remi::bench::kBuildType);
  remi::bench::WriteHostContextFields(out);
  std::fprintf(out, "    \"density\": %g,\n", density);
  std::fprintf(out, "    \"checksum\": %llu\n",
               static_cast<unsigned long long>(sink & 0xffff));
  std::fprintf(out, "  },\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"op\": \"%s\", \"universe_bits\": %zu, "
                 "\"level\": \"%s\", \"ns_per_op\": %.1f, "
                 "\"speedup_vs_scalar\": %.2f, \"matches_scalar\": %s}%s\n",
                 row.op.c_str(), row.universe_bits, row.level, row.ns_per_op,
                 row.speedup_vs_scalar, row.matches_scalar ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
