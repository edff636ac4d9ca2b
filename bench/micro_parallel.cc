// Thread-scaling microbenchmark for the concurrent mining engine.
//
// Two workloads on a DBpedia-like synthetic KB:
//   * batch   — RemiMiner::MineBatch over a sampled workload of target
//               sets (the paper's many-users serving scenario): one
//               sequential run per set, scheduled across the pool with
//               the shared sharded match-set cache;
//   * premi   — per-set P-REMI (MineRe with num_threads workers and
//               work-stealing subtree spilling), summed over the sets.
//
// For each thread count the harness verifies that every mined (found,
// cost, expression) triple matches the 1-thread baseline, then reports
// wall time and speedup. One pass over the default workload takes
// 0.1-0.25 s, so a single pass does not resolve a speedup on a shared
// host: every thread count's pass runs kRepeats times, interleaved
// (repeat r runs every thread count before repeat r + 1 starts), and each
// row reports the median and min-max seconds; speedups are ratios of
// medians. Results are written as JSON (default BENCH_parallel.json):
//
//   ./bench_micro_parallel [--scale 0.05] [--sets 24] [--seed 7]
//                          [--threads 1,2,4,8] [--out BENCH_parallel.json]
//
// Note: speedups are bounded by the host's core count; the committed
// BENCH_parallel.json records hardware_concurrency alongside the numbers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "kbgen/workload.h"
#include "remi/remi.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

/// Passes per thread count.
constexpr int kRepeats = 9;

/// Seconds of one pass, over the repeats.
struct Spread {
  std::vector<double> samples;

  double Median() const {
    std::vector<double> v = samples;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n == 0) return 0.0;
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  }
  double Min() const {
    return samples.empty() ? 0.0
                           : *std::min_element(samples.begin(), samples.end());
  }
  double Max() const {
    return samples.empty() ? 0.0
                           : *std::max_element(samples.begin(), samples.end());
  }
};

struct Row {
  int threads = 1;
  Spread batch;
  Spread premi;
  bool results_match_baseline = true;
};

double Speedup(const Spread& base, const Spread& spread) {
  const double median = spread.Median();
  return median > 0 ? base.Median() / median : 1.0;
}

std::vector<int> ParseThreadList(const std::string& spec) {
  std::vector<int> threads;
  for (const std::string& tok : remi::SplitString(spec, ',')) {
    if (tok.empty()) continue;
    threads.push_back(std::max(1, std::atoi(tok.c_str())));
  }
  if (threads.empty()) threads = {1, 2, 4, 8};
  return threads;
}

bool SameOutcome(const remi::RemiResult& a, const remi::RemiResult& b) {
  if (a.found != b.found) return false;
  if (!a.found) return true;
  return std::abs(a.cost - b.cost) < 1e-9 && a.expression == b.expression;
}

}  // namespace

int main(int argc, char** argv) {
  remi::Flags flags;
  flags.DefineDouble("scale", remi::bench::kDefaultScale, "KB scale");
  flags.DefineInt("sets", 24, "number of sampled target sets");
  flags.DefineInt("seed", 7, "workload seed");
  flags.DefineString("threads", "1,2,4,8", "comma-separated thread counts");
  flags.DefineString("out", "BENCH_parallel.json", "JSON output path");
  REMI_CHECK_OK(flags.Parse(argc, argv));
  remi::bench::WarnIfNotReleaseBuild();

  const std::vector<int> thread_counts =
      ParseThreadList(flags.GetString("threads"));

  remi::KnowledgeBase kb =
      remi::bench::BuildDbpediaLike(flags.GetDouble("scale"));
  remi::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  remi::WorkloadConfig wconfig;
  wconfig.num_sets = static_cast<size_t>(flags.GetInt("sets"));
  wconfig.top_fraction = 0.05;
  const auto classes = remi::LargestClasses(kb, 4);
  const auto sets = remi::SampleEntitySets(kb, classes, wconfig, &rng);
  std::vector<std::vector<remi::TermId>> batch;
  batch.reserve(sets.size());
  for (const auto& set : sets) batch.push_back(set.entities);

  std::printf("micro_parallel — %zu facts, %zu target sets, "
              "hardware_concurrency=%u\n",
              kb.NumFacts(), batch.size(),
              std::thread::hardware_concurrency());

  std::vector<remi::RemiResult> baseline;
  std::vector<Row> rows(thread_counts.size());
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      Row& row = rows[t];
      row.threads = thread_counts[t];
      remi::RemiOptions options;
      options.num_threads = row.threads;
      options.clamp_threads_to_hardware = false;
      {
        // Fresh miner per pass: cold cache, so each thread count pays the
        // same evaluation work and the comparison is fair.
        remi::RemiMiner miner(&kb, options);
        remi::Timer timer;
        auto results = miner.MineBatch(batch);
        REMI_CHECK_OK(results.status());
        row.batch.samples.push_back(timer.ElapsedSeconds());
        if (baseline.empty()) {
          baseline = std::move(*results);
        } else {
          for (size_t i = 0; i < results->size(); ++i) {
            if (!SameOutcome(baseline[i], (*results)[i])) {
              row.results_match_baseline = false;
            }
          }
        }
      }
      {
        remi::RemiMiner miner(&kb, options);
        remi::Timer timer;
        for (size_t i = 0; i < batch.size(); ++i) {
          auto result = miner.MineRe(batch[i]);
          REMI_CHECK_OK(result.status());
          if (!SameOutcome(baseline[i], *result)) {
            row.results_match_baseline = false;
          }
        }
        row.premi.samples.push_back(timer.ElapsedSeconds());
      }
    }
  }
  for (const Row& row : rows) {
    std::printf("  threads=%-2d batch=%7.3fs [%.3f-%.3f] (x%.2f)  "
                "premi=%7.3fs [%.3f-%.3f] (x%.2f)%s\n",
                row.threads, row.batch.Median(), row.batch.Min(),
                row.batch.Max(), Speedup(rows.front().batch, row.batch),
                row.premi.Median(), row.premi.Min(), row.premi.Max(),
                Speedup(rows.front().premi, row.premi),
                row.results_match_baseline ? "" : "  RESULTS DIVERGE");
  }

  const std::string out_path = flags.GetString("out");
  FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(out, "{\n  \"context\": {\n");
  std::fprintf(out, "    \"build_type\": \"%s\",\n", remi::bench::kBuildType);
  remi::bench::WriteHostContextFields(out);
  std::fprintf(out, "    \"workload\": \"dbpedia_like\",\n");
  std::fprintf(out, "    \"scale\": %g,\n", flags.GetDouble("scale"));
  std::fprintf(out, "    \"num_facts\": %zu,\n", kb.NumFacts());
  std::fprintf(out, "    \"num_target_sets\": %zu,\n", batch.size());
  std::fprintf(out, "    \"repeats\": %d\n", kRepeats);
  std::fprintf(out, "  },\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    // oversubscribed = more workers requested than the host has cores;
    // speedup rows carrying `true` here measure scheduling overhead, not
    // parallel scaling, and must not be read as the paper's P-REMI claim.
    std::fprintf(
        out,
        "    {\"threads\": %d, \"oversubscribed\": %s, "
        "\"batch_seconds_median\": %.6f, \"batch_seconds_min\": %.6f, "
        "\"batch_seconds_max\": %.6f, \"batch_speedup\": %.3f, "
        "\"premi_seconds_median\": %.6f, \"premi_seconds_min\": %.6f, "
        "\"premi_seconds_max\": %.6f, \"premi_speedup\": %.3f, "
        "\"results_match_baseline\": %s}%s\n",
        row.threads,
        (hw != 0 && row.threads > static_cast<int>(hw)) ? "true" : "false",
        row.batch.Median(), row.batch.Min(), row.batch.Max(),
        Speedup(rows.front().batch, row.batch), row.premi.Median(),
        row.premi.Min(), row.premi.Max(),
        Speedup(rows.front().premi, row.premi),
        row.results_match_baseline ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
