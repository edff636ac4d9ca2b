// Search-kernel microbenchmark: nodes/sec of the REMI branch-and-bound
// DFS on the DBpedia-like synthetic KB at several scales.
//
// For each scale the harness samples a workload of target sets and mines
// each set twice with one miner: a *cold* pass (empty match-set cache, so
// queue pinning pays full evaluation) and a *warm* pass (cache warm — the
// steady serving state, where the kernel's per-node costs dominate). The
// headline metric is warm nodes/sec = Σ nodes_visited / Σ search_seconds.
// nodes_visited is kernel-independent (the search visits the same tree),
// so nodes/sec ratios between two builds measure pure per-node overhead.
// A change to the search itself (a bound, a pruning rule) changes the tree
// instead: it removes nodes, mostly cheap ones, so nodes/sec can fall
// while the search gets faster. The baseline comparison therefore also
// reports both builds' node counts and warm seconds.
//
// A structural FNV hash over every mined expression is recorded per
// scale; comparing hashes across builds proves the kernels return
// byte-identical results on the benched workload.
//
//   ./bench_micro_search [--scales 0.02,0.05,0.1] [--sets 16] [--seed 7]
//                        [--threads 1] [--out BENCH_search.json]
//                        [--baseline OLD.json]
//
// With --baseline, per-scale speedups against a BENCH_search.json written
// by an older build (e.g. the pre-zero-allocation kernel) are computed
// (warm nodes/sec and warm seconds), result hashes are cross-checked, and
// both runs land in the output file.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "kbgen/workload.h"
#include "remi/remi.h"
#include "util/flags.h"
#include "util/fnv.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

struct ScaleRow {
  double scale = 0.0;
  size_t num_facts = 0;
  size_t num_sets = 0;
  uint64_t nodes = 0;               // per pass (identical cold/warm)
  double cold_seconds = 0.0;        // Σ search_seconds, cold cache
  double warm_seconds = 0.0;        // Σ search_seconds, warm cache
  double cold_nodes_per_sec = 0.0;
  double warm_nodes_per_sec = 0.0;
  uint64_t result_hash = 0;         // FNV over all mined expressions
  // Filled from --baseline when a matching scale is found there.
  bool have_baseline = false;
  double baseline_warm_nodes_per_sec = 0.0;
  double warm_speedup = 0.0;          // ratio of warm nodes/sec
  uint64_t baseline_nodes = 0;
  double baseline_warm_seconds = 0.0;
  double warm_seconds_speedup = 0.0;  // baseline warm s / this warm s
  bool results_match_baseline = true;
};

uint64_t HashResult(uint64_t h, const remi::RemiResult& result) {
  const auto hash_u64 = [&h](uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    h = remi::Fnv1a64Extend(h, std::string_view(buf, 8));
  };
  hash_u64(result.found ? 1 : 0);
  if (!result.found) return h;
  uint64_t cost_bits;
  std::memcpy(&cost_bits, &result.cost, 8);
  hash_u64(cost_bits);
  for (const remi::SubgraphExpression& part : result.expression.parts) {
    hash_u64(static_cast<uint64_t>(part.shape));
    hash_u64(part.p0);
    hash_u64(part.p1);
    hash_u64(part.p2);
    hash_u64(part.c1);
    hash_u64(part.c2);
  }
  for (const remi::TermId e : result.exceptions) hash_u64(e);
  return h;
}

std::vector<double> ParseScaleList(const std::string& spec) {
  std::vector<double> scales;
  for (const std::string& tok : remi::SplitString(spec, ',')) {
    if (tok.empty()) continue;
    const double s = std::atof(tok.c_str());
    if (s > 0) scales.push_back(s);
  }
  if (scales.empty()) scales = {0.02, 0.05, 0.1};
  return scales;
}

/// Loads the per-scale nodes, warm seconds, warm nodes/sec and result
/// hashes of a previous run.
void ApplyBaseline(const std::string& path, std::vector<ScaleRow>* rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "warning: cannot read baseline %s\n", path.c_str());
    return;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = remi::ParseJson(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "warning: baseline %s is not valid JSON: %s\n",
                 path.c_str(), parsed.status().ToString().c_str());
    return;
  }
  const remi::JsonValue* benches = parsed->Find("benchmarks");
  if (benches == nullptr || !benches->is_array()) return;
  for (const remi::JsonValue& entry : benches->items()) {
    const remi::JsonValue* scale = entry.Find("scale");
    const remi::JsonValue* nps = entry.Find("warm_nodes_per_sec");
    const remi::JsonValue* hash = entry.Find("result_hash");
    const remi::JsonValue* nodes = entry.Find("nodes");
    const remi::JsonValue* warm = entry.Find("warm_seconds");
    if (scale == nullptr || nps == nullptr) continue;
    for (ScaleRow& row : *rows) {
      if (std::abs(row.scale - scale->AsNumber()) > 1e-12) continue;
      row.have_baseline = true;
      row.baseline_warm_nodes_per_sec = nps->AsNumber();
      row.warm_speedup = row.baseline_warm_nodes_per_sec > 0
                             ? row.warm_nodes_per_sec /
                                   row.baseline_warm_nodes_per_sec
                             : 0.0;
      if (nodes != nullptr && warm != nullptr) {
        row.baseline_nodes = static_cast<uint64_t>(nodes->AsNumber());
        row.baseline_warm_seconds = warm->AsNumber();
        row.warm_seconds_speedup =
            row.warm_seconds > 0 ? row.baseline_warm_seconds / row.warm_seconds
                                 : 0.0;
      }
      if (hash != nullptr && hash->is_string()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(row.result_hash));
        row.results_match_baseline = hash->AsString() == buf;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  remi::Flags flags;
  flags.DefineString("scales", "0.02,0.05,0.1",
                     "comma-separated synthetic KB scales");
  flags.DefineInt("sets", 16, "number of sampled target sets per scale");
  flags.DefineInt("seed", 7, "workload seed");
  flags.DefineInt("threads", 1, "miner threads (1 = sequential kernel)");
  flags.DefineString("out", "BENCH_search.json", "JSON output path");
  flags.DefineString("baseline", "",
                     "BENCH_search.json from an older build to compare "
                     "against");
  REMI_CHECK_OK(flags.Parse(argc, argv));
  remi::bench::WarnIfNotReleaseBuild();

  const std::vector<double> scales = ParseScaleList(flags.GetString("scales"));
  const int threads = static_cast<int>(flags.GetInt("threads"));

  std::vector<ScaleRow> rows;
  for (const double scale : scales) {
    remi::KnowledgeBase kb = remi::bench::BuildDbpediaLike(scale);
    remi::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
    remi::WorkloadConfig wconfig;
    wconfig.num_sets = static_cast<size_t>(flags.GetInt("sets"));
    wconfig.top_fraction = 0.05;
    const auto classes = remi::LargestClasses(kb, 4);
    const auto sets = remi::SampleEntitySets(kb, classes, wconfig, &rng);

    remi::RemiOptions options;
    options.num_threads = threads;
    options.clamp_threads_to_hardware = false;
    remi::RemiMiner miner(&kb, options);

    ScaleRow row;
    row.scale = scale;
    row.num_facts = kb.NumFacts();
    row.num_sets = sets.size();

    // Pass 1 (cold cache) and pass 2 (warm cache, the steady state).
    for (const bool warm : {false, true}) {
      uint64_t nodes = 0;
      uint64_t hash = remi::kFnv1a64Seed;
      double seconds = 0.0;
      for (const auto& set : sets) {
        auto result = miner.MineRe(set.entities);
        REMI_CHECK_OK(result.status());
        nodes += result->stats.nodes_visited;
        seconds += result->stats.search_seconds;
        hash = HashResult(hash, *result);
      }
      if (warm) {
        row.warm_seconds = seconds;
        row.warm_nodes_per_sec = seconds > 0 ? nodes / seconds : 0.0;
        if (hash != row.result_hash) {
          std::fprintf(stderr,
                       "error: warm pass mined different results than the "
                       "cold pass at scale %g\n",
                       scale);
          return 1;
        }
      } else {
        row.nodes = nodes;
        row.cold_seconds = seconds;
        row.cold_nodes_per_sec = seconds > 0 ? nodes / seconds : 0.0;
        row.result_hash = hash;
      }
    }

    std::printf("scale=%-5g facts=%-7zu sets=%-3zu nodes=%-9llu "
                "cold=%8.3fs (%.0f n/s)  warm=%8.3fs (%.0f n/s)\n",
                row.scale, row.num_facts, row.num_sets,
                static_cast<unsigned long long>(row.nodes), row.cold_seconds,
                row.cold_nodes_per_sec, row.warm_seconds,
                row.warm_nodes_per_sec);
    rows.push_back(row);
  }

  const std::string baseline = flags.GetString("baseline");
  if (!baseline.empty()) {
    ApplyBaseline(baseline, &rows);
    for (const ScaleRow& row : rows) {
      if (!row.have_baseline) continue;
      std::printf("scale=%-5g vs baseline: nodes %llu -> %llu, warm %.3fs -> "
                  "%.3fs (x%.2f), warm nodes/sec x%.2f, results %s\n",
                  row.scale,
                  static_cast<unsigned long long>(row.baseline_nodes),
                  static_cast<unsigned long long>(row.nodes),
                  row.baseline_warm_seconds, row.warm_seconds,
                  row.warm_seconds_speedup, row.warm_speedup,
                  row.results_match_baseline ? "IDENTICAL" : "DIVERGE");
      if (!row.results_match_baseline) {
        std::fprintf(stderr,
                     "error: mined results differ from the baseline build "
                     "at scale %g\n",
                     row.scale);
        return 1;
      }
    }
  }

  const std::string out_path = flags.GetString("out");
  FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"context\": {\n");
  std::fprintf(out, "    \"build_type\": \"%s\",\n", remi::bench::kBuildType);
  remi::bench::WriteHostContextFields(out);
  std::fprintf(out, "    \"workload\": \"dbpedia_like\",\n");
  std::fprintf(out, "    \"num_target_sets\": %d,\n",
               static_cast<int>(flags.GetInt("sets")));
  std::fprintf(out, "    \"seed\": %d,\n",
               static_cast<int>(flags.GetInt("seed")));
  std::fprintf(out, "    \"threads\": %d\n", threads);
  std::fprintf(out, "  },\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& row = rows[i];
    std::fprintf(out,
                 "    {\"scale\": %g, \"num_facts\": %zu, \"sets\": %zu, "
                 "\"nodes\": %llu, \"cold_seconds\": %.6f, "
                 "\"warm_seconds\": %.6f, \"cold_nodes_per_sec\": %.1f, "
                 "\"warm_nodes_per_sec\": %.1f, \"result_hash\": \"%016llx\"",
                 row.scale, row.num_facts, row.num_sets,
                 static_cast<unsigned long long>(row.nodes), row.cold_seconds,
                 row.warm_seconds, row.cold_nodes_per_sec,
                 row.warm_nodes_per_sec,
                 static_cast<unsigned long long>(row.result_hash));
    if (row.have_baseline) {
      std::fprintf(out,
                   ", \"baseline_nodes\": %llu, "
                   "\"baseline_warm_seconds\": %.6f, "
                   "\"warm_seconds_speedup\": %.3f, "
                   "\"baseline_warm_nodes_per_sec\": %.1f, "
                   "\"warm_speedup\": %.3f, \"results_match_baseline\": %s",
                   static_cast<unsigned long long>(row.baseline_nodes),
                   row.baseline_warm_seconds, row.warm_seconds_speedup,
                   row.baseline_warm_nodes_per_sec, row.warm_speedup,
                   row.results_match_baseline ? "true" : "false");
    }
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
