// Cold-open microbenchmark for the KB persistence formats.
//
// Builds a DBpedia-like synthetic KB, persists it both ways, and measures
// a *cold open* of each representation in a forked child process (fresh
// address space, so per-phase peak RSS is honest):
//
//   * nt    — N-Triples parse + KnowledgeBase::Build (the paper's baseline
//             of re-ingesting text);
//   * rkf2  — RKF2 snapshot open: checksum + validate + adopt in place,
//             no rebuild.
//
// Each phase loads the KB, then answers a fixed probe workload (per-subject
// lookups + stats) to prove the loaded indexes actually work and to fault
// in the mmap'ed pages. Results land in BENCH_snapshot.json; the headline
// number is open_speedup_vs_nt for rkf2 (acceptance bar: >= 10x).
//
//   ./bench_micro_snapshot [--scale 0.05] [--seed 7] [--runs 7]
//                          [--out BENCH_snapshot.json]

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kb/knowledge_base.h"
#include "rdf/ntriples.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

using remi::KnowledgeBase;

struct PhaseResult {
  double load_seconds = 0.0;
  double probe_seconds = 0.0;
  long peak_rss_kb = 0;
  uint64_t probe_checksum = 0;
};

/// Touches the loaded KB so lazily faulted pages are counted and a broken
/// load cannot masquerade as a fast one. Mixes only id-independent
/// quantities: TermIds legitimately differ between a snapshot (original
/// interning order) and a re-parse (file order).
uint64_t ProbeKb(const KnowledgeBase& kb) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(kb.NumFacts());
  mix(kb.NumEntities());
  mix(kb.NumPredicates());
  // Subject degree distribution (order-independent aggregate).
  for (const remi::TermId s : kb.store().subjects()) {
    const uint64_t d = kb.store().SubjectDegree(s);
    h += d * d;
  }
  // The prominence ranking is deterministic up to renaming (frequency
  // descending, lexical tie-break), so frequencies and labels agree.
  const auto prominent = kb.EntitiesByProminence();
  for (size_t i = 0; i < prominent.size() && i < 64; ++i) {
    mix(kb.EntityFrequency(prominent[i]));
    for (const char c : kb.Label(prominent[i])) {
      mix(static_cast<unsigned char>(c));
    }
  }
  // Class size distribution.
  std::vector<uint64_t> class_sizes;
  for (const remi::TermId cls : kb.classes()) {
    class_sizes.push_back(kb.EntitiesOfClass(cls).size());
  }
  std::sort(class_sizes.begin(), class_sizes.end());
  for (const uint64_t size : class_sizes) mix(size);
  return h;
}

KnowledgeBase LoadNt(const std::string& path) {
  remi::Dictionary dict;
  remi::NTriplesParser parser(&dict, /*lenient=*/true);
  auto triples = parser.ParseFile(path);
  REMI_CHECK_OK(triples.status());
  return KnowledgeBase::Build(std::move(dict), std::move(*triples));
}

KnowledgeBase LoadRkf2(const std::string& path) {
  auto kb = KnowledgeBase::OpenSnapshot(path);
  REMI_CHECK_OK(kb.status());
  return std::move(*kb);
}

/// Runs `load` in a forked child; the child reports {seconds, peak RSS,
/// probe checksum} through a pipe. Cold per-phase cost, honest RSS.
PhaseResult MeasureForked(KnowledgeBase (*load)(const std::string&),
                          const std::string& path) {
  int fds[2];
  REMI_CHECK(pipe(fds) == 0);
  const pid_t pid = fork();
  REMI_CHECK(pid >= 0);
  if (pid == 0) {
    close(fds[0]);
    PhaseResult result;
    remi::Timer timer;
    {
      const KnowledgeBase kb = load(path);
      result.load_seconds = timer.ElapsedSeconds();
      remi::Timer probe_timer;
      result.probe_checksum = ProbeKb(kb);
      result.probe_seconds = probe_timer.ElapsedSeconds();
    }
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    result.peak_rss_kb = usage.ru_maxrss;
    const ssize_t written = write(fds[1], &result, sizeof(result));
    _exit(written == sizeof(result) ? 0 : 1);
  }
  close(fds[1]);
  PhaseResult result;
  const ssize_t got = read(fds[0], &result, sizeof(result));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  REMI_CHECK(got == sizeof(result));
  REMI_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return result;
}

struct FormatStats {
  const char* name;
  std::string path;
  KnowledgeBase (*load)(const std::string&);
  size_t file_bytes = 0;
  double best_seconds = 0.0;
  double probe_seconds = 0.0;
  long peak_rss_kb = 0;
};

}  // namespace

int main(int argc, char** argv) {
  remi::Flags flags;
  flags.DefineDouble("scale", remi::bench::kDefaultScale,
                     "synthetic KB scale");
  flags.DefineInt("seed", 7, "synthetic KB seed");
  flags.DefineInt("runs", 7, "cold-open repetitions (best is reported)");
  flags.DefineString("out", "BENCH_snapshot.json", "output JSON path");
  REMI_CHECK_OK(flags.Parse(argc, argv));
  remi::bench::WarnIfNotReleaseBuild();

  remi::bench::Banner("micro_snapshot: cold open, parse+build vs RKF2");
  auto config =
      remi::SyntheticKbConfig::DBpediaLike(flags.GetDouble("scale"));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const KnowledgeBase kb = remi::BuildSyntheticKb(config);
  std::printf("synthetic KB: %zu facts, %zu entities, %zu predicates\n",
              kb.NumFacts(), kb.NumEntities(), kb.NumPredicates());

  // Persist both representations. N-Triples stores base facts (it
  // rebuilds); RKF2 stores the built KB. Everything goes into
  // a per-process temp directory, removed on exit, so repeated runs never
  // litter the working tree.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("remi_bench_snapshot_" + std::to_string(getpid())))
          .string();
  std::filesystem::create_directories(dir);
  struct TempDirCleanup {
    std::string path;
    ~TempDirCleanup() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } cleanup{dir};
  std::vector<remi::Triple> base_facts;
  for (const remi::Triple& t : kb.store().spo()) {
    if (!kb.IsInversePredicate(t.p)) base_facts.push_back(t);
  }
  const std::string nt_path = dir + "/kb.nt";
  const std::string rkf2_path = dir + "/kb.rkf2";
  {
    const std::string doc = remi::WriteNTriples(kb.dict(), base_facts);
    FILE* f = std::fopen(nt_path.c_str(), "wb");
    REMI_CHECK(f != nullptr);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
  }
  REMI_CHECK_OK(kb.SaveSnapshot(rkf2_path));

  FormatStats formats[] = {
      {"nt", nt_path, &LoadNt},
      {"rkf2", rkf2_path, &LoadRkf2},
  };

  const int runs = std::max(1, static_cast<int>(flags.GetInt("runs")));
  uint64_t expected_checksum = 0;
  for (FormatStats& fmt : formats) {
    FILE* f = std::fopen(fmt.path.c_str(), "rb");
    REMI_CHECK(f != nullptr);
    std::fseek(f, 0, SEEK_END);
    fmt.file_bytes = static_cast<size_t>(std::ftell(f));
    std::fclose(f);

    fmt.best_seconds = 1e100;
    fmt.probe_seconds = 1e100;
    for (int run = 0; run < runs; ++run) {
      const PhaseResult r = MeasureForked(fmt.load, fmt.path);
      fmt.best_seconds = std::min(fmt.best_seconds, r.load_seconds);
      fmt.probe_seconds = std::min(fmt.probe_seconds, r.probe_seconds);
      fmt.peak_rss_kb = std::max(fmt.peak_rss_kb, r.peak_rss_kb);
      if (expected_checksum == 0) expected_checksum = r.probe_checksum;
      // Every representation must answer the probe identically.
      REMI_CHECK(r.probe_checksum == expected_checksum);
    }
    std::printf("%-5s %9zu bytes  open %s  probe %s  peak RSS %ld kB\n",
                fmt.name, fmt.file_bytes,
                remi::FormatSeconds(fmt.best_seconds).c_str(),
                remi::FormatSeconds(fmt.probe_seconds).c_str(),
                fmt.peak_rss_kb);
  }

  const double nt_seconds = formats[0].best_seconds;
  std::printf("rkf2 open speedup vs N-Triples parse+build: %.1fx\n",
              nt_seconds / formats[1].best_seconds);

  FILE* out = std::fopen(flags.GetString("out").c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n",
                 flags.GetString("out").c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"context\": {\n");
  std::fprintf(out, "    \"build_type\": \"%s\",\n", remi::bench::kBuildType);
  remi::bench::WriteHostContextFields(out);
  std::fprintf(out, "    \"workload\": \"dbpedia_like\",\n");
  std::fprintf(out, "    \"scale\": %g,\n", flags.GetDouble("scale"));
  std::fprintf(out, "    \"num_facts\": %zu,\n", kb.NumFacts());
  std::fprintf(out, "    \"num_entities\": %zu,\n", kb.NumEntities());
  std::fprintf(out, "    \"cold_runs\": %d\n", runs);
  std::fprintf(out, "  },\n  \"benchmarks\": [\n");
  const size_t num_formats = std::size(formats);
  for (size_t i = 0; i < num_formats; ++i) {
    const FormatStats& fmt = formats[i];
    std::fprintf(out,
                 "    {\"format\": \"%s\", \"file_bytes\": %zu, "
                 "\"open_seconds\": %.6f, \"open_speedup_vs_nt\": %.2f, "
                 "\"probe_seconds\": %.6f, \"peak_rss_kb\": %ld}%s\n",
                 fmt.name, fmt.file_bytes, fmt.best_seconds,
                 nt_seconds / fmt.best_seconds, fmt.probe_seconds,
                 fmt.peak_rss_kb, i + 1 < num_formats ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", flags.GetString("out").c_str());
  return 0;
}
