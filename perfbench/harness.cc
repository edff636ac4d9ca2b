// perfbench — closed-loop benchmark of the shipped remi_server binary.
//
//   perfbench --workload serve_reload --seed 1 --seconds 8 --trace 0
//             --server .bench_build/perfbench/remi/remi_server
//             --data-dir .bench_build/perfbench-data
//
// One run = one workload (perfbench/README.md has the full account):
//   1. prepare  the DBpedia-like synthetic KB at scale 2.0 (fixed KB seed)
//               as an RKF2 snapshot, once per build (data preparation,
//               never timed), and the request list: a question pool from
//               --pool-seed, ordered by --seed;
//   2. rounds   kRounds times: spawn remi_server, time spawn -> first OK
//               `mine` (setup_s), warm up, then serve 1/kRounds of the
//               list from one single-threaded client over at most 2
//               loopback connections (binary framing, closed loop, fixed
//               window of outstanding frames); read VmHWM, reload, read
//               the `counters` verb, stop the server;
//   3. check    digest every answer against an in-process reference pass
//               on the same snapshot, match per-answer node counts, and
//               reconcile each server's `counters` (exact-count gates);
//   4. report   human-readable metric lines, then one JSON line.
//
// --trace 1 adds in-process replays of the same request list: a traced
// one against a Service opened with the server's options (spans around
// the codec and Service calls, plus the durations the calls report), its
// untraced twin (the tracing overhead), and the per-layer metrics.
//
// The request list is a fixed amount of work: --seconds times the
// workload's nominal rate on the reference host (4-vCPU x86-64), so the
// timed phase lasts about --seconds there and its DFS node count is a
// function of the seeds alone.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "bench_stats.h"
#include "kbgen/synthetic.h"
#include "kbgen/workload.h"
#include "service/frame_codec.h"
#include "service/json_codec.h"
#include "service/service.h"
#include "util/cpu_features.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/random.h"

namespace perfbench {
namespace {

using remi::FrameVerb;
using remi::JsonValue;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- fixed benchmark parameters ----------------------------------------------

constexpr double kKbScale = 2.0;  // SyntheticKbConfig::DBpediaLike(2.0)
// A run is kRounds rounds, each against a fresh remi_server process that
// serves 1/kRounds of the timed list. Throughput moves by about +-10%
// between server processes on the reference host (the same list, back
// to back, agrees within about 5% inside one process), so a run pools
// several processes instead of betting on one.
constexpr size_t kRounds = 7;
// Idle reloads per round on workloads without reload traffic (reload_s).
constexpr int kIdleReloads = 2;
constexpr size_t kBatchSets = 8;  // sets per batch_mine frame
constexpr size_t kZipfPool = 500; // distinct sets behind the Zipf draws
constexpr double kMineDeadlineMs = 5000.0;
constexpr double kBatchDeadlineMs = 20000.0;
constexpr double kWarmupSeconds = 0.5;  // of nominal work, per round
constexpr double kServerStartTimeout = 120.0;
constexpr double kStallTimeout = 60.0;  // no response for this long = hang

/// One workload: server flags, client shape, request mix.
struct Workload {
  const char* name;
  const char* why;
  int threads;           // remi_server --threads
  int max_inflight;      // --max-inflight (mining slots)
  int dispatch_threads;  // --dispatch-threads
  int read_connections;  // client connections carrying reads
  int window;            // outstanding frames per read connection
  bool reload;           // + one connection sending `reload`
  bool batch;            // reads are batch_mine frames of kBatchSets sets
  double mine_share;     // share of `mine` among single reads (rest summarize)
  double nominal_rate;   // frames/s on the reference host (sizes the list)
  size_t reload_every;   // reads between reloads
};

const Workload kWorkloads[] = {
    {"batch_paper",
     "the paper's runtime protocol: batches of 8 distinct 4.2.2 sets; "
     "search, queue build, set kernels and the batch pool do the work",
     2, 2, 2, 1, 2, false, true, 1.0, 73.0, 0},
    {"serve_mixed",
     "80% mine / 20% summarize, Zipf over 500 sets: hot eval cache, "
     "admission queue wait, mining sets the tail",
     1, 2, 8, 2, 4, false, false, 0.8, 1000.0, 0},
    {"serve_light",
     "summarize only: transport, framing, JSON codec and dispatch "
     "hand-off dominate; a search change should show nothing",
     1, 2, 2, 1, 4, false, false, 0.0, 62000.0, 0},
    {"serve_reload",
     "serve_mixed reads plus a reload of the same snapshot every 750 "
     "reads: epoch publish/drain, cold caches, two generations resident",
     1, 2, 9, 1, 8, true, false, 0.8, 950.0, 750},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// The running remi_server child, if any: Die() must not leave it behind,
// since std::exit skips the destructors that would stop it.
pid_t g_server_pid = -1;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: error: %s\n", message.c_str());
  if (g_server_pid > 0) {
    kill(g_server_pid, SIGKILL);
    waitpid(g_server_pid, nullptr, 0);
  }
  std::exit(2);
}

/// CPU time the hypervisor took from this machine's CPUs ("steal" in
/// /proc/stat), in seconds; reported so a run slowed by the host shows.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field[8] = {};
  in >> cpu;
  for (double& f : field) in >> f;
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// --- the KB snapshot ----------------------------------------------------------

std::string FileStamp(const std::string& path) {
  struct stat st{};
  if (stat(path.c_str(), &st) != 0) return "missing";
  return std::to_string(st.st_size) + ":" +
         std::to_string(st.st_mtim.tv_sec) + "." +
         std::to_string(st.st_mtim.tv_nsec);
}

/// Builds the snapshot unless one made by the same binaries exists. A new
/// build also forgets the node counts recorded by the previous one.
std::string PrepareSnapshot(const std::string& data_dir,
                            const std::string& server_path,
                            const std::string& self_path) {
  std::filesystem::create_directories(data_dir);
  const remi::SyntheticKbConfig config =
      remi::SyntheticKbConfig::DBpediaLike(kKbScale);
  const std::string path = data_dir + "/dbpedia-scale" +
                           std::to_string(kKbScale).substr(0, 3) + "-seed" +
                           std::to_string(config.seed) + ".rkf2";
  const std::string stamp =
      FileStamp(server_path) + " " + FileStamp(self_path);
  {
    std::ifstream in(path + ".stamp");
    std::string existing;
    std::getline(in, existing);
    if (existing == stamp && FileStamp(path) != "missing") return path;
  }
  std::filesystem::remove_all(data_dir + "/nodes");
  std::fprintf(stderr, "perfbench: generating the scale-%.1f KB snapshot\n",
               kKbScale);
  const double t0 = Now();
  remi::KnowledgeBase kb = remi::BuildSyntheticKb(config);
  if (auto status = kb.SaveSnapshot(path); !status.ok()) {
    Die("snapshot: " + status.ToString());
  }
  std::ofstream(path + ".stamp") << stamp << "\n";
  std::fprintf(stderr, "perfbench: %zu facts, snapshot written in %.1fs\n",
               kb.NumFacts(), Now() - t0);
  return path;
}

// --- the request list ---------------------------------------------------------

enum class Kind : uint8_t { kMine, kSummarize, kBatch };

struct Request {
  Kind kind = Kind::kMine;
  std::string payload;  // the JSON document of the frame
};

using NameSet = std::vector<std::string>;

/// Lexical forms of a sampled set: IRI local names when they resolve
/// unambiguously (so the server's lazy name index is exercised), full
/// IRIs otherwise.
NameSet NamesOf(const remi::Service& service, const remi::TargetSet& set) {
  NameSet names;
  const remi::Dictionary& dict = service.kb().dict();
  for (remi::TermId id : set.entities) {
    const std::string lex(dict.lexical(id));
    const size_t cut = lex.find_last_of("/#");
    std::string local = cut == std::string::npos ? lex : lex.substr(cut + 1);
    auto resolved = service.ResolveTarget(local);
    names.push_back(resolved.ok() && *resolved == id ? local : lex);
  }
  return names;
}

/// `count` distinct §4.2.2 sets (sizes 1/2/3 at 50/30/20%, one class per
/// set, classes round-robin over the four largest), deterministic in seed.
std::vector<NameSet> SampleDistinctSets(const remi::Service& service,
                                        size_t count, uint64_t seed) {
  const auto classes = remi::LargestClasses(service.kb(), 4);
  remi::Rng rng(seed);
  std::vector<NameSet> out;
  std::set<std::vector<remi::TermId>> seen;
  for (int round = 0; out.size() < count && round < 16; ++round) {
    remi::WorkloadConfig config;
    config.num_sets = (count - out.size()) * 5 / 4 + 8;
    for (const remi::TargetSet& set :
         remi::SampleEntitySets(service.kb(), classes, config, &rng)) {
      std::vector<remi::TermId> key = set.entities;
      std::sort(key.begin(), key.end());
      if (key.empty() || !seen.insert(key).second) continue;
      out.push_back(NamesOf(service, set));
      if (out.size() == count) break;
    }
  }
  if (out.size() < count) Die("could not sample enough distinct sets");
  return out;
}

JsonValue NamesJson(const NameSet& names) {
  JsonValue array = JsonValue::Array();
  for (const std::string& n : names) array.Append(JsonValue::String(n));
  return array;
}

std::string MinePayload(const NameSet& set) {
  JsonValue v = JsonValue::Object();
  v.Set("targets", NamesJson(set));
  v.Set("deadline_ms", JsonValue::Number(kMineDeadlineMs));
  return v.Dump();
}

std::string SummarizePayload(const std::string& entity) {
  JsonValue v = JsonValue::Object();
  v.Set("entity", JsonValue::String(entity));
  v.Set("k", JsonValue::Number(5));
  v.Set("deadline_ms", JsonValue::Number(kMineDeadlineMs));
  return v.Dump();
}

std::string BatchPayload(const std::vector<NameSet>& sets) {
  JsonValue v = JsonValue::Object();
  JsonValue array = JsonValue::Array();
  for (const NameSet& s : sets) array.Append(NamesJson(s));
  v.Set("target_sets", std::move(array));
  v.Set("deadline_ms", JsonValue::Number(kBatchDeadlineMs));
  return v.Dump();
}

/// The warm-up and timed request lists of one workload and seed. The
/// timed list is kRounds equal slices, one per server process.
struct RequestPlan {
  std::vector<Request> warmup;  // replayed at the start of every round
  std::vector<Request> timed;
  std::string setup_payload;    // the first `mine` of every server

  std::span<const Request> Slice(size_t round) const {
    const size_t per = timed.size() / kRounds;
    return std::span<const Request>(timed).subspan(round * per, per);
  }
};

/// Occurrences of each pool rank in `total` Zipf(1.0) draws, realized
/// exactly (largest remainder) instead of drawn: every seed then carries
/// the same work, and only the order changes.
std::vector<size_t> ZipfCounts(size_t ranks, size_t total) {
  const remi::ZipfSampler zipf(ranks, 1.0);
  std::vector<size_t> counts(ranks);
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t k = 0; k < ranks; ++k) {
    const double exact = zipf.Pmf(k + 1) * static_cast<double>(total);
    counts[k] = static_cast<size_t>(exact);
    assigned += counts[k];
    remainders.push_back({exact - static_cast<double>(counts[k]), k});
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (size_t i = 0; assigned < total; ++i, ++assigned) {
    ++counts[remainders[i % ranks].second];
  }
  return counts;
}

/// Reads of the Zipf workloads: each pool set k occurs counts[k] times,
/// a `mine_share` of its occurrences as `mine` (the rest `summarize` of
/// its first entity), in an order shuffled by `seed`.
std::vector<Request> ZipfReads(const std::vector<NameSet>& pool,
                               double mine_share, size_t total,
                               uint64_t seed) {
  const std::vector<size_t> counts = ZipfCounts(pool.size(), total);
  std::vector<Request> reads;
  reads.reserve(total);
  for (size_t k = 0; k < pool.size(); ++k) {
    for (size_t j = 0; j < counts[k]; ++j) {
      // Occurrence j is a mine iff it raises round(mine_share * (j+1)).
      const bool mine = std::floor(mine_share * (j + 1) + 0.5) >
                        std::floor(mine_share * j + 0.5);
      reads.push_back(mine ? Request{Kind::kMine, MinePayload(pool[k])}
                           : Request{Kind::kSummarize,
                                     SummarizePayload(pool[k][0])});
    }
  }
  remi::Rng rng(seed);
  rng.Shuffle(&reads);
  return reads;
}

/// The question pool is sampled from `pool_seed` (part of the workload's
/// definition: set costs are heavy-tailed — the costliest 1% of 4.2.2 sets
/// take about 40% of the mining time — so a pool drawn per run would make
/// run-to-run spread a property of the draw). The workload seed orders
/// the requests: the Zipf read stream, or the sequence of batch frames.
RequestPlan BuildPlan(const remi::Service& service, const Workload& w,
                      uint64_t seed, uint64_t pool_seed, double seconds) {
  RequestPlan plan;
  // The setup request is independent of both seeds, so setup_s measures
  // the server, not which set came first.
  plan.setup_payload = MinePayload(SampleDistinctSets(service, 1, 7)[0]);
  const size_t min_timed = std::max<size_t>(
      static_cast<size_t>(std::ceil(seconds * w.nominal_rate)),
      MinSamplesFor(0.99));
  const size_t per_round = (min_timed + kRounds - 1) / kRounds;
  const size_t warmup =
      static_cast<size_t>(std::ceil(kWarmupSeconds * w.nominal_rate));
  remi::Rng rng(seed);
  if (w.batch) {
    // The pool fixes the frames: 8 consecutive distinct sets each, the
    // warm-up frames first. Every round serves the same timed frames to
    // a fresh server (so every set is new to that server and the eval
    // cache stays mostly cold), in an order the workload seed shuffles.
    const auto sets = SampleDistinctSets(
        service, (warmup + per_round) * kBatchSets, pool_seed);
    std::vector<Request> frames;
    for (size_t f = 0; f * kBatchSets < sets.size(); ++f) {
      std::vector<NameSet> frame(sets.begin() + f * kBatchSets,
                                 sets.begin() + (f + 1) * kBatchSets);
      frames.push_back({Kind::kBatch, BatchPayload(frame)});
    }
    plan.warmup.assign(frames.begin(), frames.begin() + warmup);
    const std::vector<Request> timed(frames.begin() + warmup, frames.end());
    for (size_t r = 0; r < kRounds; ++r) {
      std::vector<Request> order = timed;
      rng.Shuffle(&order);
      plan.timed.insert(plan.timed.end(), order.begin(), order.end());
    }
    return plan;
  }
  // Each round's slice is its own exact Zipf multiset: equal work per
  // round, seeded order.
  const auto pool = SampleDistinctSets(service, kZipfPool, pool_seed);
  plan.warmup = ZipfReads(pool, w.mine_share, warmup, rng.Next());
  for (size_t r = 0; r < kRounds; ++r) {
    for (Request& q : ZipfReads(pool, w.mine_share, per_round, rng.Next())) {
      plan.timed.push_back(std::move(q));
    }
  }
  return plan;
}

FrameVerb VerbOf(Kind kind) {
  switch (kind) {
    case Kind::kMine:
      return FrameVerb::kMine;
    case Kind::kSummarize:
      return FrameVerb::kSummarize;
    case Kind::kBatch:
      return FrameVerb::kBatchMine;
  }
  return FrameVerb::kPing;
}

// --- answers: wire side and reference side -----------------------------------

/// What the gates compare per request: one AnswerRecord per answer (a
/// batch frame has one per set) plus the DFS node count of each answer.
struct Answer {
  std::vector<AnswerRecord> records;
  std::vector<uint64_t> nodes;
  bool ok = false;  // frame-level status OK
  // Server-reported timings (mine / batch only; summarize reports none).
  double queue_wait_s = -1.0;
  double mine_s = -1.0;
};

std::string StatusOf(const JsonValue& v) {
  const JsonValue* s = v.Find("status");
  return s != nullptr && s->is_string() ? s->AsString() : "?";
}

double NumberOf(const JsonValue& v, const char* key, double fallback = 0.0) {
  const JsonValue* n = v.Find(key);
  return n != nullptr && n->is_number() ? n->AsNumber() : fallback;
}

AnswerRecord MineRecordFromJson(const JsonValue& v, uint64_t* nodes) {
  AnswerRecord r;
  r.status = StatusOf(v);
  const JsonValue* found = v.Find("found");
  r.found = found != nullptr && found->is_bool() && found->AsBool();
  if (r.found) {
    r.cost = NumberOf(v, "cost");
    const JsonValue* e = v.Find("expression");
    if (e != nullptr && e->is_string()) r.expression = e->AsString();
  }
  *nodes = 0;
  if (const JsonValue* stats = v.Find("stats")) {
    *nodes = static_cast<uint64_t>(NumberOf(*stats, "nodes_visited"));
  }
  return r;
}

std::string JoinSummary(const std::string& entity,
                        const std::vector<std::string>& items) {
  std::string out = entity;
  for (const std::string& item : items) out += "\n" + item;
  return out;
}

Answer AnswerFromWire(Kind kind, std::string_view payload) {
  Answer a;
  auto parsed = remi::ParseJson(payload);
  if (!parsed.ok()) {
    a.records.push_back({"ParseError", false, 0.0, std::string(payload)});
    a.nodes.push_back(0);
    return a;
  }
  const JsonValue& v = *parsed;
  a.ok = StatusOf(v) == "OK";
  if (kind == Kind::kMine) {
    uint64_t nodes = 0;
    a.records.push_back(MineRecordFromJson(v, &nodes));
    a.nodes.push_back(nodes);
    if (const JsonValue* stats = v.Find("stats")) {
      a.queue_wait_s = NumberOf(*stats, "queue_wait_seconds", -1.0);
      a.mine_s = NumberOf(*stats, "mine_seconds", -1.0);
    }
  } else if (kind == Kind::kBatch) {
    const JsonValue* results = v.Find("results");
    if (results == nullptr || !results->is_array()) {
      a.records.push_back({StatusOf(v), false, 0.0, ""});
      a.nodes.push_back(0);
    } else {
      for (const JsonValue& item : results->items()) {
        uint64_t nodes = 0;
        a.records.push_back(MineRecordFromJson(item, &nodes));
        a.nodes.push_back(nodes);
      }
    }
    a.queue_wait_s = NumberOf(v, "queue_wait_seconds", -1.0);
    a.mine_s = NumberOf(v, "mine_seconds", -1.0);
  } else {
    AnswerRecord r;
    r.status = StatusOf(v);
    std::vector<std::string> items;
    if (const JsonValue* list = v.Find("items"); list && list->is_array()) {
      for (const JsonValue& item : list->items()) {
        items.push_back(item.is_string() ? item.AsString() : "?");
      }
    }
    const JsonValue* entity = v.Find("entity");
    r.expression = JoinSummary(
        entity != nullptr && entity->is_string() ? entity->AsString() : "",
        items);
    a.records.push_back(std::move(r));
    a.nodes.push_back(0);
  }
  return a;
}

AnswerRecord RecordOf(const remi::Result<remi::MineResponse>& r) {
  if (!r.ok()) return {remi::StatusCodeToString(r.status().code()), false,
                       0.0, ""};
  AnswerRecord out;
  out.status = remi::StatusCodeToString(r->status.code());
  out.found = r->found;
  if (r->found) {
    out.cost = r->cost;
    out.expression = r->expression_text;
  }
  return out;
}

AnswerRecord RecordOf(const remi::Result<remi::SummarizeResponse>& r) {
  if (!r.ok()) return {remi::StatusCodeToString(r.status().code()), false,
                       0.0, ""};
  AnswerRecord out;
  out.status = remi::StatusCodeToString(r->status.code());
  out.expression = JoinSummary(r->entity_label, r->item_labels);
  return out;
}

// --- the server child process --------------------------------------------------

/// remi_server as a child process; stopped (SIGTERM, then SIGKILL) and
/// reaped by the destructor.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  bool Start(const std::string& binary, const std::vector<std::string>& args,
             std::string* error) {
    int out[2];
    if (pipe(out) != 0) {
      *error = "pipe failed";
      return false;
    }
    std::vector<std::string> argv_store = {binary};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_store) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ > 0) g_server_pid = pid_;
    if (pid_ == 0) {
      dup2(out[1], STDOUT_FILENO);
      close(out[0]);
      close(out[1]);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    close(out[1]);
    // Read stdout until "listening on <addr>:<port>".
    std::string text;
    const double deadline = Now() + kServerStartTimeout;
    while (Now() < deadline) {
      pollfd pfd{out[0], POLLIN, 0};
      if (poll(&pfd, 1, 100) <= 0) continue;
      char buf[4096];
      const ssize_t n = read(out[0], buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<size_t>(n));
      const size_t at = text.find("listening on ");
      if (at == std::string::npos) continue;
      const size_t eol = text.find('\n', at);
      if (eol == std::string::npos) continue;
      const size_t colon = text.rfind(':', eol);
      port_ = std::atoi(text.c_str() + colon + 1);
      break;
    }
    close(out[0]);
    if (port_ <= 0) {
      *error = "remi_server did not start: " + text;
      Stop();
      return false;
    }
    return true;
  }

  /// SIGTERM, wait up to 30s for the drain, then SIGKILL. Idempotent.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const double deadline = Now() + 30.0;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      usleep(2000);
    }
    pid_ = -1;
    g_server_pid = -1;
  }

  /// VmHWM of the server in MiB (0 if unreadable).
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0.0;
  }

  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

// --- the client -----------------------------------------------------------------

/// One nonblocking binary-framing connection.
class Connection {
 public:
  explicit Connection(int port) : decoder_(64u << 20) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ < 0 ||
        connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      Die("connect to remi_server failed");
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Connection() { close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void Queue(FrameVerb verb, uint64_t id, std::string_view payload) {
    remi::AppendFrame(static_cast<uint8_t>(verb), id, payload, &out_);
  }

  /// Sends as much of the queued output as the socket takes.
  void Flush() {
    while (sent_ < out_.size()) {
      const ssize_t n = send(fd_, out_.data() + sent_, out_.size() - sent_,
                             MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) break;
        Die("send to remi_server failed");
      }
      sent_ += static_cast<size_t>(n);
    }
    if (sent_ == out_.size()) {
      out_.clear();
      sent_ = 0;
    }
  }

  bool WantsWrite() const { return sent_ < out_.size(); }
  int fd() const { return fd_; }

  /// Reads what is available; calls on_frame(id, payload) per frame.
  template <typename F>
  void Receive(F&& on_frame) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) Die("remi_server closed the connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) break;
        Die("recv from remi_server failed");
      }
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      remi::FrameView frame;
      for (;;) {
        const auto r = decoder_.Next(&frame);
        if (r == remi::FrameDecoder::Result::kNeedMore) break;
        if (r == remi::FrameDecoder::Result::kError) {
          Die("bad frame from remi_server: " +
              decoder_.status().ToString());
        }
        on_frame(frame.request_id, frame.payload);
      }
      if (static_cast<size_t>(n) < sizeof(buf)) break;
    }
  }

  /// One blocking request/response (setup, idle reloads, counters).
  std::string RoundTrip(FrameVerb verb, std::string_view payload) {
    const uint64_t id = ++sync_ids_ | (1ull << 60);
    Queue(verb, id, payload);
    std::string response;
    bool done = false;
    const double deadline = Now() + kStallTimeout;
    while (!done) {
      Flush();
      pollfd pfd{fd_, static_cast<short>(POLLIN | (WantsWrite() ? POLLOUT : 0)),
                 0};
      poll(&pfd, 1, 100);
      if (Now() > deadline) Die("remi_server did not answer in time");
      Receive([&](uint64_t rid, std::string_view p) {
        if (rid == id) {
          response.assign(p);
          done = true;
        }
      });
    }
    return response;
  }

 private:
  int fd_ = -1;
  remi::FrameDecoder decoder_;
  std::string out_;
  size_t sent_ = 0;
  uint64_t sync_ids_ = 0;
};

/// Per-request timing and raw answer of the closed loop.
struct Outcome {
  double sent = 0.0;
  double done = 0.0;
  std::string payload;
};

struct ReloadSample {
  double seconds = 0.0;       // client-observed reload latency
  double load_seconds = 0.0;  // server-reported open + validate
  bool ok = false;
};

struct LoopResult {
  std::vector<Outcome> outcomes;  // indexed like the request list
  std::vector<ReloadSample> reloads;
  double first_sent = 0.0;
  double last_done = 0.0;
  size_t epochs_live_max = 0;  // from counters polls (trace runs only)
};

constexpr uint64_t kReloadIdBit = 1ull << 62;
constexpr uint64_t kPollIdBit = 1ull << 61;

size_t EpochsLive(std::string_view counters_payload) {
  auto parsed = remi::ParseJson(counters_payload);
  return parsed.ok() ? static_cast<size_t>(
                           NumberOf(*parsed, "epochs_live_total"))
                     : 0;
}

/// Drives `requests` through the read connections in a closed loop (each
/// connection keeps `window` frames outstanding); with a reload
/// connection, sends `reload` every `reload_every` completed reads, one
/// at a time. With `poll_counters`, the reload connection also samples
/// the `counters` verb every 10 ms, beside the reloads, for epochs_live.
LoopResult RunClosedLoop(std::vector<std::unique_ptr<Connection>>& conns,
                         const Workload& w, std::span<const Request> requests,
                         const std::string& reload_payload,
                         bool poll_counters) {
  LoopResult result;
  result.outcomes.resize(requests.size());
  const size_t n = requests.size();
  const size_t reads = static_cast<size_t>(w.read_connections);
  std::vector<int> inflight(conns.size(), 0);
  size_t next = 0, done = 0;
  // Every reload_every reads; a slice shorter than that still gets one
  // reload, halfway through.
  size_t next_reload_at = w.reload ? std::min(w.reload_every, n / 2) : n + 1;
  bool reload_inflight = false, poll_inflight = false;
  double reload_sent = 0.0, last_poll = 0.0;
  uint64_t reload_ids = 0, poll_ids = 0;
  std::vector<pollfd> pfds(conns.size());
  double last_progress = Now();
  result.first_sent = Now();

  auto on_frame = [&](size_t c, uint64_t id, std::string_view payload,
                      double t) {
    last_progress = t;
    if (id & kReloadIdBit) {
      ReloadSample s;
      s.seconds = t - reload_sent;
      auto parsed = remi::ParseJson(payload);
      s.ok = parsed.ok() && StatusOf(*parsed) == "OK";
      if (parsed.ok()) s.load_seconds = NumberOf(*parsed, "load_seconds");
      result.reloads.push_back(s);
      reload_inflight = false;
      return;
    }
    if (id & kPollIdBit) {
      result.epochs_live_max =
          std::max(result.epochs_live_max, EpochsLive(payload));
      poll_inflight = false;
      return;
    }
    if (id == 0 || id > n) Die("response for unknown request id");
    Outcome& o = result.outcomes[id - 1];
    o.done = t;
    o.payload.assign(payload);
    --inflight[c];
    ++done;
  };

  while (done < n || reload_inflight || poll_inflight) {
    for (size_t c = 0; c < reads; ++c) {
      while (inflight[c] < w.window && next < n) {
        result.outcomes[next].sent = Now();
        conns[c]->Queue(VerbOf(requests[next].kind), next + 1,
                        requests[next].payload);
        ++inflight[c];
        ++next;
      }
    }
    if (w.reload) {
      Connection& rc = *conns[reads];
      if (!reload_inflight && !poll_inflight && done >= next_reload_at &&
          done < n) {
        reload_sent = Now();
        rc.Queue(FrameVerb::kReload, kReloadIdBit | ++reload_ids,
                 reload_payload);
        reload_inflight = true;
        next_reload_at += w.reload_every;
      } else if (poll_counters && !poll_inflight && done < n &&
                 Now() - last_poll >= 0.01) {
        last_poll = Now();
        rc.Queue(FrameVerb::kCounters, kPollIdBit | ++poll_ids, "");
        poll_inflight = true;
      }
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      conns[c]->Flush();
      pfds[c] = {conns[c]->fd(),
                 static_cast<short>(POLLIN |
                                    (conns[c]->WantsWrite() ? POLLOUT : 0)),
                 0};
    }
    const int ready = poll(pfds.data(), pfds.size(), poll_counters ? 5 : 200);
    if (ready <= 0) {
      if (Now() - last_progress > kStallTimeout) {
        Die("no response from remi_server for 60s");
      }
      continue;
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const double t = Now();
      conns[c]->Receive([&](uint64_t id, std::string_view payload) {
        on_frame(c, id, payload, t);
      });
    }
  }
  for (const Outcome& o : result.outcomes) {
    result.last_done = std::max(result.last_done, o.done);
  }
  return result;
}

// --- in-process passes --------------------------------------------------------

remi::ServiceOptions ServerOptions(const Workload& w) {
  remi::ServiceOptions o;
  o.mining.num_threads = w.threads;
  o.max_in_flight = static_cast<size_t>(w.max_inflight);
  o.max_queued = 16;
  return o;
}

/// Options of the reference pass: sequential REMI, no admission limit.
remi::ServiceOptions ReferenceOptions() {
  remi::ServiceOptions o;
  o.mining.num_threads = 1;
  o.max_in_flight = 0;
  return o;
}

std::unique_ptr<remi::Service> OpenService(const std::string& snapshot,
                                           const remi::ServiceOptions& o) {
  remi::KbSpec spec;
  spec.path = snapshot;
  auto service = remi::Service::Open(spec, o);
  if (!service.ok()) Die("open " + snapshot + ": " + service.status().ToString());
  return std::move(*service);
}

/// A Service that has answered the setup request, like a server after
/// its first answer; `first_ms` receives that request's time.
std::unique_ptr<remi::Service> OpenWarm(const std::string& snapshot,
                                        const remi::ServiceOptions& o,
                                        const std::string& setup_payload,
                                        double* first_ms) {
  auto service = OpenService(snapshot, o);
  auto request = remi::MineRequestFromJson(*remi::ParseJson(setup_payload));
  const double t0 = Now();
  auto first = service->Mine(*request);
  if (first_ms != nullptr) *first_ms = (Now() - t0) * 1e3;
  if (!first.ok()) Die("setup request: " + first.status().ToString());
  return service;
}

/// Per-set mine requests of one frame (a batch splits into its sets).
std::vector<remi::MineRequest> SplitMine(const Request& r) {
  auto parsed = remi::ParseJson(r.payload);
  if (!parsed.ok()) Die("bad request payload");
  std::vector<remi::MineRequest> out;
  if (r.kind == Kind::kMine) {
    auto m = remi::MineRequestFromJson(*parsed);
    if (!m.ok()) Die(m.status().ToString());
    out.push_back(std::move(*m));
    return out;
  }
  auto b = remi::BatchMineRequestFromJson(*parsed);
  if (!b.ok()) Die(b.status().ToString());
  for (const remi::TargetSpec& t : b->target_sets) {
    remi::MineRequest m;
    m.targets = t;
    m.control.deadline_seconds = kMineDeadlineMs / 1000.0;
    out.push_back(std::move(m));
  }
  return out;
}

/// One reference answer: what the digest and node gates expect.
struct RefAnswer {
  AnswerRecord record;
  uint64_t nodes = 0;
};

RefAnswer ReferenceMine(remi::Service& service, const remi::MineRequest& m) {
  auto r = service.Mine(m);
  RefAnswer a;
  a.record = RecordOf(r);
  if (r.ok()) a.nodes = r->stats.nodes_visited;
  return a;
}

RefAnswer ReferenceSummarize(remi::Service& service, const Request& r) {
  auto parsed = remi::ParseJson(r.payload);
  auto s = remi::SummarizeRequestFromJson(*parsed);
  if (!s.ok()) Die(s.status().ToString());
  RefAnswer a;
  a.record = RecordOf(service.Summarize(*s));
  return a;
}

/// The reference answers of every request, computed once per distinct
/// question (answers are a pure function of the question and the KB) on
/// two threads. Returned per request, in request order.
std::vector<std::vector<RefAnswer>> MemoizedReference(
    remi::Service& service, const std::vector<Request>& requests) {
  // Distinct questions: summarize payloads, and single-set mine requests
  // keyed by their payload (a batch contributes one per set).
  std::unordered_map<std::string, size_t> index;
  std::vector<std::pair<const Request*, remi::MineRequest>> questions;
  std::vector<std::vector<size_t>> per_request(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (r.kind == Kind::kSummarize) {
      auto [it, fresh] = index.emplace(r.payload, questions.size());
      if (fresh) questions.push_back({&r, {}});
      per_request[i].push_back(it->second);
      continue;
    }
    for (remi::MineRequest& m : SplitMine(r)) {
      const std::string key = MinePayload(m.targets.names);
      auto [it, fresh] = index.emplace(key, questions.size());
      if (fresh) questions.push_back({nullptr, std::move(m)});
      per_request[i].push_back(it->second);
    }
  }
  std::vector<RefAnswer> answers(questions.size());
  std::atomic<size_t> cursor{0};
  auto worker = [&] {
    for (size_t q; (q = cursor.fetch_add(1)) < questions.size();) {
      answers[q] = questions[q].first != nullptr
                       ? ReferenceSummarize(service, *questions[q].first)
                       : ReferenceMine(service, questions[q].second);
    }
  };
  std::thread helper(worker);
  worker();
  helper.join();
  std::vector<std::vector<RefAnswer>> out(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    for (size_t q : per_request[i]) out[i].push_back(answers[q]);
  }
  return out;
}

// --- tracing --------------------------------------------------------------------

/// Spans of the traced replay, kept in memory and written at the end.
/// `reported` spans carry durations the Service call returned (their
/// start is placed after the previous reported sibling).
struct Span {
  const char* name;
  uint64_t request;
  uint32_t id;
  uint32_t parent;  // 0 = root
  double start_us;
  double end_us;
  bool reported;
};

class Tracer {
 public:
  explicit Tracer(double origin) : origin_(origin) {}

  uint32_t Add(const char* name, uint64_t request, uint32_t parent,
               double start, double end, bool reported) {
    const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
    spans_.push_back({name, request, id, parent, (start - origin_) * 1e6,
                      (end - origin_) * 1e6, reported});
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\trequest\tname\tstart_us\tend_us\treported\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%u\t%u\t%llu\t%s\t%.3f\t%.3f\t%d\n", s.id, s.parent,
                   static_cast<unsigned long long>(s.request), s.name,
                   s.start_us, s.end_us, s.reported ? 1 : 0);
    }
    return std::fclose(f) == 0;
  }

 private:
  double origin_;
  std::vector<Span> spans_;
};

/// Layer figures collected by the traced replay.
struct LayerFigures {
  std::map<Kind, std::vector<double>> decode_us, encode_us, call_us;
  std::vector<double> resolve_us;
  double queue_build_s = 0.0, search_s = 0.0;  // Σ per mined set
  size_t mined_sets = 0;
  uint64_t nodes = 0, common = 0, depth = 0, side = 0, bound = 0,
           redundant = 0;
  double pinned_max_bytes = 0.0;
  double call_wall_s = 0.0;  // Σ Service call wall (traced only)
  // Eval-cache deltas per answer: exact only in a sequential replay.
  uint64_t cache_hits = 0, cache_misses = 0, evaluations = 0;
};

/// One in-process replay: requests in order from one caller through the
/// codec and the Service, as the server's dispatch path does (decode ->
/// call -> encode), collecting answers and the counts the calls report.
/// With a tracer it also reads the clock around each stage and records
/// spans; that is the whole difference between the traced replay and its
/// untraced twin.
struct ReplaySide {
  remi::Service* service;
  Tracer* tracer;  // nullptr = untraced
  LayerFigures* fig;
  std::vector<Answer>* answers;
  double seconds = 0.0;  // wall time spent replaying so far
};

/// Replays requests [begin, end) on `side`, adding to its wall time.
void Replay(ReplaySide& side, const std::vector<Request>& requests,
            size_t begin, size_t end) {
  remi::Service& service = *side.service;
  Tracer* tracer = side.tracer;
  LayerFigures* fig = side.fig;
  const double start = Now();
  for (size_t i = begin; i < end; ++i) {
    const Request& r = requests[i];
    const double t0 = tracer ? Now() : 0.0;
    auto parsed = remi::ParseJson(r.payload);
    if (!parsed.ok()) Die("bad request payload");
    std::string encoded;
    double t1 = 0.0, t2 = 0.0;
    remi::ServiceStats service_stats;
    std::vector<remi::RemiStats> set_stats;
    if (r.kind == Kind::kMine) {
      auto m = remi::MineRequestFromJson(*parsed);
      if (tracer) t1 = Now();
      auto resp = service.Mine(*m);
      if (tracer) t2 = Now();
      if (resp.ok()) {
        service_stats = resp->service;
        set_stats.push_back(resp->stats);
      }
      encoded = resp.ok() ? remi::MineResponseToJson(*resp).Dump()
                          : remi::StatusToJson(resp.status()).Dump();
    } else if (r.kind == Kind::kBatch) {
      auto b = remi::BatchMineRequestFromJson(*parsed);
      if (tracer) t1 = Now();
      auto resp = service.BatchMine(*b);
      if (tracer) t2 = Now();
      if (resp.ok()) {
        service_stats = resp->service;
        for (const auto& item : resp->results) set_stats.push_back(item.stats);
      }
      encoded = resp.ok() ? remi::BatchMineResponseToJson(*resp).Dump()
                          : remi::StatusToJson(resp.status()).Dump();
    } else {
      auto s = remi::SummarizeRequestFromJson(*parsed);
      if (tracer) t1 = Now();
      auto resp = service.Summarize(*s);
      if (tracer) t2 = Now();
      if (resp.ok()) service_stats = resp->service;
      encoded = resp.ok() ? remi::SummarizeResponseToJson(*resp).Dump()
                          : remi::StatusToJson(resp.status()).Dump();
    }
    if (tracer) {
      const double t3 = Now();
      const uint32_t root = tracer->Add("request", i, 0, t0, t3, false);
      tracer->Add("codec.decode", i, root, t0, t1, false);
      const char* call = r.kind == Kind::kMine    ? "service.Mine"
                         : r.kind == Kind::kBatch ? "service.BatchMine"
                                                  : "service.Summarize";
      const uint32_t c = tracer->Add(call, i, root, t1, t2, false);
      double at = t1;
      tracer->Add("queue_wait", i, c, at, at + service_stats.queue_wait_seconds,
                  true);
      at += service_stats.queue_wait_seconds;
      tracer->Add("resolve", i, c, at, at + service_stats.resolve_seconds,
                  true);
      at += service_stats.resolve_seconds;
      const uint32_t mine = tracer->Add(
          r.kind == Kind::kSummarize ? "summarize" : "mine", i, c, at,
          at + service_stats.mine_seconds, true);
      for (const remi::RemiStats& st : set_stats) {
        tracer->Add("remi.queue_build", i, mine, at,
                    at + st.queue_build_seconds, true);
        tracer->Add("remi.search", i, mine, at + st.queue_build_seconds,
                    at + st.queue_build_seconds + st.search_seconds, true);
      }
      tracer->Add("codec.encode", i, root, t2, t3, false);
      fig->decode_us[r.kind].push_back((t1 - t0) * 1e6);
      fig->call_us[r.kind].push_back((t2 - t1) * 1e6);
      fig->encode_us[r.kind].push_back((t3 - t2) * 1e6);
      fig->call_wall_s += t2 - t1;
    }
    fig->resolve_us.push_back(service_stats.resolve_seconds * 1e6);
    for (const remi::RemiStats& st : set_stats) {
      fig->queue_build_s += st.queue_build_seconds;
      fig->search_s += st.search_seconds;
      ++fig->mined_sets;
      fig->nodes += st.nodes_visited;
      fig->common += st.num_common_subgraphs;
      fig->depth += st.depth_prunes;
      fig->side += st.side_prunes;
      fig->bound += st.bound_prunes;
      fig->redundant += st.redundant_prunes;
      fig->pinned_max_bytes = std::max(
          fig->pinned_max_bytes,
          static_cast<double>(st.pinned_queue_bytes + st.dense_twin_bytes));
      fig->cache_hits += st.eval.cache_hits;
      fig->cache_misses += st.eval.cache_misses;
      fig->evaluations += st.eval.subgraph_evaluations;
    }
    side.answers->push_back(AnswerFromWire(r.kind, encoded));
  }
  side.seconds += Now() - start;
}

/// Replays the whole list on two sides in alternating chunks of 1/20, so
/// drift in the host's speed lands on both sides alike.
void ReplayInterleaved(ReplaySide& a, ReplaySide& b,
                       const std::vector<Request>& requests) {
  const size_t chunk = std::max<size_t>(1, requests.size() / 20);
  for (size_t at = 0; at < requests.size(); at += chunk) {
    const size_t end = std::min(requests.size(), at + chunk);
    Replay(a, requests, at, end);
    Replay(b, requests, at, end);
  }
}

struct RunArgs {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  uint64_t pool_seed = 1;
  double seconds = 6.0;
  bool trace = false;
  std::string server;
  std::string data_dir;
  std::string self;
  std::string commit;
};

// --- one round: one server process ------------------------------------------

std::vector<std::string> ServerArgs(const Workload& w,
                                    const std::string& snapshot) {
  return {snapshot,
          "--port", "0",
          "--threads", std::to_string(w.threads),
          "--max-inflight", std::to_string(w.max_inflight),
          "--dispatch-threads", std::to_string(w.dispatch_threads),
          "--max-queued", "16"};
}

/// What one server process gave: its setup time, its slice's outcomes,
/// its reloads, and its counters after the slice.
struct Round {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  LoopResult loop;
  std::vector<ReloadSample> reloads;
  size_t epochs_live_max = 0;
  uint64_t nodes_outside_slice = 0;  // setup + warm-up answers
  std::string counters;
};

ReloadSample TimedReload(Connection& conn, const std::string& payload) {
  ReloadSample s;
  const double t0 = Now();
  const std::string response = conn.RoundTrip(FrameVerb::kReload, payload);
  s.seconds = Now() - t0;
  auto parsed = remi::ParseJson(response);
  s.ok = parsed.ok() && StatusOf(*parsed) == "OK";
  if (parsed.ok()) s.load_seconds = NumberOf(*parsed, "load_seconds");
  return s;
}

/// Spawns remi_server (setup_s = spawn -> first OK `mine`), replays the
/// warm-up list, then `slice` in the closed loop. Workloads without
/// reload traffic then time kIdleReloads idle reloads. Stops the server.
Round RunRound(const RunArgs& args, const std::string& snapshot,
               const RequestPlan& plan, std::span<const Request> slice,
               const std::string& reload_payload) {
  const Workload& w = *args.workload;
  Round round;
  ServerProcess server;
  const double t0 = Now();
  std::string error;
  if (!server.Start(args.server, ServerArgs(w, snapshot), &error)) Die(error);
  std::vector<std::unique_ptr<Connection>> conns;
  conns.push_back(std::make_unique<Connection>(server.port()));
  const std::string first =
      conns[0]->RoundTrip(FrameVerb::kMine, plan.setup_payload);
  round.setup_s = Now() - t0;
  const Answer setup = AnswerFromWire(Kind::kMine, first);
  if (!setup.ok) Die("setup request failed: " + first);
  round.nodes_outside_slice = setup.nodes[0];
  const size_t total_conns = w.read_connections + (w.reload ? 1 : 0);
  while (conns.size() < total_conns) {
    conns.push_back(std::make_unique<Connection>(server.port()));
  }

  Workload warm = w;
  warm.reload = false;
  const LoopResult warmup =
      RunClosedLoop(conns, warm, plan.warmup, reload_payload, false);
  for (size_t i = 0; i < plan.warmup.size(); ++i) {
    const Answer a =
        AnswerFromWire(plan.warmup[i].kind, warmup.outcomes[i].payload);
    if (!a.ok) Die("warm-up request failed");
    for (uint64_t n : a.nodes) round.nodes_outside_slice += n;
  }

  round.loop = RunClosedLoop(conns, w, slice, reload_payload, args.trace);
  round.peak_rss_mb = server.PeakRssMb();
  round.reloads = round.loop.reloads;
  round.epochs_live_max = round.loop.epochs_live_max;
  for (int i = 0; !w.reload && i < kIdleReloads; ++i) {
    round.reloads.push_back(TimedReload(*conns[0], reload_payload));
    round.epochs_live_max = std::max(
        round.epochs_live_max,
        EpochsLive(conns[0]->RoundTrip(FrameVerb::kCounters, "")));
  }
  round.counters = conns[0]->RoundTrip(FrameVerb::kCounters, "");
  conns.clear();
  server.Stop();
  return round;
}

// --- reporting -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetric(const std::string& workload, const Metric& m,
                 const std::string& note = "") {
  std::printf("%-13s %-26s %16.6f %-6s %s\n", workload.c_str(),
              m.name.c_str(), m.value, m.unit.c_str(), note.c_str());
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  JsonValue out = JsonValue::Object();
  out.Set("correct", JsonValue::Bool(correct));
  out.Set("attempted", JsonValue::Number(static_cast<double>(attempted)));
  out.Set("failed", JsonValue::Number(static_cast<double>(failed)));
  JsonValue m = JsonValue::Object();
  for (const Metric& metric : metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(metric.value));
    entry.Set("unit", JsonValue::String(metric.unit));
    m.Set(metric.name, std::move(entry));
  }
  out.Set("metrics", std::move(m));
  return out.Dump();
}

std::string ReadSmallFile(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

// --- one run ----------------------------------------------------------------------

int Run(const RunArgs& args) {
  const double run_start = Now();
  const Workload& w = *args.workload;
  const std::string snapshot =
      PrepareSnapshot(args.data_dir, args.server, args.self);
  const double snapshot_mb =
      static_cast<double>(std::filesystem::file_size(snapshot)) / (1 << 20);

  // Run context; numbers from an unoptimized build are refused.
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d: %s\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, w.why);
  std::printf("context commit=%s compiler=\"%s\" flags=\"%s\" build=%s "
              "nproc=%u simd=%s cpu=\"%s\"\n",
              args.commit.c_str(), PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              remi::SimdLevelName(remi::ActiveSimdLevel()),
              remi::DetectCpuFeatures().Describe().c_str());
  std::printf("context kb=DBpediaLike scale=%.1f kb_seed=%llu "
              "workload_seed=%llu pool_seed=%llu snapshot_bytes=%llu\n",
              kKbScale,
              static_cast<unsigned long long>(
                  remi::SyntheticKbConfig::DBpediaLike(kKbScale).seed),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.pool_seed),
              static_cast<unsigned long long>(
                  std::filesystem::file_size(snapshot)));
  if (!remi::bench::kReleaseBuild) {
    Die("refusing to report numbers from a non-optimized build "
        "(configure with -DCMAKE_BUILD_TYPE=Release)");
  }

  // The harness's own Service: sampling and the reference pass.
  auto reference = OpenService(snapshot, ReferenceOptions());
  const RequestPlan plan = BuildPlan(*reference, w, args.seed, args.pool_seed, args.seconds);
  JsonValue reload_json = JsonValue::Object();
  reload_json.Set("path", JsonValue::String(snapshot));
  const std::string reload_payload = reload_json.Dump();

  const double steal0 = StealSeconds();
  const double plan_done = Now();
  std::vector<Round> rounds;
  for (size_t r = 0; r < kRounds; ++r) {
    rounds.push_back(RunRound(args, snapshot, plan, plan.Slice(r),
                              reload_payload));
  }

  const double steal_share =
      (StealSeconds() - steal0) /
      ((Now() - plan_done) * std::thread::hardware_concurrency());
  const double rounds_done = Now();
  // --- parse answers, then the gates ---
  std::vector<Answer> wire;
  wire.reserve(plan.timed.size());
  size_t failed = 0, attempted = 0;
  std::vector<double> latency_ms, queue_wait_ms, setups, rss, reload_s,
      reload_open_ms;
  double slowest_ms = 0.0;
  size_t slowest_index = 0, epochs_live_max = 0;
  uint64_t rejected = 0;
  std::vector<double> round_rps, round_p50, round_p99;
  std::vector<std::string> violations;
  for (size_t r = 0; r < kRounds; ++r) {
    const Round& round = rounds[r];
    const std::span<const Request> slice = plan.Slice(r);
    uint64_t slice_nodes = 0;
    for (size_t i = 0; i < slice.size(); ++i) {
      const Outcome& o = round.loop.outcomes[i];
      wire.push_back(AnswerFromWire(slice[i].kind, o.payload));
      if (!wire.back().ok) ++failed;
      for (uint64_t n : wire.back().nodes) slice_nodes += n;
      const double ms = (o.done - o.sent) * 1e3;
      latency_ms.push_back(ms);
      if (ms > slowest_ms) {
        slowest_ms = ms;
        slowest_index = wire.size() - 1;
      }
      if (wire.back().queue_wait_s >= 0) {
        queue_wait_ms.push_back(wire.back().queue_wait_s * 1e3);
      }
    }
    attempted += slice.size() + round.reloads.size();
    for (const ReloadSample& s : round.reloads) {
      failed += s.ok ? 0 : 1;
      reload_s.push_back(s.seconds);
      reload_open_ms.push_back(s.load_seconds * 1e3);
    }
    const double round_s = round.loop.last_done - round.loop.first_sent;
    round_rps.push_back(static_cast<double>(slice.size()) / round_s);
    const std::vector<double> round_ms(latency_ms.end() - slice.size(),
                                       latency_ms.end());
    round_p50.push_back(Percentile(round_ms, 0.50));
    round_p99.push_back(Percentile(round_ms, 0.99));
    setups.push_back(round.setup_s);
    rss.push_back(round.peak_rss_mb);
    epochs_live_max = std::max(epochs_live_max, round.epochs_live_max);

    // Exact-count gate 1, per server process: the counters identity at
    // quiescence, and the server's node total equal to the sum of the
    // node counts its answers reported.
    auto counters = remi::ParseJson(round.counters);
    if (!counters.ok()) Die("bad counters payload");
    const auto counter = [&](const char* key) {
      return static_cast<uint64_t>(NumberOf(*counters, key));
    };
    rejected += counter("rejected");
    const uint64_t admitted = counter("admitted");
    const uint64_t settled = counter("completed_ok") +
                             counter("deadline_exceeded") +
                             counter("cancelled") + counter("failed");
    const std::string tag = "round " + std::to_string(r) + " counters: ";
    if (admitted != settled) {
      violations.push_back(tag + "admitted " + std::to_string(admitted) +
                           " != ok+deadline+cancelled+failed " +
                           std::to_string(settled));
    }
    const uint64_t answered = round.nodes_outside_slice + slice_nodes;
    if (counter("nodes_visited_total") != answered) {
      violations.push_back(tag + "nodes_visited_total " +
                           std::to_string(counter("nodes_visited_total")) +
                           " != sum over answers " + std::to_string(answered));
    }
  }

  // Correctness gate: digest of every answer in request order against the
  // reference pass; per-answer node counts must match too.
  double reference_s = 0.0, traced_s = 0.0, untraced_s = 0.0;
  double first_request_ms = 0.0;
  std::vector<std::vector<RefAnswer>> ref;
  LayerFigures ref_fig, fig;  // trace runs: reference and traced replays
  std::vector<Answer> traced_answers;
  Tracer tracer(Now());
  if (args.trace) {
    // Trace runs replay the whole list in order from one caller. The
    // reference replay splits batches into per-set mines with sequential
    // REMI, so its eval-cache deltas are exact; without batches it has the
    // server's options and is also the untraced twin of the traced replay.
    // Twin and traced replay run interleaved, chunk by chunk.
    const remi::ServiceOptions options = ServerOptions(w);
    auto traced_service =
        OpenWarm(snapshot, options, plan.setup_payload, &first_request_ms);
    ReplaySide traced{traced_service.get(), &tracer, &fig, &traced_answers};
    std::vector<Answer> replayed;
    if (w.batch) {
      std::vector<Request> split;
      for (const Request& r : plan.timed) {
        for (const remi::MineRequest& m : SplitMine(r)) {
          split.push_back({Kind::kMine, MinePayload(m.targets.names)});
        }
      }
      auto ref_service = OpenWarm(snapshot, ReferenceOptions(),
                                  plan.setup_payload, nullptr);
      ReplaySide reference_side{ref_service.get(), nullptr, &ref_fig,
                                &replayed};
      Replay(reference_side, split, 0, split.size());
      reference_s = reference_side.seconds;
      ref_service.reset();
      auto twin_service =
          OpenWarm(snapshot, options, plan.setup_payload, nullptr);
      LayerFigures twin_fig;
      std::vector<Answer> twin_answers;
      ReplaySide twin{twin_service.get(), nullptr, &twin_fig, &twin_answers};
      ReplayInterleaved(twin, traced, plan.timed);
      untraced_s = twin.seconds;
    } else {
      auto ref_service =
          OpenWarm(snapshot, options, plan.setup_payload, nullptr);
      ReplaySide reference_side{ref_service.get(), nullptr, &ref_fig,
                                &replayed};
      ReplayInterleaved(reference_side, traced, plan.timed);
      reference_s = untraced_s = reference_side.seconds;
    }
    traced_s = traced.seconds;
    size_t k = 0;
    ref.resize(plan.timed.size());
    for (size_t i = 0; i < plan.timed.size(); ++i) {
      const size_t parts =
          plan.timed[i].kind == Kind::kBatch ? kBatchSets : 1;
      for (size_t p = 0; p < parts; ++p, ++k) {
        ref[i].push_back({replayed[k].records[0], replayed[k].nodes[0]});
      }
    }
  } else {
    const double t0 = Now();
    ref = MemoizedReference(*reference, plan.timed);
    reference_s = Now() - t0;
  }
  Digest wire_digest, ref_digest;
  uint64_t timed_nodes = 0;
  size_t node_mismatches = 0, shown = 0;
  for (size_t i = 0; i < plan.timed.size(); ++i) {
    for (const AnswerRecord& r : wire[i].records) wire_digest.Add(r);
    for (const RefAnswer& r : ref[i]) ref_digest.Add(r.record);
    for (size_t p = 0; p < wire[i].nodes.size(); ++p) {
      timed_nodes += wire[i].nodes[p];
      const bool same =
          p < ref[i].size() && wire[i].nodes[p] == ref[i][p].nodes &&
          wire[i].records[p].status == ref[i][p].record.status &&
          wire[i].records[p].expression == ref[i][p].record.expression;
      if (p >= ref[i].size() || wire[i].nodes[p] != ref[i][p].nodes) {
        ++node_mismatches;
      }
      if (!same && shown++ < 3) {
        const AnswerRecord none;
        const AnswerRecord& want = p < ref[i].size() ? ref[i][p].record : none;
        std::printf("%-13s mismatch request #%zu answer %zu: wire %s \"%s\" "
                    "(%llu nodes), reference %s \"%s\" (%llu nodes); %s\n",
                    w.name, i, p, wire[i].records[p].status.c_str(),
                    wire[i].records[p].expression.c_str(),
                    static_cast<unsigned long long>(wire[i].nodes[p]),
                    want.status.c_str(), want.expression.c_str(),
                    static_cast<unsigned long long>(
                        p < ref[i].size() ? ref[i][p].nodes : 0),
                    plan.timed[i].payload.substr(0, 300).c_str());
      }
    }
  }
  if (wire_digest.value() != ref_digest.value() ||
      wire_digest.records() != ref_digest.records()) {
    violations.push_back("digest: wire " + wire_digest.Hex() + " (" +
                         std::to_string(wire_digest.records()) +
                         " answers) != reference " + ref_digest.Hex() + " (" +
                         std::to_string(ref_digest.records()) + ")");
  }
  if (node_mismatches > 0) {
    violations.push_back("nodes: " + std::to_string(node_mismatches) +
                         " answers visited a different node count than the "
                         "reference");
  }
  // Exact-count gate 2: the timed phase's node count is a function of the
  // seed; a later run of the same seed in this build must repeat it.
  std::filesystem::create_directories(args.data_dir + "/nodes");
  const std::string nodes_file =
      args.data_dir + "/nodes/" + w.name + "-seed" +
      std::to_string(args.seed) + "-pool" + std::to_string(args.pool_seed) +
      "-n" + std::to_string(plan.timed.size());
  const std::string previous = ReadSmallFile(nodes_file);
  if (!previous.empty() && previous != std::to_string(timed_nodes)) {
    violations.push_back("nodes: timed phase visited " +
                         std::to_string(timed_nodes) +
                         " nodes, an earlier run of this seed " + previous);
  }
  if (previous.empty()) std::ofstream(nodes_file) << timed_nodes << "\n";

  // --- end-to-end metrics ---
  const size_t n = latency_ms.size();
  // Per-server figures, medianed over the kRounds servers, so one slow
  // process or a host hiccup during one round moves them least. p99 is
  // pooled over all servers when one server's share has fewer than
  // kMinTailSamples beyond its p99 (batch_paper).
  const size_t per_round = n / kRounds;
  const bool per_round_p99 = SamplesBeyond(per_round, 0.99) >= kMinTailSamples;
  const std::vector<Metric> e2e = {
      {"setup_s", Median(setups), "s"},
      {"throughput_rps", Median(round_rps), "1/s"},
      {"p50_ms", Median(round_p50), "ms"},
      {"p99_ms",
       per_round_p99 ? Median(round_p99) : Percentile(latency_ms, 0.99), "ms"},
      {"peak_rss_mb", Median(rss), "MiB"},
      {"reload_s", Median(reload_s), "s"},
  };
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  for (const Metric& m : e2e) {
    std::string note;
    if (m.name == "p50_ms") {
      note = "(median of " + std::to_string(kRounds) + " servers, n=" +
             std::to_string(per_round) + " each)";
    } else if (m.name == "p99_ms") {
      note = per_round_p99
                 ? "(median of " + std::to_string(kRounds) + " servers, " +
                       std::to_string(SamplesBeyond(per_round, 0.99)) +
                       " beyond p99 each)"
                 : "(pooled, n=" + std::to_string(n) + ", " +
                       std::to_string(SamplesBeyond(n, 0.99)) +
                       " beyond p99)";    } else if (m.name == "setup_s") {
      note = "(median of " + std::to_string(setups.size()) + " servers)";
    } else if (m.name == "reload_s") {
      note = "(median of " + std::to_string(reload_s.size()) +
             (w.reload ? " reloads under load)" : " idle reloads)");
    } else if (m.name == "throughput_rps") {
      note = "(median of " + std::to_string(kRounds) + " servers, " +
             std::to_string(n / kRounds) + " frames each)";
    }
    PrintMetric(w.name, m, note);
  }
  PrintMetric(w.name, {"error_rate", error_rate, "ratio"},
              "(" + std::to_string(failed) + " of " +
                  std::to_string(attempted) + ")");
  PrintMetric(w.name, {"slowest_ms", slowest_ms, "ms"},
              "(request #" + std::to_string(slowest_index) + ")");
  std::printf("%-13s per-server throughput (1/s):", w.name);
  for (double rps : round_rps) std::printf(" %.1f", rps);
  std::printf("; p99 (ms):");
  for (double ms : round_p99) std::printf(" %.4f", ms);
  std::printf("; host steal %.2f%% of CPU time\n", steal_share * 100.0);
  std::printf("%-13s digest %s over %zu answers; timed-phase nodes %llu; "
              "reference pass %.2fs\n",
              w.name, wire_digest.Hex().c_str(), wire_digest.records(),
              static_cast<unsigned long long>(timed_nodes), reference_s);
  if (SamplesBeyond(n, 0.99) < kMinTailSamples) {
    violations.push_back("p99 has fewer than 10 samples beyond it");
  }

  std::vector<Metric> report = e2e;
  if (args.trace) {
    // --- the traced run's per-layer metrics ---
    std::vector<double> opens;
    for (int i = 0; i < 3; ++i) {
      remi::KbSpec spec;
      spec.path = snapshot;
      const double t0 = Now();
      auto loaded = remi::LoadKbFromSpec(spec);
      opens.push_back(Now() - t0);
      if (!loaded.ok()) Die(loaded.status().ToString());
    }
    // The traced replay must give the wire's answers too.
    Digest traced_digest;
    for (const Answer& a : traced_answers) {
      for (const AnswerRecord& r : a.records) traced_digest.Add(r);
    }
    if (traced_digest.value() != wire_digest.value()) {
      violations.push_back("digest: traced replay " + traced_digest.Hex() +
                           " != wire " + wire_digest.Hex());
    }
    const std::string trace_dir = args.data_dir + "/traces";
    std::filesystem::create_directories(trace_dir);
    const std::string trace_path = trace_dir + "/" + w.name + "-seed" +
                                   std::to_string(args.seed) + ".spans.tsv";
    if (!tracer.WriteTsv(trace_path)) Die("cannot write " + trace_path);

    auto med = [](const std::map<Kind, std::vector<double>>& m, Kind k) {
      auto it = m.find(k);
      return it == m.end() ? 0.0 : Median(it->second);
    };
    std::vector<double> all_decode, all_encode;
    for (const auto& [k, v] : fig.decode_us) {
      all_decode.insert(all_decode.end(), v.begin(), v.end());
    }
    for (const auto& [k, v] : fig.encode_us) {
      all_encode.insert(all_encode.end(), v.begin(), v.end());
    }
    // wire.residual_us: client RTT minus what the server accounts for.
    // Answers that report server timings (mine, batch) subtract those;
    // on summarize-only traffic the in-process call time stands in.
    std::vector<double> residual_us;
    const bool reported = !queue_wait_ms.empty();
    for (size_t i = 0; i < plan.timed.size(); ++i) {
      const Kind k = plan.timed[i].kind;
      if (reported && wire[i].mine_s < 0) continue;
      const double inside = reported
                                ? (wire[i].queue_wait_s + wire[i].mine_s) * 1e6
                                : med(fig.call_us, k);
      residual_us.push_back(latency_ms[i] * 1e3 - inside -
                            med(fig.decode_us, k) - med(fig.encode_us, k));
    }
    const double workers = static_cast<double>(w.threads);
    std::vector<double> summarize_us;
    if (auto it = fig.call_us.find(Kind::kSummarize); it != fig.call_us.end()) {
      summarize_us = it->second;
    }
    const double sets = std::max<double>(1.0, static_cast<double>(fig.mined_sets));
    report = {
        {"kb.open_ms", Median(opens) * 1e3, "ms"},
        {"kb.snapshot_mb", snapshot_mb, "MiB"},
        {"kb.reload_open_ms", Median(reload_open_ms), "ms"},
        {"service.first_request_ms", first_request_ms, "ms"},
        {"service.queue_wait_p50_ms", Percentile(queue_wait_ms, 0.50), "ms"},
        {"service.queue_wait_p99_ms", Percentile(queue_wait_ms, 0.99), "ms"},
        {"service.resolve_us", Median(fig.resolve_us), "us"},
        {"service.rejected", static_cast<double>(rejected), "count"},
        {"service.epochs_live_max", static_cast<double>(epochs_live_max),
         "count"},
        {"codec.decode_us", Median(all_decode), "us"},
        {"codec.encode_us", Median(all_encode), "us"},
        {"wire.residual_us", Median(residual_us), "us"},
        {"remi.queue_build_ms", fig.queue_build_s / sets * 1e3, "ms"},
        {"remi.common_subgraphs", static_cast<double>(fig.common), "count"},
        {"remi.search_ms", fig.search_s / sets * 1e3, "ms"},
        {"remi.nodes_visited", static_cast<double>(fig.nodes), "count"},
        {"remi.nodes_per_s",
         fig.search_s > 0 ? static_cast<double>(fig.nodes) / fig.search_s : 0.0,
         "1/s"},
        {"remi.prunes_depth", static_cast<double>(fig.depth), "count"},
        {"remi.prunes_side", static_cast<double>(fig.side), "count"},
        {"remi.prunes_bound", static_cast<double>(fig.bound), "count"},
        {"remi.prunes_redundant", static_cast<double>(fig.redundant), "count"},
        {"remi.pinned_mb", fig.pinned_max_bytes / (1 << 20), "MiB"},
        {"query.cache_hit_ratio",
         ref_fig.cache_hits + ref_fig.cache_misses > 0
             ? static_cast<double>(ref_fig.cache_hits) /
                   static_cast<double>(ref_fig.cache_hits +
                                       ref_fig.cache_misses)
             : 0.0,
         "ratio"},
        {"query.evaluations", static_cast<double>(ref_fig.evaluations),
         "count"},
        {"summ.summarize_us", Median(summarize_us), "us"},
        {"pool.busy_share",
         fig.call_wall_s > 0
             ? (fig.queue_build_s + fig.search_s) / (fig.call_wall_s * workers)
             : 0.0,
         "ratio"},
        {"trace.spans", static_cast<double>(tracer.spans().size()), "count"},
        {"trace.overhead_pct",
         untraced_s > 0 ? (traced_s - untraced_s) / untraced_s * 100.0 : 0.0,
         "%"},
        {"client.p99_samples_beyond",
         static_cast<double>(per_round_p99 ? SamplesBeyond(per_round, 0.99)
                                           : SamplesBeyond(n, 0.99)),
         "count"},
    };
    for (const Metric& m : report) PrintMetric(w.name, m);
    std::printf("%-13s spans written to %s (traced replay %.2fs, untraced "
                "%.2fs)\n",
                w.name, trace_path.c_str(), traced_s, untraced_s);
  }

  for (const std::string& v : violations) {
    std::printf("%-13s FAIL %s\n", w.name, v.c_str());
  }
  std::fprintf(stderr, "perfbench: %s took %.1fs (prepare %.1fs, %zu rounds "
               "%.1fs, checks %.1fs)\n",
               w.name, Now() - run_start, plan_done - run_start, kRounds,
               rounds_done - plan_done, Now() - rounds_done);
  const bool correct = violations.empty();
  std::printf("%s\n", ResultJson(correct, attempted, failed, report).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  remi::Flags flags;
  flags.DefineString("workload", "", "batch_paper | serve_mixed | "
                                     "serve_light | serve_reload");
  flags.DefineInt("seed", 1, "workload seed: request order and batching");
  flags.DefineInt("pool-seed", 1,
                  "seed of the question pool (the KB seed is fixed)");
  flags.DefineDouble("seconds", 8.0, "nominal length of the timed phase");
  flags.DefineInt("trace", 0, "1 = traced run: per-layer metrics");
  flags.DefineString("server", "", "path to the remi_server binary");
  flags.DefineString("data-dir", ".bench_build/perfbench-data",
                     "snapshot, node-count and span files");
  flags.DefineString("commit", "unknown", "source revision, for the record");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 2;
  }
  perfbench::RunArgs args;
  args.workload = perfbench::FindWorkload(flags.GetString("workload"));
  if (args.workload == nullptr) {
    std::fprintf(stderr, "error: unknown --workload '%s'\n",
                 flags.GetString("workload").c_str());
    return 2;
  }
  args.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  args.pool_seed = static_cast<uint64_t>(flags.GetInt("pool-seed"));
  args.seconds = flags.GetDouble("seconds");
  args.trace = flags.GetInt("trace") != 0;
  args.server = flags.GetString("server");
  args.data_dir = flags.GetString("data-dir");
  args.commit = flags.GetString("commit");
  args.self = std::filesystem::canonical("/proc/self/exe").string();
  if (args.server.empty() || access(args.server.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "error: --server must name the remi_server binary\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  return perfbench::Run(args);
}
