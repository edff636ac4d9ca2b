// remi — command-line front end to the library, built on remi::Service.
//
// Subcommands:
//   remi stats <kb>                          KB statistics
//   remi convert <in> <out>                  any input -> N-Triples or RKF2
//   remi snapshot <in> <out.rkf2>            build a KB, save an RKF2 snapshot
//   remi mine <kb> --targets <iri[,iri...]>  mine the most intuitive RE
//   remi mine <kb> --batch <file>            mine many sets (one per line)
//   remi summarize <kb> --entity <iri>       top-k intuitive atoms
//   remi reload <path> --port <p> [--kb n]   hot-swap a running server's KB
//   remi counters --port <p> [--kb n]        live ServiceCounters of a server
//   remi attach <name> <path> --port <p>     attach a named KB to a server
//   remi detach <name> --port <p>            detach a named KB
//   remi list --port <p>                     list a server's KBs
//
// `reload`, `counters`, `attach`, `detach`, and `list` are admin clients,
// not local operations: they connect to a running remi_server
// (--host/--port). `counters` speaks the binary frame protocol (so it
// doubles as a smoke test for it); the others speak NDJSON by default
// and the binary framing with --binary.
// The reload/attach paths are resolved by the *server* process. Exit 0
// when the server accepted the operation; nonzero otherwise (a rejected
// reload keeps the prior generation serving — fail closed).
//
// Multi-tenant admin: `reload --kb <name>` swaps one named tenant;
// `counters --kb <name>` prints that tenant's counter slice. `attach`
// opens the KB before replying (--lazy registers it as a catalog entry
// instead); --kb-max-inflight/--kb-max-queued set its admission quota.
//
// <kb> (and convert's <in>) is anything KbSpec understands: N-Triples
// (.nt), Turtle (.ttl), or an RKF2 snapshot (.rkf2; opened zero-copy, no
// rebuild) — the format is sniffed by magic bytes and extension.
// Targets accept full IRIs or unique IRI suffixes (e.g. "Paris" matches
// <http://dbpedia.org/resource/Paris> if unambiguous). A --batch file
// holds one comma-separated target set per line ('#' starts a comment);
// with --threads N the sets are mined concurrently on the service's
// shared pool. --timeout sets the per-request deadline: an expired
// request reports "timed out" instead of running unbounded.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "rdf/ntriples.h"
#include "service/frame_codec.h"
#include "service/service.h"
#include "service/wire_client.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using remi::Result;
using remi::Status;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// The KbSpec every subcommand opens `path` with.
remi::KbSpec SpecFor(const std::string& path, const remi::Flags& flags) {
  remi::KbSpec spec;
  spec.path = path;
  spec.kb.inverse_top_fraction = flags.GetDouble("inverse-fraction");
  return spec;
}

/// Warns about skipped input lines and an --inverse-fraction that an
/// .rkf2 input overrides.
void WarnAboutLoad(const std::string& path, const remi::Flags& flags,
                   const remi::KnowledgeBase& kb, size_t skipped_lines) {
  if (skipped_lines > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed lines\n",
                 skipped_lines);
  }
  if (remi::EndsWith(path, ".rkf2") && flags.WasSet("inverse-fraction") &&
      kb.options().inverse_top_fraction !=
          flags.GetDouble("inverse-fraction")) {
    std::fprintf(stderr,
                 "note: snapshot was built with --inverse-fraction %g; "
                 "the flag is ignored for .rkf2 inputs\n",
                 kb.options().inverse_top_fraction);
  }
}

/// Opens the serving façade over `path`, applying the CLI's KB and mining
/// flags. Every subcommand that mines or reports on a KB goes through this.
Result<std::unique_ptr<remi::Service>> OpenService(
    const std::string& path, const remi::Flags& flags) {
  remi::ServiceOptions options;
  options.mining.num_threads = static_cast<int>(flags.GetInt("threads"));
  // One caller: no need for an admission queue.
  options.max_in_flight = 0;

  auto service = remi::Service::Open(SpecFor(path, flags), options);
  if (service.ok()) {
    WarnAboutLoad(path, flags, (*service)->kb(),
                  (*service)->parse_skipped_lines());
  }
  return service;
}

/// Opens `path` with the loader alone, without a Service: for the
/// subcommands that only write the KB back out.
Result<remi::LoadedKb> LoadKb(const std::string& path,
                              const remi::Flags& flags) {
  auto loaded = remi::LoadKbFromSpec(SpecFor(path, flags));
  if (loaded.ok()) {
    WarnAboutLoad(path, flags, loaded->kb, loaded->parse_skipped_lines);
  }
  return loaded;
}

/// Shared request knobs: cost metric, language bias, deadline.
void ApplyRequestFlags(const remi::Flags& flags,
                       std::optional<remi::CostModelOptions>* cost,
                       std::optional<remi::EnumeratorOptions>* enumerator,
                       remi::RequestControl* control) {
  if (flags.GetString("metric") == "pr") {
    remi::CostModelOptions options;
    options.metric = remi::ProminenceMetric::kPageRank;
    *cost = options;
  }
  if (flags.GetBool("standard")) {
    remi::EnumeratorOptions options;
    options.extended_language = false;
    *enumerator = options;
  }
  control->deadline_seconds = flags.GetDouble("timeout");
}

int CmdStats(const std::string& path, const remi::Flags& flags) {
  auto service = OpenService(path, flags);
  if (!service.ok()) return Fail(service.status());
  const remi::KnowledgeBase& kb = (*service)->kb();
  std::printf("facts        : %zu (%zu base + %zu inverse)\n", kb.NumFacts(),
              kb.NumBaseFacts(), kb.NumFacts() - kb.NumBaseFacts());
  std::printf("entities     : %zu\n", kb.NumEntities());
  std::printf("predicates   : %zu\n", kb.NumPredicates());
  std::printf("classes      : %zu\n", kb.classes().size());
  std::printf("dictionary   : %zu terms\n", kb.dict().size());
  std::printf("top entities :");
  const auto& order = kb.EntitiesByProminence();
  for (size_t i = 0; i < order.size() && i < 5; ++i) {
    std::printf(" %s(%llu)", kb.Label(order[i]).c_str(),
                static_cast<unsigned long long>(
                    kb.EntityFrequency(order[i])));
  }
  std::printf("\n");
  return 0;
}

/// Builds a KB from `in_path` and writes it as an RKF2 snapshot.
int CmdSnapshot(const std::string& in_path, const std::string& out_path,
                const remi::Flags& flags) {
  auto loaded = LoadKb(in_path, flags);
  if (!loaded.ok()) return Fail(loaded.status());
  const remi::KnowledgeBase& kb = loaded->kb;
  remi::Timer timer;
  if (auto status = kb.SaveSnapshot(out_path); !status.ok()) {
    return Fail(remi::WithMessagePrefix(status, out_path));
  }
  std::printf("wrote %s (%zu facts, %zu entities, %s)\n", out_path.c_str(),
              kb.NumFacts(), kb.NumEntities(),
              remi::FormatSeconds(timer.ElapsedSeconds()).c_str());
  return 0;
}

/// Writes the base facts of `in_path` as an RKF2 snapshot when `out_path`
/// ends in .rkf2, as N-Triples otherwise. The input opens like every
/// other subcommand's, so any format KbSpec sniffs converts.
int CmdConvert(const std::string& in_path, const std::string& out_path,
               const remi::Flags& flags) {
  if (remi::EndsWith(out_path, ".rkf2")) {
    return CmdSnapshot(in_path, out_path, flags);
  }
  auto loaded = LoadKb(in_path, flags);
  if (!loaded.ok()) return Fail(loaded.status());
  // The built KB also holds the materialized inverse-predicate facts.
  const remi::KnowledgeBase& kb = loaded->kb;
  std::vector<remi::Triple> triples;
  for (const remi::Triple& t : kb.store().spo()) {
    if (!kb.IsInversePredicate(t.p)) triples.push_back(t);
  }
  const std::string doc = remi::WriteNTriples(kb.dict(), triples);
  FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) return Fail(Status::IoError("cannot open " + out_path));
  const bool written = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (std::fclose(f) != 0 || !written) {
    return Fail(Status::IoError("cannot write " + out_path));
  }
  std::printf("wrote %s (%zu triples)\n", out_path.c_str(), triples.size());
  return 0;
}

/// Parses a batch file into TargetSpecs: one comma-separated target set
/// per line; empty lines and '#' comments are skipped. The original line
/// text rides along for reporting.
Result<std::vector<std::pair<std::string, remi::TargetSpec>>> LoadBatchFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open batch file " + path);
  std::vector<std::pair<std::string, remi::TargetSpec>> sets;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed(remi::TrimWhitespace(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    remi::TargetSpec spec;
    for (const std::string& name : remi::SplitString(trimmed, ',')) {
      const std::string entity(remi::TrimWhitespace(name));
      if (!entity.empty()) spec.names.push_back(entity);
    }
    if (spec.names.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": no targets");
    }
    sets.emplace_back(trimmed, std::move(spec));
  }
  return sets;
}

int CmdMineBatch(remi::Service* service, const remi::Flags& flags) {
  auto batch = LoadBatchFile(flags.GetString("batch"));
  if (!batch.ok()) return Fail(batch.status());
  if (batch->empty()) {
    return Fail(Status::InvalidArgument("batch file contains no target sets"));
  }

  remi::BatchMineRequest request;
  for (const auto& [line, spec] : *batch) {
    request.target_sets.push_back(spec);
  }
  request.max_exceptions = static_cast<size_t>(flags.GetInt("exceptions"));
  ApplyRequestFlags(flags, &request.cost, &request.enumerator,
                    &request.control);

  remi::Timer timer;
  auto response = service->BatchMine(request);
  if (!response.ok()) return Fail(response.status());
  const double elapsed = timer.ElapsedSeconds();

  size_t found = 0;
  for (size_t i = 0; i < response->results.size(); ++i) {
    const remi::MineResponse& r = response->results[i];
    if (r.found) {
      ++found;
      std::printf("%-40s %.3f bits  %s\n", (*batch)[i].first.c_str(), r.cost,
                  r.expression_text.c_str());
    } else {
      std::printf("%-40s %s\n", (*batch)[i].first.c_str(),
                  r.status.IsDeadlineExceeded() ? "timed out"
                                                : "no referring expression");
    }
  }
  std::printf("batch      : %zu/%zu sets with an RE, %lld thread(s), %s "
              "(%.1f sets/s)\n",
              found, response->results.size(),
              static_cast<long long>(flags.GetInt("threads")),
              remi::FormatSeconds(elapsed).c_str(),
              elapsed > 0
                  ? static_cast<double>(response->results.size()) / elapsed
                  : 0.0);
  // Same convention as single-set mine: exit 2 when no referring
  // expression was found (here: for any set in the batch).
  return found > 0 ? 0 : 2;
}

int CmdMine(const std::string& path, const remi::Flags& flags) {
  auto service = OpenService(path, flags);
  if (!service.ok()) return Fail(service.status());

  if (!flags.GetString("batch").empty()) {
    return CmdMineBatch(service->get(), flags);
  }

  remi::MineRequest request;
  for (const std::string& name :
       remi::SplitString(flags.GetString("targets"), ',')) {
    if (!name.empty()) request.targets.names.push_back(name);
  }
  if (request.targets.names.empty()) {
    return Fail(Status::InvalidArgument("--targets is required"));
  }
  request.max_exceptions = static_cast<size_t>(flags.GetInt("exceptions"));
  request.verbalize = true;
  ApplyRequestFlags(flags, &request.cost, &request.enumerator,
                    &request.control);

  remi::Timer timer;
  auto response = (*service)->Mine(request);
  if (!response.ok()) return Fail(response.status());
  if (!response->found) {
    std::printf("no referring expression exists for this set%s\n",
                response->status.IsDeadlineExceeded() ? " (timed out)" : "");
    return 2;
  }
  std::printf("expression : %s\n", response->expression_text.c_str());
  std::printf("complexity : %.3f bits (Ĉ%s)\n", response->cost,
              flags.GetString("metric").c_str());
  std::printf("verbalized : %s\n", response->verbalization.c_str());
  if (!response->exception_labels.empty()) {
    std::printf("exceptions :");
    for (const std::string& e : response->exception_labels) {
      std::printf(" %s", e.c_str());
    }
    std::printf("\n");
  }
  std::printf("search     : |G|=%zu, %llu nodes, %llu seed probes, %s\n",
              response->stats.num_common_subgraphs,
              static_cast<unsigned long long>(response->stats.nodes_visited),
              static_cast<unsigned long long>(response->stats.seed_probes),
              remi::FormatSeconds(timer.ElapsedSeconds()).c_str());
  std::printf("kernel     : %llu count-only, %llu frame reuses, "
              "%zu pinned KiB, %llu search cache lookups\n",
              static_cast<unsigned long long>(
                  response->stats.count_only_prunes),
              static_cast<unsigned long long>(
                  response->stats.arena_frames_reused),
              (response->stats.pinned_queue_bytes +
               response->stats.dense_twin_bytes) / 1024,
              static_cast<unsigned long long>(
                  response->stats.search_cache_lookups));
  return 0;
}

int CmdSummarize(const std::string& path, const remi::Flags& flags) {
  auto service = OpenService(path, flags);
  if (!service.ok()) return Fail(service.status());

  remi::SummarizeRequest request;
  request.entity.names.push_back(flags.GetString("entity"));
  request.k = static_cast<size_t>(flags.GetInt("k"));
  request.metric = flags.GetString("metric") == "pr"
                       ? remi::ProminenceMetric::kPageRank
                       : remi::ProminenceMetric::kFrequency;
  request.control.deadline_seconds = flags.GetDouble("timeout");

  auto response = (*service)->Summarize(request);
  if (!response.ok()) return Fail(response.status());
  if (!response->status.ok()) {
    std::printf("summary of %s interrupted (%s)\n",
                response->entity_label.c_str(),
                response->status.ToString().c_str());
    return 2;
  }
  std::printf("summary of %s:\n", response->entity_label.c_str());
  for (const std::string& item : response->item_labels) {
    std::printf("  %s\n", item.c_str());
  }
  return 0;
}

/// Sends one admin request (one NDJSON line, or one binary frame when
/// `binary`), prints the server's response document, and maps it to an
/// exit code: 0 when the server reported "status":"OK", 2 otherwise
/// (fail closed on the client too — e.g. a rejected reload means the
/// server kept its prior generation; tell the operator via the exit
/// code).
int AdminRoundTrip(const remi::Flags& flags, remi::FrameVerb verb,
                   const remi::JsonValue& request, bool binary) {
  const int max_retries = static_cast<int>(flags.GetInt("max-retries"));
  // Cheap jitter state: decorrelates concurrent CLI invocations so a
  // fleet of retrying clients doesn't re-converge into one thundering
  // herd at hint × 2^k boundaries.
  uint64_t jitter =
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()) |
      1;
  for (int attempt = 0;; ++attempt) {
    auto client = remi::WireClient::Connect(
        flags.GetString("host"), static_cast<int>(flags.GetInt("port")));
    if (!client.ok()) return Fail(client.status());
    auto response = binary ? client->FrameRoundTrip(verb, request.Dump())
                           : client->LineRoundTrip(request.Dump());
    if (!response.ok()) return Fail(response.status());
    auto parsed = remi::ParseJson(*response);
    if (!parsed.ok() || !parsed->is_object()) {
      return Fail(Status::Internal("unparseable server response: " +
                                   *response));
    }
    const remi::JsonValue* status = parsed->Find("status");
    const std::string code =
        status != nullptr && status->is_string() ? status->AsString() : "";
    if (code == "ResourceExhausted" && attempt < max_retries) {
      // The server's retry_after_ms hint is scaled off its live queue;
      // trust it as the base and back off exponentially on repeated
      // rejections, capped at 10 s.
      uint64_t hint = 100;
      const remi::JsonValue* after = parsed->Find("retry_after_ms");
      if (after != nullptr && after->is_number() && after->AsNumber() >= 1) {
        hint = static_cast<uint64_t>(after->AsNumber());
      }
      constexpr uint64_t kMaxDelayMs = 10000;
      uint64_t delay =
          std::min(kMaxDelayMs, hint << std::min(attempt, 10));
      // xorshift64 step; jitter the delay into [0.75, 1.25).
      jitter ^= jitter << 13;
      jitter ^= jitter >> 7;
      jitter ^= jitter << 17;
      delay = delay * 3 / 4 + (jitter % (std::max<uint64_t>(delay, 2) / 2));
      std::fprintf(stderr,
                   "server busy; retrying in %llu ms (attempt %d of %d)\n",
                   static_cast<unsigned long long>(delay), attempt + 1,
                   max_retries);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      continue;
    }
    std::printf("%s\n", response->c_str());
    return code == "OK" ? 0 : 2;
  }
}

int CmdReload(const std::string& path, const remi::Flags& flags) {
  remi::JsonValue request = remi::JsonValue::Object();
  request.Set("op", remi::JsonValue::String("reload"));
  if (flags.WasSet("kb")) {
    request.Set("kb", remi::JsonValue::String(flags.GetString("kb")));
  }
  request.Set("path", remi::JsonValue::String(path));
  request.Set("lenient", remi::JsonValue::Bool(!flags.GetBool("strict")));
  return AdminRoundTrip(flags, remi::FrameVerb::kReload, request,
                        flags.GetBool("binary"));
}

int CmdAttach(const std::string& name, const std::string& path,
              const remi::Flags& flags) {
  remi::JsonValue request = remi::JsonValue::Object();
  request.Set("op", remi::JsonValue::String("attach"));
  request.Set("kb", remi::JsonValue::String(name));
  request.Set("path", remi::JsonValue::String(path));
  request.Set("lenient", remi::JsonValue::Bool(!flags.GetBool("strict")));
  if (flags.GetBool("lazy")) {
    request.Set("lazy", remi::JsonValue::Bool(true));
  }
  if (flags.WasSet("kb-max-inflight")) {
    request.Set("max_in_flight",
                remi::JsonValue::Number(static_cast<double>(
                    flags.GetInt("kb-max-inflight"))));
  }
  if (flags.WasSet("kb-max-queued")) {
    request.Set("max_queued",
                remi::JsonValue::Number(static_cast<double>(
                    flags.GetInt("kb-max-queued"))));
  }
  return AdminRoundTrip(flags, remi::FrameVerb::kAttachKb, request,
                        flags.GetBool("binary"));
}

int CmdDetach(const std::string& name, const remi::Flags& flags) {
  remi::JsonValue request = remi::JsonValue::Object();
  request.Set("op", remi::JsonValue::String("detach"));
  request.Set("kb", remi::JsonValue::String(name));
  return AdminRoundTrip(flags, remi::FrameVerb::kDetachKb, request,
                        flags.GetBool("binary"));
}

int CmdListKbs(const remi::Flags& flags) {
  remi::JsonValue request = remi::JsonValue::Object();
  request.Set("op", remi::JsonValue::String("list_kbs"));
  return AdminRoundTrip(flags, remi::FrameVerb::kListKbs, request,
                        flags.GetBool("binary"));
}

/// Fetches a running server's live ServiceCounters (admission outcomes,
/// transport health, aggregated mining stats) — or one tenant's slice
/// with --kb — over the binary frame protocol and prints the JSON
/// document.
int CmdCounters(const remi::Flags& flags) {
  remi::JsonValue request = remi::JsonValue::Object();
  if (flags.WasSet("kb")) {
    request.Set("kb", remi::JsonValue::String(flags.GetString("kb")));
  }
  return AdminRoundTrip(flags, remi::FrameVerb::kCounters, request,
                        /*binary=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  remi::Flags flags;
  flags.DefineString("targets", "", "comma-separated entities (mine)");
  flags.DefineString("batch", "",
                     "file with one target set per line (mine)");
  flags.DefineString("entity", "", "entity to summarize (summarize)");
  flags.DefineString("metric", "fr", "prominence metric: fr | pr");
  flags.DefineInt("threads", 1, "worker threads (>1 = P-REMI)");
  flags.DefineInt("k", 5, "summary size (summarize)");
  flags.DefineInt("exceptions", 0, "allowed non-target matches (mine)");
  flags.DefineBool("standard", false,
                   "restrict mining to the standard (atom-only) language");
  flags.DefineDouble("timeout", 0.0, "per-request deadline in seconds");
  flags.DefineDouble("inverse-fraction", 0.01,
                     "inverse materialization fraction (paper: 0.01)");
  flags.DefineString("host", "127.0.0.1", "server address (reload/counters)");
  flags.DefineInt("port", 7411, "server port (reload/counters)");
  flags.DefineBool("strict", false,
                   "reload: fail on malformed N-Triples lines instead of "
                   "skipping them");
  flags.DefineBool("binary", false,
                   "admin commands: use the binary frame protocol instead "
                   "of NDJSON");
  flags.DefineString("kb", "",
                     "reload/counters: the named KB to target (default: "
                     "the server's default tenant)");
  flags.DefineBool("lazy", false,
                   "attach: register as a catalog entry (opened on first "
                   "request) instead of opening the KB now");
  flags.DefineInt("kb-max-inflight", 0,
                  "attach: the new tenant's in-flight quota (0 = unlimited)");
  flags.DefineInt("kb-max-queued", 0,
                  "attach: the new tenant's queue quota (0 = unlimited)");
  flags.DefineInt("max-retries", 0,
                  "admin commands: on ResourceExhausted, honor the "
                  "server's retry_after_ms hint and retry up to this many "
                  "times (capped exponential backoff with jitter)");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    return Fail(status);
  }
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  if (auto status = flags.CheckRanges(
          {{"threads", 0, kIntMax}, {"exceptions", 0, kIntMax},
           {"k", 0, kIntMax}, {"max-retries", 0, kIntMax},
           {"kb-max-inflight", 0, kIntMax}, {"kb-max-queued", 0, kIntMax},
           {"port", 1, 65535}},
          {"timeout"});
      !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }
  const auto& args = flags.positional();
  if (args.empty()) {
    std::printf(
        "usage: remi <stats|convert|snapshot|mine|summarize|reload|counters"
        "|attach|detach|list> <kb> [args]\n\n%s",
        flags.Help().c_str());
    return 1;
  }
  const std::string& command = args[0];
  if (command == "stats" && args.size() == 2) {
    return CmdStats(args[1], flags);
  }
  if (command == "convert" && args.size() == 3) {
    return CmdConvert(args[1], args[2], flags);
  }
  if (command == "snapshot" && args.size() == 3) {
    return CmdSnapshot(args[1], args[2], flags);
  }
  if (command == "mine" && args.size() == 2) {
    return CmdMine(args[1], flags);
  }
  if (command == "summarize" && args.size() == 2) {
    return CmdSummarize(args[1], flags);
  }
  if (command == "reload" && args.size() == 2) {
    return CmdReload(args[1], flags);
  }
  if (command == "counters" && args.size() == 1) {
    return CmdCounters(flags);
  }
  if (command == "attach" && args.size() == 3) {
    return CmdAttach(args[1], args[2], flags);
  }
  if (command == "detach" && args.size() == 2) {
    return CmdDetach(args[1], flags);
  }
  if (command == "list" && args.size() == 1) {
    return CmdListKbs(flags);
  }
  std::fprintf(stderr, "unknown or malformed command\n");
  return 1;
}
