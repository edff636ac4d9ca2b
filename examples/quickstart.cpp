// Quickstart: stand up a remi::Service and mine the most intuitive
// referring expression for an entity through the request/response API.
//
//   ./quickstart [--targets Paris,Berlin] [--threads 2]
//   ./quickstart --kb tests/data/smoke.nt --targets Berlin
//
// Without --kb, an inline N-Triples document is parsed and the built KB is
// adopted with Service::Create; with --kb, Service::Open sniffs the format
// (.nt / .ttl / .rkf2) and loads the file. Either way the Service
// owns the KB, the thread pool, and the match-set cache — consumers only
// fill in MineRequest and read MineResponse.

#include <cstdio>
#include <string>

#include "rdf/ntriples.h"
#include "service/service.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

// A small inline KB: European capitals, with enough structure that
// "capitalOf France" is needed to single out Paris.
constexpr const char* kDocument = R"(
<http://ex/Paris>  <http://ex/capitalOf> <http://ex/France> .
<http://ex/Paris>  <http://ex/cityIn> <http://ex/France> .
<http://ex/Lyon>   <http://ex/cityIn> <http://ex/France> .
<http://ex/Berlin> <http://ex/capitalOf> <http://ex/Germany> .
<http://ex/Berlin> <http://ex/cityIn> <http://ex/Germany> .
<http://ex/Munich> <http://ex/cityIn> <http://ex/Germany> .
<http://ex/Rome>   <http://ex/capitalOf> <http://ex/Italy> .
<http://ex/Rome>   <http://ex/cityIn> <http://ex/Italy> .
<http://ex/Paris>  <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/City> .
<http://ex/Lyon>   <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/City> .
<http://ex/Berlin> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/City> .
<http://ex/Munich> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/City> .
<http://ex/Rome>   <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/City> .
<http://ex/Paris>  <http://www.w3.org/2000/01/rdf-schema#label> "Paris" .
<http://ex/France> <http://www.w3.org/2000/01/rdf-schema#label> "France" .
)";

}  // namespace

int main(int argc, char** argv) {
  remi::Flags flags;
  flags.DefineString("kb", "",
                     "KB file to serve (.nt/.ttl/.rkf2); empty = the "
                     "inline capitals document");
  flags.DefineString("targets", "Paris",
                     "comma-separated entity names to describe");
  flags.DefineInt("threads", 1, "1 = REMI, >1 = P-REMI");
  REMI_CHECK_OK(flags.Parse(argc, argv));

  // 1. Start the service. ServiceOptions.mining carries the RemiOptions
  // defaults; every request may override the cost model / language bias.
  remi::ServiceOptions options;
  options.mining.num_threads = static_cast<int>(flags.GetInt("threads"));

  std::unique_ptr<remi::Service> service;
  if (!flags.GetString("kb").empty()) {
    remi::KbSpec spec;
    spec.path = flags.GetString("kb");
    auto opened = remi::Service::Open(spec, options);
    REMI_CHECK_OK(opened.status());
    service = std::move(*opened);
  } else {
    remi::Dictionary dict;
    remi::NTriplesParser parser(&dict);
    auto triples = parser.ParseString(kDocument);
    REMI_CHECK_OK(triples.status());
    remi::KbOptions kb_options;
    kb_options.inverse_top_fraction = 0.1;
    service = remi::Service::Create(
        remi::KnowledgeBase::Build(std::move(dict), std::move(*triples),
                                   kb_options),
        options);
  }
  std::printf("KB: %zu facts, %zu entities, %zu predicates\n",
              service->kb().NumFacts(), service->kb().NumEntities(),
              service->kb().NumPredicates());

  // 2. Fill in the request: lexical targets (full IRIs or unambiguous
  // suffixes), verbalization on, a 5-second deadline so the call can
  // never run unbounded.
  remi::MineRequest request;
  for (const std::string& name :
       remi::SplitString(flags.GetString("targets"), ',')) {
    if (!name.empty()) request.targets.names.push_back(name);
  }
  request.verbalize = true;
  request.control.deadline_seconds = 5.0;

  // 3. Mine. Request-level problems (unknown target, capacity) are the
  // error side of the Result; execution outcomes (OK / DeadlineExceeded /
  // Cancelled) come back in response.status with partial stats.
  auto response = service->Mine(request);
  REMI_CHECK_OK(response.status());
  if (!response->status.ok()) {
    std::printf("request interrupted: %s\n",
                response->status.ToString().c_str());
    return 1;
  }
  if (!response->found) {
    std::printf("no referring expression exists for this set\n");
    return 0;
  }
  std::printf("RE  : %s\n", response->expression_text.c_str());
  std::printf("Ĉ   : %.3f bits\n", response->cost);
  std::printf("NLG : %s\n", response->verbalization.c_str());
  std::printf("search: %zu common subgraphs, %llu nodes visited, "
              "%.1fms mining\n",
              response->stats.num_common_subgraphs,
              static_cast<unsigned long long>(
                  response->stats.nodes_visited),
              response->service.mine_seconds * 1e3);
  return 0;
}
