// Microbenchmarks of the storage substrate: dictionary interning, CSR
// triple store lookups, EntitySet intersections and N-Triples parsing.
//
// The lookup and intersection numbers feed BENCH_store.json (see
// README.md): run with
//   bench_micro_store --benchmark_out=BENCH_store.json \
//                     --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include "gbench_main.h"

#include "kbgen/synthetic.h"
#include "query/entity_set.h"
#include "rdf/ntriples.h"
#include "util/random.h"

namespace remi {
namespace {

const KnowledgeBase& SmallKb() {
  static const KnowledgeBase* kb = [] {
    SyntheticKbConfig config;
    config.num_entities = 5000;
    config.num_predicates = 60;
    config.num_classes = 16;
    config.num_facts = 50000;
    return new KnowledgeBase(BuildSyntheticKb(config));
  }();
  return *kb;
}

void BM_DictionaryIntern(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Dictionary dict;
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      benchmark::DoNotOptimize(
          dict.InternIri("http://bench/e" + std::to_string(i)));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DictionaryIntern);

void BM_DictionaryLookupHit(benchmark::State& state) {
  Dictionary dict;
  for (int i = 0; i < 1000; ++i) {
    dict.InternIri("http://bench/e" + std::to_string(i));
  }
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dict.Lookup(TermKind::kIri,
                    "http://bench/e" + std::to_string(i++ % 1000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DictionaryLookupHit);

void BM_StoreBySubject(benchmark::State& state) {
  const KnowledgeBase& kb = SmallKb();
  const auto& subjects = kb.store().subjects();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kb.store().BySubject(subjects[i++ % subjects.size()]).size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreBySubject);

void BM_StoreByPredicateObject(benchmark::State& state) {
  const KnowledgeBase& kb = SmallKb();
  const auto& pso = kb.store().pso();
  Rng rng(7);
  std::vector<Triple> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(pso[rng.NextBounded(pso.size())]);
  }
  size_t i = 0;
  for (auto _ : state) {
    const Triple& probe = probes[i++ % probes.size()];
    benchmark::DoNotOptimize(
        kb.store().ByPredicateObject(probe.p, probe.o).size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreByPredicateObject);

void BM_StoreByPredicateSubject(benchmark::State& state) {
  const KnowledgeBase& kb = SmallKb();
  const auto& pso = kb.store().pso();
  Rng rng(9);
  std::vector<Triple> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(pso[rng.NextBounded(pso.size())]);
  }
  size_t i = 0;
  for (auto _ : state) {
    const Triple& probe = probes[i++ % probes.size()];
    benchmark::DoNotOptimize(
        kb.store().ByPredicateSubject(probe.p, probe.s).size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreByPredicateSubject);

void BM_StoreSubjectDegree(benchmark::State& state) {
  const KnowledgeBase& kb = SmallKb();
  const auto& subjects = kb.store().subjects();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kb.store().SubjectDegree(subjects[i++ % subjects.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreSubjectDegree);

// --- EntitySet intersection throughput -------------------------------------

// Builds the match set of one predicate's subjects, as the evaluator would.
EntitySet SubjectsOf(const KnowledgeBase& kb, TermId p) {
  std::vector<TermId> ids;
  for (const TermId s : kb.store().DistinctSubjectsOf(p)) ids.push_back(s);
  return EntitySet::FromSorted(std::move(ids), kb.dict().size());
}

void BM_EntitySetIntersectSparse(benchmark::State& state) {
  // Two sparse sets: sorted-vector representations, merge/gallop path.
  const KnowledgeBase& kb = SmallKb();
  Rng rng(11);
  std::vector<TermId> a_ids, b_ids;
  const auto& subjects = kb.store().subjects();
  for (int i = 0; i < 64; ++i) {
    a_ids.push_back(subjects[rng.NextBounded(subjects.size())]);
    b_ids.push_back(subjects[rng.NextBounded(subjects.size())]);
  }
  const EntitySet a = EntitySet::FromUnsorted(a_ids, kb.dict().size());
  const EntitySet b = EntitySet::FromUnsorted(b_ids, kb.dict().size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Intersect(b).size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_EntitySetIntersectSparse);

void BM_EntitySetIntersectDense(benchmark::State& state) {
  // The two most frequent predicates' subject sets: bitmap AND path.
  const KnowledgeBase& kb = SmallKb();
  std::vector<TermId> preds = kb.store().predicates();
  std::sort(preds.begin(), preds.end(), [&kb](TermId x, TermId y) {
    return kb.store().CountPredicate(x) > kb.store().CountPredicate(y);
  });
  const EntitySet a = SubjectsOf(kb, preds[0]);
  const EntitySet b = SubjectsOf(kb, preds[1]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Intersect(b).size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_EntitySetIntersectDense);

void BM_EntitySetIntersectSkewed(benchmark::State& state) {
  // A tiny set against the densest subject set: gallop / bitmap filter.
  const KnowledgeBase& kb = SmallKb();
  std::vector<TermId> preds = kb.store().predicates();
  std::sort(preds.begin(), preds.end(), [&kb](TermId x, TermId y) {
    return kb.store().CountPredicate(x) > kb.store().CountPredicate(y);
  });
  const EntitySet big = SubjectsOf(kb, preds[0]);
  Rng rng(13);
  std::vector<TermId> small_ids;
  const auto& subjects = kb.store().subjects();
  for (int i = 0; i < 4; ++i) {
    small_ids.push_back(subjects[rng.NextBounded(subjects.size())]);
  }
  const EntitySet small = EntitySet::FromUnsorted(small_ids, kb.dict().size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(small.Intersect(big).size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntitySetIntersectSkewed);

void BM_StoreContains(benchmark::State& state) {
  const KnowledgeBase& kb = SmallKb();
  const auto& spo = kb.store().spo();
  Rng rng(8);
  std::vector<Triple> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(spo[rng.NextBounded(spo.size())]);
  }
  size_t i = 0;
  for (auto _ : state) {
    const Triple& probe = probes[i++ % probes.size()];
    benchmark::DoNotOptimize(kb.store().Contains(probe.s, probe.p, probe.o));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreContains);

void BM_TripleStoreBuild(benchmark::State& state) {
  const KnowledgeBase& kb = SmallKb();
  const auto spo = kb.store().spo();
  std::vector<Triple> triples(spo.begin(), spo.end());
  for (auto _ : state) {
    TripleStore store = TripleStore::Build(triples);
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(triples.size()));
}
BENCHMARK(BM_TripleStoreBuild);

void BM_NTriplesParse(benchmark::State& state) {
  const KnowledgeBase& kb = SmallKb();
  std::vector<Triple> sample(kb.store().spo().begin(),
                             kb.store().spo().begin() + 5000);
  const std::string doc = WriteNTriples(kb.dict(), sample);
  for (auto _ : state) {
    Dictionary dict;
    NTriplesParser parser(&dict);
    auto triples = parser.ParseString(doc);
    benchmark::DoNotOptimize(triples->size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_NTriplesParse);

}  // namespace
}  // namespace remi

int main(int argc, char** argv) {
  return remi::bench::RunBenchmarkMain(argc, argv);
}
