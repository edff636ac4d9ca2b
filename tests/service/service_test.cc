// remi::Service contract tests: KB opening & format sniffing, lexical
// target resolution, request execution, per-request deadlines (including
// expiry mid-DFS), cooperative cancellation, admission control, and the
// batch == N-times-single equivalence — the serving guarantees of the API.

#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "kbgen/curated.h"
#include "kbgen/kb_builder.h"
#include "rdf/ntriples.h"
#include "service/json_codec.h"
#include "util/json.h"
#include "util/timer.h"
#include "process_temp_dir.h"

#ifndef REMI_TESTDATA_DIR
#define REMI_TESTDATA_DIR "tests/data"
#endif

namespace remi {
namespace {

std::string TestDataPath(const std::string& name) {
  return std::string(REMI_TESTDATA_DIR) + "/" + name;
}

std::unique_ptr<Service> OpenSmoke(const ServiceOptions& options = {}) {
  KbSpec spec;
  spec.path = TestDataPath("smoke.nt");
  auto service = Service::Open(spec, options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

/// The deadline workload: 2^p entities, one per p-bit pattern, with
/// bit j of entity i materialized as b_j(e_i, m_j). Every conjunction of
/// bit atoms strictly halves the match set, so with the prunings disabled
/// the DFS for the all-ones entity visits all 2^p subsets — a perfectly
/// deterministic, perfectly parallel-free long search (~2^16 nodes).
KnowledgeBase BuildBitLatticeKb(int p) {
  Dictionary dict;
  std::vector<Triple> triples;
  std::vector<TermId> preds(p), marks(p);
  for (int j = 0; j < p; ++j) {
    preds[j] = dict.InternIri("http://ex/b" + std::to_string(j));
    marks[j] = dict.InternIri("http://ex/m" + std::to_string(j));
  }
  const size_t n = size_t{1} << p;
  for (size_t i = 0; i < n; ++i) {
    const TermId e = dict.InternIri("http://ex/e" + std::to_string(i));
    for (int j = 0; j < p; ++j) {
      if (i >> j & 1) triples.push_back(Triple{e, preds[j], marks[j]});
    }
  }
  KbOptions options;
  options.inverse_top_fraction = 0;  // keep the build lean
  return KnowledgeBase::Build(std::move(dict), std::move(triples), options);
}

/// Mining options that make the bit-lattice search exhaustive.
RemiOptions ExhaustiveMining() {
  RemiOptions mining;
  mining.depth_pruning = false;
  mining.side_pruning = false;
  mining.best_bound_pruning = false;
  return mining;
}

constexpr int kBitKbBits = 16;

// --- opening & format sniffing ----------------------------------------------

TEST(ServiceOpenTest, OpensNTriples) {
  auto service = OpenSmoke();
  EXPECT_GT(service->kb().NumFacts(), 0u);
  EXPECT_GT(service->kb().NumEntities(), 0u);
}

TEST(ServiceOpenTest, SniffsMagicOverMisleadingExtension) {
  // An RKF2 snapshot renamed to .nt must still open as a snapshot.
  std::ifstream in(TestDataPath("golden.rkf2"), std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::string path =
      ProcessTempDir() + "/misnamed_snapshot_test.nt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  KbSpec spec;
  spec.path = path;
  auto service = Service::Open(spec);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_GT((*service)->kb().NumFacts(), 0u);
  std::remove(path.c_str());
}

TEST(ServiceOpenTest, MissingFileFailsWithContext) {
  KbSpec spec;
  spec.path = TestDataPath("does_not_exist.nt");
  auto service = Service::Open(spec);
  ASSERT_FALSE(service.ok());
  EXPECT_NE(service.status().message().find("does_not_exist"),
            std::string::npos);
}

// --- lexical target resolution ----------------------------------------------

TEST(ServiceResolveTest, ResolvesFullIriAndUniqueSuffix) {
  auto service = OpenSmoke();
  auto by_iri = service->ResolveTarget("http://example.org/Berlin");
  auto by_suffix = service->ResolveTarget("Berlin");
  ASSERT_TRUE(by_iri.ok());
  ASSERT_TRUE(by_suffix.ok());
  EXPECT_EQ(*by_iri, *by_suffix);
}

TEST(ServiceResolveTest, MultiSegmentSuffixUsesBoundaryCheckedScan) {
  auto service = OpenSmoke();
  // "example.org/Berlin" is a suffix of <http://example.org/Berlin> at a
  // '/' boundary — resolved by the fallback scan, not the local-name
  // index, and must agree with the plain local-name lookup.
  auto by_long_suffix = service->ResolveTarget("example.org/Berlin");
  ASSERT_TRUE(by_long_suffix.ok()) << by_long_suffix.status().ToString();
  EXPECT_EQ(*by_long_suffix, *service->ResolveTarget("Berlin"));
}

TEST(ServiceResolveTest, PredicateIriIsNotATarget) {
  auto service = OpenSmoke();
  // The exact-IRI path must enforce the entity contract: a predicate
  // resolves to NotFound, not to its TermId.
  auto resolved = service->ResolveTarget("http://example.org/prop/cityIn");
  ASSERT_FALSE(resolved.ok());
  EXPECT_TRUE(resolved.status().IsNotFound());
}

TEST(ServiceResolveTest, UnknownNameIsNotFound) {
  auto service = OpenSmoke();
  auto resolved = service->ResolveTarget("Atlantis");
  ASSERT_FALSE(resolved.ok());
  EXPECT_TRUE(resolved.status().IsNotFound());
}

TEST(ServiceResolveTest, AmbiguousSuffixIsInvalidArgument) {
  Dictionary dict;
  NTriplesParser parser(&dict);
  auto triples = parser.ParseString(
      "<http://a/Paris> <http://x/p> <http://x/o> .\n"
      "<http://b/Paris> <http://x/p> <http://x/o> .\n");
  ASSERT_TRUE(triples.ok());
  auto service = Service::Create(
      KnowledgeBase::Build(std::move(dict), std::move(*triples)));
  auto resolved = service->ResolveTarget("Paris");
  ASSERT_FALSE(resolved.ok());
  EXPECT_TRUE(resolved.status().IsInvalidArgument());
}

TEST(ServiceResolveTest, MergesIdsAndNamesDeduplicated) {
  auto service = OpenSmoke();
  const TermId berlin = *service->ResolveTarget("Berlin");
  TargetSpec spec;
  spec.ids = {berlin};
  spec.names = {"Berlin", "Hamburg"};
  auto resolved = service->ResolveTargets(spec);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->size(), 2u);
}

TEST(ServiceResolveTest, OutOfRangeIdIsInvalidArgument) {
  auto service = OpenSmoke();
  TargetSpec spec;
  spec.ids = {static_cast<TermId>(service->kb().dict().size() + 100)};
  auto resolved = service->ResolveTargets(spec);
  ASSERT_FALSE(resolved.ok());
  EXPECT_TRUE(resolved.status().IsInvalidArgument());
}

TEST(ServiceResolveTest, EmptyTargetsIsInvalidArgument) {
  auto service = OpenSmoke();
  MineRequest request;
  auto response = service->Mine(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument());
}

// --- basic mining through the façade ----------------------------------------

TEST(ServiceMineTest, MatchesDirectMinerByteForByte) {
  auto service = OpenSmoke();
  MineRequest request;
  request.targets.names = {"Berlin"};
  request.verbalize = true;
  auto response = service->Mine(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok());
  ASSERT_TRUE(response->found);
  EXPECT_FALSE(response->verbalization.empty());

  RemiMiner direct(&service->kb(), service->options().mining);
  auto reference = direct.MineRe(response->targets);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->found);
  EXPECT_EQ(response->expression_text,
            reference->expression.ToString(service->kb().dict()));
  EXPECT_EQ(response->cost, reference->cost);
}

TEST(ServiceMineTest, PerRequestCostOverrideSelectsMetric) {
  auto service = OpenSmoke();
  MineRequest request;
  request.targets.names = {"Berlin", "Hamburg"};
  CostModelOptions pr;
  pr.metric = ProminenceMetric::kPageRank;
  request.cost = pr;
  auto response = service->Mine(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->found);

  RemiOptions pr_options = service->options().mining;
  pr_options.cost = pr;
  RemiMiner direct(&service->kb(), pr_options);
  auto reference = direct.MineRe(response->targets);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(response->expression_text,
            reference->expression.ToString(service->kb().dict()));
  EXPECT_EQ(response->cost, reference->cost);
}

TEST(ServiceMineTest, ExceptionsAreReportedWithLabels) {
  auto service = OpenSmoke();
  MineRequest request;
  request.targets.names = {"Berlin"};
  request.max_exceptions = 2;
  auto response = service->Mine(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->found);
  EXPECT_EQ(response->exceptions.size(),
            response->exception_labels.size());
  EXPECT_LE(response->exceptions.size(), 2u);
}

TEST(ServiceSummarizeTest, TopKAtoms) {
  auto service = OpenSmoke();
  SummarizeRequest request;
  request.entity.names = {"Berlin"};
  request.k = 3;
  auto response = service->Summarize(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok());
  EXPECT_EQ(response->entity_label, "Berlin");
  EXPECT_LE(response->items.size(), 3u);
  EXPECT_GT(response->items.size(), 0u);
  EXPECT_EQ(response->items.size(), response->item_labels.size());
}

TEST(ServiceSummarizeTest, MultipleEntitiesRejected) {
  auto service = OpenSmoke();
  SummarizeRequest request;
  request.entity.names = {"Berlin", "Hamburg"};
  auto response = service->Summarize(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument());
}

TEST(ServiceCandidatesTest, RankedQueueAscendingAndLimited) {
  auto service = OpenSmoke();
  CandidatesRequest request;
  request.targets.names = {"Berlin"};
  auto all = service->Candidates(request);
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all->size(), 2u);
  for (size_t i = 1; i < all->size(); ++i) {
    EXPECT_LE((*all)[i - 1].cost, (*all)[i].cost);
  }
  request.limit = 2;
  auto limited = service->Candidates(request);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 2u);
  EXPECT_EQ((*limited)[0].expression, (*all)[0].expression);
}

// --- batch == N x single ----------------------------------------------------

TEST(ServiceBatchTest, BatchEqualsIndividualMines) {
  ServiceOptions options;
  options.mining.num_threads = 4;  // exercise the shared pool
  options.mining.clamp_threads_to_hardware = false;
  auto service = Service::Create(BuildCuratedKb(), options);

  const std::vector<std::vector<std::string>> names = {
      {"Paris"}, {"Marie_Curie"}, {"Guyana", "Suriname"},
      {"Rennes", "Nantes"}, {"Agrofert"}};
  BatchMineRequest batch;
  for (const auto& set : names) {
    TargetSpec spec;
    spec.names = set;
    batch.target_sets.push_back(spec);
  }
  auto batched = service->BatchMine(batch);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_TRUE(batched->status.ok());
  ASSERT_EQ(batched->results.size(), names.size());

  for (size_t i = 0; i < names.size(); ++i) {
    MineRequest single;
    single.targets.names = names[i];
    auto response = service->Mine(single);
    ASSERT_TRUE(response.ok());
    const MineResponse& from_batch = batched->results[i];
    EXPECT_EQ(from_batch.found, response->found) << i;
    if (response->found) {
      EXPECT_EQ(from_batch.expression_text, response->expression_text) << i;
      EXPECT_EQ(from_batch.cost, response->cost) << i;
    }
  }
}

TEST(ServiceBatchTest, EmptyBatchRejected) {
  auto service = OpenSmoke();
  BatchMineRequest request;
  auto response = service->BatchMine(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument());
}

// --- deadlines --------------------------------------------------------------

class ServiceDeadlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new KnowledgeBase(BuildBitLatticeKb(kBitKbBits));
    all_ones_ = *kb_->dict().Lookup(
        TermKind::kIri,
        "http://ex/e" + std::to_string((size_t{1} << kBitKbBits) - 1));
  }
  static void TearDownTestSuite() {
    delete kb_;
    kb_ = nullptr;
  }

  /// The service owns its KB, so service-backed tests build their own
  /// (deterministic) copy; kb_ exists for direct-miner comparisons.
  static std::unique_ptr<Service> MakeService() {
    ServiceOptions options;
    options.mining = ExhaustiveMining();
    return Service::Create(BuildBitLatticeKb(kBitKbBits), options);
  }

  static KnowledgeBase* kb_;
  static TermId all_ones_;
};

KnowledgeBase* ServiceDeadlineTest::kb_ = nullptr;
TermId ServiceDeadlineTest::all_ones_ = kNullTerm;

TEST_F(ServiceDeadlineTest, ShortDeadlineExpiresMidDfsWithinGracePeriod) {
  auto service = MakeService();
  const TermId target = *service->ResolveTarget(
      "http://ex/e" + std::to_string((size_t{1} << kBitKbBits) - 1));

  MineRequest request;
  request.targets.ids = {target};
  request.control.deadline_seconds = 0.005;

  Timer timer;
  auto response = service->Mine(request);
  const double elapsed = timer.ElapsedSeconds();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsDeadlineExceeded())
      << response->status.ToString();
  // Cooperative checkpointing: the DFS polls per node, so expiry must
  // surface within a bounded grace period, not after the full 2^16-node
  // search (and certainly not hang).
  EXPECT_LT(elapsed, 5.0);
  // Partial stats: strictly fewer nodes than the exhaustive search
  // visits (the status assert above already rules out a completed run).
  // Whether the best-so-far RE was already found when the deadline fired
  // is timing-dependent (it usually is — the first DFS descent reaches
  // it within the first |G| nodes), so `found` is not asserted here.
  EXPECT_LT(response->stats.nodes_visited,
            (uint64_t{1} << kBitKbBits) - 1);
  EXPECT_EQ(service->counters().deadline_exceeded, 1u);
}

TEST_F(ServiceDeadlineTest, NoDeadlineMatchesDirectMinerByteForByte) {
  auto service = MakeService();
  const TermId target = *service->ResolveTarget(
      "http://ex/e" + std::to_string((size_t{1} << kBitKbBits) - 1));

  MineRequest request;  // identical request, no deadline
  request.targets.ids = {target};
  auto response = service->Mine(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->status.ok());
  ASSERT_TRUE(response->found);
  // The exhaustive search visits every subset of the 16 bit-atoms.
  EXPECT_EQ(response->stats.nodes_visited,
            (uint64_t{1} << kBitKbBits) - 1);

  // Byte-identical to driving RemiMiner directly with the same options
  // (the shared KB instance is id-compatible with the service's own KB:
  // both are built by the same deterministic constructor).
  RemiMiner direct(kb_, ExhaustiveMining());
  auto reference = direct.MineRe({all_ones_});
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->found);
  EXPECT_EQ(response->expression_text,
            reference->expression.ToString(kb_->dict()));
  EXPECT_EQ(response->cost, reference->cost);
  EXPECT_EQ(response->stats.nodes_visited, reference->stats.nodes_visited);
}

TEST(ServiceDeadlineQueueTest, DeadlineCoversBatch) {
  ServiceOptions options;
  options.mining = ExhaustiveMining();
  auto service = Service::Create(BuildBitLatticeKb(kBitKbBits), options);
  const std::string entity =
      "http://ex/e" + std::to_string((size_t{1} << kBitKbBits) - 1);

  BatchMineRequest request;
  for (int i = 0; i < 4; ++i) {
    TargetSpec spec;
    spec.names = {entity};
    request.target_sets.push_back(spec);
  }
  request.control.deadline_seconds = 0.005;
  auto response = service->BatchMine(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.IsDeadlineExceeded());
}

// --- cancellation -----------------------------------------------------------

TEST(ServiceCancelTest, CancellationStopsARunningRequest) {
  ServiceOptions options;
  options.mining = ExhaustiveMining();
  auto service = Service::Create(BuildBitLatticeKb(kBitKbBits), options);
  const std::string entity =
      "http://ex/e" + std::to_string((size_t{1} << kBitKbBits) - 1);

  CancellationSource source;
  BatchMineRequest request;  // a batch long enough to outlive the cancel
  for (int i = 0; i < 64; ++i) {
    TargetSpec spec;
    spec.names = {entity};
    request.target_sets.push_back(spec);
  }
  request.control.cancel = source.token();

  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    source.RequestCancellation();
  });
  auto response = service->BatchMine(request);
  canceller.join();
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.IsCancelled())
      << response->status.ToString();
  EXPECT_EQ(service->counters().cancelled, 1u);
}

// --- hot-swap registry basics (the fault harness lives in
// reload_fault_test.cc; these cover the API contract) -------------------------

TEST(ServiceReloadTest, FirstGenerationCountersAndPinnedLabels) {
  auto service = OpenSmoke();
  const ServiceCounters before = service->counters();
  EXPECT_EQ(before.generation, 1u);
  EXPECT_EQ(before.active_generations, 1u);
  EXPECT_EQ(before.reloads_ok, 0u);
  EXPECT_EQ(before.reloads_rejected, 0u);

  MineRequest request;
  request.targets.names = {"Berlin"};
  auto response = service->Mine(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->service.generation, 1u);
  // Labels are rendered under the pin so the wire layer never has to
  // consult the (possibly swapped) live KB.
  ASSERT_EQ(response->target_labels.size(), response->targets.size());
  EXPECT_EQ(response->target_labels[0], "Berlin");
}

TEST(ServiceReloadTest, SharedKbPinKeepsDisplacedGenerationAlive) {
  auto service = OpenSmoke();
  std::shared_ptr<const KnowledgeBase> pinned = service->SharedKb();
  const size_t facts = pinned->NumFacts();

  ReloadKbRequest reload;
  reload.spec.path = TestDataPath("smoke.nt");
  const ReloadKbResponse published = service->ReloadKb(reload);
  ASSERT_TRUE(published.status.ok()) << published.status.ToString();
  EXPECT_EQ(published.generation, 2u);
  EXPECT_EQ(service->generation(), 2u);

  // The displaced generation survives exactly as long as its last pin.
  EXPECT_EQ(service->counters().active_generations, 2u);
  EXPECT_EQ(pinned->NumFacts(), facts);
  pinned.reset();
  EXPECT_EQ(service->counters().active_generations, 1u);
}

// --- admission control ------------------------------------------------------

TEST(ServiceAdmissionTest, OverflowReturnsResourceExhausted) {
  ServiceOptions options;
  options.mining = ExhaustiveMining();
  options.max_in_flight = 1;
  options.max_queued = 0;
  auto service = Service::Create(BuildBitLatticeKb(kBitKbBits), options);
  const std::string entity =
      "http://ex/e" + std::to_string((size_t{1} << kBitKbBits) - 1);

  // Occupy the single slot with a long cancellable batch.
  CancellationSource source;
  BatchMineRequest slow;
  for (int i = 0; i < 256; ++i) {
    TargetSpec spec;
    spec.names = {entity};
    slow.target_sets.push_back(spec);
  }
  slow.control.cancel = source.token();
  std::thread occupant([&] { (void)service->BatchMine(slow); });

  // Wait for the occupant to hold the slot.
  while (service->counters().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  MineRequest request;
  request.targets.names = {entity};
  auto rejected = service->Mine(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  EXPECT_EQ(service->counters().rejected, 1u);

  source.RequestCancellation();
  occupant.join();

  // The slot is free again: the same request now executes.
  request.control.deadline_seconds = 0.005;
  auto accepted = service->Mine(request);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
}

TEST(ServiceAdmissionTest, QueuedRequestHonorsDeadline) {
  ServiceOptions options;
  options.mining = ExhaustiveMining();
  options.max_in_flight = 1;
  options.max_queued = 4;
  auto service = Service::Create(BuildBitLatticeKb(kBitKbBits), options);
  const std::string entity =
      "http://ex/e" + std::to_string((size_t{1} << kBitKbBits) - 1);

  CancellationSource source;
  BatchMineRequest slow;
  for (int i = 0; i < 256; ++i) {
    TargetSpec spec;
    spec.names = {entity};
    slow.target_sets.push_back(spec);
  }
  slow.control.cancel = source.token();
  std::thread occupant([&] { (void)service->BatchMine(slow); });
  while (service->counters().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // This request queues behind the occupant and must give up in-band
  // when its deadline expires while waiting.
  MineRequest queued;
  queued.targets.names = {entity};
  queued.control.deadline_seconds = 0.05;
  auto response = service->Mine(queued);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsDeadlineExceeded());
  EXPECT_GT(response->service.queue_wait_seconds, 0.0);
  EXPECT_EQ(response->stats.nodes_visited, 0u);  // it never ran

  source.RequestCancellation();
  occupant.join();
}

TEST(ServiceRetryHintTest, AdmissionOverflowCarriesRetryAfterHint) {
  // A service with one never-queued slot, occupied by a long cancellable
  // batch: the next wire request must come back ResourceExhausted with
  // the retry_after_ms back-off hint.
  KbSpec spec;
  spec.path = std::string(REMI_TESTDATA_DIR) + "/smoke.nt";
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_queued = 0;
  auto opened = Service::Open(spec, options);
  ASSERT_TRUE(opened.ok());
  Service* service = opened->get();

  CancellationSource source;
  BatchMineRequest slow;
  for (int i = 0; i < 4096; ++i) {
    TargetSpec target;
    target.names = {"Berlin"};
    slow.target_sets.push_back(target);
  }
  slow.control.cancel = source.token();
  std::thread occupant([&] { (void)service->BatchMine(slow); });
  while (service->counters().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto response = ParseJson(HandleRequestLine(
      service, R"({"op":"mine","targets":["Berlin"]})"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Find("status")->AsString(), "ResourceExhausted");
  ASSERT_NE(response->Find("retry_after_ms"), nullptr);
  EXPECT_GT(response->Find("retry_after_ms")->AsNumber(), 0.0);

  source.RequestCancellation();
  occupant.join();
}

TEST(ServiceRetryHintTest, RetryHintGrowsWithQueueDepth) {
  // The hint is derived from admission state, not a constant: at equal
  // jitter, deeper queues must produce strictly larger hints until the
  // cap, and the jitter band keeps any hint within [0.75x, 1.25x) base.
  uint64_t previous = 0;
  for (size_t queued = 0; queued < 64; ++queued) {
    const uint64_t hint = Service::ComputeRetryAfterMs(
        queued, /*max_in_flight=*/4, /*mean_service_ms=*/40.0,
        /*jitter256=*/128);
    EXPECT_GT(hint, previous) << "queued=" << queued;
    previous = hint;
  }
  // Cold start (no completions yet) still floors at a sane minimum.
  const uint64_t cold = Service::ComputeRetryAfterMs(0, 4, 0.0, 128);
  EXPECT_GE(cold, 25u);
  // The cap bounds even absurd backlogs.
  const uint64_t capped = Service::ComputeRetryAfterMs(
      1u << 20, 1, 5000.0, 255);
  EXPECT_LE(capped, 13000u);
  // Jitter spreads retries instead of synchronizing them.
  const uint64_t low = Service::ComputeRetryAfterMs(8, 4, 40.0, 0);
  const uint64_t high = Service::ComputeRetryAfterMs(8, 4, 40.0, 255);
  EXPECT_LT(low, high);
}

// --- wire codec -------------------------------------------------------------

TEST(ServiceWireCodecTest, RejectsOutOfRangeNumbersInsteadOfCasting) {
  // 1e999 parses to +inf; casting it to size_t/TermId would be UB, so
  // the codec must reject it as InvalidArgument (covers ReadSize and the
  // numeric-id path of ReadTargetSpec).
  auto service = OpenSmoke();
  for (const char* line :
       {R"({"op":"mine","targets":["Berlin"],"max_exceptions":1e999})",
        R"({"op":"mine","targets":[1e999]})",
        R"({"op":"mine","targets":[1.5]})",
        R"({"op":"mine","targets":[99999999999]})",
        R"({"op":"summarize","entity":"Berlin","k":-1})",
        R"({"op":"mine","targets":["Berlin"],"deadline_ms":1e999})",
        R"({"op":"mine","targets":["Berlin"],"deadline_ms":1e13})"}) {
    auto response = ParseJson(HandleRequestLine(service.get(), line));
    ASSERT_TRUE(response.ok()) << line;
    EXPECT_EQ(response->Find("status")->AsString(), "InvalidArgument")
        << line;
  }
}

// --- deadline-aware shedding ------------------------------------------------

TEST(ServiceSheddingTest, ExpiredAtAdmissionShedsBeforeMining) {
  ServiceOptions options;
  options.mining = ExhaustiveMining();
  auto service = Service::Create(BuildBitLatticeKb(kBitKbBits), options);
  const std::string entity =
      "http://ex/e" + std::to_string((size_t{1} << kBitKbBits) - 1);
  ASSERT_EQ(service->counters().nodes_visited_total, 0u);

  MineRequest request;
  request.targets.names = {entity};
  // Expired before Admit even looks at it: the deadline budget is gone
  // by the first Expired() check.
  request.control.deadline_seconds = 1e-9;
  auto response = service->Mine(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsDeadlineExceeded())
      << response->status.ToString();

  const ServiceCounters c = service->counters();
  EXPECT_EQ(c.shed_expired_in_queue, 1u);
  EXPECT_EQ(c.deadline_exceeded, 1u);
  EXPECT_EQ(c.admitted, 1u);  // shed is an admitted outcome, not a reject
  EXPECT_EQ(c.rejected, 0u);
  // The whole point of shedding: no mining work happened for the corpse.
  EXPECT_EQ(c.nodes_visited_total, 0u);

  // The per-tenant slice reconciles with the global counter.
  auto slice = service->CountersFor("");
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  EXPECT_EQ(slice->shed_expired_in_queue, 1u);
  EXPECT_EQ(slice->admitted, 1u);
}

TEST(ServiceSheddingTest, ExpiredWhileQueuedCountsAsShed) {
  ServiceOptions options;
  options.mining = ExhaustiveMining();
  options.max_in_flight = 1;
  options.max_queued = 4;
  auto service = Service::Create(BuildBitLatticeKb(kBitKbBits), options);
  const std::string entity =
      "http://ex/e" + std::to_string((size_t{1} << kBitKbBits) - 1);

  CancellationSource source;
  BatchMineRequest slow;
  for (int i = 0; i < 256; ++i) {
    TargetSpec spec;
    spec.names = {entity};
    slow.target_sets.push_back(spec);
  }
  slow.control.cancel = source.token();
  std::thread occupant([&] { (void)service->BatchMine(slow); });
  while (service->counters().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  MineRequest queued;
  queued.targets.names = {entity};
  queued.control.deadline_seconds = 0.05;
  auto response = service->Mine(queued);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsDeadlineExceeded());
  EXPECT_EQ(response->stats.nodes_visited, 0u);  // shed, never mined
  EXPECT_EQ(service->counters().shed_expired_in_queue, 1u);
  auto slice = service->CountersFor("");
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->shed_expired_in_queue, 1u);

  source.RequestCancellation();
  occupant.join();
}

// --- brownout ---------------------------------------------------------------

TEST(ServiceBrownoutTest, SustainedQueueWaitTightensAdmission) {
  ServiceOptions options;
  options.mining = ExhaustiveMining();
  options.max_in_flight = 1;
  options.max_queued = 4;
  options.brownout_p99_queue_wait_ms = 1.0;  // any real queueing trips it
  options.brownout_queue_fraction = 0.25;    // 4 -> 1 effective slot
  auto service = Service::Create(BuildBitLatticeKb(kBitKbBits), options);
  const std::string entity =
      "http://ex/e" + std::to_string((size_t{1} << kBitKbBits) - 1);

  CancellationSource source;
  BatchMineRequest slow;
  for (int i = 0; i < 256; ++i) {
    TargetSpec spec;
    spec.names = {entity};
    slow.target_sets.push_back(spec);
  }
  slow.control.cancel = source.token();
  std::thread occupant([&] { (void)service->BatchMine(slow); });
  while (service->counters().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Two requests queue behind the occupant and expire after ~30 ms of
  // waiting; their recorded queue waits push the window's p99 far above
  // the 1 ms bound.
  for (int i = 0; i < 2; ++i) {
    MineRequest waiting;
    waiting.targets.names = {entity};
    waiting.control.deadline_seconds = 0.03;
    auto shed = service->Mine(waiting);
    ASSERT_TRUE(shed.ok());
    EXPECT_TRUE(shed->status.IsDeadlineExceeded());
  }
  EXPECT_TRUE(service->counters().brownout_active);

  // Brownout tightened the queue to one slot: park one waiter in it,
  // then the next arrival is rejected even though the nominal queue
  // depth (4) has room.
  std::thread parked([&] {
    MineRequest waiting;
    waiting.targets.names = {entity};
    waiting.control.deadline_seconds = 5.0;
    (void)service->Mine(waiting);
  });
  for (;;) {
    auto slice = service->CountersFor("");
    ASSERT_TRUE(slice.ok());
    if (slice->queued >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  MineRequest overflow;
  overflow.targets.names = {entity};
  overflow.control.deadline_seconds = 5.0;
  auto rejected = service->Mine(overflow);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  const ServiceCounters c = service->counters();
  EXPECT_GE(c.brownout_rejected, 1u);
  EXPECT_EQ(c.rejected, 1u);

  source.RequestCancellation();
  occupant.join();
  parked.join();
}

TEST(ServiceBrownoutTest, DisabledByDefault) {
  ServiceOptions options;
  options.mining = ExhaustiveMining();
  auto service = Service::Create(BuildBitLatticeKb(kBitKbBits), options);
  const ServiceCounters c = service->counters();
  EXPECT_FALSE(c.brownout_active);
  EXPECT_EQ(c.brownout_rejected, 0u);
}

}  // namespace
}  // namespace remi
