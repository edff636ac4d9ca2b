// Warm reloads: a KB generation is published with its indexes built and
// the previous generation's hot match sets re-evaluated into its cache.
// The warmed generation must answer exactly as a cold one opened on the
// same KB, serve a repeated question from its cache at once, and keep
// the hot set across reloads in a row; a failed reload warms nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "kbgen/synthetic.h"
#include "service/service.h"
#include "service/tenant_registry.h"
#include "process_temp_dir.h"

#ifndef REMI_TESTDATA_DIR
#define REMI_TESTDATA_DIR "tests/data"
#endif

namespace remi {
namespace {

std::string SmokePath() { return std::string(REMI_TESTDATA_DIR) + "/smoke.nt"; }

SyntheticKbConfig SmallConfig(uint64_t seed) {
  SyntheticKbConfig config;
  config.seed = seed;
  config.num_entities = 300;
  config.num_predicates = 24;
  config.num_classes = 8;
  config.num_facts = 2500;
  return config;
}

/// Saves the synthetic KB of `seed` as a snapshot and returns its path.
std::string SaveSynthetic(uint64_t seed) {
  const std::string path = ProcessTempDir() + "/warm_reload_seed" +
                           std::to_string(seed) + ".rkf2";
  EXPECT_TRUE(BuildSyntheticKb(SmallConfig(seed)).SaveSnapshot(path).ok());
  return path;
}

std::unique_ptr<Service> OpenPath(const std::string& path) {
  KbSpec spec;
  spec.path = path;
  auto service = Service::Open(spec);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return service.ok() ? std::move(*service) : nullptr;
}

ReloadKbResponse Reload(Service& service, const std::string& path) {
  ReloadKbRequest request;
  request.spec.path = path;
  return service.ReloadKb(request);
}

/// Single and pair questions over the most prominent entities of `kb`
/// that are also entities of `other`, named by full IRI.
std::vector<std::vector<std::string>> SharedQuestions(
    const KnowledgeBase& kb, const KnowledgeBase& other, size_t n) {
  std::vector<std::string> names;
  for (const TermId e : kb.EntitiesByProminence()) {
    if (names.size() == n) break;
    const std::string_view iri = kb.dict().lexical(e);
    auto id = other.dict().Lookup(TermKind::kIri, iri);
    if (kb.dict().IsIri(e) && id.ok() && other.IsEntity(*id)) {
      names.emplace_back(iri);
    }
  }
  std::vector<std::vector<std::string>> questions;
  for (size_t i = 0; i < names.size(); ++i) {
    questions.push_back({names[i]});
    if (i + 1 < names.size()) questions.push_back({names[i], names[i + 1]});
  }
  return questions;
}

MineResponse MustMine(Service& service, const std::vector<std::string>& names) {
  MineRequest request;
  request.targets.names = names;
  auto response = service.Mine(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? *response : MineResponse{};
}

/// Mines each question twice, so every match set it touches has served
/// at least one lookup.
void MakeHot(Service& service,
             const std::vector<std::vector<std::string>>& questions) {
  for (int round = 0; round < 2; ++round) {
    for (const auto& q : questions) MustMine(service, q);
  }
}

TEST(WarmReloadTest, WarmEqualsColdOnAKbWithShiftedIdsAndMissingTerms) {
  const std::string path_a = SaveSynthetic(101);
  const std::string path_b = SaveSynthetic(202);
  auto warm = OpenPath(path_a);
  auto cold = OpenPath(path_b);
  ASSERT_NE(warm, nullptr);
  ASSERT_NE(cold, nullptr);
  const auto questions = SharedQuestions(warm->kb(), cold->kb(), 12);
  ASSERT_GE(questions.size(), 20u);
  MakeHot(*warm, questions);

  // A same-KB reload carries every reused entry; none can be dropped.
  const ReloadKbResponse same = Reload(*warm, path_a);
  ASSERT_TRUE(same.status.ok()) << same.status.ToString();
  ASSERT_GT(same.warmed_entries, 0u);

  // The other seed shifts ids and lacks some terms of the hot set: those
  // entries are dropped, the rest are re-evaluated on the new KB.
  const ReloadKbResponse changed = Reload(*warm, path_b);
  ASSERT_TRUE(changed.status.ok()) << changed.status.ToString();
  EXPECT_EQ(changed.generation, 3u);
  EXPECT_GT(changed.warmed_entries, 0u);
  EXPECT_LT(changed.warmed_entries, same.warmed_entries);

  for (const auto& q : questions) {
    SCOPED_TRACE(q[0] + (q.size() > 1 ? " + " + q[1] : ""));
    const MineResponse a = MustMine(*warm, q);
    const MineResponse b = MustMine(*cold, q);
    EXPECT_EQ(a.status.code(), b.status.code());
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.cost), std::bit_cast<uint64_t>(b.cost));
    EXPECT_EQ(a.expression_text, b.expression_text);
    EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited);
    EXPECT_EQ(a.service.generation, 3u);

    SummarizeRequest summarize;
    summarize.entity.names = {q[0]};
    auto sa = warm->Summarize(summarize);
    auto sb = cold->Summarize(summarize);
    ASSERT_EQ(sa.ok(), sb.ok());
    if (!sa.ok()) continue;
    EXPECT_EQ(sa->status.code(), sb->status.code());
    EXPECT_EQ(sa->item_labels, sb->item_labels);
  }
}

TEST(WarmReloadTest, SameKbReloadServesTheFirstRepeatedMineFromCache) {
  auto service = OpenPath(SmokePath());
  ASSERT_NE(service, nullptr);
  const std::vector<std::string> question = {"Berlin"};
  const MineResponse first = MustMine(*service, question);
  EXPECT_GT(first.stats.eval.cache_misses, 0u);
  MustMine(*service, question);

  const ReloadKbResponse reloaded = Reload(*service, SmokePath());
  ASSERT_TRUE(reloaded.status.ok()) << reloaded.status.ToString();
  EXPECT_GT(reloaded.warmed_entries, 0u);

  // The new generation's first run of the question finds every match set
  // it needs already cached.
  const MineResponse again = MustMine(*service, question);
  EXPECT_EQ(again.service.generation, 2u);
  EXPECT_GT(again.stats.eval.cache_hits, 0u);
  EXPECT_EQ(again.stats.eval.cache_misses, 0u);
  EXPECT_EQ(again.expression_text, first.expression_text);
  EXPECT_EQ(again.stats.nodes_visited, first.stats.nodes_visited);
}

TEST(WarmReloadTest, TwoIdleReloadsInARowKeepTheHotSet) {
  auto service = OpenPath(SmokePath());
  ASSERT_NE(service, nullptr);
  MakeHot(*service, {{"Berlin"}, {"Berlin", "Hamburg"}, {"Paris"}});

  const ReloadKbResponse first = Reload(*service, SmokePath());
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_GT(first.warmed_entries, 0u);
  // No request ran on generation 2: only the carried marks keep the
  // entries hot for generation 3.
  const ReloadKbResponse second = Reload(*service, SmokePath());
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_EQ(second.warmed_entries, first.warmed_entries);

  const MineResponse mined = MustMine(*service, {"Berlin", "Hamburg"});
  EXPECT_EQ(mined.service.generation, 3u);
  EXPECT_EQ(mined.stats.eval.cache_misses, 0u);
}

TEST(WarmReloadTest, FailedReloadWarmsAndPublishesNothing) {
  auto service = OpenPath(SmokePath());
  ASSERT_NE(service, nullptr);
  MakeHot(*service, {{"Berlin"}});
  const std::string corrupt = ProcessTempDir() + "/warm_corrupt.rkf2";
  std::ofstream(corrupt, std::ios::binary | std::ios::trunc)
      << "RKF2 this is not a snapshot";

  const ReloadKbResponse rejected = Reload(*service, corrupt);
  EXPECT_TRUE(rejected.status.IsCorruption()) << rejected.status.ToString();
  EXPECT_EQ(rejected.generation, 1u);
  EXPECT_EQ(rejected.warmed_entries, 0u);
  EXPECT_EQ(rejected.warm_seconds, 0.0);
  EXPECT_EQ(service->counters().active_generations, 1u);
  EXPECT_EQ(MustMine(*service, {"Berlin"}).stats.eval.cache_misses, 0u);
}

void ExpectBuiltEagerly(const KbEpoch& epoch) {
  EXPECT_TRUE(epoch.kb.dict().index_built());
  const auto it = epoch.name_index.find("Berlin");
  ASSERT_NE(it, epoch.name_index.end());
  EXPECT_EQ(epoch.kb.dict().lexical(it->second.first),
            "http://example.org/Berlin");
  std::lock_guard<std::mutex> lock(epoch.miners_mu);
  EXPECT_EQ(epoch.miners.size(), 1u);  // the default variant
}

TEST(WarmReloadTest, PublishedEpochsBuildNothingLazily) {
  auto live = std::make_shared<std::atomic<size_t>>(0);
  TenantRegistry registry(RemiOptions{}, nullptr, TenantQuota{}, live);
  registry.InitDefault(BuildSyntheticKb(SmallConfig(1)), 0);

  KbSpec spec;
  spec.path = SmokePath();
  // A lazy catalog open.
  ASSERT_TRUE(registry.AddCatalogEntry("lazy", spec, std::nullopt).ok());
  auto lazy = registry.Resolve("lazy");
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  ExpectBuiltEagerly(*(*lazy)->CurrentEpoch());

  // An attach from a spec, and one from an already built KB.
  ASSERT_TRUE(registry.Attach("attached", spec, std::nullopt).ok());
  ExpectBuiltEagerly(*registry.Peek("attached")->CurrentEpoch());
  auto loaded = LoadKbFromSpec(spec);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(
      registry.AttachKb("built", std::move(loaded->kb), std::nullopt).ok());
  ExpectBuiltEagerly(*registry.Peek("built")->CurrentEpoch());

  // A reload.
  const ReloadKbResponse reloaded = (*lazy)->Reload(spec);
  ASSERT_TRUE(reloaded.status.ok()) << reloaded.status.ToString();
  EXPECT_EQ(reloaded.generation, 2u);
  ExpectBuiltEagerly(*(*lazy)->CurrentEpoch());
}

TEST(WarmReloadTest, ConcurrentMinesDuringWarmReloadsAgree) {
  const std::string path = SaveSynthetic(303);
  auto service = OpenPath(path);
  ASSERT_NE(service, nullptr);
  const auto questions = SharedQuestions(service->kb(), service->kb(), 6);
  std::vector<std::string> expected;
  for (const auto& q : questions) {
    expected.push_back(MustMine(*service, q).expression_text);
  }

  // Readers keep mining (and marking entries reused) while the reload
  // thread reads the pinned old generation's cache and warms the next.
  std::atomic<bool> stop{false};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = t; !stop.load(); ++i) {
        const size_t k = i % questions.size();
        if (MustMine(*service, questions[k]).expression_text != expected[k]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    const ReloadKbResponse reloaded = Reload(*service, path);
    EXPECT_TRUE(reloaded.status.ok()) << reloaded.status.ToString();
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(service->generation(), 5u);
}

}  // namespace
}  // namespace remi
