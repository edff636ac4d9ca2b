// Fault-injection harness for the Service's epoch-pinned hot-swap.
//
// Replays the RKF2 corruption-fuzz mutation classes of fuzz_mutators.h
// (random byte flips, truncations, garbage extensions, section-table lies
// with repaired checksums) as ReloadKb candidates against a LIVE service
// with mines in flight, and asserts the registry's contract end to end:
//
//   * every validation-rejected candidate fails closed — in-band
//     Corruption, serving generation unchanged, not one dropped or
//     altered request;
//   * good reloads publish atomically — requests pinned to the displaced
//     generation still complete byte-identical to a no-reload run;
//   * retired generations actually die — active_generations is back to 1
//     once the last pinned request completes (the CI fault-injection job
//     runs this file under ASan with leak detection, so an epoch kept
//     alive by a forgotten reference fails the build).
//
// The concurrent legs also run under TSan (CI filter *Reload*).

#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz_mutators.h"
#include "kb/knowledge_base.h"
#include "process_temp_dir.h"

namespace remi {
namespace {

// --- fixture files ----------------------------------------------------------

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// The seeded corruption classes, pre-filtered to mutants the snapshot
/// loader's validation actually rejects (a checksum-repaired flip can be
/// semantically harmless and load fine — such a mutant would legitimately
/// publish, so it does not belong in the must-fail-closed legs) and whose
/// magic survived (a destroyed magic routes to the text parsers — a
/// different, also-covered failure mode, but not a Corruption one).
std::vector<std::string> RejectedMutants(const std::string& image) {
  std::vector<std::string> kept;
  Rng rng(7001);
  std::vector<std::string> raw;
  for (int i = 0; i < 40; ++i) raw.push_back(FlipByte(image, &rng));
  // Keep at least the magic: a sub-4-byte stub is no longer *an RKF2
  // image* and would be (correctly) routed to the text parsers instead.
  for (int i = 0; i < 20; ++i) raw.push_back(Truncate(image, &rng, 4));
  for (int i = 0; i < 10; ++i) raw.push_back(Extend(image, &rng));
  for (int i = 0; i < 15; ++i) raw.push_back(SectionTableLie(image, &rng));
  for (std::string& mutant : raw) {
    if (mutant.compare(0, 4, "RKF2") != 0) continue;
    auto kb = KnowledgeBase::OpenSnapshotBuffer(mutant);
    if (kb.ok()) continue;
    EXPECT_TRUE(kb.status().IsCorruption()) << kb.status().ToString();
    kept.push_back(std::move(mutant));
  }
  // The classes are seeded: a near-empty rejection set would mean the
  // harness is replaying no-ops, not that the loader got better.
  EXPECT_GT(kept.size(), 30u);
  return kept;
}

// --- harness fixture --------------------------------------------------------

struct BaselineResult {
  bool found = false;
  std::string expression_text;
  double cost = 0.0;
  std::vector<std::string> target_labels;
};

class ReloadFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    image_ = FuzzKb().SerializeSnapshot();
    dir_ = ProcessTempDir();
    good_path_ = dir_ + "/reload_fault_good.rkf2";
    WriteFile(good_path_, image_);

    KbSpec spec;
    spec.path = good_path_;
    auto service = Service::Open(spec);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(*service);

    // Baseline: one no-reload run per target set, recorded before any
    // swap. Every response produced during and after the reload storm
    // must be byte-identical to these.
    for (const auto& names : kTargetSets()) {
      MineRequest request;
      request.targets.names = names;
      auto response = service_->Mine(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_TRUE(response->status.ok());
      BaselineResult baseline;
      baseline.found = response->found;
      baseline.expression_text = response->expression_text;
      baseline.cost = response->cost;
      baseline.target_labels = response->target_labels;
      baselines_.push_back(std::move(baseline));
    }
  }

  static const std::vector<std::vector<std::string>>& kTargetSets() {
    static const std::vector<std::vector<std::string>> sets = {
        {"Entity0"}, {"Entity7"}, {"Entity13", "Entity21"}};
    return sets;
  }

  /// Mines every target set once and asserts byte-identity against the
  /// baselines. `failures` counts silently-diverged responses so worker
  /// threads can report without gtest's thread caveats.
  void MineAllAndCompare(std::atomic<size_t>* failures) {
    for (size_t i = 0; i < kTargetSets().size(); ++i) {
      MineRequest request;
      request.targets.names = kTargetSets()[i];
      auto response = service_->Mine(request);
      const BaselineResult& want = baselines_[i];
      if (!response.ok() || !response->status.ok() ||
          response->found != want.found ||
          response->expression_text != want.expression_text ||
          response->cost != want.cost ||
          response->target_labels != want.target_labels) {
        failures->fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  std::string image_;
  std::string dir_;
  std::string good_path_;
  std::unique_ptr<Service> service_;
  std::vector<BaselineResult> baselines_;
};

// --- the storm --------------------------------------------------------------

TEST_F(ReloadFaultTest, CorruptionClassesFailClosedUnderLiveTraffic) {
  const std::vector<std::string> mutants = RejectedMutants(image_);

  // Three miners hammer the service for the whole storm.
  std::atomic<bool> stop{false};
  std::atomic<size_t> divergent{0};
  std::atomic<size_t> mines{0};
  std::vector<std::thread> miners;
  for (int t = 0; t < 3; ++t) {
    miners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        MineAllAndCompare(&divergent);
        mines.fetch_add(kTargetSets().size(), std::memory_order_relaxed);
      }
    });
  }

  const std::string mutant_path = dir_ + "/reload_fault_mutant.rkf2";
  size_t good_reloads = 0;
  uint64_t expected_generation = 1;
  for (size_t i = 0; i < mutants.size(); ++i) {
    // Rejected candidates never get mapped by an epoch, so reusing one
    // path is safe; good candidates each get a fresh file because a
    // published snapshot stays memory-mapped for the epoch's lifetime
    // and must never be overwritten underneath it.
    WriteFile(mutant_path, mutants[i]);
    ReloadKbRequest reload;
    reload.spec.path = mutant_path;
    const ReloadKbResponse response = service_->ReloadKb(reload);
    EXPECT_TRUE(response.status.IsCorruption())
        << "mutant " << i << ": " << response.status.ToString();
    EXPECT_EQ(response.generation, expected_generation) << "mutant " << i;
    EXPECT_EQ(service_->generation(), expected_generation) << "mutant " << i;

    if (i % 5 == 4) {
      // Interleaved good reload: pristine bytes, so epochs differ only
      // by generation and the miners' byte-identity checks stay exact.
      const std::string path = dir_ + "/reload_fault_good_" +
                               std::to_string(good_reloads) + ".rkf2";
      WriteFile(path, image_);
      ReloadKbRequest good;
      good.spec.path = path;
      const ReloadKbResponse published = service_->ReloadKb(good);
      ASSERT_TRUE(published.status.ok()) << published.status.ToString();
      ++good_reloads;
      ++expected_generation;
      EXPECT_EQ(published.generation, expected_generation);
      EXPECT_EQ(published.facts, service_->kb().NumFacts());
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& miner : miners) miner.join();

  EXPECT_EQ(divergent.load(), 0u);
  EXPECT_GT(mines.load(), 0u);

  const ServiceCounters counters = service_->counters();
  EXPECT_EQ(counters.reloads_rejected, mutants.size());
  EXPECT_EQ(counters.reloads_ok, good_reloads);
  EXPECT_EQ(counters.generation, expected_generation);
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.completed_ok, counters.admitted);
  // Drain check: with the miners joined, every displaced generation must
  // have been destroyed — only the serving epoch is alive.
  EXPECT_EQ(counters.active_generations, 1u);

  std::remove(mutant_path.c_str());
  for (size_t i = 0; i < good_reloads; ++i) {
    std::remove((dir_ + "/reload_fault_good_" + std::to_string(i) + ".rkf2")
                    .c_str());
  }
}

TEST_F(ReloadFaultTest, GarbageThatLosesTheMagicAlsoFailsClosed) {
  // A truncation below 4 bytes (or a flip in the magic) stops being an
  // RKF2 image: format sniffing routes it to the text parsers. With
  // strict parsing the garbage is a ParseError; either way the failure
  // is in-band and the serving generation survives.
  const std::string path = dir_ + "/reload_fault_garbage.bin";
  WriteFile(path, std::string("\x01\x02garbage\xff not a kb\n", 20));
  ReloadKbRequest reload;
  reload.spec.path = path;
  reload.spec.lenient_parse = false;
  const ReloadKbResponse response = service_->ReloadKb(reload);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.generation, 1u);
  EXPECT_EQ(service_->generation(), 1u);

  // Missing file: IoError (or NotFound), same fail-closed shape.
  ReloadKbRequest missing;
  missing.spec.path = dir_ + "/reload_fault_does_not_exist.rkf2";
  const ReloadKbResponse missing_response = service_->ReloadKb(missing);
  EXPECT_FALSE(missing_response.status.ok());
  EXPECT_EQ(service_->generation(), 1u);

  // An image of the retired RKF1 format, under the default lenient
  // parse: the text parser would skip every line and publish an empty
  // KB, so the loader rejects the magic by name.
  const std::string rkf1_path = dir_ + "/reload_fault_retired.rkf";
  WriteFile(rkf1_path, std::string("RKF1\x01\x00\x00\x00stub", 12));
  ReloadKbRequest retired;
  retired.spec.path = rkf1_path;
  const ReloadKbResponse retired_response = service_->ReloadKb(retired);
  EXPECT_TRUE(retired_response.status.IsCorruption())
      << retired_response.status.ToString();
  EXPECT_NE(retired_response.status.message().find("RKF1"),
            std::string::npos)
      << retired_response.status.ToString();
  EXPECT_EQ(retired_response.generation, 1u);
  EXPECT_EQ(service_->generation(), 1u);

  EXPECT_EQ(service_->counters().reloads_rejected, 3u);
  std::remove(path.c_str());
  std::remove(rkf1_path.c_str());
}

TEST_F(ReloadFaultTest, RequestPinnedAcrossSwapCompletesByteIdentical) {
  // Occupy the service with a batch big enough to straddle the swap,
  // then publish a new (pristine) generation mid-flight. The batch's
  // responses must be byte-identical to the no-reload baselines and its
  // displaced epoch must be destroyed once the batch completes.
  BatchMineRequest batch;
  for (int round = 0; round < 32; ++round) {
    for (const auto& names : kTargetSets()) {
      TargetSpec spec;
      spec.names = names;
      batch.target_sets.push_back(spec);
    }
  }
  Result<BatchMineResponse> result = Status::Internal("not run");
  // A cache-warm batch can finish inside one scheduling quantum on a
  // single-core host, closing the in_flight window before this thread
  // ever observes it — so the poll must also exit on worker completion
  // (the byte-identity and epoch assertions below hold either way).
  std::atomic<bool> worker_done{false};
  std::thread worker([&] {
    result = service_->BatchMine(batch);
    worker_done.store(true);
  });
  while (service_->counters().in_flight == 0 && !worker_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::string path = dir_ + "/reload_fault_pinned_good.rkf2";
  WriteFile(path, image_);
  ReloadKbRequest reload;
  reload.spec.path = path;
  const ReloadKbResponse published = service_->ReloadKb(reload);
  ASSERT_TRUE(published.status.ok()) << published.status.ToString();
  EXPECT_EQ(published.generation, 2u);

  worker.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  ASSERT_EQ(result->results.size(), batch.target_sets.size());
  for (size_t i = 0; i < result->results.size(); ++i) {
    const BaselineResult& want = baselines_[i % kTargetSets().size()];
    const MineResponse& got = result->results[i];
    EXPECT_EQ(got.found, want.found) << i;
    EXPECT_EQ(got.expression_text, want.expression_text) << i;
    EXPECT_EQ(got.cost, want.cost) << i;
    EXPECT_EQ(got.target_labels, want.target_labels) << i;
  }

  // The whole batch ran under one pin: every per-item generation agrees,
  // and after completion only the serving epoch remains alive.
  EXPECT_EQ(service_->generation(), 2u);
  EXPECT_EQ(service_->counters().active_generations, 1u);
  std::remove(path.c_str());
}

TEST_F(ReloadFaultTest, ReloadToDifferentKbServesNewContent) {
  // Hot-swap to a genuinely different KB (sequential — content changes,
  // so byte-identity claims need the pin, exercised above). New lexical
  // resolutions must answer from the new generation's dictionary and
  // name index.
  Dictionary dict;
  std::vector<Triple> triples;
  const TermId fresh = dict.InternIri("http://other.example/FreshEntity");
  const TermId peer = dict.InternIri("http://other.example/PeerEntity");
  const TermId p = dict.InternIri("http://other.example/linksTo");
  triples.push_back(Triple{fresh, p, peer});
  triples.push_back(Triple{peer, p, fresh});
  const std::string path = dir_ + "/reload_fault_other.rkf2";
  {
    const KnowledgeBase other =
        KnowledgeBase::Build(std::move(dict), std::move(triples));
    ASSERT_TRUE(other.SaveSnapshot(path).ok());
  }

  ASSERT_FALSE(service_->ResolveTarget("FreshEntity").ok());
  ReloadKbRequest reload;
  reload.spec.path = path;
  const ReloadKbResponse published = service_->ReloadKb(reload);
  ASSERT_TRUE(published.status.ok()) << published.status.ToString();
  EXPECT_EQ(published.generation, 2u);
  EXPECT_EQ(published.entities, 2u);

  EXPECT_TRUE(service_->ResolveTarget("FreshEntity").ok());
  EXPECT_FALSE(service_->ResolveTarget("Entity0").ok());
  MineRequest request;
  request.targets.names = {"FreshEntity"};
  auto response = service_->Mine(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  EXPECT_EQ(response->service.generation, 2u);
  std::remove(path.c_str());
}

// --- concurrent hammer (also in the CI TSan filter) -------------------------

TEST(ServiceReloadHammerTest, ConcurrentMinesAndReloadsNeverDropARequest) {
  const std::string image = FuzzKb().SerializeSnapshot();
  const std::string dir = ProcessTempDir();
  const std::string good_path = dir + "/reload_hammer_good.rkf2";
  WriteFile(good_path, image);

  KbSpec spec;
  spec.path = good_path;
  ServiceOptions options;
  options.max_in_flight = 8;  // the hammer is about reloads, not admission
  auto opened = Service::Open(spec, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Service* service = opened->get();

  // One deterministic validation-rejected mutant per reloader thread —
  // pre-verified, so every corrupt reload in the storm MUST be rejected.
  const std::vector<std::string> mutants = RejectedMutants(image);
  ASSERT_GE(mutants.size(), 2u);

  BatchMineRequest batch;
  for (const char* name : {"Entity0", "Entity7", "Entity13"}) {
    TargetSpec target;
    target.names = {name};
    batch.target_sets.push_back(target);
  }
  auto baseline = service->BatchMine(batch);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_TRUE(baseline->status.ok());

  constexpr int kMiners = 4;
  constexpr int kReloaders = 2;
  constexpr int kMinesPerThread = 12;
  constexpr int kReloadsPerThread = 8;

  std::atomic<size_t> dropped{0};
  std::atomic<size_t> divergent{0};
  std::atomic<size_t> nonmonotonic{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kMiners; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kMinesPerThread; ++i) {
        auto response = service->BatchMine(batch);
        if (!response.ok() || !response->status.ok() ||
            response->results.size() != baseline->results.size()) {
          dropped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (size_t j = 0; j < response->results.size(); ++j) {
          if (response->results[j].expression_text !=
                  baseline->results[j].expression_text ||
              response->results[j].cost != baseline->results[j].cost) {
            divergent.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int t = 0; t < kReloaders; ++t) {
    threads.emplace_back([&, t] {
      // Every good reload maps a fresh file (published snapshots stay
      // mmapped); the corrupt file per thread is reused — it never maps.
      const std::string corrupt_path =
          dir + "/reload_hammer_corrupt_" + std::to_string(t) + ".rkf2";
      WriteFile(corrupt_path, mutants[static_cast<size_t>(t)]);
      uint64_t last_generation = 0;
      for (int i = 0; i < kReloadsPerThread; ++i) {
        ReloadKbRequest reload;
        if (i % 2 == 0) {
          const std::string path = dir + "/reload_hammer_good_" +
                                   std::to_string(t) + "_" +
                                   std::to_string(i) + ".rkf2";
          WriteFile(path, image);
          reload.spec.path = path;
          const ReloadKbResponse response = service->ReloadKb(reload);
          if (!response.status.ok()) {
            dropped.fetch_add(1, std::memory_order_relaxed);
          }
          if (response.generation < last_generation) {
            nonmonotonic.fetch_add(1, std::memory_order_relaxed);
          }
          last_generation = response.generation;
        } else {
          reload.spec.path = corrupt_path;
          const ReloadKbResponse response = service->ReloadKb(reload);
          if (!response.status.IsCorruption()) {
            dropped.fetch_add(1, std::memory_order_relaxed);
          }
          if (response.generation < last_generation) {
            nonmonotonic.fetch_add(1, std::memory_order_relaxed);
          }
          last_generation = response.generation;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(dropped.load(), 0u);
  EXPECT_EQ(divergent.load(), 0u);
  EXPECT_EQ(nonmonotonic.load(), 0u);

  const ServiceCounters counters = service->counters();
  const uint64_t good_total =
      static_cast<uint64_t>(kReloaders) * ((kReloadsPerThread + 1) / 2);
  EXPECT_EQ(counters.reloads_ok, good_total);
  EXPECT_EQ(counters.reloads_rejected,
            static_cast<uint64_t>(kReloaders) * (kReloadsPerThread / 2));
  EXPECT_EQ(counters.generation, 1u + good_total);
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.active_generations, 1u);

  for (int t = 0; t < kReloaders; ++t) {
    std::remove(
        (dir + "/reload_hammer_corrupt_" + std::to_string(t) + ".rkf2")
            .c_str());
    for (int i = 0; i < kReloadsPerThread; i += 2) {
      std::remove((dir + "/reload_hammer_good_" + std::to_string(t) + "_" +
                   std::to_string(i) + ".rkf2")
                      .c_str());
    }
  }
  std::remove(good_path.c_str());
}

}  // namespace
}  // namespace remi
