// Multi-tenant registry tests: attach/detach lifecycle, lazy catalog
// opens, per-tenant reload independence (byte-identical pinned results
// for tenant B during tenant A's reload), per-tenant admission quotas
// (a hot tenant is throttled while others keep serving), counter
// reconciliation across tenants, the in-band NotFound contract for an
// unknown "kb" on both wire protocols, and the binary kUseKb handshake.
//
// The ReloadFaultTenant suite is the cross-tenant half of the reload
// fault-injection harness and runs leak-checked in the CI
// reload-fault-injection job (filter ReloadFault*): detach must drain —
// a pinned epoch is never torn down while a request holds it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/event_server.h"
#include "service/frame_codec.h"
#include "service/json_codec.h"
#include "service/service.h"
#include "service/tenant_registry.h"
#include "service/wire_client.h"
#include "util/json.h"
#include "process_temp_dir.h"
#include "wire_test_util.h"

#ifndef REMI_TESTDATA_DIR
#define REMI_TESTDATA_DIR "tests/data"
#endif

namespace remi {
namespace {

std::string TestDataPath(const std::string& name) {
  return std::string(REMI_TESTDATA_DIR) + "/" + name;
}

/// A tiny KB whose IRIs all live under http://ex/<tag>/ — two tenants
/// built with different tags share no IRI, so a full-IRI target proves
/// which tenant served the request. Every entity carries one unique
/// marker atom (marks = Mark<i>), making {Entity<i>} trivially
/// describable and the mine fast.
KnowledgeBase BuildTaggedKb(const std::string& tag) {
  Dictionary dict;
  std::vector<Triple> triples;
  const TermId pred = dict.InternIri("http://ex/" + tag + "/marks");
  for (int i = 0; i < 12; ++i) {
    const TermId e =
        dict.InternIri("http://ex/" + tag + "/Entity" + std::to_string(i));
    const TermId m =
        dict.InternIri("http://ex/" + tag + "/Mark" + std::to_string(i));
    triples.push_back(Triple{e, pred, m});
  }
  KbOptions options;
  options.inverse_top_fraction = 0;
  return KnowledgeBase::Build(std::move(dict), std::move(triples), options);
}

/// The deadline/occupancy workload from service_test.cc: 2^p entities,
/// one per p-bit pattern; with the prunings disabled the DFS for the
/// all-ones entity visits all 2^p subsets — a long, cancellable search
/// for occupying admission slots deterministically.
KnowledgeBase BuildBitLatticeKb(int p) {
  Dictionary dict;
  std::vector<Triple> triples;
  std::vector<TermId> preds(static_cast<size_t>(p));
  std::vector<TermId> marks(static_cast<size_t>(p));
  for (int j = 0; j < p; ++j) {
    preds[static_cast<size_t>(j)] =
        dict.InternIri("http://ex/b" + std::to_string(j));
    marks[static_cast<size_t>(j)] =
        dict.InternIri("http://ex/m" + std::to_string(j));
  }
  const size_t n = size_t{1} << p;
  for (size_t i = 0; i < n; ++i) {
    const TermId e = dict.InternIri("http://ex/e" + std::to_string(i));
    for (int j = 0; j < p; ++j) {
      if (i >> j & 1) {
        triples.push_back(Triple{e, preds[static_cast<size_t>(j)],
                                 marks[static_cast<size_t>(j)]});
      }
    }
  }
  KbOptions options;
  options.inverse_top_fraction = 0;
  return KnowledgeBase::Build(std::move(dict), std::move(triples), options);
}

RemiOptions ExhaustiveMining() {
  RemiOptions mining;
  mining.depth_pruning = false;
  mining.side_pruning = false;
  mining.best_bound_pruning = false;
  return mining;
}

constexpr int kBitKbBits = 14;

std::string BitKbTopEntity() {
  return "http://ex/e" + std::to_string((size_t{1} << kBitKbBits) - 1);
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

MineRequest MineFor(const std::string& kb, const std::string& target) {
  MineRequest request;
  request.kb = kb;
  request.targets.names = {target};
  return request;
}

/// A slow cancellable batch that occupies one of `kb`'s slots.
BatchMineRequest SlowBatch(const std::string& kb,
                           const CancellationToken& cancel) {
  BatchMineRequest batch;
  batch.kb = kb;
  for (int i = 0; i < 256; ++i) {
    TargetSpec spec;
    spec.names = {BitKbTopEntity()};
    batch.target_sets.push_back(spec);
  }
  batch.control.cancel = cancel;
  return batch;
}

// --- lifecycle: attach / serve / detach -------------------------------------

TEST(TenantRegistryTest, AttachServeDetachLifecycle) {
  auto service = Service::Create(BuildTaggedKb("a"));
  EXPECT_TRUE(service->HasKb(""));
  EXPECT_FALSE(service->HasKb("b"));

  // The default name is reserved.
  EXPECT_TRUE(service->AttachKb("", BuildTaggedKb("x")).IsInvalidArgument());

  ASSERT_TRUE(service->AttachKb("b", BuildTaggedKb("b")).ok());
  EXPECT_EQ(service->AttachKb("b", BuildTaggedKb("b")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(service->counters().tenants_active, 2u);

  // Full IRIs prove the routing: http://ex/b/Entity3 exists only in "b".
  auto on_b = service->Mine(MineFor("b", "http://ex/b/Entity3"));
  ASSERT_TRUE(on_b.ok()) << on_b.status().ToString();
  EXPECT_TRUE(on_b->found);
  auto on_default = service->Mine(MineFor("", "http://ex/b/Entity3"));
  ASSERT_FALSE(on_default.ok());
  EXPECT_TRUE(on_default.status().IsNotFound());

  const std::vector<KbInfo> listed = service->ListKbs();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].name, "");  // default sorts first
  EXPECT_EQ(listed[1].name, "b");
  EXPECT_TRUE(listed[1].open);
  EXPECT_EQ(listed[1].generation, 1u);

  ASSERT_TRUE(service->DetachKb("b").ok());
  EXPECT_FALSE(service->HasKb("b"));
  auto gone = service->Mine(MineFor("b", "http://ex/b/Entity3"));
  ASSERT_FALSE(gone.ok());
  EXPECT_TRUE(gone.status().IsNotFound());
  EXPECT_TRUE(service->DetachKb("b").IsNotFound());
  EXPECT_TRUE(service->DetachKb("").IsInvalidArgument());
  EXPECT_EQ(service->counters().tenants_active, 1u);
}

TEST(TenantRegistryTest, UnknownKbIsNotFoundOnEveryRequestSurface) {
  auto service = Service::Create(BuildTaggedKb("a"));
  EXPECT_TRUE(service->Mine(MineFor("ghost", "Entity1")).status()
                  .IsNotFound());
  SummarizeRequest summarize;
  summarize.kb = "ghost";
  summarize.entity.names = {"Entity1"};
  EXPECT_TRUE(service->Summarize(summarize).status().IsNotFound());
  CandidatesRequest candidates;
  candidates.kb = "ghost";
  candidates.targets.names = {"Entity1"};
  EXPECT_TRUE(service->Candidates(candidates).status().IsNotFound());
  EXPECT_TRUE(service->CountersFor("ghost").status().IsNotFound());
  ReloadKbRequest reload;
  reload.kb = "ghost";
  reload.spec.path = TestDataPath("smoke.nt");
  EXPECT_TRUE(service->ReloadKb(reload).status.IsNotFound());
  EXPECT_EQ(service->counters().reloads_rejected, 1u);
}

// --- catalog: lazy opens ----------------------------------------------------

TEST(TenantRegistryTest, CatalogEntriesOpenLazilyAndFailAtomically) {
  KbSpec spec;
  spec.path = TestDataPath("smoke.nt");
  auto opened = Service::Open(spec);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Service* service = opened->get();

  const std::string dir = ProcessTempDir();
  const std::string catalog_path = dir + "/tenant_catalog.json";
  WriteFile(catalog_path,
            std::string("{\"kbs\":[{\"name\":\"lazy1\",\"path\":\"") +
                TestDataPath("smoke.nt") +
                "\"},{\"name\":\"lazy2\",\"path\":\"" +
                TestDataPath("smoke.nt") + "\",\"max_in_flight\":2}]}");
  auto registered = service->LoadCatalogFile(catalog_path);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  EXPECT_EQ(*registered, 2u);

  // Registered, not opened: serveable by name but no tenant yet.
  EXPECT_TRUE(service->HasKb("lazy1"));
  EXPECT_EQ(service->counters().tenants_active, 1u);
  EXPECT_TRUE(service->CountersFor("lazy1").status().IsNotFound());
  const std::vector<KbInfo> listed = service->ListKbs();
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_FALSE(listed[1].open);
  EXPECT_TRUE(listed[1].from_catalog);

  // First request opens it.
  auto mined = service->Mine(MineFor("lazy1", "Berlin"));
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_EQ(service->counters().tenants_active, 2u);
  auto slice = service->CountersFor("lazy1");
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->generation, 1u);
  EXPECT_EQ(slice->admitted, 1u);

  // A duplicate name anywhere in a catalog file registers NOTHING.
  const std::string dup_path = dir + "/tenant_catalog_dup.json";
  WriteFile(dup_path,
            std::string("{\"kbs\":[{\"name\":\"fresh\",\"path\":\"") +
                TestDataPath("smoke.nt") +
                "\"},{\"name\":\"lazy2\",\"path\":\"" +
                TestDataPath("smoke.nt") + "\"}]}");
  EXPECT_FALSE(service->LoadCatalogFile(dup_path).ok());
  EXPECT_FALSE(service->HasKb("fresh"));

  // A catalog entry whose load fails reports in-band and stays
  // registered, so a fixed file serves on retry without re-attaching.
  KbSpec broken;
  broken.path = dir + "/tenant_no_such_file.nt";
  ASSERT_TRUE(service->AddCatalogKb("broken", broken).ok());
  EXPECT_FALSE(service->Mine(MineFor("broken", "Berlin")).ok());
  EXPECT_TRUE(service->HasKb("broken"));
}

TEST(TenantRegistryTest, ParseKbCatalogValidatesEntries) {
  EXPECT_FALSE(ParseKbCatalog("not json").ok());
  EXPECT_FALSE(ParseKbCatalog("{\"kbs\":[{\"path\":\"x\"}]}").ok());
  EXPECT_FALSE(ParseKbCatalog("{\"kbs\":[{\"name\":\"a\"}]}").ok());
  EXPECT_FALSE(
      ParseKbCatalog("{\"kbs\":[{\"name\":\"\",\"path\":\"x\"}]}").ok());
  EXPECT_FALSE(ParseKbCatalog("{\"kbs\":[{\"name\":\"a\",\"path\":\"x\"},"
                              "{\"name\":\"a\",\"path\":\"y\"}]}")
                   .ok());
  auto parsed = ParseKbCatalog(
      "{\"kbs\":[{\"name\":\"a\",\"path\":\"x\",\"lenient\":false,"
      "\"max_in_flight\":3,\"max_queued\":9}]}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].name, "a");
  EXPECT_FALSE((*parsed)[0].spec.lenient_parse);
  ASSERT_TRUE((*parsed)[0].quota.has_value());
  EXPECT_EQ((*parsed)[0].quota->max_in_flight, 3u);
  EXPECT_EQ((*parsed)[0].quota->max_queued, 9u);
}

// --- per-tenant reload ------------------------------------------------------

TEST(TenantRegistryTest, ReloadIsPerTenant) {
  auto service = Service::Create(BuildTaggedKb("a"));
  ASSERT_TRUE(service->AttachKb("b", BuildTaggedKb("b")).ok());

  auto baseline = service->Mine(MineFor("b", "http://ex/b/Entity3"));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(baseline->found);

  // Swap the DEFAULT tenant to a different KB.
  const std::string path = ProcessTempDir() + "/tenant_reload_a2.rkf2";
  WriteFile(path, BuildTaggedKb("a2").SerializeSnapshot());
  ReloadKbRequest reload;
  reload.spec.path = path;
  const ReloadKbResponse swapped = service->ReloadKb(reload);
  ASSERT_TRUE(swapped.status.ok()) << swapped.status.ToString();
  EXPECT_EQ(swapped.generation, 2u);
  EXPECT_EQ(service->generation(), 2u);

  // "b" was not touched: generation 1, byte-identical answers.
  auto b_slice = service->CountersFor("b");
  ASSERT_TRUE(b_slice.ok());
  EXPECT_EQ(b_slice->generation, 1u);
  auto again = service->Mine(MineFor("b", "http://ex/b/Entity3"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->expression_text, baseline->expression_text);
  EXPECT_EQ(again->cost, baseline->cost);

  // The default tenant really serves the new KB now.
  EXPECT_TRUE(service->Mine(MineFor("", "http://ex/a2/Entity3"))->found);
  EXPECT_TRUE(
      service->Mine(MineFor("", "http://ex/a/Entity3")).status().IsNotFound());

  // And a named reload swaps only that tenant.
  const std::string b2 = ProcessTempDir() + "/tenant_reload_b2.rkf2";
  WriteFile(b2, BuildTaggedKb("b2").SerializeSnapshot());
  ReloadKbRequest named;
  named.kb = "b";
  named.spec.path = b2;
  ASSERT_TRUE(service->ReloadKb(named).status.ok());
  EXPECT_EQ(service->CountersFor("b")->generation, 2u);
  EXPECT_EQ(service->generation(), 2u);  // default untouched
  EXPECT_TRUE(service->Mine(MineFor("b", "http://ex/b2/Entity3"))->found);
}

// --- per-tenant quotas ------------------------------------------------------

TEST(TenantRegistryTest, QuotaThrottlesHotTenantWhileOthersServe) {
  ServiceOptions options;
  options.mining = ExhaustiveMining();
  options.max_in_flight = 4;
  options.max_queued = 16;
  auto service = Service::Create(BuildTaggedKb("base"), options);
  TenantQuota quota;
  quota.max_in_flight = 1;
  quota.max_queued = 0;
  ASSERT_TRUE(
      service->AttachKb("hot", BuildBitLatticeKb(kBitKbBits), quota).ok());
  ASSERT_TRUE(service->AttachKb("cold", BuildTaggedKb("cold")).ok());

  // Occupy the hot tenant's single slot with a long cancellable batch.
  CancellationSource source;
  const BatchMineRequest slow = SlowBatch("hot", source.token());
  std::thread occupant([&] { (void)service->BatchMine(slow); });
  while (service->CountersFor("hot")->in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The global controller has 3 free slots, but the hot tenant's quota is
  // exhausted: its next request bounces without touching the shared
  // queue, and the error names the quota.
  auto rejected = service->Mine(MineFor("hot", BitKbTopEntity()));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().message().find("tenant quota"),
            std::string::npos)
      << rejected.status().message();

  // Everyone else keeps serving.
  auto cold = service->Mine(MineFor("cold", "http://ex/cold/Entity3"));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold->found);
  auto base = service->Mine(MineFor("", "http://ex/base/Entity3"));
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  // The reject is attributed to the hot tenant alone, globally and in
  // the per-tenant slice.
  EXPECT_EQ(service->CountersFor("hot")->rejected, 1u);
  EXPECT_EQ(service->CountersFor("cold")->rejected, 0u);
  EXPECT_EQ(service->counters().rejected, 1u);
  EXPECT_GT(service->RetryAfterMsHint("hot"), 0u);

  source.RequestCancellation();
  occupant.join();
}

TEST(TenantRegistryTest, CountersReconcileAcrossTenantsAtQuiescence) {
  auto service = Service::Create(BuildTaggedKb("a"));
  ASSERT_TRUE(service->AttachKb("x", BuildTaggedKb("x")).ok());
  ASSERT_TRUE(service->AttachKb("y", BuildTaggedKb("y")).ok());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service->Mine(MineFor("x", "http://ex/x/Entity1")).ok());
  }
  ASSERT_TRUE(service->Mine(MineFor("y", "http://ex/y/Entity2")).ok());
  ASSERT_TRUE(service->Mine(MineFor("", "http://ex/a/Entity3")).ok());
  // An admitted-but-invalid run (unresolvable target in y's KB) counts
  // as failed for y.
  EXPECT_FALSE(service->Mine(MineFor("y", "http://ex/x/Entity1")).ok());

  const ServiceCounters global = service->counters();
  TenantCounters sum;
  for (const char* name : {"", "x", "y"}) {
    auto slice = service->CountersFor(name);
    ASSERT_TRUE(slice.ok()) << name;
    // Per-tenant identity at quiescence.
    EXPECT_EQ(slice->admitted, slice->completed_ok +
                                   slice->deadline_exceeded +
                                   slice->cancelled + slice->failed)
        << name;
    sum.admitted += slice->admitted;
    sum.completed_ok += slice->completed_ok;
    sum.failed += slice->failed;
    sum.rejected += slice->rejected;
    sum.nodes_visited_total += slice->nodes_visited_total;
    sum.mine_micros_total += slice->mine_micros_total;
  }
  // The per-tenant slices sum exactly to the service-wide counters.
  EXPECT_EQ(sum.admitted, global.admitted);
  EXPECT_EQ(sum.completed_ok, global.completed_ok);
  EXPECT_EQ(sum.failed, global.failed);
  EXPECT_EQ(sum.rejected, global.rejected);
  EXPECT_EQ(sum.nodes_visited_total, global.nodes_visited_total);
  EXPECT_EQ(sum.mine_micros_total, global.mine_micros_total);
  // One live epoch per open tenant once everything drained.
  EXPECT_EQ(global.active_generations, global.tenants_active);
  EXPECT_EQ(global.tenants_active, 3u);
}

// --- wire protocols ---------------------------------------------------------

class TenantRegistryWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    KbSpec spec;
    spec.path = TestDataPath("smoke.nt");
    auto service = Service::Open(spec);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(*service);
    ASSERT_TRUE(service_->AttachKb("alt", BuildTaggedKb("alt")).ok());
    server_ = std::make_unique<EventServer>(service_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  /// The "status" of the response to one NDJSON request.
  std::string StatusOf(WireClient& client, const std::string& request) {
    return Parse(client.LineRoundTrip(request)).Find("status")->AsString();
  }

  /// One frame round trip (requests and responses matched by id here,
  /// so a fixed id per call is fine on a fresh client).
  std::string Frame(WireClient& client, FrameVerb verb,
                    const std::string& payload, uint64_t id = 1) {
    EXPECT_TRUE(client.SendFrame(verb, id, payload).ok());
    auto response = client.ReadFrame();
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) return "";
    EXPECT_EQ(response->request_id, id);
    return response->payload;
  }

  std::unique_ptr<Service> service_;
  std::unique_ptr<EventServer> server_;
};

TEST_F(TenantRegistryWireTest, UnknownKbIsNotFoundInBandOnBothProtocols) {
  // NDJSON: the error is a response, not a dropped connection.
  auto ndjson = Dial(server_->port());
  ASSERT_TRUE(ndjson.ok()) << ndjson.status().ToString();
  JsonValue line = Parse(ndjson->LineRoundTrip(
      R"({"op":"mine","kb":"ghost","targets":["Berlin"]})"));
  EXPECT_EQ(line.Find("status")->AsString(), "NotFound");
  EXPECT_EQ(StatusOf(*ndjson, R"({"op":"ping"})"), "OK");

  // Binary: same in-band contract, connection survives.
  auto binary = Dial(server_->port());
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  JsonValue frame = Parse(Frame(
      *binary, FrameVerb::kMine,
      R"({"kb":"ghost","targets":["Berlin"]})", 7));
  EXPECT_EQ(frame.Find("status")->AsString(), "NotFound");
  EXPECT_EQ(Parse(Frame(*binary, FrameVerb::kPing, "{}", 8))
                .Find("status")
                ->AsString(),
            "OK");
}

TEST_F(TenantRegistryWireTest, PerRequestKbRoutesBothProtocols) {
  auto ndjson = Dial(server_->port());
  ASSERT_TRUE(ndjson.ok()) << ndjson.status().ToString();
  JsonValue line = Parse(ndjson->LineRoundTrip(
      R"({"op":"mine","kb":"alt","targets":["http://ex/alt/Entity3"]})"));
  EXPECT_EQ(line.Find("status")->AsString(), "OK");
  EXPECT_TRUE(line.Find("found")->AsBool());

  auto binary = Dial(server_->port());
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  JsonValue frame = Parse(Frame(
      *binary, FrameVerb::kMine,
      R"({"kb":"alt","targets":["http://ex/alt/Entity3"]})"));
  EXPECT_EQ(frame.Find("status")->AsString(), "OK");
  EXPECT_TRUE(frame.Find("found")->AsBool());

  // Per-tenant stats slice via the "kb" field.
  JsonValue slice =
      Parse(Frame(*binary, FrameVerb::kCounters, R"({"kb":"alt"})", 2));
  EXPECT_EQ(slice.Find("kb")->AsString(), "alt");
  EXPECT_EQ(slice.Find("admitted")->AsNumber(), 2.0);
  // The service-wide document carries the registry gauges + breakdown.
  JsonValue global = Parse(Frame(*binary, FrameVerb::kCounters, "{}", 3));
  EXPECT_EQ(global.Find("tenants_active")->AsNumber(), 2.0);
  ASSERT_NE(global.Find("tenants"), nullptr);
  EXPECT_NE(global.Find("tenants")->Find("alt"), nullptr);
}

TEST_F(TenantRegistryWireTest, UseKbHandshakeSetsTheConnectionDefault) {
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  JsonValue ok =
      Parse(Frame(*client, FrameVerb::kUseKb, R"({"kb":"alt"})", 1));
  EXPECT_EQ(ok.Find("status")->AsString(), "OK");
  EXPECT_EQ(ok.Find("kb")->AsString(), "alt");

  // Frames without a "kb" now serve from "alt".
  JsonValue mined = Parse(Frame(
      *client, FrameVerb::kMine, R"({"targets":["http://ex/alt/Entity3"]})",
      2));
  EXPECT_EQ(mined.Find("status")->AsString(), "OK");
  EXPECT_TRUE(mined.Find("found")->AsBool());
  JsonValue stats = Parse(Frame(*client, FrameVerb::kCounters, "{}", 3));
  EXPECT_EQ(stats.Find("kb")->AsString(), "alt");

  // An explicit "kb" — including "" — overrides the handshake default.
  JsonValue overridden = Parse(Frame(
      *client, FrameVerb::kMine, R"({"kb":"","targets":["Berlin"]})", 4));
  EXPECT_EQ(overridden.Find("status")->AsString(), "OK");

  // A failed handshake leaves the previous default in place.
  JsonValue bad =
      Parse(Frame(*client, FrameVerb::kUseKb, R"({"kb":"ghost"})", 5));
  EXPECT_EQ(bad.Find("status")->AsString(), "NotFound");
  EXPECT_EQ(Parse(Frame(*client, FrameVerb::kCounters, "{}", 6))
                .Find("kb")
                ->AsString(),
            "alt");

  // use_kb {""} resets to the default tenant (service-wide stats again).
  Parse(Frame(*client, FrameVerb::kUseKb, R"({"kb":""})", 7));
  JsonValue global = Parse(Frame(*client, FrameVerb::kCounters, "{}", 8));
  EXPECT_EQ(global.Find("kb"), nullptr);
  EXPECT_NE(global.Find("tenants_active"), nullptr);

  // NDJSON has no handshake: the op is rejected with a pointer to the
  // per-request field.
  auto ndjson = Dial(server_->port());
  ASSERT_TRUE(ndjson.ok()) << ndjson.status().ToString();
  EXPECT_EQ(StatusOf(*ndjson, R"({"op":"use_kb","kb":"alt"})"),
            "InvalidArgument");
}

TEST_F(TenantRegistryWireTest, AdminVerbsAttachListDetach) {
  const std::string path = ProcessTempDir() + "/tenant_wire_w.rkf2";
  WriteFile(path, BuildTaggedKb("w").SerializeSnapshot());

  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::string attach_w =
      "{\"op\":\"attach\",\"kb\":\"w\",\"path\":\"" + path + "\"";
  EXPECT_EQ(StatusOf(*client, attach_w + ",\"max_in_flight\":2}"), "OK");

  JsonValue listed = Parse(client->LineRoundTrip(R"({"op":"list_kbs"})"));
  ASSERT_NE(listed.Find("kbs"), nullptr);
  size_t found_w = 0;
  for (const JsonValue& item : listed.Find("kbs")->items()) {
    if (item.Find("kb")->AsString() == "w") {
      ++found_w;
      EXPECT_TRUE(item.Find("open")->AsBool());
      EXPECT_EQ(item.Find("max_in_flight")->AsNumber(), 2.0);
    }
  }
  EXPECT_EQ(found_w, 1u);

  const std::string mine_w =
      R"({"op":"mine","kb":"w","targets":["http://ex/w/Entity5"]})";
  EXPECT_TRUE(Parse(client->LineRoundTrip(mine_w)).Find("found")->AsBool());

  // Error taxonomy over the wire: duplicate attach, reserved name,
  // unknown detach.
  EXPECT_EQ(StatusOf(*client, attach_w + "}"), "AlreadyExists");
  EXPECT_EQ(StatusOf(*client, "{\"op\":\"attach\",\"kb\":\"\",\"path\":\"" +
                                  path + "\"}"),
            "InvalidArgument");
  EXPECT_EQ(StatusOf(*client, R"({"op":"detach","kb":"ghost"})"), "NotFound");

  EXPECT_EQ(StatusOf(*client, R"({"op":"detach","kb":"w"})"), "OK");
  EXPECT_EQ(StatusOf(*client, mine_w), "NotFound");
}

// --- cross-tenant fault/drain harness (CI: reload-fault-injection job) ------

TEST(ReloadFaultTenantTest, DetachUnderPinDrainsWithoutTeardown) {
  ServiceOptions options;
  options.mining = ExhaustiveMining();
  options.max_in_flight = 4;
  auto service = Service::Create(BuildTaggedKb("base"), options);
  ASSERT_TRUE(
      service->AttachKb("pin", BuildBitLatticeKb(kBitKbBits)).ok());

  // A long cancellable batch pins the tenant's epoch.
  CancellationSource source;
  const BatchMineRequest slow = SlowBatch("pin", source.token());
  std::atomic<bool> occupant_failed{false};
  std::thread occupant([&] {
    auto response = service->BatchMine(slow);
    // The request was admitted before the detach: it must complete
    // in-band (Cancelled when we fire the token), never fail out.
    if (!response.ok()) occupant_failed.store(true);
  });
  while (service->CountersFor("pin").ok() &&
         service->CountersFor("pin")->in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Detach unmaps the name immediately...
  ASSERT_TRUE(service->DetachKb("pin").ok());
  EXPECT_FALSE(service->HasKb("pin"));
  EXPECT_TRUE(
      service->Mine(MineFor("pin", BitKbTopEntity())).status().IsNotFound());
  EXPECT_EQ(service->counters().tenants_active, 1u);
  // ...but the pinned epoch survives until the request completes.
  EXPECT_GE(service->counters().active_generations, 2u);

  source.RequestCancellation();
  occupant.join();
  EXPECT_FALSE(occupant_failed.load());

  // Drained: the detached tenant's epoch chain is gone (leak-checked —
  // this test runs under ASan in the reload-fault-injection job).
  EXPECT_EQ(service->counters().active_generations,
            service->counters().tenants_active);
  EXPECT_EQ(service->counters().tenants_active, 1u);
}

TEST(ReloadFaultTenantTest, ServiceCountersNeverGoBackwardsOnDetach) {
  ServiceOptions options;
  options.mining = ExhaustiveMining();
  options.max_in_flight = 4;
  auto service = Service::Create(BuildTaggedKb("base"), options);
  ASSERT_TRUE(service->AttachKb("t", BuildBitLatticeKb(kBitKbBits)).ok());

  // Served traffic on t: two OK mines and one admitted-but-failed one.
  uint64_t expected_nodes = 0;
  for (int i = 0; i < 2; ++i) {
    auto mined = service->Mine(MineFor("t", "http://ex/e3"));
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    expected_nodes += mined->stats.nodes_visited;
  }
  EXPECT_FALSE(service->Mine(MineFor("t", "http://ex/nowhere")).ok());

  // Hold one request in flight across the detach.
  CancellationSource source;
  const BatchMineRequest slow = SlowBatch("t", source.token());
  Result<BatchMineResponse> held = Status::Internal("not run");
  std::thread occupant([&] { held = service->BatchMine(slow); });
  while (service->CountersFor("t").ok() &&
         service->CountersFor("t")->in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ServiceCounters before = service->counters();
  ASSERT_TRUE(service->DetachKb("t").ok());
  const ServiceCounters detached = service->counters();
  EXPECT_GE(detached.admitted, before.admitted);
  EXPECT_GE(detached.completed_ok, before.completed_ok);
  EXPECT_GE(detached.failed, before.failed);
  EXPECT_GE(detached.nodes_visited_total, before.nodes_visited_total);

  source.RequestCancellation();
  occupant.join();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_TRUE(held->status.IsCancelled()) << held->status.ToString();
  for (const MineResponse& item : held->results) {
    expected_nodes += item.stats.nodes_visited;
  }

  // Every request on t is still in the service-wide ledger, the held one
  // too, and re-reading (after the drained tenant folded into the
  // retired total) changes nothing.
  const ServiceCounters after = service->counters();
  EXPECT_EQ(after.admitted, 4u);
  EXPECT_EQ(after.completed_ok, 2u);
  EXPECT_EQ(after.failed, 1u);
  EXPECT_EQ(after.cancelled, 1u);
  EXPECT_EQ(after.nodes_visited_total, expected_nodes);
  EXPECT_EQ(after.admitted, after.completed_ok + after.deadline_exceeded +
                                after.cancelled + after.failed);
  const ServiceCounters reread = service->counters();
  EXPECT_EQ(reread.admitted, after.admitted);
  EXPECT_EQ(reread.cancelled, after.cancelled);
  EXPECT_EQ(reread.nodes_visited_total, after.nodes_visited_total);
  // The detached tenant's epochs are destroyed.
  EXPECT_EQ(after.active_generations, after.tenants_active);
  EXPECT_EQ(after.tenants_active, 1u);
}

TEST(ReloadFaultTenantTest, CrossTenantHammerKeepsTenantsIsolated) {
  auto service = Service::Create(BuildTaggedKb("d"), [] {
    ServiceOptions options;
    options.max_in_flight = 8;
    return options;
  }());
  for (const char* name : {"t0", "t1", "t2"}) {
    ASSERT_TRUE(service->AttachKb(name, BuildTaggedKb(name)).ok());
  }
  const std::string reload_path =
      ProcessTempDir() + "/tenant_hammer_t0.rkf2";
  WriteFile(reload_path, BuildTaggedKb("t0").SerializeSnapshot());

  // Per-tenant baselines (the byte-identity reference).
  std::map<std::string, MineResponse> baselines;
  for (const std::string name : {"d", "t0", "t1", "t2"}) {
    const std::string kb = name == "d" ? "" : name;
    auto response =
        service->Mine(MineFor(kb, "http://ex/" + name + "/Entity7"));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->found);
    baselines[kb] = *response;
  }

  constexpr int kMinesPerThread = 40;
  constexpr int kReloads = 8;
  std::atomic<size_t> dropped{0};
  std::atomic<size_t> divergent{0};
  std::atomic<bool> t2_detached{false};
  std::vector<std::thread> threads;

  // Two miners per tenant, each comparing against its tenant's baseline.
  for (const std::string name : {"d", "t0", "t1", "t2"}) {
    const std::string kb = name == "d" ? "" : name;
    const std::string target = "http://ex/" + name + "/Entity7";
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, kb, target] {
        for (int i = 0; i < kMinesPerThread; ++i) {
          auto response = service->Mine(MineFor(kb, target));
          if (!response.ok()) {
            // The only legal failure: t2 resolved after its detach. The
            // flag is set BEFORE DetachKb, so any NotFound implies it.
            if (!(kb == "t2" && response.status().IsNotFound() &&
                  t2_detached.load())) {
              dropped.fetch_add(1, std::memory_order_relaxed);
            }
            continue;
          }
          if (!response->found ||
              response->expression_text !=
                  baselines[kb].expression_text ||
              response->cost != baselines[kb].cost) {
            divergent.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  // One reloader hammers t0 with good snapshots: its miners must stay
  // byte-identical across every generation, and t1/t2/default must
  // never notice.
  threads.emplace_back([&] {
    for (int i = 0; i < kReloads; ++i) {
      ReloadKbRequest reload;
      reload.kb = "t0";
      reload.spec.path = reload_path;
      if (!service->ReloadKb(reload).status.ok()) {
        dropped.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // One detacher removes t2 mid-storm; in-flight pins drain, the name
  // vanishes immediately.
  threads.emplace_back([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    t2_detached.store(true);
    if (!service->DetachKb("t2").ok()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(dropped.load(), 0u);
  EXPECT_EQ(divergent.load(), 0u);

  // Quiescence: t1 and the default never reloaded (generation 1), t0 is
  // at 1 + kReloads, t2 is gone, and every tenant's counter identity
  // holds. No epoch outlived its last pin (ASan-leak-checked).
  const ServiceCounters global = service->counters();
  EXPECT_EQ(global.tenants_active, 3u);
  EXPECT_EQ(global.active_generations, global.tenants_active);
  EXPECT_EQ(global.admitted, global.completed_ok +
                                 global.deadline_exceeded +
                                 global.cancelled + global.failed);
  EXPECT_EQ(service->CountersFor("t0")->generation,
            1u + static_cast<uint64_t>(kReloads));
  EXPECT_EQ(service->CountersFor("t1")->generation, 1u);
  EXPECT_TRUE(service->CountersFor("t2").status().IsNotFound());
  for (const char* kb : {"", "t0", "t1"}) {
    auto slice = service->CountersFor(kb);
    ASSERT_TRUE(slice.ok());
    EXPECT_EQ(slice->admitted, slice->completed_ok +
                                   slice->deadline_exceeded +
                                   slice->cancelled + slice->failed)
        << "tenant '" << kb << "'";
  }
}

}  // namespace
}  // namespace remi
