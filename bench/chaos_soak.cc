// Chaos soak: a live multi-tenant Service behind the epoll EventServer,
// hammered by clean loopback clients while a deterministic FaultInjector
// (seeded; the seed is echoed first thing so CI failures replay) feeds
// the server EINTR/EAGAIN storms, short reads and writes, mid-frame
// disconnects, accept-time EMFILE/ENFILE/ENOMEM and mmap refusals —
// concurrent with KB hot-swaps on every tenant.
//
// Exit is nonzero (with a violation summary) unless ALL of:
//   * liveness    — no client read ever times out; the storm may sever a
//                   connection, never wedge the server;
//   * identity    — every response line that arrives for a deterministic
//                   verb is byte-identical to the fault-free baseline;
//   * reloads     — every hot-swap publishes (the read fallback covers
//                   injected mmap refusals);
//   * accounting  — per-tenant counters sum exactly to the global ones,
//                   admitted == ok + deadline_exceeded + cancelled +
//                   failed, in_flight drains to zero, and no retired
//                   generation outlives quiescence.
//
// The CI chaos-soak job runs this under ASan+LSan: a leaked connection
// buffer, epoch, or fd surfaces as a build failure.
//
//   ./bench_chaos_soak [--seed 1] [--duration-s 30] [--clients 4]
//                      [--reload-interval-ms 200]

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "kb/knowledge_base.h"
#include "service/event_server.h"
#include "service/service.h"
#include "service/wire_client.h"
#include "util/io_hooks.h"

namespace remi {
namespace {

using Clock = std::chrono::steady_clock;

// --- fixture ----------------------------------------------------------------

/// Deterministic ring-of-rings KB with labels: big enough that mines do
/// real search work, small enough that a round trip is microseconds.
KnowledgeBase SoakKb() {
  Dictionary dict;
  std::vector<Triple> triples;
  const TermId label_pred = dict.InternIri(kRdfsLabelIri);
  const TermId type_pred = dict.InternIri(kRdfTypeIri);
  const TermId cls = dict.InternIri("http://chaos.example/class/Node");
  const TermId link = dict.InternIri("http://chaos.example/linksTo");
  const TermId peer = dict.InternIri("http://chaos.example/peerOf");
  std::vector<TermId> nodes;
  for (int i = 0; i < 64; ++i) {
    const TermId node =
        dict.InternIri("http://chaos.example/Node" + std::to_string(i));
    nodes.push_back(node);
    triples.push_back(Triple{node, type_pred, cls});
    triples.push_back(Triple{
        node, label_pred,
        dict.Intern(TermKind::kLiteral,
                    "\"node " + std::to_string(i) + "\"@en")});
  }
  for (int i = 0; i < 64; ++i) {
    triples.push_back(Triple{nodes[i], link, nodes[(i + 1) % 64]});
    triples.push_back(Triple{nodes[i], link, nodes[(i + 9) % 64]});
    triples.push_back(Triple{nodes[i], peer, nodes[(i + 17) % 64]});
  }
  return KnowledgeBase::Build(std::move(dict), std::move(triples));
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
  return (std::fclose(out) == 0) && ok;
}

// Clients are WireClients: raw syscalls, never routed through io::Hooks,
// so the injector faults the server alone. The receive timeout is the
// liveness bound: it trips only if the server wedges.
constexpr std::chrono::seconds kLivenessBound(20);

// --- the soak ---------------------------------------------------------------

struct SoakTally {
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> severed{0};
  std::atomic<uint64_t> hung{0};
  std::atomic<uint64_t> divergent{0};
  std::atomic<uint64_t> mine_lines{0};
  std::atomic<uint64_t> reload_failures{0};
  std::atomic<uint64_t> reloads{0};
};

uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

int Fail(const char* what) {
  std::fprintf(stderr, "chaos_soak: VIOLATION: %s\n", what);
  return 1;
}

int Run(uint64_t seed, int duration_s, int clients, int reload_interval_ms) {
  std::printf("chaos_soak: seed=%llu duration_s=%d clients=%d\n",
              static_cast<unsigned long long>(seed), duration_s, clients);
  std::fflush(stdout);

  // Fixture files under TMPDIR (same convention as the test suite).
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
  char tmpl[4096];
  std::snprintf(tmpl, sizeof(tmpl), "%s/remi_chaos_XXXXXX", dir.c_str());
  if (::mkdtemp(tmpl) == nullptr) return Fail("mkdtemp failed");
  dir = tmpl;
  const std::string image = SoakKb().SerializeSnapshot();
  std::vector<std::string> cleanup;
  auto fixture = [&](const std::string& name) {
    const std::string path = dir + "/" + name;
    cleanup.push_back(path);
    return WriteFile(path, image) ? path : std::string();
  };

  const std::string default_path = fixture("default.rkf2");
  const std::string alpha_path = fixture("alpha.rkf2");
  const std::string beta_path = fixture("beta.rkf2");
  if (default_path.empty() || alpha_path.empty() || beta_path.empty()) {
    return Fail("could not write fixture snapshots");
  }

  KbSpec spec;
  spec.path = default_path;
  auto opened = Service::Open(spec);
  if (!opened.ok()) return Fail(opened.status().ToString().c_str());
  std::unique_ptr<Service> service = std::move(*opened);
  KbSpec alpha;
  alpha.path = alpha_path;
  KbSpec beta;
  beta.path = beta_path;
  if (!service->AttachKb("alpha", alpha).ok() ||
      !service->AttachKb("beta", beta).ok()) {
    return Fail("AttachKb failed");
  }

  // Lifecycle timeouts armed but generous: they must never fire on a
  // healthy round trip, and an injected stall that does trip them shows
  // up as a (tolerated) severed connection plus a reap counter.
  EventServerOptions server_options;
  server_options.idle_timeout_ms = 5000;
  server_options.write_stall_timeout_ms = 5000;
  server_options.handshake_timeout_ms = 5000;
  EventServer server(service.get(), server_options);
  if (!server.Start().ok()) return Fail("EventServer::Start failed");

  // Deterministic verbs (byte-identity enforced) and mine lines (only
  // delivery enforced: responses carry wall-clock timings).
  const std::vector<std::string> deterministic = {
      R"({"op":"ping"})",
      R"({"op":"summarize","entity":"Node3","k":3})",
      R"({"op":"summarize","entity":"Node11","k":2,"kb":"alpha"})",
      R"({"op":"candidates","targets":["Node5"],"limit":2})",
      R"({"op":"candidates","targets":["Node7"],"limit":2,"kb":"beta"})",
  };
  const std::vector<std::string> mines = {
      R"({"op":"mine","targets":["Node0"]})",
      R"({"op":"mine","targets":["Node13"],"kb":"alpha"})",
      // Sub-clock-tick deadline: always expired at admission, so the
      // in-band shed path stays exercised for the whole soak.
      R"({"op":"mine","targets":["Node21"],"kb":"beta","deadline_ms":0.000001})",
  };

  std::vector<std::string> baselines;
  {
    auto probe =
        WireClient::Connect("127.0.0.1", server.port(), kLivenessBound);
    if (!probe.ok()) return Fail("baseline connect failed");
    for (const std::string& request : deterministic) {
      auto line = probe->LineRoundTrip(request);
      if (!line.ok()) return Fail("baseline round trip failed");
      baselines.push_back(*line);
    }
  }

  SoakTally tally;
  {
    io::FaultProfile profile;
    profile.seed = seed;
    profile.eintr_probability = 0.05;
    profile.eagain_probability = 0.05;
    profile.short_write_probability = 0.2;
    profile.short_read_probability = 0.2;
    profile.disconnect_probability = 0.01;
    profile.accept_resource_probability = 0.02;
    profile.mmap_fail_probability = 0.2;
    io::FaultInjector injector(profile);
    io::ScopedHooks scoped(&injector);

    const auto deadline = Clock::now() + std::chrono::seconds(duration_s);
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        uint64_t rng = seed * 0x9e3779b97f4a7c15ull + t + 1;
        while (Clock::now() < deadline) {
          auto client =
              WireClient::Connect("127.0.0.1", server.port(), kLivenessBound);
          if (!client.ok()) continue;
          // A short pipelined conversation per connection; roughly one
          // request in six is a mine.
          for (int i = 0; i < 6 && Clock::now() < deadline; ++i) {
            const bool mine = (NextRand(&rng) % 6) == 0;
            const size_t pick =
                NextRand(&rng) % (mine ? mines.size() : deterministic.size());
            const std::string& request =
                mine ? mines[pick] : deterministic[pick];
            const auto line = client->LineRoundTrip(request);
            if (!line.ok() && line.status().IsTimeout()) {
              tally.hung.fetch_add(1, std::memory_order_relaxed);
              return;  // liveness is already lost; stop generating load
            }
            if (!line.ok()) {
              // An injected disconnect severed this connection.
              tally.severed.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            tally.delivered.fetch_add(1, std::memory_order_relaxed);
            if (mine) {
              tally.mine_lines.fetch_add(1, std::memory_order_relaxed);
            } else if (*line != baselines[pick]) {
              tally.divergent.fetch_add(1, std::memory_order_relaxed);
              std::fprintf(stderr,
                           "chaos_soak: DIVERGED\n  want %s\n  got %s\n",
                           baselines[pick].c_str(), line->c_str());
            }
          }
        }
      });
    }
    threads.emplace_back([&] {
      // Hot-swaps across all three tenants for the whole soak, under the
      // same injector as the serving path.
      const char* tenants[] = {"", "alpha", "beta"};
      int i = 0;
      while (Clock::now() < deadline) {
        const std::string path =
            dir + "/reload_" + std::to_string(i) + ".rkf2";
        if (!WriteFile(path, image)) {
          tally.reload_failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        cleanup.push_back(path);
        ReloadKbRequest reload;
        reload.kb = tenants[i % 3];
        reload.spec.path = path;
        const ReloadKbResponse response = service->ReloadKb(reload);
        tally.reloads.fetch_add(1, std::memory_order_relaxed);
        if (!response.status.ok()) {
          std::fprintf(stderr, "chaos_soak: reload %d failed: %s\n", i,
                       response.status.ToString().c_str());
          tally.reload_failures.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(reload_interval_ms));
      }
    });
    for (std::thread& thread : threads) thread.join();
  }

  // Post-storm: the hooks are gone; one clean round trip per verb.
  {
    auto probe =
        WireClient::Connect("127.0.0.1", server.port(), kLivenessBound);
    if (!probe.ok()) return Fail("post-storm connect failed");
    for (size_t i = 0; i < deterministic.size(); ++i) {
      auto line = probe->LineRoundTrip(deterministic[i]);
      if (!line.ok()) return Fail("post-storm round trip failed");
      if (*line != baselines[i]) return Fail("post-storm response diverged");
    }
  }

  // Exact accounting at quiescence.
  server.Stop();
  const ServiceCounters global = service->counters();
  TenantCounters sum;
  for (const KbInfo& info : service->ListKbs()) {
    if (!info.open) continue;
    auto slice = service->CountersFor(info.name);
    if (!slice.ok()) return Fail("CountersFor failed");
    sum.admitted += slice->admitted;
    sum.completed_ok += slice->completed_ok;
    sum.deadline_exceeded += slice->deadline_exceeded;
    sum.cancelled += slice->cancelled;
    sum.rejected += slice->rejected;
    sum.failed += slice->failed;
    sum.shed_expired_in_queue += slice->shed_expired_in_queue;
    sum.in_flight += slice->in_flight;
  }

  std::printf(
      "chaos_soak: delivered=%llu severed=%llu mine_lines=%llu reloads=%llu\n"
      "chaos_soak: admitted=%llu ok=%llu deadline=%llu cancelled=%llu "
      "failed=%llu shed=%llu reaped_idle=%llu reaped_stall=%llu "
      "accept_retried=%llu\n",
      static_cast<unsigned long long>(tally.delivered.load()),
      static_cast<unsigned long long>(tally.severed.load()),
      static_cast<unsigned long long>(tally.mine_lines.load()),
      static_cast<unsigned long long>(tally.reloads.load()),
      static_cast<unsigned long long>(global.admitted),
      static_cast<unsigned long long>(global.completed_ok),
      static_cast<unsigned long long>(global.deadline_exceeded),
      static_cast<unsigned long long>(global.cancelled),
      static_cast<unsigned long long>(global.failed),
      static_cast<unsigned long long>(global.shed_expired_in_queue),
      static_cast<unsigned long long>(global.connections_reaped_idle),
      static_cast<unsigned long long>(global.connections_reaped_write_stall),
      static_cast<unsigned long long>(global.accept_errors_retried));

  int violations = 0;
  if (tally.hung.load() != 0) violations += Fail("a client read timed out");
  if (tally.divergent.load() != 0) {
    violations += Fail("surviving responses diverged from baseline");
  }
  if (tally.delivered.load() == 0) {
    violations += Fail("the storm let nothing through");
  }
  if (tally.reload_failures.load() != 0) {
    violations += Fail("a hot-swap failed under injected faults");
  }
  if (sum.admitted != global.admitted ||
      sum.completed_ok != global.completed_ok ||
      sum.deadline_exceeded != global.deadline_exceeded ||
      sum.cancelled != global.cancelled || sum.rejected != global.rejected ||
      sum.failed != global.failed ||
      sum.shed_expired_in_queue != global.shed_expired_in_queue) {
    violations += Fail("per-tenant counters do not sum to the global ones");
  }
  if (global.admitted != global.completed_ok + global.deadline_exceeded +
                             global.cancelled + global.failed) {
    violations += Fail("admission ledger does not balance");
  }
  if (sum.in_flight != 0 || global.in_flight != 0) {
    violations += Fail("in_flight did not drain to zero");
  }
  if (global.active_generations != global.tenants_active) {
    violations += Fail("a retired generation outlived quiescence");
  }
  if (tally.mine_lines.load() >= 50 && global.shed_expired_in_queue == 0) {
    // ~1/3 of mine lines carry an already-expired deadline; with this
    // many delivered, zero sheds means the in-band shed path is dead.
    violations += Fail("expired-deadline mines were never shed");
  }

  for (const std::string& path : cleanup) std::remove(path.c_str());
  ::rmdir(dir.c_str());

  if (violations == 0) std::printf("chaos_soak: OK\n");
  return violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace remi

int main(int argc, char** argv) {
  uint64_t seed = 1;
  int duration_s = 30;
  int clients = 4;
  int reload_interval_ms = 200;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      if (const char* v = next()) seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--duration-s") {
      if (const char* v = next()) duration_s = std::atoi(v);
    } else if (arg == "--clients") {
      if (const char* v = next()) clients = std::atoi(v);
    } else if (arg == "--reload-interval-ms") {
      if (const char* v = next()) reload_interval_ms = std::atoi(v);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed N] [--duration-s S] [--clients N] "
                   "[--reload-interval-ms MS]\n",
                   argv[0]);
      return 2;
    }
  }
  if (duration_s < 1 || clients < 1 || reload_interval_ms < 1) {
    std::fprintf(stderr, "chaos_soak: flags must be positive\n");
    return 2;
  }
  return remi::Run(seed, duration_s, clients, reload_interval_ms);
}
