// remi_server — the TCP serving front end.
//
//   remi_server <kb> [--port 7411] [--threads N] [--dispatch-threads 4]
//               [--max-inflight 4] [--max-queued 16]
//               [--inverse-fraction 0.01] [--catalog catalog.json]
//               [--tenant-max-inflight 0] [--tenant-max-queued 0]
//
// <kb> is any format KbSpec understands (.nt / .ttl / .rkf2; RKF2
// snapshots open zero-copy). The epoll core (src/service/event_server.h)
// serves both wire protocols on one port, autodetected per connection:
// the length-prefixed binary framing (request-id multiplexed,
// out-of-order responses; see src/service/frame_codec.h) and the
// newline-delimited-JSON debug protocol. Count, size and timeout flags
// must be non-negative and --port must lie in [0, 65535]; anything else
// is rejected with "error: ..." and exit status 1. Example debug session:
//
//   $ remi_server tests/data/smoke.nt --port 7411 &
//   $ printf '{"op":"mine","targets":["Berlin"]}\n' | nc 127.0.0.1 7411
//   {"status":"OK","found":true,...}
//
// The server runs until SIGINT/SIGTERM, then drains gracefully: it stops
// accepting, lets requests already on the wire finish and flush (up to
// --drain-grace seconds), then cancels stragglers and exits. The KB can
// be hot-swapped at runtime with {"op":"reload","path":...} (or
// `remi_cli reload`) — see README "Hot-swap & operational runbook".
//
// Multi-tenant: <kb> becomes the unnamed default tenant. More named KBs
// come from --catalog (a JSON file of lazily opened entries; see README
// "Multi-tenant serving") or are attached at runtime via `remi_cli
// attach`. --tenant-max-inflight/--tenant-max-queued set the default
// per-tenant admission quota (0 = tenants share only the global limits).

#include <csignal>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "service/event_server.h"
#include "service/service.h"
#include "util/flags.h"

namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

}  // namespace

int main(int argc, char** argv) {
  remi::Flags flags;
  flags.DefineInt("port", 7411, "TCP port (0 = ephemeral, printed on start)");
  flags.DefineString("bind", "127.0.0.1", "IPv4 address to bind");
  flags.DefineInt("threads", 1, "mining threads (>1 = P-REMI)");
  flags.DefineInt("max-inflight", 4,
                  "concurrent requests before callers queue (0 = unlimited)");
  flags.DefineInt("max-queued", 16,
                  "queued requests before ResourceExhausted");
  flags.DefineString("catalog", "",
                     "KB catalog JSON file; entries are registered as "
                     "named tenants and open lazily on first request");
  flags.DefineInt("tenant-max-inflight", 0,
                  "default per-tenant in-flight quota (0 = unlimited)");
  flags.DefineInt("tenant-max-queued", 0,
                  "default per-tenant queue quota (0 = unlimited)");
  flags.DefineDouble("inverse-fraction", 0.01,
                     "inverse materialization fraction (paper: 0.01)");
  flags.DefineDouble("drain-grace", 30.0,
                     "seconds to let in-flight requests finish on "
                     "SIGTERM/SIGINT before cancelling them");
  flags.DefineInt("dispatch-threads", 4, "worker threads executing requests");
  flags.DefineInt("max-write-buffer", 4 << 20,
                  "per-connection write-buffer bytes before the connection "
                  "stops being read (backpressure)");
  flags.DefineInt("idle-timeout-ms", 0,
                  "reap connections with no queued/in-flight work and no "
                  "read/write progress for this long (0 = never; also "
                  "bounds slow-loris trickles)");
  flags.DefineInt("write-stall-timeout-ms", 0,
                  "reap connections whose peer accepts no response bytes "
                  "for this long while bytes are owed (0 = never)");
  flags.DefineInt("handshake-timeout-ms", 0,
                  "reap connections that send no first byte (protocol "
                  "sniff) within this bound (0 = never)");
  flags.DefineDouble("brownout-p99-ms", 0.0,
                     "enter brownout (tighten the admission queue) when "
                     "the p99 queue wait exceeds this many milliseconds; "
                     "exits below half the bound (0 = disabled)");
  flags.DefineDouble("brownout-queue-fraction", 0.25,
                     "fraction of --max-queued admitted while brownout "
                     "is active (floored at 1 slot)");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  if (flags.positional().size() != 1) {
    std::printf("usage: remi_server <kb> [flags]\n\n%s",
                flags.Help().c_str());
    return 1;
  }
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  if (auto status = flags.CheckRanges(
          {{"port", 0, 65535}, {"threads", 0, kIntMax},
           {"max-inflight", 0, kIntMax}, {"max-queued", 0, kIntMax},
           {"tenant-max-inflight", 0, kIntMax},
           {"tenant-max-queued", 0, kIntMax},
           {"dispatch-threads", 0, kIntMax},
           {"max-write-buffer", 0, kIntMax}, {"idle-timeout-ms", 0, kIntMax},
           {"write-stall-timeout-ms", 0, kIntMax},
           {"handshake-timeout-ms", 0, kIntMax}},
          {"drain-grace", "brownout-p99-ms"});
      !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }

  remi::KbSpec spec;
  spec.path = flags.positional()[0];
  spec.kb.inverse_top_fraction = flags.GetDouble("inverse-fraction");

  remi::ServiceOptions options;
  options.mining.num_threads = static_cast<int>(flags.GetInt("threads"));
  options.max_in_flight = static_cast<size_t>(flags.GetInt("max-inflight"));
  options.max_queued = static_cast<size_t>(flags.GetInt("max-queued"));
  options.tenant_max_in_flight =
      static_cast<size_t>(flags.GetInt("tenant-max-inflight"));
  options.tenant_max_queued =
      static_cast<size_t>(flags.GetInt("tenant-max-queued"));
  options.brownout_p99_queue_wait_ms = flags.GetDouble("brownout-p99-ms");
  options.brownout_queue_fraction =
      flags.GetDouble("brownout-queue-fraction");

  auto service = remi::Service::Open(spec, options);
  if (!service.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  if (const std::string catalog = flags.GetString("catalog");
      !catalog.empty()) {
    auto registered = (*service)->LoadCatalogFile(catalog);
    if (!registered.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   registered.status().ToString().c_str());
      return 1;
    }
    std::printf("catalog %s: %zu kb(s) registered (lazy)\n",
                catalog.c_str(), *registered);
  }
  if ((*service)->parse_skipped_lines() > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed lines\n",
                 (*service)->parse_skipped_lines());
  }
  std::printf("loaded %s: %zu facts, %zu entities\n", spec.path.c_str(),
              (*service)->kb().NumFacts(), (*service)->kb().NumEntities());

  remi::EventServerOptions server_options;
  server_options.bind_address = flags.GetString("bind");
  server_options.port = static_cast<int>(flags.GetInt("port"));
  server_options.dispatch_threads =
      static_cast<size_t>(flags.GetInt("dispatch-threads"));
  server_options.max_write_buffer_bytes =
      static_cast<size_t>(flags.GetInt("max-write-buffer"));
  server_options.idle_timeout_ms =
      static_cast<int>(flags.GetInt("idle-timeout-ms"));
  server_options.write_stall_timeout_ms =
      static_cast<int>(flags.GetInt("write-stall-timeout-ms"));
  server_options.handshake_timeout_ms =
      static_cast<int>(flags.GetInt("handshake-timeout-ms"));
  remi::EventServer server(service->get(), server_options);
  if (auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("remi_server listening on %s:%d\n",
              flags.GetString("bind").c_str(), server.port());
  std::fflush(stdout);

  // A client that disconnects mid-response must surface as a send()
  // error on that one connection, never as a process-killing SIGPIPE.
  // send() already passes MSG_NOSIGNAL; this covers any other fd writes.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const double grace = flags.GetDouble("drain-grace");
  std::printf("draining (grace %.1fs)\n", grace);
  std::fflush(stdout);
  std::printf(server.Drain(grace)
                  ? "drained cleanly\n"
                  : "drain grace expired; cancelled stragglers\n");
  return 0;
}
