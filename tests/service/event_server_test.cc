// EventServer integration tests: an in-process epoll server on an
// ephemeral loopback port, driven through real TCP sockets in both wire
// modes — the same code path tools/remi_server.cc serves, minus the flag
// parsing.

#include "service/event_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "service/frame_codec.h"
#include "service/json_codec.h"
#include "service/wire_client.h"
#include "util/io_hooks.h"
#include "util/json.h"
#include "process_temp_dir.h"
#include "wire_test_util.h"

#ifndef REMI_TESTDATA_DIR
#define REMI_TESTDATA_DIR "tests/data"
#endif

namespace remi {
namespace {

class EventServerTest : public ::testing::Test {
 protected:
  void StartServer(const EventServerOptions& options = {}) {
    KbSpec spec;
    spec.path = std::string(REMI_TESTDATA_DIR) + "/smoke.nt";
    auto service = Service::Open(spec);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(*service);
    server_ = std::make_unique<EventServer>(service_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  /// Sends one request line and parses the one response line.
  JsonValue Request(WireClient& client, const std::string& line) {
    return Parse(client.LineRoundTrip(line));
  }

  // A peer observes EOF the instant the fd closes, a beat before the
  // loop thread decrements the connection count — poll, don't assert.
  void ExpectConnectionsDrain() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (server_->open_connections() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(server_->open_connections(), 0u);
  }

  std::unique_ptr<Service> service_;
  std::unique_ptr<EventServer> server_;
};

TEST_F(EventServerTest, NdjsonDebugModeServesTheLineProtocol) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  EXPECT_EQ(Request(*client, R"({"op":"ping"})").Find("status")->AsString(),
            "OK");

  JsonValue mine = Request(
      *client, R"({"op":"mine","targets":["Berlin"],"verbalize":true})");
  EXPECT_EQ(mine.Find("status")->AsString(), "OK");
  EXPECT_TRUE(mine.Find("found")->AsBool());
}

TEST_F(EventServerTest, ReloadVerbSwapsGenerationsInBand) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Good reload: re-open the same smoke KB as generation 2.
  const std::string smoke = std::string(REMI_TESTDATA_DIR) + "/smoke.nt";
  JsonValue good =
      Request(*client,
              std::string(R"({"op":"reload","path":")") + smoke + "\"}");
  EXPECT_EQ(good.Find("status")->AsString(), "OK");
  EXPECT_EQ(good.Find("generation")->AsNumber(), 2.0);
  EXPECT_GT(good.Find("facts")->AsNumber(), 0.0);

  // Corrupt candidate: valid magic, garbage body. Fail closed in-band —
  // the connection survives and generation 2 keeps serving.
  const std::string corrupt_path =
      ProcessTempDir() + "/event_server_corrupt.rkf2";
  {
    std::ofstream out(corrupt_path, std::ios::binary | std::ios::trunc);
    out << "RKF2 this is not a snapshot";
  }
  JsonValue corrupt =
      Request(*client, std::string(R"({"op":"reload","path":")") +
                           corrupt_path + "\"}");
  EXPECT_EQ(corrupt.Find("status")->AsString(), "Corruption");
  EXPECT_EQ(corrupt.Find("generation")->AsNumber(), 2.0);

  // Still mining, and the stats op reports the registry counters.
  EXPECT_EQ(Request(*client, R"({"op":"mine","targets":["Berlin"]})")
                .Find("status")
                ->AsString(),
            "OK");
  JsonValue stats = Request(*client, R"({"op":"stats"})");
  EXPECT_EQ(stats.Find("generation")->AsNumber(), 2.0);
  EXPECT_EQ(stats.Find("reloads_ok")->AsNumber(), 1.0);
  EXPECT_EQ(stats.Find("reloads_rejected")->AsNumber(), 1.0);
  EXPECT_GE(stats.Find("active_generations")->AsNumber(), 1.0);
  std::remove(corrupt_path.c_str());
}

TEST_F(EventServerTest, ReloadReportsItsWarmPhaseInBothEncodings) {
  StartServer();
  // A connection speaks the protocol of its first bytes: one for each.
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto line_client = Dial(server_->port());
  ASSERT_TRUE(line_client.ok()) << line_client.status().ToString();
  const std::string smoke = std::string(REMI_TESTDATA_DIR) + "/smoke.nt";
  const std::string mine = R"({"targets":["Berlin"]})";
  const std::string reload = std::string(R"({"path":")") + smoke + "\"}";

  // A question asked twice leaves reused match sets, which each reload
  // re-evaluates on the new generation.
  for (int i = 0; i < 2; ++i) {
    Parse(client->FrameRoundTrip(FrameVerb::kMine, mine, 10 + i));
  }
  JsonValue framed =
      Parse(client->FrameRoundTrip(FrameVerb::kReload, reload, 20));
  JsonValue line = Request(
      *line_client,
      std::string(R"({"op":"reload","path":")") + smoke + "\"}");
  for (const JsonValue* doc : {&framed, &line}) {
    ASSERT_NE(doc->Find("status"), nullptr);
    EXPECT_EQ(doc->Find("status")->AsString(), "OK");
    ASSERT_NE(doc->Find("load_seconds"), nullptr);
    ASSERT_NE(doc->Find("warm_seconds"), nullptr);
    ASSERT_NE(doc->Find("warmed_entries"), nullptr);
    EXPECT_GT(doc->Find("warm_seconds")->AsNumber(), 0.0);
    EXPECT_GT(doc->Find("warmed_entries")->AsNumber(), 0.0);
  }
  // The second reload found no request on generation 2: the carried
  // reuse marks alone kept the set hot.
  EXPECT_EQ(framed.Find("warmed_entries")->AsNumber(),
            line.Find("warmed_entries")->AsNumber());
  EXPECT_EQ(line.Find("generation")->AsNumber(), 3.0);
}

TEST_F(EventServerTest, StopClosesOpenConnections) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(Request(*client, R"({"op":"ping"})").Find("status")->AsString(),
            "OK");
  server_->Stop();  // must return with the connection still open
  EXPECT_TRUE(client->AtEof());
}

TEST_F(EventServerTest, StartRejectsOutOfRangePort) {
  KbSpec spec;
  spec.path = std::string(REMI_TESTDATA_DIR) + "/smoke.nt";
  auto service = Service::Open(spec);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (const int port : {-1, 65536, 70000}) {
    EventServerOptions options;
    options.port = port;
    EventServer server(service->get(), options);
    EXPECT_TRUE(server.Start().IsInvalidArgument()) << "port " << port;
    // The client refuses the same ports without opening a socket.
    EXPECT_TRUE(WireClient::Connect("127.0.0.1", port)
                    .status()
                    .IsInvalidArgument())
        << "port " << port;
  }
}

TEST_F(EventServerTest, PipelinedNdjsonAcrossArbitraryRecvBoundaries) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Several requests pipelined into one stream, delivered byte by byte:
  // the server sees every possible partial-line state.
  std::string stream;
  const int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    stream += R"({"op":"ping"})";
    stream += "\n";
    stream += R"({"op":"summarize","entity":"Berlin","k":2})";
    stream += "\n";
  }
  for (const char byte : stream) {
    ASSERT_TRUE(client->Send(std::string_view(&byte, 1)).ok());
  }

  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(Parse(client->ReadLine()).Find("status")->AsString(), "OK");
    JsonValue summary = Parse(client->ReadLine());
    EXPECT_EQ(summary.Find("status")->AsString(), "OK");
    EXPECT_EQ(summary.Find("entity")->AsString(), "Berlin");
  }
}

TEST_F(EventServerTest, BinaryFramesAcrossArbitraryRecvBoundaries) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Frame headers and payloads split at every byte boundary.
  std::string wire;
  AppendFrame(static_cast<uint8_t>(FrameVerb::kPing), 11, "", &wire);
  AppendFrame(static_cast<uint8_t>(FrameVerb::kSummarize), 12,
              R"({"entity":"Berlin","k":2})", &wire);
  for (const char byte : wire) {
    ASSERT_TRUE(client->Send(std::string_view(&byte, 1)).ok());
  }

  std::map<uint64_t, std::string> responses;
  for (int i = 0; i < 2; ++i) {
    auto frame = client->ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    responses[frame->request_id] = frame->payload;
    // Responses echo the request verb.
    EXPECT_EQ(frame->verb,
              frame->request_id == 11
                  ? static_cast<uint8_t>(FrameVerb::kPing)
                  : static_cast<uint8_t>(FrameVerb::kSummarize));
  }
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(Parse(responses[11]).Find("status")->AsString(), "OK");
  JsonValue summary = Parse(responses[12]);
  EXPECT_EQ(summary.Find("status")->AsString(), "OK");
  EXPECT_EQ(summary.Find("entity")->AsString(), "Berlin");
}

TEST_F(EventServerTest, MultiplexedResponsesMatchedByRequestId) {
  EventServerOptions options;
  options.dispatch_threads = 4;
  StartServer(options);
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Many in-flight requests of mixed cost on ONE connection. Responses
  // may legally arrive in any order (that is the point of the id); the
  // test asserts the multiplexing contract — every id answered exactly
  // once, each response carrying its request's verb and a valid payload.
  const int kMines = 6;
  const int kPings = 6;
  const std::string mine_payload = R"({"targets":["Berlin","Hamburg"]})";
  for (int i = 0; i < kMines; ++i) {
    const uint64_t id = 100 + static_cast<uint64_t>(i);
    ASSERT_TRUE(client->SendFrame(FrameVerb::kMine, id, mine_payload).ok());
  }
  for (int i = 0; i < kPings; ++i) {
    const uint64_t id = 200 + static_cast<uint64_t>(i);
    ASSERT_TRUE(client->SendFrame(FrameVerb::kPing, id, "").ok());
  }

  std::map<uint64_t, uint8_t> verbs;
  std::map<uint64_t, std::string> payloads;
  for (int i = 0; i < kMines + kPings; ++i) {
    auto frame = client->ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    const uint64_t id = frame->request_id;
    EXPECT_EQ(verbs.count(id), 0u) << "duplicate response for id " << id;
    verbs[id] = frame->verb;
    payloads[id] = frame->payload;
  }
  ASSERT_EQ(verbs.size(), static_cast<size_t>(kMines + kPings));
  for (int i = 0; i < kMines; ++i) {
    const uint64_t id = 100 + static_cast<uint64_t>(i);
    EXPECT_EQ(verbs[id], static_cast<uint8_t>(FrameVerb::kMine));
    JsonValue mine = Parse(payloads[id]);
    EXPECT_EQ(mine.Find("status")->AsString(), "OK");
    EXPECT_TRUE(mine.Find("found")->AsBool());
  }
  for (int i = 0; i < kPings; ++i) {
    const uint64_t id = 200 + static_cast<uint64_t>(i);
    EXPECT_EQ(verbs[id], static_cast<uint8_t>(FrameVerb::kPing));
    EXPECT_EQ(Parse(payloads[id]).Find("status")->AsString(), "OK");
  }
}

TEST_F(EventServerTest, NdjsonAndBinaryResponsesAreByteIdentical) {
  StartServer();

  // Deterministic requests only (mine responses carry timing floats):
  // the response payload must be byte-identical across wire modes.
  const struct {
    FrameVerb verb;
    std::string payload;
  } kCases[] = {
      {FrameVerb::kPing, R"({"op":"ping"})"},
      {FrameVerb::kSummarize,
       R"({"op":"summarize","entity":"Berlin","k":3})"},
      {FrameVerb::kCandidates,
       R"({"op":"candidates","targets":["Berlin"],"limit":3})"},
      {FrameVerb::kMine,
       R"({"op":"mine","targets":["NoSuchEntityAnywhere"]})"},
  };
  for (const auto& test_case : kCases) {
    auto ndjson = Dial(server_->port());
    ASSERT_TRUE(ndjson.ok()) << ndjson.status().ToString();
    auto line_response = ndjson->LineRoundTrip(test_case.payload);
    ASSERT_TRUE(line_response.ok()) << line_response.status().ToString();

    auto binary = Dial(server_->port());
    ASSERT_TRUE(binary.ok()) << binary.status().ToString();
    ASSERT_TRUE(binary->SendFrame(test_case.verb, 1, test_case.payload).ok());
    auto frame_response = binary->ReadFrame();
    ASSERT_TRUE(frame_response.ok()) << frame_response.status().ToString();
    EXPECT_EQ(frame_response->request_id, 1u);
    EXPECT_EQ(frame_response->payload, *line_response)
        << "wire modes disagree for " << test_case.payload;
  }
}

TEST_F(EventServerTest, UnknownVerbIsARequestLevelError) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->SendFrame(static_cast<FrameVerb>(99), 7, "").ok());
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->request_id, 7u);
  EXPECT_EQ(Parse(frame->payload).Find("status")->AsString(),
            "InvalidArgument");

  // The connection survives a request-level error.
  ASSERT_TRUE(client->SendFrame(FrameVerb::kPing, 8, "").ok());
  frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->request_id, 8u);
  EXPECT_EQ(Parse(frame->payload).Find("status")->AsString(), "OK");
}

TEST_F(EventServerTest, OversizeFrameIsRejectedAndPoisonsTheStream) {
  EventServerOptions options;
  options.max_frame_payload_bytes = 1024;
  StartServer(options);
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // A valid request first, so the poison provably flushes prior work.
  ASSERT_TRUE(client->SendFrame(FrameVerb::kPing, 1, "").ok());
  ASSERT_TRUE(
      client->SendFrame(FrameVerb::kMine, 2, std::string(4096, 'x')).ok());

  std::map<uint64_t, std::string> responses;
  for (auto frame = client->ReadFrame(); frame.ok();
       frame = client->ReadFrame()) {
    responses[frame->request_id] = frame->payload;
  }
  // The admitted ping answered; the oversize frame rejected by id with a
  // stream-level error (verb 0); then EOF.
  ASSERT_EQ(responses.count(1), 1u);
  EXPECT_EQ(Parse(responses[1]).Find("status")->AsString(), "OK");
  ASSERT_EQ(responses.count(2), 1u);
  EXPECT_EQ(Parse(responses[2]).Find("status")->AsString(),
            "InvalidArgument");
  EXPECT_TRUE(client->AtEof());

  // A bad magic poisons the stream before any request id is readable:
  // the error frame carries verb 0 and id 0, and FrameRoundTrip returns
  // it instead of waiting forever for a response to its own id.
  auto torn = Dial(server_->port());
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  ASSERT_TRUE(torn->Send("REMX").ok());
  const auto error = torn->FrameRoundTrip(FrameVerb::kPing, "", 3);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(Parse(*error).Find("status")->AsString(), "InvalidArgument");
}

TEST_F(EventServerTest, OversizeNdjsonLinePoisonsTheConnection) {
  EventServerOptions options;
  options.max_line_bytes = 256;
  StartServer(options);
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // The oversize line arrives complete (newline included) in one burst:
  // the per-line check must reject it even though the leftover tail is
  // empty afterwards.
  std::string oversize = R"({"op":"ping","pad":")";
  oversize += std::string(512, 'x');
  oversize += "\"}";
  JsonValue error = Request(*client, oversize);
  EXPECT_EQ(error.Find("status")->AsString(), "InvalidArgument");
  EXPECT_TRUE(client->AtEof());
}

TEST_F(EventServerTest, UnrecognizedProtocolIsRejected) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Send("GET / HTTP/1.1\r\n\r\n").ok());
  JsonValue error = Parse(client->ReadLine());
  EXPECT_EQ(error.Find("status")->AsString(), "InvalidArgument");
  EXPECT_TRUE(client->AtEof());
}

TEST_F(EventServerTest, BackpressureStillDeliversEverything) {
  EventServerOptions options;
  // A tiny write budget forces pause/resume cycles while the client
  // pipelines without reading.
  options.max_write_buffer_bytes = 512;
  StartServer(options);
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const int kRequests = 64;
  std::string wire;
  for (int i = 0; i < kRequests; ++i) {
    AppendFrame(static_cast<uint8_t>(FrameVerb::kCandidates),
                static_cast<uint64_t>(i),
                R"({"targets":["Berlin"],"limit":5})", &wire);
  }
  // Send everything first, read only afterwards: responses far exceed
  // the write budget, so the server must pause reads and resume as the
  // client drains.
  std::thread sender([&] { EXPECT_TRUE(client->Send(wire).ok()); });
  std::map<uint64_t, std::string> responses;
  while (responses.size() < static_cast<size_t>(kRequests)) {
    auto frame = client->ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(responses.count(frame->request_id), 0u);
    responses[frame->request_id] = frame->payload;
  }
  sender.join();
  for (const auto& [response_id, doc] : responses) {
    EXPECT_EQ(Parse(doc).Find("status")->AsString(), "OK")
        << "id " << response_id;
  }
}

namespace {
/// Counts the bytes the server's recv() calls return (the test client's
/// raw syscalls bypass the hooks) and, once `total` have been read, holds
/// the loop thread at its next epoll_wait until `released`: every request
/// is then received and queued, and none past the ones already
/// dispatched can complete.
class HoldLoopAfterBytes : public io::IoHooks {
 public:
  explicit HoldLoopAfterBytes(size_t total) : total_(total) {}

  ssize_t Recv(int fd, void* buf, size_t len, int flags) override {
    const ssize_t n = io::IoHooks::Recv(fd, buf, len, flags);
    if (n > 0) bytes_.fetch_add(static_cast<size_t>(n));
    return n;
  }

  int EpollWait(int epfd, struct epoll_event* events, int maxevents,
                int timeout_ms) override {
    if (bytes_.load() >= total_) {
      held.store(true);
      while (!released.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return io::IoHooks::EpollWait(epfd, events, maxevents, timeout_ms);
  }

  std::atomic<bool> held{false};
  std::atomic<bool> released{false};

 private:
  const size_t total_;
  std::atomic<size_t> bytes_{0};
};
}  // namespace

TEST_F(EventServerTest, DrainUnderLoadFlushesAdmittedRequests) {
  EventServerOptions options;
  options.dispatch_threads = 2;
  // One frame in flight per connection: the rest wait in the
  // connection's queue, which is the state Drain() must still serve.
  options.max_inflight_per_connection = 1;
  StartServer(options);

  // Load both wire modes, then drain while requests are queued and in
  // flight.
  const int kFrames = 4;
  std::string frames;
  for (int i = 0; i < kFrames; ++i) {
    AppendFrame(static_cast<uint8_t>(FrameVerb::kMine),
                static_cast<uint64_t>(i), R"({"targets":["Berlin"]})",
                &frames);
  }
  const std::string line =
      std::string(R"({"op":"summarize","entity":"Berlin","k":3})") + "\n";
  HoldLoopAfterBytes hold(frames.size() + line.size());
  io::ScopedHooks scoped(&hold);
  auto binary = Dial(server_->port());
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  auto ndjson = Dial(server_->port());
  ASSERT_TRUE(ndjson.ok()) << ndjson.status().ToString();
  ASSERT_TRUE(binary->Send(frames).ok());
  ASSERT_TRUE(ndjson->Send(line).ok());

  // The server has read every byte; frames 1..3 wait behind frame 0.
  // Drain() raises its flag at once; the loop resumes well after that,
  // so it sees the drain with frames still queued.
  while (!hold.held.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread drainer([&] { EXPECT_TRUE(server_->Drain(30.0)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  hold.released.store(true);

  // Every received request's response must still arrive, then EOF.
  std::map<uint64_t, std::string> responses;
  while (responses.size() < static_cast<size_t>(kFrames)) {
    auto frame = binary->ReadFrame();
    if (!frame.ok()) break;
    responses[frame->request_id] = frame->payload;
  }
  EXPECT_EQ(responses.size(), static_cast<size_t>(kFrames));
  for (const auto& [response_id, doc] : responses) {
    EXPECT_EQ(Parse(doc).Find("status")->AsString(), "OK")
        << "id " << response_id;
  }
  EXPECT_TRUE(binary->AtEof());

  JsonValue summary = Parse(ndjson->ReadLine());
  EXPECT_EQ(summary.Find("status")->AsString(), "OK");
  EXPECT_TRUE(ndjson->AtEof());

  drainer.join();
  server_.reset();  // already stopped by Drain
}

TEST_F(EventServerTest, CountersVerbExportsServiceCounters) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(
      client->SendFrame(FrameVerb::kMine, 1, R"({"targets":["Berlin"]})").ok());
  ASSERT_TRUE(client->ReadFrame().ok());

  ASSERT_TRUE(client->SendFrame(FrameVerb::kCounters, 2, "").ok());
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->request_id, 2u);
  JsonValue counters = Parse(frame->payload);
  EXPECT_EQ(counters.Find("status")->AsString(), "OK");
  EXPECT_GE(counters.Find("admitted")->AsNumber(), 1.0);
  EXPECT_GE(counters.Find("completed_ok")->AsNumber(), 1.0);
  // The new aggregates: one mine visited nodes and took measurable time.
  EXPECT_GT(counters.Find("nodes_visited_total")->AsNumber(), 0.0);
  ASSERT_NE(counters.Find("mine_micros_total"), nullptr);
  ASSERT_NE(counters.Find("accept_errors_retried"), nullptr);
  ASSERT_NE(counters.Find("accept_errors_fatal"), nullptr);
}

TEST_F(EventServerTest, EofWithPipelinedRequestsStillAnswersThem) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::string wire;
  for (uint64_t id = 1; id <= 4; ++id) {
    AppendFrame(static_cast<uint8_t>(FrameVerb::kPing), id, "", &wire);
  }
  ASSERT_TRUE(client->Send(wire).ok());
  client->ShutdownWrite();  // half-close: EOF after the pipelined bytes

  std::map<uint64_t, std::string> responses;
  for (auto frame = client->ReadFrame(); frame.ok();
       frame = client->ReadFrame()) {
    responses[frame->request_id] = frame->payload;
  }
  EXPECT_EQ(responses.size(), 4u);
}

// --- connection lifecycle timeouts ------------------------------------------

TEST_F(EventServerTest, SlowLorisPartialRequestIsReapedOnIdleTimeout) {
  EventServerOptions options;
  options.idle_timeout_ms = 120;
  StartServer(options);
  auto loris = Dial(server_->port());
  ASSERT_TRUE(loris.ok()) << loris.status().ToString();
  // A torn NDJSON request that never completes: no newline, then
  // silence. Without the idle timeout this connection lives forever.
  ASSERT_TRUE(loris->Send(R"({"op":"pi)").ok());

  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(loris->AtEof());  // blocks until the server reaps us
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "reap took too long";
  EXPECT_EQ(service_->counters().connections_reaped_idle, 1u);
  EXPECT_EQ(service_->counters().connections_reaped_write_stall, 0u);
  ExpectConnectionsDrain();
}

TEST_F(EventServerTest, SlowLorisReapLeavesHealthyPeersUnaffected) {
  EventServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  auto loris = Dial(server_->port());
  ASSERT_TRUE(loris.ok()) << loris.status().ToString();
  // A torn binary frame header, then silence.
  ASSERT_TRUE(loris->Send("R").ok());

  // A healthy peer keeps round-tripping the whole time the loris ages
  // out; every request must answer promptly (its activity clock resets
  // per round trip, so it is never reaped).
  auto healthy = Dial(server_->port());
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  std::atomic<bool> loris_gone{false};
  std::thread watcher([&] {
    loris_gone.store(loris->AtEof());
  });
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(Request(*healthy, R"({"op":"ping"})").Find("status")->AsString(),
              "OK");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  watcher.join();
  EXPECT_TRUE(loris_gone.load());
  EXPECT_GE(service_->counters().connections_reaped_idle, 1u);
  // The healthy connection survived the sweep.
  EXPECT_EQ(Request(*healthy, R"({"op":"ping"})").Find("status")->AsString(),
            "OK");
}

TEST_F(EventServerTest, HandshakeTimeoutReapsProtocollessConnections) {
  EventServerOptions options;
  options.handshake_timeout_ms = 100;
  StartServer(options);
  auto mute = Dial(server_->port());  // connects, never sends a byte
  ASSERT_TRUE(mute.ok()) << mute.status().ToString();
  EXPECT_TRUE(mute->AtEof());
  EXPECT_EQ(service_->counters().connections_reaped_idle, 1u);

  // A connection that *did* finish the protocol sniff is exempt.
  auto talker = Dial(server_->port());
  ASSERT_TRUE(talker.ok()) << talker.status().ToString();
  EXPECT_EQ(Request(*talker, R"({"op":"ping"})").Find("status")->AsString(),
            "OK");
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(Request(*talker, R"({"op":"ping"})").Find("status")->AsString(),
            "OK");
}

namespace {
/// Blocks every server-side send with EAGAIN while leaving reads (and
/// the test client's raw syscalls) untouched — simulates a peer whose
/// receive window never opens.
class BlockSends : public io::IoHooks {
 public:
  ssize_t Send(int fd, const void* buf, size_t len, int flags) override {
    (void)fd;
    (void)buf;
    (void)len;
    (void)flags;
    errno = EAGAIN;
    return -1;
  }
};
}  // namespace

TEST_F(EventServerTest, WriteStallReapsAPeerThatStopsReading) {
  EventServerOptions options;
  options.write_stall_timeout_ms = 150;
  StartServer(options);
  BlockSends block;
  io::ScopedHooks scoped(&block);

  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->SendLine(R"({"op":"ping"})").ok());
  // The response is computed but no byte of it ever leaves the write
  // buffer; after 150ms of zero progress the connection is reaped.
  EXPECT_TRUE(client->AtEof());
  EXPECT_EQ(service_->counters().connections_reaped_write_stall, 1u);
  EXPECT_EQ(service_->counters().connections_reaped_idle, 0u);
  ExpectConnectionsDrain();
}


// --- the NDJSON line protocol -----------------------------------------------
//
// The line protocol's own contract on the epoll core: one test per
// behaviour a line-protocol client relies on (the suite name is the one
// these checks have always run under).

class LineServerTest : public EventServerTest {};

TEST_F(LineServerTest, PingMineSummarizeStatsOverOneConnection) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  EXPECT_EQ(Request(*client, R"({"op":"ping"})").Find("status")->AsString(),
            "OK");

  JsonValue mine = Request(
      *client, R"({"op":"mine","targets":["Berlin"],"verbalize":true})");
  EXPECT_EQ(mine.Find("status")->AsString(), "OK");
  EXPECT_TRUE(mine.Find("found")->AsBool());
  EXPECT_FALSE(mine.Find("expression")->AsString().empty());
  EXPECT_FALSE(mine.Find("verbalization")->AsString().empty());
  EXPECT_GT(mine.Find("cost")->AsNumber(), 0.0);

  JsonValue summary =
      Request(*client, R"({"op":"summarize","entity":"Berlin","k":3})");
  EXPECT_EQ(summary.Find("status")->AsString(), "OK");
  EXPECT_EQ(summary.Find("entity")->AsString(), "Berlin");
  EXPECT_GT(summary.Find("items")->items().size(), 0u);

  JsonValue batch = Request(
      *client, R"({"op":"batch_mine","target_sets":[["Berlin"],["Hamburg"]]})");
  EXPECT_EQ(batch.Find("status")->AsString(), "OK");
  EXPECT_EQ(batch.Find("results")->items().size(), 2u);

  JsonValue candidates = Request(
      *client, R"({"op":"candidates","targets":["Berlin"],"limit":3})");
  EXPECT_EQ(candidates.Find("status")->AsString(), "OK");
  EXPECT_EQ(candidates.Find("candidates")->items().size(), 3u);

  JsonValue stats = Request(*client, R"({"op":"stats"})");
  EXPECT_EQ(stats.Find("status")->AsString(), "OK");
  // ping/stats/candidates bypass admission; the mine, the summarize and
  // the batch were admitted.
  EXPECT_EQ(stats.Find("admitted")->AsNumber(), 3.0);
  EXPECT_GT(stats.Find("facts")->AsNumber(), 0.0);
}

TEST_F(LineServerTest, ServesConcurrentConnections) {
  StartServer();
  auto a = Dial(server_->port());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = Dial(server_->port());
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // Both requests are on the wire before either response is read.
  ASSERT_TRUE(a->SendLine(R"({"op":"mine","targets":["Berlin"]})").ok());
  ASSERT_TRUE(b->SendLine(R"({"op":"mine","targets":["Hamburg"]})").ok());
  EXPECT_EQ(Parse(b->ReadLine()).Find("status")->AsString(), "OK");
  EXPECT_EQ(Parse(a->ReadLine()).Find("status")->AsString(), "OK");
}

TEST_F(LineServerTest, ErrorsAreInBandAndConnectionSurvives) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  EXPECT_EQ(Request(*client, "{not json").Find("status")->AsString(),
            "ParseError");
  EXPECT_EQ(Request(*client, R"({"op":"fly"})").Find("status")->AsString(),
            "InvalidArgument");
  EXPECT_EQ(Request(*client, R"({"op":"mine","targets":["Atlantis"]})")
                .Find("status")
                ->AsString(),
            "NotFound");

  // The connection still answers after three error responses.
  EXPECT_EQ(Request(*client, R"({"op":"ping"})").Find("status")->AsString(),
            "OK");
}

TEST_F(LineServerTest, DeadlineTravelsOverTheWire) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // deadline_ms of 0.000001 (sub-microsecond) expires before mining.
  JsonValue response = Request(
      *client, R"({"op":"mine","targets":["Berlin"],"deadline_ms":0.000001})");
  EXPECT_EQ(response.Find("status")->AsString(), "DeadlineExceeded");
}

TEST_F(LineServerTest, OversizeCompleteLinePoisonsTheConnection) {
  EventServerOptions options;
  options.max_line_bytes = 128;
  StartServer(options);
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // A valid line ahead of the oversize one is still answered; the
  // oversize line (newline included, so a complete line) is rejected and
  // the server closes its end.
  std::string oversize = R"({"op":"ping","pad":")";
  oversize += std::string(512, 'x');
  oversize += "\"}";
  ASSERT_TRUE(
      client->Send(std::string(R"({"op":"ping"})") + "\n" + oversize + "\n")
          .ok());
  EXPECT_EQ(Parse(client->ReadLine()).Find("status")->AsString(), "OK");
  EXPECT_EQ(Parse(client->ReadLine()).Find("status")->AsString(),
            "InvalidArgument");
  EXPECT_TRUE(client->AtEof());
}

TEST_F(LineServerTest, DrainFlushesBufferedResponsesThenCloses) {
  StartServer();
  auto client = Dial(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(Request(*client, R"({"op":"ping"})").Find("status")->AsString(),
            "OK");

  // A request already admitted when Drain() starts must still be
  // answered; afterwards the server closes its end and refuses new
  // connections.
  ASSERT_TRUE(client->SendLine(R"({"op":"mine","targets":["Berlin"]})").ok());
  while (service_->counters().admitted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(server_->Drain(/*grace_seconds=*/10.0));

  EXPECT_EQ(Parse(client->ReadLine()).Find("status")->AsString(), "OK");
  EXPECT_TRUE(client->AtEof());

  // The listener is closed: connecting is an IoError.
  const auto late = WireClient::Connect("127.0.0.1", server_->port());
  EXPECT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsIoError()) << late.status().ToString();
  server_.reset();  // already stopped by Drain
}

}  // namespace
}  // namespace remi
