// JSON mapping of the Service request/response contracts — the payloads
// of both wire protocols the EventServer serves (tools/remi_server): the
// newline-delimited-JSON line protocol and the binary frames. Requests map
// 1:1 onto the structs in service.h; the codec only translates, the
// Service enforces the contracts.
//
// Request lines (one JSON object per line):
//
//   {"op":"mine","targets":["Berlin","Hamburg"],"max_exceptions":0,
//    "verbalize":true,"deadline_ms":500,"metric":"pr","language":"standard"}
//   {"op":"batch_mine","target_sets":[["Berlin"],["Hamburg","Munich"]],...}
//   {"op":"summarize","entity":"Berlin","k":5,"metric":"fr"}
//   {"op":"candidates","targets":["Berlin"],"limit":10}
//   {"op":"stats"}
//   {"op":"ping"}
//   {"op":"reload","path":"/data/kb.rkf2","lenient":true}
//   {"op":"attach","kb":"dbpedia","path":"/data/dbpedia.rkf2",
//    "max_in_flight":2,"max_queued":8}
//   {"op":"detach","kb":"dbpedia"}
//   {"op":"list_kbs"}
//
// Multi-tenant: every request may carry a "kb" field (string) naming the
// KB to serve from; "" or absent = the unnamed default tenant, so every
// pre-existing client keeps working unchanged. Unknown names come back as
// an in-band NotFound response. "stats" with a "kb" returns that tenant's
// counter slice; without one it returns the service-wide counters plus a
// per-tenant breakdown ("tenants"). On binary connections the kUseKb
// handshake sets a connection default that fills in for requests without
// an explicit "kb" (the transport passes it as `default_kb` below); an
// explicit "kb" — including "" — always wins over the handshake default.
//
// Shared optional knobs: "deadline_ms" (number) → RequestControl,
// "metric" ("fr"|"pr") → CostModelOptions override, "language"
// ("extended"|"standard") → EnumeratorOptions override (other bias knobs
// at their defaults). Targets are lexical forms (full IRIs or unambiguous
// suffixes); numeric entries are taken as dictionary ids.
//
// Every response is one JSON object with at least {"status": "<Code>"}
// ("OK" for success) and, for non-OK statuses, a "message". Execution
// outcomes (DeadlineExceeded, Cancelled) come back with the partial stats
// the run accumulated, mirroring MineResponse::status. ResourceExhausted
// responses (admission overflow) additionally carry "retry_after_ms", a
// client back-off hint. "reload" responses report the serving generation
// after the call — unchanged when the candidate was rejected (reload
// failures are in-band: Corruption/ParseError/IoError, connection stays
// open, prior generation keeps serving).
//
// Response serialization never touches the live KB: mine/batch responses
// carry labels and expression text pre-rendered under the generation the
// request was pinned to, so a concurrent "reload" cannot skew or corrupt
// bytes already being written out.

#pragma once

#include <string>
#include <string_view>

#include "service/service.h"
#include "util/json.h"

namespace remi {

// --- request parsing (JSON -> contract structs) ------------------------------

Result<MineRequest> MineRequestFromJson(const JsonValue& v);
Result<BatchMineRequest> BatchMineRequestFromJson(const JsonValue& v);
Result<SummarizeRequest> SummarizeRequestFromJson(const JsonValue& v);
Result<CandidatesRequest> CandidatesRequestFromJson(const JsonValue& v);

// --- response serialization (contract structs -> JSON) -----------------------

/// Self-contained: reads only the pre-rendered labels/text carried by the
/// response (its pinned generation), never the service's live KB.
JsonValue MineResponseToJson(const MineResponse& response);
JsonValue BatchMineResponseToJson(const BatchMineResponse& response);
JsonValue SummarizeResponseToJson(const SummarizeResponse& response);
JsonValue CountersToJson(const Service& service);
/// One tenant's counter slice — the "stats" response when the request
/// names a KB.
JsonValue TenantCountersToJson(const std::string& kb,
                               const TenantCounters& counters);
JsonValue ReloadKbResponseToJson(const ReloadKbResponse& response);
/// {"status": "<Code>", "message": "..."} (message omitted when empty).
/// ResourceExhausted additionally carries "retry_after_ms" so well-behaved
/// clients back off instead of hammering a full admission queue; with a
/// `service` the hint is Service::RetryAfterMsHint(kb) — derived from the
/// named tenant's admission state when it has a quota, the global state
/// otherwise, jittered — without one it falls back to a flat 100 ms.
JsonValue StatusToJson(const Status& status, const Service* service = nullptr,
                       const std::string& kb = {});

/// Dispatches one parsed request to `service` and serializes the
/// response (no trailing newline). The shared core of the NDJSON and
/// binary-frame entry points below — both wire modes produce
/// byte-identical response documents because both end here. `default_kb`
/// is the connection's handshake tenant (binary kUseKb); it fills in for
/// requests whose payload has no "kb" member.
std::string DispatchRequest(Service* service, std::string_view op,
                            const JsonValue& parsed,
                            const CancellationToken& cancel = {},
                            const std::string& default_kb = {});

/// Parses one request line, dispatches it to `service`, and serializes
/// the response. Never fails: malformed input comes back as an
/// InvalidArgument/ParseError status object. The returned string has no
/// trailing newline (the transport adds it). `cancel` is attached to
/// every dispatched request — the transport's server-wide cancellation
/// token, so shutdown can interrupt deadline-less in-flight work.
std::string HandleRequestLine(Service* service, std::string_view line,
                              const CancellationToken& cancel = {},
                              const std::string& default_kb = {});

/// The binary-frame twin of HandleRequestLine: maps the frame verb to its
/// op (FrameVerbToOp), parses the JSON payload (empty == "{}"), rejects a
/// payload "op" that contradicts the verb, and dispatches. Returns the
/// response *payload*; the transport wraps it in a response frame echoing
/// the request id. Never fails out-of-band.
std::string HandleFramePayload(Service* service, uint8_t verb,
                               std::string_view payload,
                               const CancellationToken& cancel = {},
                               const std::string& default_kb = {});

}  // namespace remi
