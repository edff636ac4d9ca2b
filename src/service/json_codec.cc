#include "service/json_codec.h"

#include <cmath>
#include <limits>

#include "service/frame_codec.h"

namespace remi {

namespace {

/// True iff `d` is a finite integer in [0, max] — the precondition for a
/// defined-behavior cast to an unsigned integral type. Rejects the
/// infinities a remote client can smuggle in via 1e999.
bool IsNonNegativeIntegerUpTo(double d, double max) {
  return std::isfinite(d) && d >= 0 && d <= max && d == std::floor(d);
}

/// Reads the wire "deadline_ms" knob into a RequestControl. (The other
/// shared knobs — metric, language, max_exceptions, verbalize — have
/// their own Read* helpers below.)
Status ReadControl(const JsonValue& v, RequestControl* control) {
  if (const JsonValue* deadline = v.Find("deadline_ms")) {
    // Bounded above (~31.7 years) so Deadline::AfterSeconds's
    // duration_cast can never overflow the clock's integral rep —
    // 1e999 parses to +inf and must be rejected, not cast.
    constexpr double kMaxDeadlineMs = 1e12;
    if (!deadline->is_number() || !std::isfinite(deadline->AsNumber()) ||
        deadline->AsNumber() < 0 ||
        deadline->AsNumber() > kMaxDeadlineMs) {
      return Status::InvalidArgument(
          "deadline_ms must be a finite number in [0, 1e12]");
    }
    control->deadline_seconds = deadline->AsNumber() / 1000.0;
  }
  return Status::OK();
}

Status ReadCostOverride(const JsonValue& v,
                        std::optional<CostModelOptions>* cost) {
  const JsonValue* metric = v.Find("metric");
  if (metric == nullptr) return Status::OK();
  if (!metric->is_string()) {
    return Status::InvalidArgument("metric must be \"fr\" or \"pr\"");
  }
  CostModelOptions options;
  if (metric->AsString() == "fr") {
    options.metric = ProminenceMetric::kFrequency;
  } else if (metric->AsString() == "pr") {
    options.metric = ProminenceMetric::kPageRank;
  } else {
    return Status::InvalidArgument("metric must be \"fr\" or \"pr\"");
  }
  *cost = options;
  return Status::OK();
}

Status ReadLanguageOverride(const JsonValue& v,
                            std::optional<EnumeratorOptions>* enumerator) {
  const JsonValue* language = v.Find("language");
  if (language == nullptr) return Status::OK();
  if (!language->is_string()) {
    return Status::InvalidArgument(
        "language must be \"extended\" or \"standard\"");
  }
  EnumeratorOptions options;
  if (language->AsString() == "standard") {
    options.extended_language = false;
  } else if (language->AsString() != "extended") {
    return Status::InvalidArgument(
        "language must be \"extended\" or \"standard\"");
  }
  *enumerator = options;
  return Status::OK();
}

Status ReadSize(const JsonValue& v, const char* key, size_t* out) {
  if (const JsonValue* value = v.Find(key)) {
    if (!value->is_number() ||
        !IsNonNegativeIntegerUpTo(value->AsNumber(), 9e15)) {
      return Status::InvalidArgument(std::string(key) +
                                     " must be a non-negative integer");
    }
    *out = static_cast<size_t>(value->AsNumber());
  }
  return Status::OK();
}

Status ReadBool(const JsonValue& v, const char* key, bool* out) {
  if (const JsonValue* value = v.Find(key)) {
    if (!value->is_bool()) {
      return Status::InvalidArgument(std::string(key) + " must be a bool");
    }
    *out = value->AsBool();
  }
  return Status::OK();
}

/// The multi-tenant "kb" knob: which named KB serves the request
/// (absent or "" = the default tenant). Only writes *out when present,
/// so a transport-level default already in *out survives omission but
/// an explicit "kb" — including "" — wins.
Status ReadKb(const JsonValue& v, std::string* out) {
  if (const JsonValue* value = v.Find("kb")) {
    if (!value->is_string()) {
      return Status::InvalidArgument("kb must be a string (KB name)");
    }
    *out = value->AsString();
  }
  return Status::OK();
}

/// The optional per-tenant quota knobs of attach/catalog requests.
/// `*quota` stays nullopt when neither key is present (= use the
/// service's default quota).
Status ReadQuota(const JsonValue& v, std::optional<TenantQuota>* quota) {
  if (v.Find("max_in_flight") == nullptr && v.Find("max_queued") == nullptr) {
    return Status::OK();
  }
  TenantQuota q;
  REMI_RETURN_NOT_OK(ReadSize(v, "max_in_flight", &q.max_in_flight));
  REMI_RETURN_NOT_OK(ReadSize(v, "max_queued", &q.max_queued));
  *quota = q;
  return Status::OK();
}

/// Sets the request-ledger fields onto `out`: the one field list shared
/// by the service-wide and the per-tenant counter documents.
void SetLedgerFields(const RequestLedger& c, JsonValue* out) {
  for (const LedgerField& field : kLedgerFields) {
    out->Set(field.key,
             JsonValue::Number(static_cast<double>(c.*field.member)));
  }
}

/// Sets one tenant's counter slice onto `out`: its ledger, admission
/// gauges and serving generation.
void SetTenantCounterFields(const TenantCounters& c, JsonValue* out) {
  SetLedgerFields(c, out);
  out->Set("in_flight", JsonValue::Number(static_cast<double>(c.in_flight)));
  out->Set("queued", JsonValue::Number(static_cast<double>(c.queued)));
  out->Set("peak_in_flight",
           JsonValue::Number(static_cast<double>(c.peak_in_flight)));
  out->Set("generation",
           JsonValue::Number(static_cast<double>(c.generation)));
}

/// One target array: strings are lexical forms, numbers are raw ids.
Status ReadTargetSpec(const JsonValue& array, TargetSpec* spec) {
  if (!array.is_array()) {
    return Status::InvalidArgument("targets must be an array");
  }
  for (const JsonValue& item : array.items()) {
    if (item.is_string()) {
      spec->names.push_back(item.AsString());
    } else if (item.is_number() &&
               IsNonNegativeIntegerUpTo(
                   item.AsNumber(),
                   static_cast<double>(
                       std::numeric_limits<TermId>::max()))) {
      spec->ids.push_back(static_cast<TermId>(item.AsNumber()));
    } else {
      return Status::InvalidArgument(
          "targets must be strings (lexical forms) or non-negative "
          "integer ids in the TermId range");
    }
  }
  return Status::OK();
}

JsonValue StatsToJson(const RemiStats& stats, const ServiceStats& service) {
  JsonValue out = JsonValue::Object();
  out.Set("common_subgraphs",
          JsonValue::Number(static_cast<double>(stats.num_common_subgraphs)));
  out.Set("nodes_visited",
          JsonValue::Number(static_cast<double>(stats.nodes_visited)));
  out.Set("cache_hits",
          JsonValue::Number(static_cast<double>(stats.eval.cache_hits)));
  // Zero-allocation kernel counters (README "Search kernel & memory
  // layout"): how the search paid for its nodes.
  out.Set("count_only_prunes",
          JsonValue::Number(static_cast<double>(stats.count_only_prunes)));
  out.Set("arena_frames_reused",
          JsonValue::Number(static_cast<double>(stats.arena_frames_reused)));
  out.Set("pinned_queue_bytes",
          JsonValue::Number(static_cast<double>(stats.pinned_queue_bytes)));
  out.Set("dense_twin_bytes",
          JsonValue::Number(static_cast<double>(stats.dense_twin_bytes)));
  out.Set("search_cache_lookups",
          JsonValue::Number(static_cast<double>(stats.search_cache_lookups)));
  out.Set("queue_wait_seconds",
          JsonValue::Number(service.queue_wait_seconds));
  out.Set("mine_seconds", JsonValue::Number(service.mine_seconds));
  return out;
}

}  // namespace

Result<MineRequest> MineRequestFromJson(const JsonValue& v) {
  MineRequest request;
  const JsonValue* targets = v.Find("targets");
  if (targets == nullptr) {
    return Status::InvalidArgument("mine request needs \"targets\"");
  }
  REMI_RETURN_NOT_OK(ReadTargetSpec(*targets, &request.targets));
  REMI_RETURN_NOT_OK(ReadKb(v, &request.kb));
  REMI_RETURN_NOT_OK(ReadSize(v, "max_exceptions", &request.max_exceptions));
  REMI_RETURN_NOT_OK(ReadBool(v, "verbalize", &request.verbalize));
  REMI_RETURN_NOT_OK(ReadCostOverride(v, &request.cost));
  REMI_RETURN_NOT_OK(ReadLanguageOverride(v, &request.enumerator));
  REMI_RETURN_NOT_OK(ReadControl(v, &request.control));
  return request;
}

Result<BatchMineRequest> BatchMineRequestFromJson(const JsonValue& v) {
  BatchMineRequest request;
  const JsonValue* sets = v.Find("target_sets");
  if (sets == nullptr || !sets->is_array()) {
    return Status::InvalidArgument(
        "batch_mine request needs \"target_sets\" (array of arrays)");
  }
  for (const JsonValue& set : sets->items()) {
    TargetSpec spec;
    REMI_RETURN_NOT_OK(ReadTargetSpec(set, &spec));
    request.target_sets.push_back(std::move(spec));
  }
  REMI_RETURN_NOT_OK(ReadKb(v, &request.kb));
  REMI_RETURN_NOT_OK(ReadSize(v, "max_exceptions", &request.max_exceptions));
  REMI_RETURN_NOT_OK(ReadBool(v, "verbalize", &request.verbalize));
  REMI_RETURN_NOT_OK(ReadCostOverride(v, &request.cost));
  REMI_RETURN_NOT_OK(ReadLanguageOverride(v, &request.enumerator));
  REMI_RETURN_NOT_OK(ReadControl(v, &request.control));
  return request;
}

Result<SummarizeRequest> SummarizeRequestFromJson(const JsonValue& v) {
  SummarizeRequest request;
  const JsonValue* entity = v.Find("entity");
  if (entity == nullptr || !entity->is_string()) {
    return Status::InvalidArgument(
        "summarize request needs \"entity\" (string)");
  }
  request.entity.names.push_back(entity->AsString());
  REMI_RETURN_NOT_OK(ReadKb(v, &request.kb));
  REMI_RETURN_NOT_OK(ReadSize(v, "k", &request.k));
  std::optional<CostModelOptions> cost;
  REMI_RETURN_NOT_OK(ReadCostOverride(v, &cost));
  if (cost.has_value()) request.metric = cost->metric;
  REMI_RETURN_NOT_OK(ReadControl(v, &request.control));
  return request;
}

Result<CandidatesRequest> CandidatesRequestFromJson(const JsonValue& v) {
  CandidatesRequest request;
  const JsonValue* targets = v.Find("targets");
  if (targets == nullptr) {
    return Status::InvalidArgument("candidates request needs \"targets\"");
  }
  REMI_RETURN_NOT_OK(ReadTargetSpec(*targets, &request.targets));
  REMI_RETURN_NOT_OK(ReadKb(v, &request.kb));
  REMI_RETURN_NOT_OK(ReadSize(v, "limit", &request.limit));
  REMI_RETURN_NOT_OK(ReadCostOverride(v, &request.cost));
  REMI_RETURN_NOT_OK(ReadLanguageOverride(v, &request.enumerator));
  REMI_RETURN_NOT_OK(ReadControl(v, &request.control));
  return request;
}

JsonValue StatusToJson(const Status& status, const Service* service,
                       const std::string& kb) {
  JsonValue out = JsonValue::Object();
  out.Set("status", JsonValue::String(StatusCodeToString(status.code())));
  if (!status.message().empty()) {
    out.Set("message", JsonValue::String(status.message()));
  }
  if (status.IsResourceExhausted()) {
    // Admission queue is full: tell well-behaved clients when to come
    // back. The hint is derived from live admission state (measured mean
    // service time × queue depth / slots, jittered ±25%), so it grows as
    // the queue deepens instead of inviting a fixed-cadence retry storm.
    // A quota-throttled tenant's hint reflects *its* queue, not the
    // global one (Service::RetryAfterMsHint(kb)). The 100 ms fallback
    // only covers serialization paths with no service at hand.
    const uint64_t hint =
        service != nullptr ? service->RetryAfterMsHint(kb) : 100;
    out.Set("retry_after_ms",
            JsonValue::Number(static_cast<double>(hint)));
  }
  return out;
}

JsonValue MineResponseToJson(const MineResponse& response) {
  JsonValue out = StatusToJson(response.status);
  out.Set("found", JsonValue::Bool(response.found));
  // target_labels were rendered under the request's pinned generation;
  // resolving response.targets against the live KB here instead would
  // race with a concurrent reload (the ids index the *old* dictionary).
  JsonValue targets = JsonValue::Array();
  for (const std::string& label : response.target_labels) {
    targets.Append(JsonValue::String(label));
  }
  out.Set("targets", std::move(targets));
  if (response.found) {
    out.Set("cost", JsonValue::Number(response.cost));
    out.Set("expression", JsonValue::String(response.expression_text));
    if (!response.verbalization.empty()) {
      out.Set("verbalization", JsonValue::String(response.verbalization));
    }
    if (!response.exception_labels.empty()) {
      JsonValue exceptions = JsonValue::Array();
      for (const std::string& e : response.exception_labels) {
        exceptions.Append(JsonValue::String(e));
      }
      out.Set("exceptions", std::move(exceptions));
    }
  }
  out.Set("stats", StatsToJson(response.stats, response.service));
  return out;
}

JsonValue BatchMineResponseToJson(const BatchMineResponse& response) {
  JsonValue out = StatusToJson(response.status);
  JsonValue results = JsonValue::Array();
  for (const MineResponse& item : response.results) {
    results.Append(MineResponseToJson(item));
  }
  out.Set("results", std::move(results));
  out.Set("queue_wait_seconds",
          JsonValue::Number(response.service.queue_wait_seconds));
  out.Set("mine_seconds", JsonValue::Number(response.service.mine_seconds));
  return out;
}

JsonValue SummarizeResponseToJson(const SummarizeResponse& response) {
  JsonValue out = StatusToJson(response.status);
  out.Set("entity", JsonValue::String(response.entity_label));
  JsonValue items = JsonValue::Array();
  for (const std::string& label : response.item_labels) {
    items.Append(JsonValue::String(label));
  }
  out.Set("items", std::move(items));
  return out;
}

JsonValue CountersToJson(const Service& service) {
  const ServiceCounters counters = service.counters();
  JsonValue out = StatusToJson(Status::OK());
  // Pin the current generation for the three KB reads: a reload between
  // them must not mix sizes of two different KBs (or retire the one being
  // read from under us).
  const std::shared_ptr<const KnowledgeBase> kb = service.SharedKb();
  out.Set("facts",
          JsonValue::Number(static_cast<double>(kb->NumFacts())));
  out.Set("entities",
          JsonValue::Number(static_cast<double>(kb->NumEntities())));
  out.Set("predicates", JsonValue::Number(static_cast<double>(
                            kb->NumPredicates())));
  SetLedgerFields(counters, &out);
  out.Set("in_flight",
          JsonValue::Number(static_cast<double>(counters.in_flight)));
  out.Set("peak_in_flight", JsonValue::Number(
                                static_cast<double>(counters.peak_in_flight)));
  out.Set("generation",
          JsonValue::Number(static_cast<double>(counters.generation)));
  out.Set("active_generations", JsonValue::Number(static_cast<double>(
                                    counters.active_generations)));
  out.Set("accept_errors_retried",
          JsonValue::Number(
              static_cast<double>(counters.accept_errors_retried)));
  out.Set("accept_errors_fatal",
          JsonValue::Number(static_cast<double>(counters.accept_errors_fatal)));
  out.Set("brownout_rejected",
          JsonValue::Number(static_cast<double>(counters.brownout_rejected)));
  out.Set("brownout_active", JsonValue::Bool(counters.brownout_active));
  out.Set("connections_reaped_idle",
          JsonValue::Number(
              static_cast<double>(counters.connections_reaped_idle)));
  out.Set("connections_reaped_write_stall",
          JsonValue::Number(static_cast<double>(
              counters.connections_reaped_write_stall)));
  // --- multi-tenant gauges + per-tenant breakdown ---
  out.Set("tenants_active",
          JsonValue::Number(static_cast<double>(counters.tenants_active)));
  // Same value as active_generations, under the registry-level name the
  // runbook uses: epochs still alive across ALL tenants.
  out.Set("epochs_live_total", JsonValue::Number(static_cast<double>(
                                   counters.active_generations)));
  JsonValue tenants = JsonValue::Object();
  for (const KbInfo& info : service.ListKbs()) {
    if (!info.open) continue;  // lazy catalog entries have served nothing
    auto slice = service.CountersFor(info.name);
    if (!slice.ok()) continue;  // raced with a concurrent detach
    JsonValue entry = JsonValue::Object();
    SetTenantCounterFields(*slice, &entry);
    tenants.Set(info.name, std::move(entry));
  }
  out.Set("tenants", std::move(tenants));
  return out;
}

JsonValue TenantCountersToJson(const std::string& kb,
                               const TenantCounters& counters) {
  JsonValue out = StatusToJson(Status::OK());
  out.Set("kb", JsonValue::String(kb));
  SetTenantCounterFields(counters, &out);
  return out;
}

JsonValue ReloadKbResponseToJson(const ReloadKbResponse& response) {
  JsonValue out = StatusToJson(response.status);
  out.Set("generation",
          JsonValue::Number(static_cast<double>(response.generation)));
  out.Set("facts", JsonValue::Number(static_cast<double>(response.facts)));
  out.Set("entities",
          JsonValue::Number(static_cast<double>(response.entities)));
  if (response.parse_skipped_lines > 0) {
    out.Set("parse_skipped_lines",
            JsonValue::Number(
                static_cast<double>(response.parse_skipped_lines)));
  }
  out.Set("load_seconds", JsonValue::Number(response.load_seconds));
  out.Set("warm_seconds", JsonValue::Number(response.warm_seconds));
  out.Set("warmed_entries",
          JsonValue::Number(static_cast<double>(response.warmed_entries)));
  return out;
}

std::string DispatchRequest(Service* service, std::string_view op,
                            const JsonValue& parsed,
                            const CancellationToken& cancel,
                            const std::string& default_kb) {
  // The connection's handshake tenant fills in only when the payload has
  // no "kb" member — an explicit "kb" (even "") wins.
  const bool has_kb = parsed.Find("kb") != nullptr;
  if (op == "ping") {
    return StatusToJson(Status::OK()).Dump();
  }
  if (op == "stats") {
    std::string kb = default_kb;
    const Status kb_status = ReadKb(parsed, &kb);
    if (!kb_status.ok()) return StatusToJson(kb_status).Dump();
    if (kb.empty()) return CountersToJson(*service).Dump();
    auto slice = service->CountersFor(kb);
    if (!slice.ok()) return StatusToJson(slice.status()).Dump();
    return TenantCountersToJson(kb, *slice).Dump();
  }
  if (op == "mine") {
    auto request = MineRequestFromJson(parsed);
    if (!request.ok()) return StatusToJson(request.status()).Dump();
    if (!has_kb) request->kb = default_kb;
    request->control.cancel = cancel;
    auto response = service->Mine(*request);
    if (!response.ok()) {
      return StatusToJson(response.status(), service, request->kb).Dump();
    }
    return MineResponseToJson(*response).Dump();
  }
  if (op == "batch_mine") {
    auto request = BatchMineRequestFromJson(parsed);
    if (!request.ok()) return StatusToJson(request.status()).Dump();
    if (!has_kb) request->kb = default_kb;
    request->control.cancel = cancel;
    auto response = service->BatchMine(*request);
    if (!response.ok()) {
      return StatusToJson(response.status(), service, request->kb).Dump();
    }
    return BatchMineResponseToJson(*response).Dump();
  }
  if (op == "summarize") {
    auto request = SummarizeRequestFromJson(parsed);
    if (!request.ok()) return StatusToJson(request.status()).Dump();
    if (!has_kb) request->kb = default_kb;
    request->control.cancel = cancel;
    auto response = service->Summarize(*request);
    if (!response.ok()) {
      return StatusToJson(response.status(), service, request->kb).Dump();
    }
    return SummarizeResponseToJson(*response).Dump();
  }
  if (op == "candidates") {
    auto request = CandidatesRequestFromJson(parsed);
    if (!request.ok()) return StatusToJson(request.status()).Dump();
    if (!has_kb) request->kb = default_kb;
    request->control.cancel = cancel;
    // Texts come back rendered under the request's pinned generation —
    // rendering the TermId-bearing expressions against service->kb()
    // here would be undefined behavior if a reload swapped dictionaries.
    std::vector<std::string> texts;
    auto ranked = service->Candidates(*request, &texts);
    if (!ranked.ok()) return StatusToJson(ranked.status()).Dump();
    JsonValue out = StatusToJson(Status::OK());
    JsonValue items = JsonValue::Array();
    for (size_t i = 0; i < ranked->size(); ++i) {
      JsonValue item = JsonValue::Object();
      item.Set("cost", JsonValue::Number((*ranked)[i].cost));
      item.Set("expression", JsonValue::String(texts[i]));
      items.Append(std::move(item));
    }
    out.Set("candidates", std::move(items));
    return out.Dump();
  }
  if (op == "reload") {
    const JsonValue* path = parsed.Find("path");
    if (path == nullptr || !path->is_string()) {
      return StatusToJson(Status::InvalidArgument(
                              "reload request needs \"path\" (string)"))
          .Dump();
    }
    ReloadKbRequest request;
    request.kb = default_kb;
    const Status kb_status = ReadKb(parsed, &request.kb);
    if (!kb_status.ok()) return StatusToJson(kb_status).Dump();
    request.spec.path = path->AsString();
    const Status lenient =
        ReadBool(parsed, "lenient", &request.spec.lenient_parse);
    if (!lenient.ok()) return StatusToJson(lenient).Dump();
    // ReloadKb itself never fails out-of-band: every load/validation
    // error (and an unknown kb) is in the response status and the prior
    // generation keeps serving.
    return ReloadKbResponseToJson(service->ReloadKb(request)).Dump();
  }
  if (op == "attach") {
    const JsonValue* name = parsed.Find("kb");
    if (name == nullptr || !name->is_string() || name->AsString().empty()) {
      return StatusToJson(Status::InvalidArgument(
                              "attach request needs \"kb\" (non-empty "
                              "string; the default kb always exists)"))
          .Dump();
    }
    const JsonValue* path = parsed.Find("path");
    if (path == nullptr || !path->is_string()) {
      return StatusToJson(Status::InvalidArgument(
                              "attach request needs \"path\" (string)"))
          .Dump();
    }
    KbSpec spec;
    spec.path = path->AsString();
    const Status lenient = ReadBool(parsed, "lenient", &spec.lenient_parse);
    if (!lenient.ok()) return StatusToJson(lenient).Dump();
    std::optional<TenantQuota> quota;
    const Status quota_status = ReadQuota(parsed, &quota);
    if (!quota_status.ok()) return StatusToJson(quota_status).Dump();
    // "lazy": register as a catalog entry (opened on first request)
    // instead of opening the KB before replying.
    bool lazy = false;
    const Status lazy_status = ReadBool(parsed, "lazy", &lazy);
    if (!lazy_status.ok()) return StatusToJson(lazy_status).Dump();
    const Status attached =
        lazy ? service->AddCatalogKb(name->AsString(), spec, quota)
             : service->AttachKb(name->AsString(), spec, quota);
    if (!attached.ok()) return StatusToJson(attached).Dump();
    JsonValue out = StatusToJson(Status::OK());
    out.Set("kb", JsonValue::String(name->AsString()));
    return out.Dump();
  }
  if (op == "detach") {
    const JsonValue* name = parsed.Find("kb");
    if (name == nullptr || !name->is_string()) {
      return StatusToJson(Status::InvalidArgument(
                              "detach request needs \"kb\" (string)"))
          .Dump();
    }
    const Status detached = service->DetachKb(name->AsString());
    if (!detached.ok()) return StatusToJson(detached).Dump();
    JsonValue out = StatusToJson(Status::OK());
    out.Set("kb", JsonValue::String(name->AsString()));
    return out.Dump();
  }
  if (op == "list_kbs") {
    JsonValue out = StatusToJson(Status::OK());
    JsonValue kbs = JsonValue::Array();
    for (const KbInfo& info : service->ListKbs()) {
      JsonValue item = JsonValue::Object();
      item.Set("kb", JsonValue::String(info.name));
      item.Set("open", JsonValue::Bool(info.open));
      item.Set("from_catalog", JsonValue::Bool(info.from_catalog));
      if (info.open) {
        item.Set("generation",
                 JsonValue::Number(static_cast<double>(info.generation)));
        item.Set("facts",
                 JsonValue::Number(static_cast<double>(info.facts)));
        item.Set("entities",
                 JsonValue::Number(static_cast<double>(info.entities)));
      }
      if (info.quota.max_in_flight > 0 || info.quota.max_queued > 0) {
        item.Set("max_in_flight", JsonValue::Number(static_cast<double>(
                                      info.quota.max_in_flight)));
        item.Set("max_queued", JsonValue::Number(static_cast<double>(
                                   info.quota.max_queued)));
      }
      kbs.Append(std::move(item));
    }
    out.Set("kbs", std::move(kbs));
    return out.Dump();
  }
  if (op == "use_kb") {
    // The binary transport intercepts kUseKb frames on its loop thread
    // (the handshake mutates per-connection state the dispatch layer
    // cannot reach); reaching this dispatcher means an NDJSON client
    // sent it as an op.
    return StatusToJson(Status::InvalidArgument(
                            "use_kb is the binary connection handshake; "
                            "NDJSON requests select a tenant with a "
                            "per-request \"kb\" field"))
        .Dump();
  }
  return StatusToJson(Status::InvalidArgument("unknown op '" +
                                              std::string(op) + "'"))
      .Dump();
}

std::string HandleRequestLine(Service* service, std::string_view line,
                              const CancellationToken& cancel,
                              const std::string& default_kb) {
  auto parsed = ParseJson(line);
  if (!parsed.ok()) return StatusToJson(parsed.status()).Dump();
  if (!parsed->is_object()) {
    return StatusToJson(
               Status::InvalidArgument("request must be a JSON object"))
        .Dump();
  }
  const JsonValue* op = parsed->Find("op");
  if (op == nullptr || !op->is_string()) {
    return StatusToJson(
               Status::InvalidArgument("request needs an \"op\" string"))
        .Dump();
  }
  return DispatchRequest(service, op->AsString(), *parsed, cancel,
                         default_kb);
}

std::string HandleFramePayload(Service* service, uint8_t verb,
                               std::string_view payload,
                               const CancellationToken& cancel,
                               const std::string& default_kb) {
  const char* op = FrameVerbToOp(verb);
  if (op == nullptr) {
    return StatusToJson(Status::InvalidArgument(
                            "unknown frame verb " + std::to_string(verb)))
        .Dump();
  }
  // An empty payload is the frame shorthand for "no arguments".
  auto parsed = ParseJson(payload.empty() ? std::string_view("{}") : payload);
  if (!parsed.ok()) return StatusToJson(parsed.status()).Dump();
  if (!parsed->is_object()) {
    return StatusToJson(
               Status::InvalidArgument("frame payload must be a JSON object"))
        .Dump();
  }
  // The verb byte is authoritative; a payload "op" is allowed only as a
  // cross-check (it would otherwise silently win in one mode and be
  // ignored in the other).
  const JsonValue* payload_op = parsed->Find("op");
  if (payload_op != nullptr &&
      (!payload_op->is_string() || payload_op->AsString() != op)) {
    return StatusToJson(Status::InvalidArgument(
                            std::string("frame payload \"op\" contradicts the "
                                        "frame verb (expected \"") +
                            op + "\")"))
        .Dump();
  }
  return DispatchRequest(service, op, *parsed, cancel, default_kb);
}

}  // namespace remi
