#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "nlg/verbalizer.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace remi {

Result<std::unique_ptr<Service>> Service::Open(const KbSpec& spec,
                                               const ServiceOptions& options) {
  REMI_ASSIGN_OR_RETURN(LoadedKb loaded, LoadKbFromSpec(spec));
  return std::unique_ptr<Service>(new Service(std::move(loaded), options));
}

std::unique_ptr<Service> Service::Create(KnowledgeBase kb,
                                         const ServiceOptions& options) {
  return std::unique_ptr<Service>(
      new Service(LoadedKb{std::move(kb), 0}, options));
}

Service::Service(LoadedKb loaded, const ServiceOptions& options)
    : options_(options) {
  const int effective_threads = options_.mining.EffectiveThreads();
  if (effective_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(effective_threads));
  }
  const TenantQuota default_quota{options_.tenant_max_in_flight,
                                  options_.tenant_max_queued};
  registry_ = std::make_unique<TenantRegistry>(options_.mining, default_quota,
                                               live_epochs_);
  registry_->InitDefault(std::move(loaded.kb), loaded.parse_skipped_lines);
  default_tenant_ = registry_->DefaultTenant();
}

Service::~Service() = default;

const KnowledgeBase& Service::kb() const {
  // The epoch_ member of the (never-detached) default tenant keeps the
  // referenced epoch alive until the next reload retires it — same
  // stability contract as the single-KB service.
  return default_tenant_->CurrentEpoch()->kb;
}

std::shared_ptr<const KnowledgeBase> Service::SharedKb() const {
  std::shared_ptr<KbEpoch> epoch = default_tenant_->CurrentEpoch();
  // Aliased: holds the whole epoch, exposes only its KB.
  return std::shared_ptr<const KnowledgeBase>(epoch, &epoch->kb);
}

uint64_t Service::generation() const { return default_tenant_->generation(); }

size_t Service::parse_skipped_lines() const {
  return default_tenant_->CurrentEpoch()->parse_skipped_lines;
}

ReloadKbResponse Service::ReloadKb(const ReloadKbRequest& request) {
  // Peek, don't Resolve: reloading a catalog entry that never served
  // would open two KBs back to back for no request. Reload targets live
  // tenants.
  std::shared_ptr<Tenant> tenant = registry_->Peek(request.kb);
  if (tenant == nullptr) {
    ReloadKbResponse response;
    response.status =
        Status::NotFound("unknown kb '" + request.kb + "'");
    unknown_kb_reloads_rejected_.fetch_add(1, std::memory_order_relaxed);
    return response;
  }
  return tenant->Reload(request.spec);
}

// --- multi-tenant registry ---------------------------------------------------

Status Service::AttachKb(const std::string& name, const KbSpec& spec,
                         const std::optional<TenantQuota>& quota) {
  return registry_->Attach(name, spec, quota);
}

Status Service::AttachKb(const std::string& name, KnowledgeBase kb,
                         const std::optional<TenantQuota>& quota) {
  return registry_->AttachKb(name, std::move(kb), quota);
}

Status Service::DetachKb(const std::string& name) {
  return registry_->Detach(name);
}

Status Service::AddCatalogKb(const std::string& name, const KbSpec& spec,
                             const std::optional<TenantQuota>& quota) {
  return registry_->AddCatalogEntry(name, spec, quota);
}

Result<size_t> Service::LoadCatalogFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open catalog file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  REMI_ASSIGN_OR_RETURN(const std::vector<KbCatalogEntry> entries,
                        ParseKbCatalog(buf.str()));
  // Validate the whole batch against the registry before registering any
  // entry: a catalog that half-loads is worse than one that fails.
  for (const KbCatalogEntry& entry : entries) {
    if (HasKb(entry.name)) {
      return Status::AlreadyExists("catalog entry '" + entry.name +
                                   "' collides with an existing kb");
    }
  }
  for (const KbCatalogEntry& entry : entries) {
    REMI_RETURN_NOT_OK(
        registry_->AddCatalogEntry(entry.name, entry.spec, entry.quota));
  }
  return entries.size();
}

bool Service::HasKb(const std::string& name) const {
  return registry_->Has(name);
}

std::vector<KbInfo> Service::ListKbs() const { return registry_->List(); }

Result<TenantCounters> Service::CountersFor(const std::string& kb) const {
  std::shared_ptr<Tenant> tenant = registry_->Peek(kb);
  if (tenant == nullptr) {
    return Status::NotFound("unknown kb '" + kb + "'");
  }
  TenantCounters c = tenant->counters();
  std::lock_guard<std::mutex> lock(admission_mu_);
  c.in_flight = tenant->admission().in_flight;
  c.queued = tenant->admission().queued;
  c.peak_in_flight = tenant->admission().peak_in_flight;
  return c;
}

// --- admission control -------------------------------------------------------

Status Service::Admit(Tenant& tenant, const Deadline& deadline,
                      const CancellationToken& cancel,
                      double* queue_wait_seconds) {
  Timer timer;
  std::unique_lock<std::mutex> lock(admission_mu_);
  const TenantQuota& quota = tenant.quota();
  Tenant::AdmissionState& adm = tenant.admission();
  const auto global_full = [&] {
    return options_.max_in_flight > 0 && in_flight_ >= options_.max_in_flight;
  };
  const auto tenant_full = [&] {
    return quota.max_in_flight > 0 && adm.in_flight >= quota.max_in_flight;
  };
  // Shed dead-on-arrival work: a request whose deadline already expired
  // gets its DeadlineExceeded now, before it can occupy a slot or queue
  // space — mining an answer nobody will read is pure waste. Counted as
  // admitted (it was accepted, not rejected) so the identity
  // admitted == ok + deadline_exceeded + cancelled + failed holds.
  if (deadline.Expired()) {
    tenant.RecordAdmitted();
    tenant.RecordShedExpired();
    *queue_wait_seconds = timer.ElapsedSeconds();
    return Status::DeadlineExceeded("deadline already expired at admission");
  }
  if (global_full() || tenant_full()) {
    // Reject at entry when the binding gate's queue is already full. The
    // tenant gate trips *before* a hot tenant can occupy more of the
    // shared queue than its quota allows — that is the isolation
    // property: other tenants keep finding global queue room.
    if (tenant_full() && adm.queued >= quota.max_queued) {
      tenant.RecordRejected();
      return Status::ResourceExhausted(
          "kb '" + tenant.name() + "': " + std::to_string(adm.in_flight) +
          " requests in flight and " + std::to_string(adm.queued) +
          " queued (tenant quota: " + std::to_string(quota.max_in_flight) +
          " in flight, " + std::to_string(quota.max_queued) + " queued)");
    }
    if (global_full() && queued_ >= EffectiveMaxQueuedLocked()) {
      if (queued_ < options_.max_queued) {
        // Only the tightened brownout depth rejected this caller.
        brownout_rejected_.fetch_add(1, std::memory_order_relaxed);
      }
      tenant.RecordRejected();
      return Status::ResourceExhausted(
          std::to_string(in_flight_) + " requests in flight and " +
          std::to_string(queued_) + " queued (limits: " +
          std::to_string(options_.max_in_flight) + " in flight, " +
          std::to_string(EffectiveMaxQueuedLocked()) + " queued" +
          (brownout_active_ ? ", brownout" : "") + ")");
    }
    ++queued_;
    ++adm.queued;
    // Queued callers poll deadline + cancellation: a request abandoned by
    // its client must not occupy a queue slot forever.
    while (global_full() || tenant_full()) {
      if (deadline.Expired()) {
        --queued_;
        --adm.queued;
        tenant.RecordAdmitted();
        tenant.RecordShedExpired();
        *queue_wait_seconds = timer.ElapsedSeconds();
        RecordQueueWaitLocked(*queue_wait_seconds);
        return Status::DeadlineExceeded("deadline expired while queued");
      }
      if (cancel.CancellationRequested()) {
        --queued_;
        --adm.queued;
        tenant.RecordAdmitted();
        *queue_wait_seconds = timer.ElapsedSeconds();
        RecordQueueWaitLocked(*queue_wait_seconds);
        return Status::Cancelled("cancelled while queued");
      }
      admission_cv_.wait_for(lock, std::chrono::milliseconds(10));
    }
    --queued_;
    --adm.queued;
    // The slot freed, but the wait may have consumed the whole budget
    // (the 10ms poll can land after expiry): re-check before burning a
    // dispatch slot on a request that is already dead.
    if (deadline.Expired()) {
      tenant.RecordAdmitted();
      tenant.RecordShedExpired();
      *queue_wait_seconds = timer.ElapsedSeconds();
      RecordQueueWaitLocked(*queue_wait_seconds);
      admission_cv_.notify_all();  // the slot we declined is still free
      return Status::DeadlineExceeded("deadline expired while queued");
    }
  }
  ++in_flight_;
  ++adm.in_flight;
  peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
  adm.peak_in_flight = std::max(adm.peak_in_flight, adm.in_flight);
  tenant.RecordAdmitted();
  *queue_wait_seconds = timer.ElapsedSeconds();
  RecordQueueWaitLocked(*queue_wait_seconds);
  return Status::OK();
}

void Service::RecordQueueWaitLocked(double wait_seconds) {
  if (options_.brownout_p99_queue_wait_ms <= 0) return;
  if (queue_wait_ring_.size() < kQueueWaitWindow) {
    queue_wait_ring_.push_back(wait_seconds);
  } else {
    queue_wait_ring_[queue_wait_pos_] = wait_seconds;
    queue_wait_pos_ = (queue_wait_pos_ + 1) % kQueueWaitWindow;
  }
  // p99 over the window (64 samples: effectively the max, which is the
  // right bias for a protect-the-tail control signal).
  std::vector<double> sorted = queue_wait_ring_;
  std::sort(sorted.begin(), sorted.end());
  const size_t idx =
      (sorted.size() * 99 + 99) / 100 == 0
          ? 0
          : std::min(sorted.size() - 1, (sorted.size() * 99) / 100);
  const double p99_ms = sorted[idx] * 1000.0;
  // Hysteresis: enter above the bound, exit below half of it, so the
  // gate doesn't flap around the threshold.
  if (!brownout_active_ && p99_ms > options_.brownout_p99_queue_wait_ms) {
    brownout_active_ = true;
  } else if (brownout_active_ &&
             p99_ms < options_.brownout_p99_queue_wait_ms * 0.5) {
    brownout_active_ = false;
  }
}

size_t Service::EffectiveMaxQueuedLocked() const {
  if (!brownout_active_) return options_.max_queued;
  const double fraction =
      std::min(1.0, std::max(0.0, options_.brownout_queue_fraction));
  const auto tightened =
      static_cast<size_t>(static_cast<double>(options_.max_queued) * fraction);
  return std::max<size_t>(1, tightened);
}

void Service::Release(Tenant& tenant) {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --in_flight_;
    --tenant.admission().in_flight;
  }
  // notify_all, not notify_one: with per-tenant gates the woken waiter
  // may still be quota-blocked while a different tenant's waiter could
  // run — a single wake could strand it.
  admission_cv_.notify_all();
}

Deadline Service::DeadlineFor(const RequestControl& control) const {
  if (control.deadline_seconds > 0) {
    return Deadline::AfterSeconds(control.deadline_seconds);
  }
  return Deadline();
}

void Service::RecordAcceptError(bool fatal) {
  (fatal ? accept_errors_fatal_ : accept_errors_retried_)
      .fetch_add(1, std::memory_order_relaxed);
}

uint64_t Service::ComputeRetryAfterMs(size_t queued, size_t max_in_flight,
                                      double mean_service_ms,
                                      uint32_t jitter256) {
  // Per-queued-request drain estimate; floored so a cold service (no
  // completions yet, mean 0) still spreads clients out.
  const double per_slot_ms = std::max(mean_service_ms, 25.0);
  const double slots = static_cast<double>(std::max<size_t>(max_in_flight, 1));
  // +1: the retrying caller queues behind everyone counted in `queued`.
  double base =
      per_slot_ms * (static_cast<double>(queued) + 1.0) / slots;
  // Strict growth in `queued` must survive the clamp, so clamp the
  // *inputs'* contribution by adding the floor rather than flooring the
  // result: hint(q+1) > hint(q) at fixed jitter.
  base = 25.0 + std::min(base, 10000.0);
  const double jitter = 0.75 + static_cast<double>(jitter256 & 0xff) / 512.0;
  return static_cast<uint64_t>(base * jitter);
}

uint64_t Service::RetryAfterMsHint() const {
  return RetryAfterMsHint(std::string());
}

uint64_t Service::RetryAfterMsHint(const std::string& kb) const {
  // Peek, never Resolve: a metrics/error path must not lazily open a KB.
  std::shared_ptr<Tenant> tenant = registry_->Peek(kb);
  const bool tenant_gate =
      tenant != nullptr && tenant->quota().max_in_flight > 0;
  size_t queued;
  size_t slots;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    if (tenant_gate) {
      // Quota-aware: a throttled tenant's clients should back off on
      // *its* congestion. The global queue may be empty while this
      // tenant's quota is saturated (or vice versa).
      queued = tenant->admission().queued;
      slots = tenant->quota().max_in_flight;
    } else {
      queued = queued_;
      slots = options_.max_in_flight;
    }
  }
  const double mean_service_ms =
      tenant_gate ? tenant->counters().MeanServiceMs()
                  : registry_->LedgerTotals().MeanServiceMs();
  // Cheap xorshift jitter off a per-call counter: no <random> state, no
  // lock, good enough to de-synchronize retrying clients.
  static std::atomic<uint32_t> jitter_state{0x9e3779b9u};
  uint32_t j = jitter_state.fetch_add(0x61c88647u, std::memory_order_relaxed);
  j ^= j << 13;
  j ^= j >> 17;
  return ComputeRetryAfterMs(queued, slots, mean_service_ms, j);
}

ServiceCounters Service::counters() const {
  ServiceCounters c;
  static_cast<RequestLedger&>(c) = registry_->LedgerTotals();
  c.reloads_rejected +=
      unknown_kb_reloads_rejected_.load(std::memory_order_relaxed);
  c.generation = generation();
  c.active_generations = live_epochs_->load(std::memory_order_relaxed);
  c.tenants_active = registry_->tenants_active();
  c.accept_errors_retried =
      accept_errors_retried_.load(std::memory_order_relaxed);
  c.accept_errors_fatal = accept_errors_fatal_.load(std::memory_order_relaxed);
  c.brownout_rejected = brownout_rejected_.load(std::memory_order_relaxed);
  c.connections_reaped_idle =
      connections_reaped_idle_.load(std::memory_order_relaxed);
  c.connections_reaped_write_stall =
      connections_reaped_write_stall_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(admission_mu_);
  c.in_flight = in_flight_;
  c.peak_in_flight = peak_in_flight_;
  c.brownout_active = brownout_active_;
  return c;
}

void Service::RecordConnectionReaped(bool write_stall) {
  if (write_stall) {
    connections_reaped_write_stall_.fetch_add(1, std::memory_order_relaxed);
  } else {
    connections_reaped_idle_.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- target resolution -------------------------------------------------------

void Service::EnsureNameIndex(const KbEpoch& epoch) {
  std::call_once(epoch.name_index_once, [&epoch] {
    epoch.name_index.reserve(epoch.kb.NumEntities());
    for (TermId id = 0; id < epoch.kb.dict().size(); ++id) {
      if (epoch.kb.dict().kind(id) != TermKind::kIri) continue;
      if (!epoch.kb.IsEntity(id)) continue;
      const std::string_view lex = epoch.kb.dict().lexical(id);
      const size_t cut = lex.find_last_of("/#");
      const std::string_view local =
          cut == std::string_view::npos ? lex : lex.substr(cut + 1);
      auto [it, inserted] =
          epoch.name_index.emplace(local, std::make_pair(id, 1u));
      if (!inserted) ++it->second.second;
    }
  });
}

Result<TermId> Service::ResolveTargetIn(const KbEpoch& epoch,
                                        const std::string& name) {
  // The exact-IRI path enforces the same entity contract as the suffix
  // paths: a predicate or class IRI is not a mining target.
  auto exact = epoch.kb.dict().Lookup(TermKind::kIri, name);
  if (exact.ok() && epoch.kb.IsEntity(*exact)) return *exact;
  size_t hits = 0;
  TermId match = kNullTerm;
  if (name.find_first_of("/#") == std::string::npos) {
    // A separator-free name can only match as a whole IRI local name:
    // answered by the O(1) index instead of a dictionary scan.
    EnsureNameIndex(epoch);
    const auto it = epoch.name_index.find(name);
    if (it != epoch.name_index.end()) {
      match = it->second.first;
      hits = it->second.second;
    }
  } else {
    // Multi-segment suffixes ("resource/Paris") are rare: fall back to
    // the boundary-checked scan.
    for (TermId id = 0; id < epoch.kb.dict().size(); ++id) {
      if (epoch.kb.dict().kind(id) != TermKind::kIri) continue;
      if (!epoch.kb.IsEntity(id)) continue;
      const std::string_view lex = epoch.kb.dict().lexical(id);
      if (EndsWith(lex, name) &&
          (lex.size() == name.size() ||
           lex[lex.size() - name.size() - 1] == '/' ||
           lex[lex.size() - name.size() - 1] == '#')) {
        match = id;
        ++hits;
      }
    }
  }
  if (hits == 1) return match;
  if (hits == 0) return Status::NotFound("no entity matches '" + name + "'");
  return Status::InvalidArgument("'" + name + "' is ambiguous (" +
                                 std::to_string(hits) + " matches)");
}

Result<std::vector<TermId>> Service::ResolveTargetsIn(const KbEpoch& epoch,
                                                      const TargetSpec& spec) {
  std::vector<TermId> out;
  out.reserve(spec.ids.size() + spec.names.size());
  for (const TermId id : spec.ids) {
    if (id >= epoch.kb.dict().size()) {
      return Status::InvalidArgument("target id " + std::to_string(id) +
                                     " is outside the dictionary");
    }
    // Same entity contract as the lexical paths: predicates, classes and
    // literals are not mining targets.
    if (!epoch.kb.IsEntity(id)) {
      return Status::InvalidArgument("target id " + std::to_string(id) +
                                     " is not an entity");
    }
    out.push_back(id);
  }
  for (const std::string& name : spec.names) {
    if (name.empty()) continue;
    REMI_ASSIGN_OR_RETURN(const TermId id, ResolveTargetIn(epoch, name));
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (out.empty()) {
    return Status::InvalidArgument("request contains no targets");
  }
  return out;
}

Result<TermId> Service::ResolveTarget(const std::string& name) const {
  std::shared_ptr<KbEpoch> epoch = default_tenant_->CurrentEpoch();
  return ResolveTargetIn(*epoch, name);
}

Result<std::vector<TermId>> Service::ResolveTargets(
    const TargetSpec& spec) const {
  std::shared_ptr<KbEpoch> epoch = default_tenant_->CurrentEpoch();
  return ResolveTargetsIn(*epoch, spec);
}

// --- request handlers --------------------------------------------------------

MineResponse Service::BuildMineResponse(const KbEpoch& epoch,
                                        const RemiResult& mined,
                                        bool verbalize,
                                        std::vector<TermId> targets) const {
  MineResponse response;
  if (mined.cancelled) {
    response.status = Status::Cancelled("mining cancelled");
  } else if (mined.timed_out) {
    response.status = Status::DeadlineExceeded("mining deadline expired");
  }
  response.found = mined.found;
  response.targets = std::move(targets);
  // Labels are rendered here, under the request's pin, so serialization
  // layers never have to touch a possibly-swapped live KB.
  for (const TermId t : response.targets) {
    response.target_labels.push_back(epoch.kb.Label(t));
  }
  response.stats = mined.stats;
  response.service.generation = epoch.generation;
  if (mined.found) {
    response.cost = mined.cost;
    response.expression = mined.expression;
    response.expression_text = mined.expression.ToString(epoch.kb.dict());
    if (verbalize) {
      Verbalizer verbalizer(&epoch.kb);
      response.verbalization = verbalizer.Sentence(mined.expression);
    }
    response.exceptions = mined.exceptions;
    for (const TermId e : mined.exceptions) {
      response.exception_labels.push_back(epoch.kb.Label(e));
    }
  }
  return response;
}

Result<MineResponse> Service::Mine(const MineRequest& request) {
  REMI_ASSIGN_OR_RETURN(const std::shared_ptr<Tenant> tenant,
                        registry_->Resolve(request.kb));
  const Deadline deadline = DeadlineFor(request.control);
  double queue_wait = 0.0;
  const Status admitted =
      Admit(*tenant, deadline, request.control.cancel, &queue_wait);
  if (admitted.IsResourceExhausted()) return admitted;
  if (!admitted.ok()) {
    // Expired or cancelled while queued: in-band outcome, nothing ran.
    MineResponse response;
    response.status = admitted;
    response.service.queue_wait_seconds = queue_wait;
    tenant->RecordOutcome(admitted);
    return response;
  }
  // Pin after admission, not before: the request runs on the tenant's
  // freshest generation and holds its pin only while actually executing.
  std::shared_ptr<KbEpoch> epoch = tenant->CurrentEpoch();

  auto run = [&]() -> Result<MineResponse> {
    ServiceStats service_stats;
    service_stats.queue_wait_seconds = queue_wait;
    service_stats.generation = epoch->generation;

    Timer resolve_timer;
    auto targets = ResolveTargetsIn(*epoch, request.targets);
    if (!targets.ok()) return targets.status();
    service_stats.resolve_seconds = resolve_timer.ElapsedSeconds();

    RemiMiner* miner =
        tenant->MinerFor(*epoch, request.cost, request.enumerator,
                         pool_.get());
    MineControl control;
    control.deadline = deadline;
    control.cancel = request.control.cancel;

    Timer mine_timer;
    auto mined = miner->MineReWithExceptions(
        *targets, request.max_exceptions, control);
    if (!mined.ok()) return mined.status();
    service_stats.mine_seconds = mine_timer.ElapsedSeconds();
    tenant->RecordMiningStats(mined->stats.nodes_visited,
                              service_stats.mine_seconds);

    MineResponse response = BuildMineResponse(*epoch, *mined,
                                              request.verbalize,
                                              std::move(*targets));
    response.service = service_stats;
    tenant->RecordOutcome(response.status);
    return response;
  };
  auto result = run();
  if (!result.ok()) tenant->RecordFailed();
  Release(*tenant);
  return result;
}

Result<BatchMineResponse> Service::BatchMine(const BatchMineRequest& request) {
  if (request.target_sets.empty()) {
    return Status::InvalidArgument("batch contains no target sets");
  }
  REMI_ASSIGN_OR_RETURN(const std::shared_ptr<Tenant> tenant,
                        registry_->Resolve(request.kb));
  const Deadline deadline = DeadlineFor(request.control);
  double queue_wait = 0.0;
  const Status admitted =
      Admit(*tenant, deadline, request.control.cancel, &queue_wait);
  if (admitted.IsResourceExhausted()) return admitted;
  if (!admitted.ok()) {
    BatchMineResponse response;
    response.status = admitted;
    response.service.queue_wait_seconds = queue_wait;
    tenant->RecordOutcome(admitted);
    return response;
  }
  std::shared_ptr<KbEpoch> epoch = tenant->CurrentEpoch();

  auto run = [&]() -> Result<BatchMineResponse> {
    BatchMineResponse response;
    response.service.queue_wait_seconds = queue_wait;
    response.service.generation = epoch->generation;

    Timer resolve_timer;
    std::vector<std::vector<TermId>> sets;
    sets.reserve(request.target_sets.size());
    for (size_t i = 0; i < request.target_sets.size(); ++i) {
      auto targets = ResolveTargetsIn(*epoch, request.target_sets[i]);
      if (!targets.ok()) {
        return WithMessagePrefix(targets.status(),
                                 "target set #" + std::to_string(i));
      }
      sets.push_back(std::move(*targets));
    }
    response.service.resolve_seconds = resolve_timer.ElapsedSeconds();

    RemiMiner* miner =
        tenant->MinerFor(*epoch, request.cost, request.enumerator,
                         pool_.get());
    MineControl control;
    control.deadline = deadline;
    control.cancel = request.control.cancel;

    Timer mine_timer;
    auto mined = miner->MineBatch(sets, request.max_exceptions, control);
    if (!mined.ok()) return mined.status();
    response.service.mine_seconds = mine_timer.ElapsedSeconds();
    uint64_t nodes_visited = 0;
    for (const RemiResult& item : *mined) {
      nodes_visited += item.stats.nodes_visited;
    }
    tenant->RecordMiningStats(nodes_visited, response.service.mine_seconds);

    bool any_timed_out = false;
    bool any_cancelled = false;
    for (size_t i = 0; i < mined->size(); ++i) {
      MineResponse item = BuildMineResponse(
          *epoch, (*mined)[i], request.verbalize, std::move(sets[i]));
      any_timed_out |= item.status.IsDeadlineExceeded();
      any_cancelled |= item.status.IsCancelled();
      response.results.push_back(std::move(item));
    }
    if (any_cancelled) {
      response.status = Status::Cancelled("batch cancelled");
    } else if (any_timed_out) {
      response.status = Status::DeadlineExceeded("batch deadline expired");
    }
    tenant->RecordOutcome(response.status);
    return response;
  };
  auto result = run();
  if (!result.ok()) tenant->RecordFailed();
  Release(*tenant);
  return result;
}

Result<SummarizeResponse> Service::Summarize(const SummarizeRequest& request) {
  if (request.k == 0) {
    return Status::InvalidArgument("summary size k must be positive");
  }
  REMI_ASSIGN_OR_RETURN(const std::shared_ptr<Tenant> tenant,
                        registry_->Resolve(request.kb));
  const Deadline deadline = DeadlineFor(request.control);
  double queue_wait = 0.0;
  const Status admitted =
      Admit(*tenant, deadline, request.control.cancel, &queue_wait);
  if (admitted.IsResourceExhausted()) return admitted;
  if (!admitted.ok()) {
    SummarizeResponse response;
    response.status = admitted;
    response.service.queue_wait_seconds = queue_wait;
    tenant->RecordOutcome(admitted);
    return response;
  }
  std::shared_ptr<KbEpoch> epoch = tenant->CurrentEpoch();

  auto run = [&]() -> Result<SummarizeResponse> {
    SummarizeResponse response;
    response.service.queue_wait_seconds = queue_wait;
    response.service.generation = epoch->generation;

    Timer resolve_timer;
    auto resolved = ResolveTargetsIn(*epoch, request.entity);
    if (!resolved.ok()) return resolved.status();
    if (resolved->size() != 1) {
      return Status::InvalidArgument(
          "summarize expects exactly one entity, got " +
          std::to_string(resolved->size()));
    }
    response.service.resolve_seconds = resolve_timer.ElapsedSeconds();
    response.entity = (*resolved)[0];
    response.entity_label = epoch->kb.Label(response.entity);

    // Table 3 protocol: standard language, no rdf:type, no inverses.
    const RemiOptions table3 = MakeTable3RemiOptions(request.metric);
    RemiMiner* miner =
        tenant->MinerFor(*epoch, table3.cost, table3.enumerator, pool_.get());
    MineControl control;
    control.deadline = deadline;
    control.cancel = request.control.cancel;

    Timer mine_timer;
    auto summary = RemiSummarize(*miner, response.entity, request.k, control);
    response.service.mine_seconds = mine_timer.ElapsedSeconds();
    // RemiSummarize doesn't surface per-run RemiStats; the time still
    // feeds the mean-service-time estimate behind RetryAfterMsHint().
    tenant->RecordMiningStats(0, response.service.mine_seconds);
    if (!summary.ok()) {
      if (!summary.status().IsDeadlineExceeded() &&
          !summary.status().IsCancelled()) {
        return summary.status();
      }
      response.status = summary.status();  // in-band interrupt outcome
    } else {
      response.items = std::move(*summary);
      for (const SummaryItem& item : response.items) {
        response.item_labels.push_back(epoch->kb.Label(item.predicate) +
                                       " = " + epoch->kb.Label(item.object));
      }
    }
    tenant->RecordOutcome(response.status);
    return response;
  };
  auto result = run();
  if (!result.ok()) tenant->RecordFailed();
  Release(*tenant);
  return result;
}

Result<std::vector<RankedSubgraph>> Service::Candidates(
    const CandidatesRequest& request,
    std::vector<std::string>* expression_texts) {
  REMI_ASSIGN_OR_RETURN(const std::shared_ptr<Tenant> tenant,
                        registry_->Resolve(request.kb));
  std::shared_ptr<KbEpoch> epoch = tenant->CurrentEpoch();
  REMI_ASSIGN_OR_RETURN(const std::vector<TermId> targets,
                        ResolveTargetsIn(*epoch, request.targets));
  RemiMiner* miner =
      tenant->MinerFor(*epoch, request.cost, request.enumerator, pool_.get());
  MineControl control;
  control.deadline = DeadlineFor(request.control);
  control.cancel = request.control.cancel;
  REMI_ASSIGN_OR_RETURN(std::vector<RankedSubgraph> ranked,
                        miner->RankedCommonSubgraphs(targets, control));
  if (request.limit > 0 && ranked.size() > request.limit) {
    ranked.resize(request.limit);
  }
  if (expression_texts != nullptr) {
    expression_texts->clear();
    expression_texts->reserve(ranked.size());
    for (const RankedSubgraph& r : ranked) {
      // Rendered under this request's pin: safe to serialize even if a
      // reload retires this generation before the caller writes it out.
      expression_texts->push_back(r.expression.ToString(epoch->kb.dict()));
    }
  }
  return ranked;
}

}  // namespace remi
