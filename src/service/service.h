// remi::Service — the stable serving façade of the library.
//
// The paper's cost-vs-users scenario (Table 2) and the entity-summarization
// application (§5) both presume a single KB instance answering many
// heterogeneous requests. Service packages that — and generalizes it to
// many *named* KBs in one process: a TenantRegistry
// (service/tenant_registry.h) maps names to tenants, each tenant owning
// its own epoch chain (KB generations + match-set caches + warm variant
// miners), all served through one long-lived work-stealing thread pool
// and one global admission controller. Consumers (the CLI, the wire
// server, examples, harnesses) talk to this API only; the layers below
// (RemiMiner, Evaluator, Verbalizer, the summarizer) are implementation
// detail they no longer wire up by hand.
//
// Multi-tenant model:
//   * Every request names its KB via the `kb` field ("" = the unnamed
//     default tenant, so all pre-existing single-KB callers work
//     unchanged). Unknown names fail with kNotFound in-band.
//   * Tenants come from three places: the KB the service was opened on
//     (the default tenant), AttachKb/DetachKb at runtime (the
//     attach/detach/list_kbs admin verbs), and a KbSpec catalog
//     (AddCatalogKb/LoadCatalogFile) whose entries open lazily on first
//     request.
//   * Admission is ONE controller: the global max_in_flight/max_queued
//     bounds plus per-tenant quotas enforced under the same lock. A hot
//     tenant exceeding its quota gets kResourceExhausted (with a
//     retry_after_ms hint derived from *its* queue, not the global one)
//     while other tenants keep serving.
//   * ReloadKb is per-tenant: reloading tenant A under sustained load on
//     tenant B leaves B's pinned results byte-identical, and a rejected
//     candidate rolls back A alone.
//
// Hot-swap (epoch-pinned snapshot registry, per tenant):
//   * The KB, its match-set cache, its variant miners, and its lexical
//     name index are bundled into one immutable-once-published KbEpoch,
//     held by shared_ptr. Every request pins the epoch that is current
//     when it starts executing and uses only that epoch's state until it
//     returns — so a concurrent ReloadKb can never change a request's
//     results mid-flight (byte-identical to a no-reload run).
//   * ReloadKb opens and fully validates a candidate KB *off the serving
//     path* and only then publishes it as that tenant's generation N+1.
//     A corrupt, truncated, or invariant-violating image fails closed:
//     the response carries an in-band Corruption/ParseError/IoError
//     status and the tenant keeps serving generation N. No reload ever
//     drops an in-flight or queued request.
//   * Retired generations are destroyed when their last pinned request
//     completes (the shared_ptr count is the drain counter; there is no
//     global pause). The same discipline covers DetachKb: a detached
//     tenant's epochs drain, they are never torn down while pinned.
//
// Contracts:
//   * Every request carries a RequestControl: a relative deadline and a
//     cooperative cancellation token. Both are threaded through the
//     REMI/P-REMI DFS (polled at every search node, including spilled
//     subtree tasks), so an expired request stops within one node
//     evaluation instead of running unbounded.
//   * Request-level failures (bad targets, unknown kb, capacity) are the
//     error side of the returned Result. Execution outcomes of an
//     *admitted* run — kOk, kDeadlineExceeded, kCancelled — are reported
//     in-band as `response.status`, alongside the partial
//     ServiceStats/RemiStats the run accumulated before interruption.
//   * Admission control bounds concurrency: at most max_in_flight
//     requests execute while up to max_queued callers wait; one more
//     caller gets kResourceExhausted. Per-tenant quotas bound each
//     tenant's share of both numbers.
//
// See README.md "Serving & the Service API", "Hot-swap & operational
// runbook", and "Multi-tenant serving" for the full status-code table,
// reload semantics, and quota semantics.

#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "kb/knowledge_base.h"
#include "remi/remi.h"
#include "service/tenant_registry.h"
#include "summ/remi_summarizer.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace remi {

/// \brief Server-wide configuration.
struct ServiceOptions {
  /// Base mining configuration. `mining.num_threads` sizes the Service's
  /// shared pool (>1 enables P-REMI and concurrent batch items);
  /// `mining.eval_cache_capacity/shards` size each generation's
  /// match-set cache. Per-request overrides replace only the cost model /
  /// language bias.
  RemiOptions mining;

  /// Requests executing concurrently before callers queue. 0 = unlimited
  /// (no admission control; max_queued is then ignored).
  size_t max_in_flight = 4;

  /// Callers allowed to wait for a slot; the next one is rejected with
  /// kResourceExhausted.
  size_t max_queued = 16;

  /// Default per-tenant quota (TenantQuota), applied to every tenant —
  /// including the default one — unless an attach/catalog entry
  /// overrides it. 0 = unlimited: tenants ride on the global limits
  /// only, which is the pre-multi-tenant behavior.
  size_t tenant_max_in_flight = 0;
  size_t tenant_max_queued = 0;

  /// Brownout: when the p99 queue wait (over a sliding window of recent
  /// admissions) exceeds this bound, the effective global queue depth
  /// tightens to brownout_queue_fraction * max_queued — excess callers
  /// get ResourceExhausted *now* instead of queueing toward a deadline
  /// they cannot meet. Exits with hysteresis at half the bound.
  /// 0 = disabled.
  double brownout_p99_queue_wait_ms = 0.0;
  /// Fraction of max_queued kept while browned out (floored at 1 slot).
  double brownout_queue_fraction = 0.25;
};

/// \brief Per-request execution control.
struct RequestControl {
  /// Wall-clock budget in seconds, measured from admission (queue wait
  /// counts against it); 0 = no deadline.
  double deadline_seconds = 0.0;
  /// Cooperative cancellation; see util/cancellation.h.
  CancellationToken cancel;
};

/// \brief One target set, as dictionary ids and/or lexical forms.
///
/// Lexical forms are full IRIs or unambiguous IRI suffixes ("Paris"
/// resolves to <http://dbpedia.org/resource/Paris> when unique at a '/'
/// or '#' boundary). Ids and names are merged; duplicates are fine.
struct TargetSpec {
  std::vector<TermId> ids;
  std::vector<std::string> names;
};

/// \brief Mine the most intuitive referring expression for one target set.
struct MineRequest {
  /// Which KB to serve from ("" = the default tenant). Unknown names
  /// fail the request with kNotFound.
  std::string kb;
  TargetSpec targets;
  /// Allowed non-target matches (0 = strict RE; paper §6 future work).
  size_t max_exceptions = 0;
  /// Also render the result as an English-ish sentence.
  bool verbalize = false;
  /// Per-request cost-model override (e.g. Ĉpr instead of the service
  /// default). Variant miners share the pool and the match-set cache.
  std::optional<CostModelOptions> cost;
  /// Per-request language-bias override (e.g. atoms-only).
  std::optional<EnumeratorOptions> enumerator;
  RequestControl control;
};

/// Timing breakdown of one request's trip through the Service.
struct ServiceStats {
  double queue_wait_seconds = 0.0;  ///< admission queue
  double resolve_seconds = 0.0;     ///< lexical target resolution
  double mine_seconds = 0.0;        ///< time inside the miner
  /// Tenant KB generation this request was pinned to (0 = never pinned,
  /// e.g. expired while queued).
  uint64_t generation = 0;
};

struct MineResponse {
  /// Execution outcome: OK, DeadlineExceeded, or Cancelled. Interrupted
  /// runs still carry the partial stats below.
  Status status;
  bool found = false;
  double cost = 0.0;
  std::vector<TermId> targets;  ///< resolved, sorted, deduplicated
  /// Labels of `targets`, rendered under the request's pinned generation
  /// (wire serialization must not consult the live KB: a concurrent
  /// reload could have swapped it).
  std::vector<std::string> target_labels;
  Expression expression;
  std::string expression_text;
  std::string verbalization;  ///< filled iff request.verbalize
  std::vector<TermId> exceptions;
  std::vector<std::string> exception_labels;
  /// Search counters of this run. Caveat: the eval sub-stats (cache
  /// hits/misses, evaluations) are deltas over counters shared by all
  /// concurrent requests on this service, so under concurrency they may
  /// include sibling requests' evaluator activity (same caveat as
  /// RemiMiner::MineBatch).
  RemiStats stats;
  ServiceStats service;
};

/// \brief Mine many independent target sets in one request (the paper's
/// many-users workload). The deadline and the admission slot cover the
/// whole batch.
struct BatchMineRequest {
  std::string kb;  ///< "" = the default tenant
  std::vector<TargetSpec> target_sets;
  size_t max_exceptions = 0;
  bool verbalize = false;
  std::optional<CostModelOptions> cost;
  std::optional<EnumeratorOptions> enumerator;
  RequestControl control;
};

struct BatchMineResponse {
  /// OK, or DeadlineExceeded/Cancelled when the batch was interrupted
  /// (individual results then also carry their own per-run status).
  Status status;
  std::vector<MineResponse> results;
  ServiceStats service;
};

/// \brief Top-k most intuitive atoms of one entity (Table 3 protocol:
/// standard language, no rdf:type, no inverse predicates).
struct SummarizeRequest {
  std::string kb;     ///< "" = the default tenant
  TargetSpec entity;  ///< must resolve to exactly one entity
  size_t k = 5;
  ProminenceMetric metric = ProminenceMetric::kFrequency;
  RequestControl control;
};

struct SummarizeResponse {
  Status status;
  TermId entity = kNullTerm;
  std::string entity_label;
  Summary items;
  std::vector<std::string> item_labels;  ///< "predicate = object" per item
  ServiceStats service;
};

/// \brief The ranked candidate queue (Alg. 1 line 2) for a target set —
/// the introspection surface used by demos and the user-study harnesses.
struct CandidatesRequest {
  std::string kb;  ///< "" = the default tenant
  TargetSpec targets;
  /// Keep only the cheapest `limit` candidates; 0 = all.
  size_t limit = 0;
  std::optional<CostModelOptions> cost;
  std::optional<EnumeratorOptions> enumerator;
  /// Deadline/cancellation, polled during the Ĉ-costing pass (candidates
  /// bypass admission control, so this is the only bound on the call).
  RequestControl control;
};

/// \brief Swap in a new KB generation without dropping requests.
///
/// The candidate is opened and fully validated off the serving path; only
/// a candidate that passes every structural-invariant check is published.
/// All failures are reported in-band (fail closed, keep serving).
struct ReloadKbRequest {
  /// Which tenant to reload ("" = the default tenant). Unknown names
  /// report kNotFound in the response status; no other tenant is
  /// touched either way.
  std::string kb;
  KbSpec spec;
};

/// Service-wide counters. The request ledger (RequestLedger's fields,
/// monotonic since construction) is the sum of every tenant's slice —
/// open, detached-and-draining, and retired — so it reconciles with
/// CountersFor() by construction; reloads_rejected additionally counts
/// reloads of unknown kb names. The rest are service-only fields.
struct ServiceCounters : RequestLedger {
  /// Callers rejected only because brownout tightened the queue depth
  /// (the full max_queued would have let them wait).
  uint64_t brownout_rejected = 0;
  /// Gauge: the admission controller is currently browned out (p99 queue
  /// wait exceeded ServiceOptions::brownout_p99_queue_wait_ms).
  bool brownout_active = false;
  size_t in_flight = 0;
  size_t peak_in_flight = 0;
  // --- hot-swap registry ---
  /// The default tenant's serving generation (generations are
  /// per-tenant; see CountersFor for named tenants).
  uint64_t generation = 0;
  /// Epochs still alive across ALL tenants: each tenant's serving epoch
  /// plus retired generations kept alive by in-flight pinned requests.
  /// Equals tenants_active at quiescence; a value stuck above that means
  /// a retired generation leaked. (Exported on the wire as both
  /// active_generations and epochs_live_total.)
  size_t active_generations = 0;
  /// Open tenants (the default one counts; lazy catalog entries don't
  /// until first use).
  size_t tenants_active = 0;
  // --- transport health (reported by the wire server) ---
  /// accept(2) failures survived and retried (EPROTO, EMFILE bursts, ...).
  /// A growing value with zero new connections is the old zombie-accept
  /// signature, now visible instead of silent.
  uint64_t accept_errors_retried = 0;
  /// accept(2) failures that terminated an accept loop (dead listener).
  uint64_t accept_errors_fatal = 0;
  /// Connections the epoll core reaped for lifecycle-timeout reasons:
  /// idle (no traffic and no pending work past --idle-timeout-ms, which
  /// includes a never-completed wire-mode handshake) and write-stall (a
  /// peer that stopped draining its responses past
  /// --write-stall-timeout-ms — the slow-loris signature).
  uint64_t connections_reaped_idle = 0;
  uint64_t connections_reaped_write_stall = 0;
};

/// \brief One serving process, many named KBs, many requests,
/// hot-swappable generations per tenant.
///
/// Thread-safe: any number of threads may issue requests concurrently;
/// admission control bounds how many actually execute, and
/// ReloadKb/AttachKb/DetachKb may run concurrently with all of them.
/// Responses' Expression/TermId values index the dictionary of the
/// tenant generation that produced them — keep the Service alive (and,
/// under concurrent reload, prefer the pre-rendered *_text/*_labels
/// response fields) while using them.
class Service {
 public:
  /// Opens the KB described by `spec` and starts a service on it (the
  /// default tenant; attach more via AttachKb / the catalog).
  static Result<std::unique_ptr<Service>> Open(
      const KbSpec& spec, const ServiceOptions& options = {});

  /// Adopts an already built KB (synthetic and curated workloads).
  static std::unique_ptr<Service> Create(KnowledgeBase kb,
                                         const ServiceOptions& options = {});

  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // --- request surface -------------------------------------------------------

  /// Result error: InvalidArgument (empty/ambiguous targets, bad ids),
  /// NotFound (unresolvable name or unknown `kb`), ResourceExhausted
  /// (admission). Response status: OK | DeadlineExceeded | Cancelled.
  Result<MineResponse> Mine(const MineRequest& request);

  /// Same contract as Mine, over many sets sharing one admission slot.
  Result<BatchMineResponse> BatchMine(const BatchMineRequest& request);

  /// Same contract as Mine: the deadline/cancellation token bound the
  /// queue wait and the atom-costing pass.
  Result<SummarizeResponse> Summarize(const SummarizeRequest& request);

  /// Ranked candidate queue; bypasses admission control (introspection),
  /// but the request's control still bounds the costing pass —
  /// DeadlineExceeded/Cancelled surface as the Result error here since
  /// there is no partial payload to return. When `expression_texts` is
  /// non-null it receives one rendered expression per returned candidate,
  /// produced under the request's pinned generation (safe to serialize
  /// even if a reload lands concurrently).
  Result<std::vector<RankedSubgraph>> Candidates(
      const CandidatesRequest& request,
      std::vector<std::string>* expression_texts = nullptr);

  // --- hot swap --------------------------------------------------------------

  /// Opens + validates `request.spec` off the serving path and, on
  /// success, atomically publishes it as the named tenant's next
  /// generation. Fails closed: a corrupt/truncated/invariant-violating
  /// candidate is reported in-band (Corruption/ParseError/IoError) and
  /// the tenant's previous generation keeps serving; an unknown
  /// `request.kb` reports kNotFound. In-flight requests pinned to older
  /// generations are never disturbed; their epochs are destroyed when
  /// the last pinned request completes. Concurrent reloads of one tenant
  /// serialize; different tenants reload independently.
  ReloadKbResponse ReloadKb(const ReloadKbRequest& request);

  // --- multi-tenant registry -------------------------------------------------

  /// Opens `spec` (off the serving path) and attaches it as the named
  /// tenant. kAlreadyExists if the name is taken (open or catalog);
  /// kInvalidArgument for the reserved default name "". `quota` absent =
  /// the service's default per-tenant quota.
  Status AttachKb(const std::string& name, const KbSpec& spec,
                  const std::optional<TenantQuota>& quota = std::nullopt);

  /// Attaches an already built KB (synthetic and curated workloads).
  Status AttachKb(const std::string& name, KnowledgeBase kb,
                  const std::optional<TenantQuota>& quota = std::nullopt);

  /// Detaches the named tenant (and masks any catalog entry with that
  /// name). In-flight requests on it drain — a pinned epoch is never
  /// torn down. kInvalidArgument for the default tenant, kNotFound for
  /// unknown names.
  Status DetachKb(const std::string& name);

  /// Registers a lazily opened catalog entry (loaded on first request
  /// that names it). Same errors as AttachKb.
  Status AddCatalogKb(const std::string& name, const KbSpec& spec,
                      const std::optional<TenantQuota>& quota = std::nullopt);

  /// Reads a catalog file (see ParseKbCatalog for the format) and
  /// registers every entry. Returns the number of entries registered;
  /// fails atomically on parse errors or duplicate names (no partial
  /// registration).
  Result<size_t> LoadCatalogFile(const std::string& path);

  /// True iff `name` is serveable now or on first use (open tenant or
  /// catalog entry). Never loads anything.
  bool HasKb(const std::string& name) const;

  /// Every open tenant and not-yet-opened catalog entry, name-sorted
  /// (default tenant "" first).
  std::vector<KbInfo> ListKbs() const;

  /// Per-tenant counter snapshot (admission gauges included). kNotFound
  /// for unknown names; a catalog entry not yet opened also reports
  /// kNotFound (it has served nothing).
  Result<TenantCounters> CountersFor(const std::string& kb) const;

  // --- resolution & introspection -------------------------------------------

  /// Resolves one lexical form (full IRI or unambiguous suffix) to an
  /// entity id of the default tenant's *current* generation. NotFound /
  /// InvalidArgument on zero / several matches.
  Result<TermId> ResolveTarget(const std::string& name) const;

  /// Resolves a TargetSpec to a sorted, deduplicated id list; validates
  /// that explicit ids are in the dictionary range (default tenant).
  Result<std::vector<TermId>> ResolveTargets(const TargetSpec& spec) const;

  /// The default tenant's current KB. The reference is stable only while
  /// no concurrent ReloadKb retires that generation — single-owner
  /// callers (CLI, tests, examples) may hold it across calls; concurrent
  /// servers should pin via SharedKb() instead.
  const KnowledgeBase& kb() const;

  /// The default tenant's current KB, pinned: the aliased shared_ptr
  /// keeps the whole epoch (KB + caches) alive even after a reload
  /// retires it.
  std::shared_ptr<const KnowledgeBase> SharedKb() const;

  /// The default tenant's serving generation number (1-based, +1 per
  /// successful reload).
  uint64_t generation() const;

  const ServiceOptions& options() const { return options_; }
  ServiceCounters counters() const;

  /// Records an accept(2) failure observed by the wire server fronting
  /// this service (ServiceCounters::accept_errors_*). `fatal` marks failures
  /// that killed an accept loop.
  void RecordAcceptError(bool fatal);

  /// Records a connection reaped by the wire server's lifecycle timeouts
  /// (ServiceCounters::connections_reaped_*). `write_stall` separates the
  /// slow-loris/never-drains case from plain idleness.
  void RecordConnectionReaped(bool write_stall);

  /// The back-off hint (milliseconds) the wire server attaches to
  /// ResourceExhausted responses, for the default tenant. Derived from
  /// live admission state — the measured mean service time, how full the
  /// queue is, and how many slots drain it — plus ±25% jitter so a burst
  /// of rejected clients doesn't come back as a synchronized thundering
  /// herd.
  uint64_t RetryAfterMsHint() const;

  /// Quota-aware variant: when the named tenant has an in-flight quota,
  /// the hint is derived from *its* queue depth, slot count, and mean
  /// service time — a throttled tenant's clients back off on their own
  /// tenant's congestion, not the (possibly idle) global queue. Falls
  /// back to the global hint for unknown names and quota-less tenants.
  uint64_t RetryAfterMsHint(const std::string& kb) const;

  /// The deterministic core of RetryAfterMsHint (pure, unit-testable):
  /// roughly the time for `queued` requests ahead of the caller to drain
  /// through `max_in_flight` slots at `mean_service_ms` each, floored at
  /// 25ms and capped near 10s, scaled by jitter/256 in [0.75, 1.25).
  /// Strictly monotonic in `queued` (at fixed jitter) until the cap.
  static uint64_t ComputeRetryAfterMs(size_t queued, size_t max_in_flight,
                                      double mean_service_ms,
                                      uint32_t jitter256);

  /// Malformed N-Triples lines skipped by the default tenant's current
  /// lenient open (0 for other formats). Callers surface this so silent
  /// data loss stays visible.
  size_t parse_skipped_lines() const;

 private:
  Service(LoadedKb loaded, const ServiceOptions& options);

  /// Blocks until an execution slot is free for `tenant` (or the
  /// deadline expires / a queue overflows). Both gates — the global
  /// bound and the tenant's quota — are checked under the one admission
  /// mutex. OK = admitted; caller must Release(tenant).
  Status Admit(Tenant& tenant, const Deadline& deadline,
               const CancellationToken& cancel, double* queue_wait_seconds);
  void Release(Tenant& tenant);

  static void EnsureNameIndex(const KbEpoch& epoch);
  static Result<TermId> ResolveTargetIn(const KbEpoch& epoch,
                                        const std::string& name);
  static Result<std::vector<TermId>> ResolveTargetsIn(const KbEpoch& epoch,
                                                      const TargetSpec& spec);

  /// Maps one RemiResult into a MineResponse (status, text, labels), all
  /// rendered under `epoch` so the response is self-contained.
  MineResponse BuildMineResponse(const KbEpoch& epoch, const RemiResult& mined,
                                 bool verbalize,
                                 std::vector<TermId> targets) const;

  /// Feeds one queue-wait sample into the brownout window and updates
  /// brownout_active_ (enter above the p99 bound, exit below half of
  /// it). Caller holds admission_mu_; no-op when brownout is disabled.
  void RecordQueueWaitLocked(double wait_seconds);
  /// The queue depth currently enforced by the global gate: max_queued,
  /// tightened to brownout_queue_fraction * max_queued while browned
  /// out. Caller holds admission_mu_.
  size_t EffectiveMaxQueuedLocked() const;

  Deadline DeadlineFor(const RequestControl& control) const;

  ServiceOptions options_;
  std::unique_ptr<ThreadPool> pool_;  ///< iff mining.num_threads > 1

  /// Live-epoch gauge shared with every tenant's every KbEpoch.
  std::shared_ptr<std::atomic<size_t>> live_epochs_ =
      std::make_shared<std::atomic<size_t>>(0);

  std::unique_ptr<TenantRegistry> registry_;
  /// The "" tenant, cached: it is resolved on every legacy call
  /// (kb(), generation(), ...) and can never be detached.
  std::shared_ptr<Tenant> default_tenant_;

  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  size_t in_flight_ = 0;
  size_t queued_ = 0;
  size_t peak_in_flight_ = 0;

  // Brownout state, guarded by admission_mu_: a ring of recent queue
  // waits (seconds) whose p99 drives the active flag.
  static constexpr size_t kQueueWaitWindow = 64;
  std::vector<double> queue_wait_ring_;
  size_t queue_wait_pos_ = 0;
  bool brownout_active_ = false;

  // Service-only counters; the request ledger lives in the tenants.
  std::atomic<uint64_t> brownout_rejected_{0};
  std::atomic<uint64_t> connections_reaped_idle_{0};
  std::atomic<uint64_t> connections_reaped_write_stall_{0};
  std::atomic<uint64_t> accept_errors_retried_{0};
  std::atomic<uint64_t> accept_errors_fatal_{0};
  /// ReloadKb calls naming no open tenant: rejected before any tenant
  /// could count them.
  std::atomic<uint64_t> unknown_kb_reloads_rejected_{0};
};

}  // namespace remi
