// Multi-tenant named-KB registry — many knowledge bases, one process.
//
// PR 7 made remi::Service an epoch-pinned snapshot registry for ONE KB:
// requests pin the generation they were admitted on, ReloadKb publishes a
// validated snapshot as generation N+1, and retired generations drain by
// shared_ptr count. This header generalizes that object to many *named*
// tenants: each tenant owns its own epoch chain (KbEpoch = KB + per-
// generation EvalCache + variant miners + lexical name index — exactly
// that single-KB object, now one chain per name), its own generation
// counter, its own reload serialization, and its own request counters.
// The registry resolves names to tenants, lazily opens tenants from a
// KbSpec catalog on first use, and attaches/detaches tenants at runtime.
//
// Division of labor with Service (service.h):
//   * TenantRegistry owns *lifecycle*: name -> Tenant resolution, catalog
//     lazy opens (single-flight: concurrent cold resolves of the same
//     name wait for one load), attach/detach, and the per-tenant epoch
//     chains.
//   * Service owns *execution*: the one shared dispatch pool and the one
//     global admission controller. Per-tenant quotas are enforced inside
//     that single controller — Tenant only provides the quota values and
//     the gauge storage (AdmissionState), all guarded by the Service's
//     admission mutex.
//
// Lifetime discipline (the couchbase-lite-core generation/sequence idea):
//   * A request holds shared_ptr<Tenant> for its whole execution and a
//     shared_ptr<KbEpoch> pin from admission to response rendering.
//     Detach removes the tenant from the maps only — the last pinned
//     request destroys the tenant and its epochs. Detach never tears
//     down a pinned epoch; it drains.
//   * All tenants' epochs feed one shared live-epoch gauge
//     (ServiceCounters::active_generations == epochs_live_total), so "a
//     retired generation leaked" stays a one-number check per process.
//
// The unnamed tenant "" is the default: every request that carries no
// `kb` field serves from it, which keeps every pre-existing single-KB
// client, test, and bench byte-for-byte compatible. It cannot be
// detached.

#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kb/knowledge_base.h"
#include "remi/remi.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace remi {

/// \brief Where and how to open a knowledge base.
///
/// The format is sniffed from the file: first by magic bytes (RKF2
/// snapshots, RKF1 containers), then by extension (.ttl/.turtle parse as
/// Turtle; everything else as N-Triples). This replaces the per-consumer
/// format plumbing that used to live in the CLI.
struct KbSpec {
  std::string path;
  /// Build options for text/RKF1 inputs. An .rkf2 snapshot carries its
  /// own build options and ignores these.
  KbOptions kb;
  /// N-Triples only: skip malformed lines instead of failing.
  bool lenient_parse = true;
};

/// A KB opened from disk, before it becomes an epoch.
struct LoadedKb {
  KnowledgeBase kb;
  size_t parse_skipped_lines = 0;
};

/// Opens `spec` with format sniffing and full validation (the RKF2
/// structural-invariant pass, the parsers' error checks). Pure — touches
/// no registry state, so reloads and lazy catalog opens run it off the
/// serving path.
Result<LoadedKb> LoadKbFromSpec(const KbSpec& spec);

/// \brief One KB generation and everything whose lifetime must match it:
/// the per-generation match-set cache (so stale entries die with their
/// epoch), the variant miners (they hold raw pointers into `kb`), and the
/// lexical name index (its keys are views into `kb`'s dictionary
/// storage).
///
/// The constructor builds everything a request would otherwise build
/// lazily: the dictionary's reverse index, the name index and the miner
/// of the default variant. An epoch is therefore warm before it is
/// published, whether by a first open, a lazy catalog open, an attach or
/// a reload. Published epochs are structurally immutable; the miner map
/// is the one internal cache left (other variants are built on first use
/// under miners_mu).
struct KbEpoch {
  /// \param pool the Service's shared dispatch pool (may be null); the
  ///        default miner runs on it.
  KbEpoch(KnowledgeBase kb_in, uint64_t generation_in,
          const RemiOptions& mining, ThreadPool* pool,
          std::shared_ptr<std::atomic<size_t>> live_epochs_in);
  ~KbEpoch();
  KbEpoch(const KbEpoch&) = delete;
  KbEpoch& operator=(const KbEpoch&) = delete;

  const KnowledgeBase kb;
  const uint64_t generation;
  size_t parse_skipped_lines = 0;
  /// Per-generation match-set cache: entries can never outlive (or
  /// cross into) another generation's KB.
  std::shared_ptr<EvalCache> eval_cache;

  /// The miner for a cost/bias variant; the default variant's is built
  /// by the constructor, the others on first use. All variant miners of
  /// one epoch share the service pool and this epoch's cache.
  mutable std::mutex miners_mu;
  mutable std::map<std::string, std::unique_ptr<RemiMiner>> miners;

  /// IRI local name (after the last '/' or '#') -> (entity id, number of
  /// entities sharing the name), built by the constructor. Keys are views
  /// into this epoch's dictionary storage. Makes the common "Paris"-style
  /// lookup O(1) instead of a full dictionary scan per request.
  const std::unordered_map<std::string_view, std::pair<TermId, uint32_t>>
      name_index;

  /// Shared live-epoch gauge (ServiceCounters::active_generations /
  /// epochs_live_total) — one gauge across *all* tenants; shared_ptr so
  /// a pinned epoch outliving the Service stays safe.
  std::shared_ptr<std::atomic<size_t>> live_epochs;
};

/// \brief Per-tenant admission quota, enforced by the Service's single
/// global admission controller. 0 = unlimited (tenant rides on the
/// global limits only).
struct TenantQuota {
  /// This tenant's requests executing concurrently before its callers
  /// queue.
  size_t max_in_flight = 0;
  /// This tenant's callers allowed to wait for one of its slots; the
  /// next one is rejected with kResourceExhausted (the global queue may
  /// still have room — that is the isolation property: a hot tenant is
  /// bounced before it can fill the shared queue).
  size_t max_queued = 0;
};

/// The per-request ledger: monotonic counts of what happened to the
/// requests (and reloads) of one tenant, or of the whole service. Each
/// event is counted exactly once, into the serving tenant's slice; the
/// service-wide view is the sum of the slices
/// (TenantRegistry::LedgerTotals), so the two views reconcile by
/// construction. At quiescence admitted == completed_ok +
/// deadline_exceeded + cancelled + failed; rejected requests were never
/// admitted.
struct RequestLedger {
  uint64_t admitted = 0;
  uint64_t completed_ok = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;
  uint64_t rejected = 0;  ///< kResourceExhausted at admission
  uint64_t failed = 0;    ///< admitted but invalid (bad targets etc.)
  /// Requests whose deadline had already expired at admission or while
  /// queued: shed in-band with DeadlineExceeded *before* any mining work
  /// (a subset of deadline_exceeded; nodes_visited_total is untouched).
  uint64_t shed_expired_in_queue = 0;
  uint64_t reloads_ok = 0;        ///< published generations (beyond the first)
  uint64_t reloads_rejected = 0;  ///< fail-closed reloads
  uint64_t nodes_visited_total = 0;  ///< DFS nodes across all admitted runs
  uint64_t mine_micros_total = 0;    ///< wall micros inside the miner

  RequestLedger& operator+=(const RequestLedger& other);

  /// Mean time inside the miner per finished run (ok, deadline exceeded
  /// or cancelled) in milliseconds; 0 before the first one. Feeds the
  /// retry_after_ms hint.
  double MeanServiceMs() const;
};

/// Every RequestLedger field with its wire key, in wire order: the one
/// list that summing, snapshotting and JSON encoding iterate.
struct LedgerField {
  const char* key;
  uint64_t RequestLedger::*member;
};
inline constexpr LedgerField kLedgerFields[] = {
    {"admitted", &RequestLedger::admitted},
    {"completed_ok", &RequestLedger::completed_ok},
    {"deadline_exceeded", &RequestLedger::deadline_exceeded},
    {"cancelled", &RequestLedger::cancelled},
    {"rejected", &RequestLedger::rejected},
    {"failed", &RequestLedger::failed},
    {"shed_expired_in_queue", &RequestLedger::shed_expired_in_queue},
    {"reloads_ok", &RequestLedger::reloads_ok},
    {"reloads_rejected", &RequestLedger::reloads_rejected},
    {"nodes_visited_total", &RequestLedger::nodes_visited_total},
    {"mine_micros_total", &RequestLedger::mine_micros_total},
};

/// \brief One tenant's live ledger: a RequestLedger whose fields are only
/// ever touched atomically (lock-free, one relaxed fetch_add per event).
///
/// Shared between the Tenant and, after a detach, the registry: the
/// registry keeps counting a detached tenant's block without keeping the
/// Tenant (and its KB) alive, and folds it into its retired total once
/// the Tenant is gone.
class TenantLedger {
 public:
  void Add(uint64_t RequestLedger::*field, uint64_t n = 1) {
    std::atomic_ref<uint64_t>(cells_.*field)
        .fetch_add(n, std::memory_order_relaxed);
  }
  RequestLedger Snapshot() const;

  /// Run by the owning Tenant's destructor; after closed() reads true,
  /// Snapshot() is final (the release/acquire pair orders every count
  /// before it).
  void Close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  /// Mutable: std::atomic_ref needs a non-const referent even to load.
  mutable RequestLedger cells_;
  std::atomic<bool> closed_{false};
};

/// Per-tenant request counters: the tenant's ledger plus its admission
/// gauges and serving generation.
struct TenantCounters : RequestLedger {
  size_t in_flight = 0;
  size_t queued = 0;
  size_t peak_in_flight = 0;
  /// This tenant's serving generation (1-based, +1 per successful
  /// reload — generations are per-tenant, not global).
  uint64_t generation = 0;
};

/// \brief Swap in a new KB generation without dropping requests
/// (per-tenant; see Tenant::Reload / Service::ReloadKb).
struct ReloadKbResponse {
  /// OK: the new generation is serving. Corruption / ParseError / IoError:
  /// the candidate was rejected and the previous generation keeps serving
  /// (the fields below then describe that still-serving generation).
  /// NotFound: the named tenant does not exist (Service-level only).
  Status status;
  /// The tenant's serving generation after the call.
  uint64_t generation = 0;
  size_t facts = 0;
  size_t entities = 0;
  /// Malformed N-Triples lines skipped by a lenient reload (0 otherwise).
  size_t parse_skipped_lines = 0;
  /// Open + validate time of the candidate (even when rejected).
  double load_seconds = 0.0;
  /// Time between the open and the publish: building the candidate's
  /// indexes and default miner, then re-evaluating the serving
  /// generation's hot match sets on it. 0 when rejected.
  double warm_seconds = 0.0;
  /// Match sets re-evaluated into the new generation's cache: the
  /// serving generation's hot set (EvalCache::HotKeys) less the entries
  /// with a term missing from the new KB.
  size_t warmed_entries = 0;
};

/// One row of Service::ListKbs — a tenant that is open, a catalog entry
/// not yet opened, or both.
struct KbInfo {
  std::string name;  ///< "" = the default tenant
  bool open = false; ///< serving now (catalog entries open lazily)
  bool from_catalog = false;
  uint64_t generation = 0;  ///< 0 when not open
  size_t facts = 0;
  size_t entities = 0;
  TenantQuota quota;
};

/// One entry of a KB catalog file (see ParseKbCatalog).
struct KbCatalogEntry {
  std::string name;
  KbSpec spec;
  /// Per-entry quota override; absent = the registry default.
  std::optional<TenantQuota> quota;
};

/// Parses a KB catalog document:
///
///   {"kbs": [{"name": "dbpedia", "path": "/data/dbpedia.rkf2",
///             "lenient": true, "max_in_flight": 2, "max_queued": 8}]}
///
/// "name" and "path" are required per entry; "lenient" (default true) and
/// the quota knobs (default: the service's per-tenant defaults) are
/// optional. Entries are *registered*, not opened: each KB loads on the
/// first request that names it.
Result<std::vector<KbCatalogEntry>> ParseKbCatalog(std::string_view json);

/// \brief One named KB and its epoch chain: the PR 7 single-KB hot-swap
/// object, one instance per tenant.
///
/// Thread-safe. Requests pin epochs via CurrentEpoch(); Reload publishes
/// the next generation without disturbing pinned ones; the ledger
/// methods are lock-free. The admission gauges (admission()) are the one
/// exception: they are storage for the Service's global admission
/// controller and are guarded by *its* mutex, not by anything here.
class Tenant {
 public:
  /// \param pool the Service's shared dispatch pool (may be null); every
  ///        miner of this tenant runs on it.
  Tenant(std::string name, const RemiOptions& mining, ThreadPool* pool,
         TenantQuota quota, std::shared_ptr<std::atomic<size_t>> live_epochs);
  ~Tenant() { ledger_->Close(); }
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string& name() const { return name_; }
  const TenantQuota& quota() const { return quota_; }

  /// Publishes generation 1. Called exactly once, before the tenant is
  /// visible to any resolver.
  void PublishInitial(KnowledgeBase kb, size_t parse_skipped_lines);

  /// The serving epoch; the returned shared_ptr is the caller's pin.
  std::shared_ptr<KbEpoch> CurrentEpoch() const;
  uint64_t generation() const { return CurrentEpoch()->generation; }

  /// Opens + validates `spec` off the serving path and, on success,
  /// builds the next generation (indexes and default miner), warms its
  /// cache with the serving generation's hot match sets, and publishes
  /// it. Fails closed: a bad candidate is reported in-band, nothing is
  /// warmed, and the previous generation keeps serving. Concurrent
  /// reloads of one tenant serialize; reloads of different tenants do
  /// not contend.
  ReloadKbResponse Reload(const KbSpec& spec);

  /// The miner for a cost/bias variant of `epoch`, created on first use.
  RemiMiner* MinerFor(const KbEpoch& epoch,
                      const std::optional<CostModelOptions>& cost,
                      const std::optional<EnumeratorOptions>& enumerator) const;

  // --- per-tenant accounting (the only copy of the request ledger) ---------
  void RecordAdmitted() { ledger_->Add(&RequestLedger::admitted); }
  void RecordRejected() { ledger_->Add(&RequestLedger::rejected); }
  void RecordFailed() { ledger_->Add(&RequestLedger::failed); }
  void RecordShedExpired() {
    ledger_->Add(&RequestLedger::shed_expired_in_queue);
  }
  /// Counts an admitted run's in-band outcome (OK, DeadlineExceeded or
  /// Cancelled; other codes are counted by RecordFailed).
  void RecordOutcome(const Status& status);
  void RecordMiningStats(uint64_t nodes_visited, double mine_seconds);

  /// The ledger block, shared so the registry can keep counting it after
  /// a detach without keeping this Tenant alive.
  const std::shared_ptr<TenantLedger>& ledger() const { return ledger_; }

  /// Snapshot of the ledger + generation. The admission gauges
  /// (in_flight, queued, peak_in_flight) are owned by the Service's
  /// admission controller and left zero here; Service::CountersFor fills
  /// them under its admission mutex.
  TenantCounters counters() const;

  /// Per-tenant admission bookkeeping, guarded by the *Service's*
  /// admission mutex (one global admission controller; the tenant only
  /// provides the storage).
  struct AdmissionState {
    size_t in_flight = 0;
    size_t queued = 0;
    size_t peak_in_flight = 0;
  };
  AdmissionState& admission() { return admission_; }
  const AdmissionState& admission() const { return admission_; }

 private:
  const std::string name_;
  const RemiOptions mining_;
  ThreadPool* const pool_;
  const TenantQuota quota_;
  std::shared_ptr<std::atomic<size_t>> live_epochs_;

  /// The snapshot registry: the serving epoch, swapped by Reload. Held
  /// only for the pointer copy or swap, never while an epoch is built.
  mutable std::mutex epoch_mu_;
  std::shared_ptr<KbEpoch> epoch_;
  /// Serializes this tenant's reloads (generation numbering + publish
  /// order). Never taken on the request path.
  std::mutex reload_mu_;

  AdmissionState admission_;

  std::shared_ptr<TenantLedger> ledger_ = std::make_shared<TenantLedger>();
};

/// \brief Name -> Tenant resolution, catalog lazy opens, attach/detach.
///
/// Thread-safe. The default tenant "" is created by InitDefault before
/// the registry is shared and is always resolvable; it cannot be
/// detached. Catalog entries open on first resolve (single-flight: while
/// one thread loads, others resolving the same name wait on a condition
/// variable instead of loading twice). Detach unmaps the name — in-flight
/// requests keep their shared_ptr<Tenant> and drain naturally, while the
/// registry keeps the tenant's ledger in the service-wide totals.
class TenantRegistry {
 public:
  /// \param mining base mining configuration, copied into every tenant.
  /// \param pool the Service's shared dispatch pool (may be null).
  /// \param default_quota quota for tenants without an explicit one.
  /// \param live_epochs the process-wide live-epoch gauge.
  TenantRegistry(const RemiOptions& mining, ThreadPool* pool,
                 TenantQuota default_quota,
                 std::shared_ptr<std::atomic<size_t>> live_epochs);

  /// Creates the default tenant "" serving `kb`. Called exactly once,
  /// before any other method.
  void InitDefault(KnowledgeBase kb, size_t parse_skipped_lines);

  /// The "" tenant (never null after InitDefault, never detached).
  std::shared_ptr<Tenant> DefaultTenant() const;

  /// Resolves a name to its tenant, lazily opening a catalog entry on
  /// first use. NotFound for unknown names (the in-band error both wire
  /// protocols surface for a bad "kb" field).
  Result<std::shared_ptr<Tenant>> Resolve(const std::string& name);

  /// The tenant iff already open — never triggers a catalog load
  /// (metrics paths must not pay a KB open). Null when absent.
  std::shared_ptr<Tenant> Peek(const std::string& name) const;

  /// True iff `name` is serveable: open, loading, or in the catalog.
  bool Has(const std::string& name) const;

  /// Opens `spec` (off-lock) and attaches it as tenant `name`.
  /// AlreadyExists if the name is taken (open, loading, or catalog);
  /// InvalidArgument for the reserved default name "".
  Status Attach(const std::string& name, const KbSpec& spec,
                const std::optional<TenantQuota>& quota);

  /// Attaches an already built KB (synthetic and curated workloads).
  Status AttachKb(const std::string& name, KnowledgeBase kb,
                  const std::optional<TenantQuota>& quota);

  /// Unmaps `name` (and masks any catalog entry so it cannot lazily
  /// reopen). In-flight requests drain via their shared_ptr; no epoch is
  /// torn down while pinned. InvalidArgument for ""; NotFound otherwise
  /// when unknown.
  Status Detach(const std::string& name);

  /// Registers a catalog entry without opening it. AlreadyExists if the
  /// name is taken; InvalidArgument for "".
  Status AddCatalogEntry(const std::string& name, const KbSpec& spec,
                         const std::optional<TenantQuota>& quota);

  /// Every open tenant plus every not-yet-opened catalog entry, sorted
  /// by name (the default tenant "" first).
  std::vector<KbInfo> List() const;

  /// The service-wide request ledger: the sum over open tenants, detached
  /// tenants still draining, and the retired total of drained ones. Taken
  /// under the registry lock, so a concurrent detach can neither drop nor
  /// double-count a slice — no field ever goes backwards.
  RequestLedger LedgerTotals() const;

  /// Open tenants right now (the tenants_active gauge).
  size_t tenants_active() const;

 private:
  struct CatalogEntry {
    KbSpec spec;
    TenantQuota quota;
  };

  const RemiOptions mining_;
  ThreadPool* const pool_;
  const TenantQuota default_quota_;
  std::shared_ptr<std::atomic<size_t>> live_epochs_;

  mutable std::mutex mu_;
  /// Signaled when a single-flight load (lazy open or attach) finishes.
  std::condition_variable loading_cv_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;
  std::map<std::string, CatalogEntry> catalog_;
  /// Names with a load in flight; reserves the name across the unlock.
  std::set<std::string> loading_;
  /// Ledgers of detached tenants whose Tenant still lives (requests in
  /// flight). The registry holds the block, not the Tenant, so draining
  /// never keeps a KB alive. LedgerTotals folds closed blocks away.
  mutable std::vector<std::shared_ptr<TenantLedger>> draining_;
  /// Final ledgers of detached tenants that finished draining.
  mutable RequestLedger retired_;
};

}  // namespace remi
