#include "service/tenant_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "rdf/ntriples.h"
#include "rdf/rkf.h"
#include "rdf/turtle_lite.h"
#include "util/json.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace remi {

namespace {

/// First bytes of the file, for magic-based format sniffing. Missing or
/// short files return an empty string (the open path reports the error).
std::string ReadMagic(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  char buf[4];
  const size_t got = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  return std::string(buf, got);
}

/// Deterministic cache key of a miner variant: the cost-model and
/// language-bias knobs a request may override.
std::string VariantKey(const CostModelOptions& cost,
                       const EnumeratorOptions& enumerator) {
  std::string key;
  key += 'c';
  key += std::to_string(static_cast<int>(cost.metric));
  key += cost.use_fitted_entity_ranks ? 'f' : '-';
  key += cost.use_join_predicate_ranks ? 'j' : '-';
  key += 'e';
  key += enumerator.extended_language ? 'x' : '-';
  key += enumerator.skip_blank_atoms ? 'b' : '-';
  key += enumerator.prune_prominent_expansion ? 'p' : '-';
  key += std::to_string(enumerator.prominent_object_fraction);
  key += enumerator.include_type_atoms ? 't' : '-';
  key += enumerator.include_inverse_predicates ? 'i' : '-';
  key += std::to_string(enumerator.max_subgraphs);
  return key;
}

/// IRI local name -> (entity id, entities sharing the name) over every
/// entity of `kb` (see KbEpoch::name_index).
std::unordered_map<std::string_view, std::pair<TermId, uint32_t>>
BuildNameIndex(const KnowledgeBase& kb) {
  std::unordered_map<std::string_view, std::pair<TermId, uint32_t>> index;
  index.reserve(kb.NumEntities());
  for (TermId id = 0; id < kb.dict().size(); ++id) {
    if (kb.dict().kind(id) != TermKind::kIri) continue;
    if (!kb.IsEntity(id)) continue;
    const std::string_view lex = kb.dict().lexical(id);
    const size_t cut = lex.find_last_of("/#");
    const std::string_view local =
        cut == std::string_view::npos ? lex : lex.substr(cut + 1);
    auto [it, inserted] = index.emplace(local, std::make_pair(id, 1u));
    if (!inserted) ++it->second.second;
  }
  return index;
}

/// `id` of `from` as an id of `to`, through its lexical form; kNullTerm
/// passes through. False when the term is missing from `to`.
bool TranslateTerm(const Dictionary& from, const Dictionary& to, TermId id,
                   TermId* out) {
  // A term is stored once per dictionary, so if `to` holds the same term
  // at the same id (a reload of an unchanged KB), that is its id; no hash
  // lookup needed.
  if (id == kNullTerm || (id < to.size() && to.kind(id) == from.kind(id) &&
                          to.lexical(id) == from.lexical(id))) {
    *out = id;
    return true;
  }
  auto found = to.Lookup(from.kind(id), from.lexical(id));
  if (!found.ok()) return false;
  *out = *found;
  return true;
}

/// The warm phase of a reload: re-evaluates on `next` the hot set of
/// `prev`'s cache (EvalCache::HotKeys), least recently used first, and
/// inserts it into `next`'s cache with each entry's reuse mark (so a
/// second reload carries the reused entries again). `miner` is `next`'s
/// default miner: each entry's Ĉ is computed on it too, which builds the
/// rankings its queue costing will need. Keys are translated through the
/// terms' lexical forms, since ids may shift between generations; a key
/// with a term missing from `next` is dropped. Match sets are computed
/// on `next`, never copied across generations. Returns the number of
/// entries warmed.
size_t WarmEpoch(const KbEpoch& prev, const KbEpoch& next,
                 const RemiMiner& miner) {
  const Dictionary& from = prev.kb.dict();
  const Dictionary& to = next.kb.dict();
  size_t warmed = 0;
  for (const auto& [old_key, reused] : prev.eval_cache->HotKeys()) {
    SubgraphExpression key = old_key;
    if (!TranslateTerm(from, to, old_key.p0, &key.p0) ||
        !TranslateTerm(from, to, old_key.p1, &key.p1) ||
        !TranslateTerm(from, to, old_key.p2, &key.p2) ||
        !TranslateTerm(from, to, old_key.c1, &key.c1) ||
        !TranslateTerm(from, to, old_key.c2, &key.c2)) {
      continue;
    }
    // The canonical order of star legs and closed-shape predicates
    // follows the ids, which may have moved.
    key.Normalize();
    miner.evaluator()->Prefill(key, reused);
    miner.cost_model().SubgraphCost(key);
    ++warmed;
  }
  return warmed;
}

}  // namespace

Result<LoadedKb> LoadKbFromSpec(const KbSpec& spec) {
  const std::string magic = ReadMagic(spec.path);
  if (magic == std::string("RKF2", 4)) {
    // OpenSnapshot runs the full structural-invariant validation pass:
    // checksums, section-table bounds, dictionary/CSR cross-invariants.
    // Anything wrong fails here with Corruption, never downstream UB.
    auto kb = KnowledgeBase::OpenSnapshot(spec.path);
    if (!kb.ok()) return WithMessagePrefix(kb.status(), spec.path);
    return LoadedKb{std::move(*kb), 0};
  }
  if (magic == std::string("RKF1", 4)) {
    auto data = ReadRkfFile(spec.path);
    if (!data.ok()) return WithMessagePrefix(data.status(), spec.path);
    return LoadedKb{
        KnowledgeBase::Build(std::move(data->dict), std::move(data->triples),
                             spec.kb),
        0};
  }
  Dictionary dict;
  Result<std::vector<Triple>> triples = Status::Internal("unreachable");
  size_t skipped_lines = 0;
  if (EndsWith(spec.path, ".ttl") || EndsWith(spec.path, ".turtle")) {
    TurtleLiteParser parser(&dict);
    triples = parser.ParseFile(spec.path);
  } else {
    NTriplesParser parser(&dict, spec.lenient_parse);
    triples = parser.ParseFile(spec.path);
    skipped_lines = parser.skipped_lines();
  }
  if (!triples.ok()) return WithMessagePrefix(triples.status(), spec.path);
  return LoadedKb{
      KnowledgeBase::Build(std::move(dict), std::move(*triples), spec.kb),
      skipped_lines};
}

// --- KbEpoch -----------------------------------------------------------------

KbEpoch::KbEpoch(KnowledgeBase kb_in, uint64_t generation_in,
                 const RemiOptions& mining, ThreadPool* pool,
                 std::shared_ptr<std::atomic<size_t>> live_epochs_in)
    : kb(std::move(kb_in)),
      generation(generation_in),
      eval_cache(std::make_shared<EvalCache>(mining.eval_cache_capacity)),
      name_index(BuildNameIndex(kb)),
      live_epochs(std::move(live_epochs_in)) {
  kb.dict().BuildIndex();
  miners.emplace(VariantKey(mining.cost, mining.enumerator),
                 std::make_unique<RemiMiner>(&kb, mining, pool, eval_cache));
  live_epochs->fetch_add(1, std::memory_order_relaxed);
}

KbEpoch::~KbEpoch() {
  live_epochs->fetch_sub(1, std::memory_order_relaxed);
}

// --- request ledger ----------------------------------------------------------

RequestLedger& RequestLedger::operator+=(const RequestLedger& other) {
  for (const LedgerField& field : kLedgerFields) {
    this->*field.member += other.*field.member;
  }
  return *this;
}

double RequestLedger::MeanServiceMs() const {
  const uint64_t finished = completed_ok + deadline_exceeded + cancelled;
  if (finished == 0) return 0.0;
  return static_cast<double>(mine_micros_total) /
         (1000.0 * static_cast<double>(finished));
}

RequestLedger TenantLedger::Snapshot() const {
  RequestLedger out;
  for (const LedgerField& field : kLedgerFields) {
    out.*field.member = std::atomic_ref<uint64_t>(cells_.*field.member)
                            .load(std::memory_order_relaxed);
  }
  return out;
}

// --- catalog parsing ---------------------------------------------------------

Result<std::vector<KbCatalogEntry>> ParseKbCatalog(std::string_view json) {
  REMI_ASSIGN_OR_RETURN(const JsonValue doc, ParseJson(json));
  if (!doc.is_object()) {
    return Status::InvalidArgument("catalog must be a JSON object");
  }
  const JsonValue* kbs = doc.Find("kbs");
  if (kbs == nullptr || !kbs->is_array()) {
    return Status::InvalidArgument(
        "catalog needs a \"kbs\" array of {name, path, ...} entries");
  }
  std::vector<KbCatalogEntry> entries;
  std::set<std::string> seen;
  for (const JsonValue& item : kbs->items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("catalog entries must be objects");
    }
    KbCatalogEntry entry;
    const JsonValue* name = item.Find("name");
    if (name == nullptr || !name->is_string() || name->AsString().empty()) {
      return Status::InvalidArgument(
          "catalog entry needs a non-empty \"name\" string");
    }
    entry.name = name->AsString();
    if (!seen.insert(entry.name).second) {
      return Status::InvalidArgument("catalog lists kb '" + entry.name +
                                     "' twice");
    }
    const JsonValue* path = item.Find("path");
    if (path == nullptr || !path->is_string() || path->AsString().empty()) {
      return Status::InvalidArgument("catalog entry '" + entry.name +
                                     "' needs a \"path\" string");
    }
    entry.spec.path = path->AsString();
    if (const JsonValue* lenient = item.Find("lenient")) {
      if (!lenient->is_bool()) {
        return Status::InvalidArgument("catalog entry '" + entry.name +
                                       "': lenient must be a bool");
      }
      entry.spec.lenient_parse = lenient->AsBool();
    }
    TenantQuota quota;
    bool has_quota = false;
    for (const char* key : {"max_in_flight", "max_queued"}) {
      const JsonValue* v = item.Find(key);
      if (v == nullptr) continue;
      if (!v->is_number() || !std::isfinite(v->AsNumber()) ||
          v->AsNumber() < 0 || v->AsNumber() != std::floor(v->AsNumber())) {
        return Status::InvalidArgument("catalog entry '" + entry.name +
                                       "': " + key +
                                       " must be a non-negative integer");
      }
      const size_t n = static_cast<size_t>(v->AsNumber());
      (std::string_view(key) == "max_in_flight" ? quota.max_in_flight
                                                : quota.max_queued) = n;
      has_quota = true;
    }
    if (has_quota) entry.quota = quota;
    entries.push_back(std::move(entry));
  }
  return entries;
}

// --- Tenant ------------------------------------------------------------------

Tenant::Tenant(std::string name, const RemiOptions& mining, ThreadPool* pool,
               TenantQuota quota,
               std::shared_ptr<std::atomic<size_t>> live_epochs)
    : name_(std::move(name)),
      mining_(mining),
      pool_(pool),
      quota_(quota),
      live_epochs_(std::move(live_epochs)) {}

void Tenant::PublishInitial(KnowledgeBase kb, size_t parse_skipped_lines) {
  auto epoch = std::make_shared<KbEpoch>(std::move(kb), /*generation=*/1,
                                         mining_, pool_, live_epochs_);
  epoch->parse_skipped_lines = parse_skipped_lines;
  std::lock_guard<std::mutex> lock(epoch_mu_);
  epoch_ = std::move(epoch);
}

std::shared_ptr<KbEpoch> Tenant::CurrentEpoch() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

ReloadKbResponse Tenant::Reload(const KbSpec& spec) {
  ReloadKbResponse response;
  Timer timer;
  // Serializing one tenant's reloads makes its generation numbering
  // race-free and keeps at most one candidate load in memory per tenant.
  // Request traffic is never blocked by this lock: the serving path only
  // takes epoch_mu_, which is held below just for the pointer swap —
  // and other tenants' reloads do not contend at all.
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  auto loaded = LoadKbFromSpec(spec);
  response.load_seconds = timer.ElapsedSeconds();
  if (!loaded.ok()) {
    // Fail closed: the candidate never touched the registry. Report the
    // load error in-band and describe the generation that keeps serving.
    ledger_->Add(&RequestLedger::reloads_rejected);
    response.status = loaded.status();
    std::shared_ptr<KbEpoch> serving = CurrentEpoch();
    response.generation = serving->generation;
    response.facts = serving->kb.NumFacts();
    response.entities = serving->kb.NumEntities();
    response.parse_skipped_lines = serving->parse_skipped_lines;
    return response;
  }
  // Build and warm the candidate off every lock the serving path takes;
  // requests keep pinning `serving` meanwhile. Only Reload replaces
  // epoch_ after the first publish, and reload_mu_ is held, so `serving`
  // stays the serving epoch until the swap below.
  Timer warm_timer;
  std::shared_ptr<KbEpoch> serving = CurrentEpoch();
  auto next = std::make_shared<KbEpoch>(std::move(loaded->kb),
                                        serving->generation + 1, mining_,
                                        pool_, live_epochs_);
  next->parse_skipped_lines = loaded->parse_skipped_lines;
  response.warmed_entries = WarmEpoch(
      *serving, *next, *MinerFor(*next, std::nullopt, std::nullopt));
  response.warm_seconds = warm_timer.ElapsedSeconds();
  {
    // Publish. The displaced epoch lives on until its last pinned request
    // releases it (shared_ptr count is the drain counter) and takes its
    // EvalCache and miners with it — stale entries die with their epoch.
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch_ = next;
  }
  ledger_->Add(&RequestLedger::reloads_ok);
  response.status = Status::OK();
  response.generation = next->generation;
  response.facts = next->kb.NumFacts();
  response.entities = next->kb.NumEntities();
  response.parse_skipped_lines = next->parse_skipped_lines;
  return response;
}

RemiMiner* Tenant::MinerFor(
    const KbEpoch& epoch, const std::optional<CostModelOptions>& cost,
    const std::optional<EnumeratorOptions>& enumerator) const {
  RemiOptions variant = mining_;
  if (cost.has_value()) variant.cost = *cost;
  if (enumerator.has_value()) variant.enumerator = *enumerator;
  const std::string key = VariantKey(variant.cost, variant.enumerator);

  {
    std::lock_guard<std::mutex> lock(epoch.miners_mu);
    auto it = epoch.miners.find(key);
    if (it != epoch.miners.end()) return it->second.get();
  }
  // Build outside the lock: a first Ĉpr request runs a full PageRank
  // pass, which must not stall concurrent requests for other (or
  // already-built) variants. Two racing builders of the same variant
  // just discard one result. The miner points into this epoch's KB and
  // cache only — the caller's epoch pin keeps both alive.
  auto built = std::make_unique<RemiMiner>(&epoch.kb, variant, pool_,
                                           epoch.eval_cache);
  std::lock_guard<std::mutex> lock(epoch.miners_mu);
  auto [it, inserted] = epoch.miners.emplace(key, std::move(built));
  return it->second.get();
}

void Tenant::RecordOutcome(const Status& status) {
  if (status.ok()) {
    ledger_->Add(&RequestLedger::completed_ok);
  } else if (status.IsDeadlineExceeded()) {
    ledger_->Add(&RequestLedger::deadline_exceeded);
  } else if (status.IsCancelled()) {
    ledger_->Add(&RequestLedger::cancelled);
  }
}

void Tenant::RecordMiningStats(uint64_t nodes_visited, double mine_seconds) {
  ledger_->Add(&RequestLedger::nodes_visited_total, nodes_visited);
  ledger_->Add(&RequestLedger::mine_micros_total,
               static_cast<uint64_t>(mine_seconds * 1e6));
}

TenantCounters Tenant::counters() const {
  TenantCounters c;
  static_cast<RequestLedger&>(c) = ledger_->Snapshot();
  c.generation = generation();
  return c;
}

// --- TenantRegistry ----------------------------------------------------------

TenantRegistry::TenantRegistry(const RemiOptions& mining, ThreadPool* pool,
                               TenantQuota default_quota,
                               std::shared_ptr<std::atomic<size_t>> live_epochs)
    : mining_(mining),
      pool_(pool),
      default_quota_(default_quota),
      live_epochs_(std::move(live_epochs)) {}

void TenantRegistry::InitDefault(KnowledgeBase kb,
                                 size_t parse_skipped_lines) {
  auto tenant = std::make_shared<Tenant>(std::string(), mining_, pool_,
                                         default_quota_, live_epochs_);
  tenant->PublishInitial(std::move(kb), parse_skipped_lines);
  std::lock_guard<std::mutex> lock(mu_);
  tenants_.emplace(std::string(), std::move(tenant));
}

std::shared_ptr<Tenant> TenantRegistry::DefaultTenant() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.at(std::string());
}

Result<std::shared_ptr<Tenant>> TenantRegistry::Resolve(
    const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = tenants_.find(name);
    if (it != tenants_.end()) return it->second;
    if (loading_.count(name) > 0) {
      // Single-flight: another thread is opening this name (lazy catalog
      // open or an Attach in progress); wait for its verdict rather than
      // loading the same KB twice.
      loading_cv_.wait(lock);
      continue;
    }
    auto cat = catalog_.find(name);
    if (cat == catalog_.end()) {
      return Status::NotFound("unknown kb '" + name + "'");
    }
    const CatalogEntry entry = cat->second;
    loading_.insert(name);
    lock.unlock();
    // The load (parse/mmap/validate) and the epoch build run off-lock:
    // other tenants keep resolving and serving while this one opens.
    auto loaded = LoadKbFromSpec(entry.spec);
    std::shared_ptr<Tenant> tenant;
    if (loaded.ok()) {
      tenant = std::make_shared<Tenant>(name, mining_, pool_, entry.quota,
                                        live_epochs_);
      tenant->PublishInitial(std::move(loaded->kb),
                             loaded->parse_skipped_lines);
    }
    lock.lock();
    loading_.erase(name);
    loading_cv_.notify_all();
    if (!loaded.ok()) {
      // Fail open for retries: the entry stays in the catalog, so a
      // transient IO error doesn't permanently kill the name.
      return WithMessagePrefix(loaded.status(), "kb '" + name + "'");
    }
    tenants_.emplace(name, tenant);
    return tenant;
  }
}

std::shared_ptr<Tenant> TenantRegistry::Peek(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(name);
  return it != tenants_.end() ? it->second : nullptr;
}

bool TenantRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.count(name) > 0 || loading_.count(name) > 0 ||
         catalog_.count(name) > 0;
}

Status TenantRegistry::Attach(const std::string& name, const KbSpec& spec,
                              const std::optional<TenantQuota>& quota) {
  if (name.empty()) {
    return Status::InvalidArgument(
        "the default kb \"\" always exists and cannot be attached");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenants_.count(name) > 0 || loading_.count(name) > 0 ||
        catalog_.count(name) > 0) {
      return Status::AlreadyExists("kb '" + name + "' already exists");
    }
    // Reserve the name across the off-lock load: concurrent attaches of
    // the same name fail fast, concurrent resolves wait.
    loading_.insert(name);
  }
  auto loaded = LoadKbFromSpec(spec);
  std::shared_ptr<Tenant> tenant;
  if (loaded.ok()) {
    tenant = std::make_shared<Tenant>(name, mining_, pool_,
                                      quota.value_or(default_quota_),
                                      live_epochs_);
    tenant->PublishInitial(std::move(loaded->kb),
                           loaded->parse_skipped_lines);
  }
  std::lock_guard<std::mutex> lock(mu_);
  loading_.erase(name);
  loading_cv_.notify_all();
  if (!loaded.ok()) {
    return WithMessagePrefix(loaded.status(), "kb '" + name + "'");
  }
  tenants_.emplace(name, std::move(tenant));
  return Status::OK();
}

Status TenantRegistry::AttachKb(const std::string& name, KnowledgeBase kb,
                                const std::optional<TenantQuota>& quota) {
  if (name.empty()) {
    return Status::InvalidArgument(
        "the default kb \"\" always exists and cannot be attached");
  }
  auto tenant = std::make_shared<Tenant>(
      name, mining_, pool_, quota.value_or(default_quota_), live_epochs_);
  tenant->PublishInitial(std::move(kb), 0);
  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.count(name) > 0 || loading_.count(name) > 0 ||
      catalog_.count(name) > 0) {
    return Status::AlreadyExists("kb '" + name + "' already exists");
  }
  tenants_.emplace(name, std::move(tenant));
  return Status::OK();
}

Status TenantRegistry::Detach(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("the default kb cannot be detached");
  }
  std::unique_lock<std::mutex> lock(mu_);
  // An in-flight single-flight load still owns the name; let it finish
  // so detach has a definite object (or a definite failure) to act on.
  while (loading_.count(name) > 0) loading_cv_.wait(lock);
  const auto open = tenants_.find(name);
  const bool was_open = open != tenants_.end();
  if (was_open) {
    draining_.push_back(open->second->ledger());
    tenants_.erase(open);
  }
  const bool was_cataloged = catalog_.erase(name) > 0;
  if (!was_open && !was_cataloged) {
    return Status::NotFound("unknown kb '" + name + "'");
  }
  // The erased shared_ptr was possibly the last owner — but any request
  // still executing holds its own shared_ptr<Tenant> plus an epoch pin,
  // so the tenant and its epochs drain instead of being torn down.
  return Status::OK();
}

Status TenantRegistry::AddCatalogEntry(
    const std::string& name, const KbSpec& spec,
    const std::optional<TenantQuota>& quota) {
  if (name.empty()) {
    return Status::InvalidArgument("catalog entries need a non-empty name");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.count(name) > 0 || loading_.count(name) > 0 ||
      catalog_.count(name) > 0) {
    return Status::AlreadyExists("kb '" + name + "' already exists");
  }
  catalog_.emplace(name, CatalogEntry{spec, quota.value_or(default_quota_)});
  return Status::OK();
}

std::vector<KbInfo> TenantRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<KbInfo> out;
  out.reserve(tenants_.size() + catalog_.size());
  for (const auto& [name, tenant] : tenants_) {
    KbInfo info;
    info.name = name;
    info.open = true;
    info.quota = tenant->quota();
    const std::shared_ptr<KbEpoch> epoch = tenant->CurrentEpoch();
    info.generation = epoch->generation;
    info.facts = epoch->kb.NumFacts();
    info.entities = epoch->kb.NumEntities();
    out.push_back(std::move(info));
  }
  for (const auto& [name, entry] : catalog_) {
    KbInfo info;
    info.name = name;
    info.from_catalog = true;
    info.quota = entry.quota;
    out.push_back(std::move(info));
  }
  // std::map iteration is already name-sorted, but the two sources
  // interleave; one stable sort keeps "" first and names ordered.
  std::sort(out.begin(), out.end(),
            [](const KbInfo& a, const KbInfo& b) { return a.name < b.name; });
  return out;
}

RequestLedger TenantRegistry::LedgerTotals() const {
  std::lock_guard<std::mutex> lock(mu_);
  RequestLedger total = retired_;
  for (const auto& [name, tenant] : tenants_) {
    total += tenant->ledger()->Snapshot();
  }
  std::erase_if(draining_, [&](const std::shared_ptr<TenantLedger>& ledger) {
    // Read closed() first: once the Tenant is gone the snapshot is final
    // and folds into retired_; until then it is summed live.
    const bool closed = ledger->closed();
    const RequestLedger counts = ledger->Snapshot();
    total += counts;
    if (closed) retired_ += counts;
    return closed;
  });
  return total;
}

size_t TenantRegistry::tenants_active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

}  // namespace remi
