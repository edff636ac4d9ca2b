// RKF2 KB snapshot codec: serializes a fully built KnowledgeBase into a
// section-table'd RKF2 image and reconstitutes it without rebuilding.
//
// SerializeSnapshot dumps every index array (dictionary buffers, the three
// triple orderings, CSR offset tables and pools, prominence rankings, the
// class index, the inverse-predicate map) as one section each, plus a
// varint-coded meta section holding the counts and KbOptions. Open adopts
// the arrays in place over the mmap'ed image (ArrayRef views) after a
// structural validation pass, so a snapshot load costs checksum + validate
// at memory bandwidth instead of parse + sort + hash + rank.
//
// Trust model: Rkf2Image::Parse guarantees the *container* (bounds,
// alignment, checksums). This codec guarantees the *contents*: every
// invariant the query paths rely on (id ranges, sorted orderings, offset
// monotonicity, range tiling) is checked before a single view escapes, so
// a lying image yields Corruption, never undefined behavior.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "kb/knowledge_base.h"
#include "util/io_hooks.h"
#include "rdf/rkf2.h"
#include "util/logging.h"
#include "util/varint.h"

namespace remi {

namespace {

// Section ids of the KB snapshot payloads inside the RKF2 container.
enum KbSection : uint32_t {
  kSecMeta = 1,
  kSecDictKinds = 2,
  kSecDictOffsets = 3,
  kSecDictBlob = 4,
  kSecSpo = 5,
  kSecPso = 6,
  kSecPos = 7,
  kSecPredicates = 8,
  kSecSubjects = 9,
  kSecSubjectOffsets = 10,
  kSecPredSlot = 11,
  kSecPredIndex = 12,
  kSecSubjOffPool = 13,
  kSecObjOffPool = 14,
  kSecDistinctSubjPool = 15,
  kSecDistinctObjPool = 16,
  kSecProminence = 17,
  kSecFreqByRank = 18,
  kSecRankByTerm = 19,
  kSecClasses = 20,
  kSecClassOffsets = 21,
  kSecClassMembers = 22,
  kSecInversePairs = 23,
};

constexpr uint64_t kSnapshotMetaVersion = 1;

static_assert(std::is_trivially_copyable_v<Triple> && sizeof(Triple) == 12,
              "Triple is serialized verbatim in RKF2 snapshots");

template <typename T>
std::string_view RawBytes(const T* data, size_t n) {
  return {reinterpret_cast<const char*>(data), n * sizeof(T)};
}

Status Corrupt(const std::string& what) {
  return Status::Corruption("RKF2 snapshot: " + what);
}

/// Counts and options decoded from the meta section.
struct Meta {
  uint64_t dict_terms = 0;
  uint64_t blob_bytes = 0;
  uint64_t store_terms = 0;
  uint64_t triples = 0;
  uint64_t predicates = 0;
  uint64_t subjects = 0;
  uint64_t subj_off_pool = 0;
  uint64_t obj_off_pool = 0;
  uint64_t distinct_subjects = 0;
  uint64_t distinct_objects = 0;
  uint64_t entities = 0;
  uint64_t classes = 0;
  uint64_t class_members = 0;
  uint64_t inverse_pairs = 0;
  uint64_t base_facts = 0;
  TermId type_predicate = kNullTerm;
  TermId label_predicate = kNullTerm;
  KbOptions options;
};

Result<Meta> ParseMeta(std::string_view payload) {
  const std::string bytes(payload);  // varint helpers operate on strings
  size_t pos = 0;
  Meta meta;
  auto version = GetVarint64(bytes, &pos);
  if (!version.ok()) return version.status();
  if (*version != kSnapshotMetaVersion) {
    return Corrupt("unsupported snapshot version " +
                   std::to_string(*version));
  }
  uint64_t* const counts[] = {
      &meta.dict_terms,        &meta.blob_bytes,      &meta.store_terms,
      &meta.triples,           &meta.predicates,      &meta.subjects,
      &meta.subj_off_pool,     &meta.obj_off_pool,    &meta.distinct_subjects,
      &meta.distinct_objects,  &meta.entities,        &meta.classes,
      &meta.class_members,     &meta.inverse_pairs,   &meta.base_facts,
  };
  for (uint64_t* count : counts) {
    auto v = GetVarint64(bytes, &pos);
    if (!v.ok()) return v.status();
    *count = *v;
  }
  auto type_pred = GetVarint64(bytes, &pos);
  if (!type_pred.ok()) return type_pred.status();
  auto label_pred = GetVarint64(bytes, &pos);
  if (!label_pred.ok()) return label_pred.status();
  if (*type_pred > kNullTerm || *label_pred > kNullTerm) {
    return Corrupt("predicate id out of range");
  }
  meta.type_predicate = static_cast<TermId>(*type_pred);
  meta.label_predicate = static_cast<TermId>(*label_pred);

  auto type_iri = GetLengthPrefixed(bytes, &pos);
  if (!type_iri.ok()) return type_iri.status();
  auto label_iri = GetLengthPrefixed(bytes, &pos);
  if (!label_iri.ok()) return label_iri.status();
  if (pos + 8 > bytes.size()) return Corrupt("meta section truncated");
  const uint64_t fraction_bits = GetFixed64(bytes, pos);
  pos += 8;
  if (pos != bytes.size()) return Corrupt("trailing bytes in meta section");
  meta.options.type_predicate_iri = std::move(*type_iri);
  meta.options.label_predicate_iri = std::move(*label_iri);
  meta.options.inverse_top_fraction = std::bit_cast<double>(fraction_bits);
  return meta;
}

/// Typed view of one section, with an exact length check against the
/// element count declared in meta (catches section-length lies). Compares
/// by division so a count near 2^64 / sizeof(T) cannot wrap the multiply
/// and smuggle a huge element count past the check.
template <typename T>
Result<const T*> CastSection(const Rkf2Image& image, uint32_t id,
                             uint64_t count, const char* what) {
  auto payload = image.Section(id);
  if (!payload.ok()) return payload.status();
  if (payload->size() % sizeof(T) != 0 ||
      payload->size() / sizeof(T) != count) {
    return Corrupt(std::string(what) + ": expected " + std::to_string(count) +
                   " elements of " + std::to_string(sizeof(T)) +
                   " bytes, found " + std::to_string(payload->size()) +
                   " bytes");
  }
  return reinterpret_cast<const T*>(payload->data());
}

/// A strictly monotone offset array over [0, limit] starting at `first`
/// and ending at `last` would be too strict (offsets repeat for empty
/// keys); require nondecreasing with fixed endpoints.
Status CheckOffsets(const uint32_t* offsets, size_t n, uint64_t first,
                    uint64_t last, const char* what) {
  if (n == 0) return Corrupt(std::string(what) + ": empty offset table");
  if (offsets[0] != first || offsets[n - 1] != last) {
    return Corrupt(std::string(what) + ": offset endpoints mismatch");
  }
  for (size_t i = 1; i < n; ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Corrupt(std::string(what) + ": offsets not monotone at " +
                     std::to_string(i));
    }
  }
  return Status::OK();
}

Status CheckAscendingIds(const TermId* ids, size_t n, uint64_t limit,
                         const char* what) {
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] >= limit) {
      return Corrupt(std::string(what) + ": id out of range at " +
                     std::to_string(i));
    }
    if (i > 0 && ids[i] <= ids[i - 1]) {
      return Corrupt(std::string(what) + ": ids not ascending at " +
                     std::to_string(i));
    }
  }
  return Status::OK();
}

}  // namespace

/// Friend of KnowledgeBase and TripleStore: moves raw arrays in and out.
struct SnapshotCodec {
  static std::string Serialize(const KnowledgeBase& kb);
  static Result<KnowledgeBase> Open(std::shared_ptr<MmapFile> backing);
};

std::string SnapshotCodec::Serialize(const KnowledgeBase& kb) {
  const Dictionary& dict = kb.dict_;
  const TripleStore& store = kb.store_;

  // Dictionary buffers (works for owning and view dictionaries alike).
  const size_t num_terms = dict.size();
  std::vector<uint8_t> kinds(num_terms);
  std::vector<uint32_t> offsets(num_terms + 1, 0);
  std::string blob;
  for (TermId id = 0; id < num_terms; ++id) {
    kinds[id] = static_cast<uint8_t>(dict.kind(id));
    blob.append(dict.lexical(id));
    REMI_CHECK(blob.size() <= UINT32_MAX);
    offsets[id + 1] = static_cast<uint32_t>(blob.size());
  }

  // Inverse map as a flat (base, inverse) pair list sorted by base id.
  std::vector<uint32_t> inverse_pairs;
  inverse_pairs.reserve(kb.base_to_inverse_.size() * 2);
  {
    std::vector<std::pair<TermId, TermId>> pairs(
        kb.base_to_inverse_.begin(), kb.base_to_inverse_.end());
    std::sort(pairs.begin(), pairs.end());
    for (const auto& [base, inverse] : pairs) {
      inverse_pairs.push_back(base);
      inverse_pairs.push_back(inverse);
    }
  }

  std::string meta;
  PutVarint64(&meta, kSnapshotMetaVersion);
  for (const uint64_t count : {
           static_cast<uint64_t>(num_terms),
           static_cast<uint64_t>(blob.size()),
           static_cast<uint64_t>(store.num_terms_),
           static_cast<uint64_t>(store.spo_.size()),
           static_cast<uint64_t>(store.predicates_.size()),
           static_cast<uint64_t>(store.subjects_.size()),
           static_cast<uint64_t>(store.subj_offset_pool_.size()),
           static_cast<uint64_t>(store.obj_offset_pool_.size()),
           static_cast<uint64_t>(store.distinct_subject_pool_.size()),
           static_cast<uint64_t>(store.distinct_object_pool_.size()),
           static_cast<uint64_t>(kb.entities_by_prominence_.size()),
           static_cast<uint64_t>(kb.classes_.size()),
           static_cast<uint64_t>(kb.class_members_.size()),
           static_cast<uint64_t>(inverse_pairs.size() / 2),
           static_cast<uint64_t>(kb.num_base_facts_),
       }) {
    PutVarint64(&meta, count);
  }
  PutVarint64(&meta, kb.type_predicate_);
  PutVarint64(&meta, kb.label_predicate_);
  PutLengthPrefixed(&meta, kb.options_.type_predicate_iri);
  PutLengthPrefixed(&meta, kb.options_.label_predicate_iri);
  PutFixed64(&meta,
             std::bit_cast<uint64_t>(kb.options_.inverse_top_fraction));

  Rkf2Writer writer;
  writer.AddSection(kSecMeta, meta);
  writer.AddSection(kSecDictKinds, RawBytes(kinds.data(), kinds.size()));
  writer.AddSection(kSecDictOffsets,
                    RawBytes(offsets.data(), offsets.size()));
  writer.AddSection(kSecDictBlob, blob);
  writer.AddSection(kSecSpo, RawBytes(store.spo_.data(), store.spo_.size()));
  writer.AddSection(kSecPso, RawBytes(store.pso_.data(), store.pso_.size()));
  writer.AddSection(kSecPos, RawBytes(store.pos_.data(), store.pos_.size()));
  writer.AddSection(
      kSecPredicates,
      RawBytes(store.predicates_.data(), store.predicates_.size()));
  writer.AddSection(kSecSubjects,
                    RawBytes(store.subjects_.data(), store.subjects_.size()));
  writer.AddSection(kSecSubjectOffsets,
                    RawBytes(store.subject_offsets_.data(),
                             store.subject_offsets_.size()));
  writer.AddSection(
      kSecPredSlot, RawBytes(store.pred_slot_.data(), store.pred_slot_.size()));
  writer.AddSection(
      kSecPredIndex,
      RawBytes(store.pred_index_.data(), store.pred_index_.size()));
  writer.AddSection(kSecSubjOffPool,
                    RawBytes(store.subj_offset_pool_.data(),
                             store.subj_offset_pool_.size()));
  writer.AddSection(kSecObjOffPool,
                    RawBytes(store.obj_offset_pool_.data(),
                             store.obj_offset_pool_.size()));
  writer.AddSection(kSecDistinctSubjPool,
                    RawBytes(store.distinct_subject_pool_.data(),
                             store.distinct_subject_pool_.size()));
  writer.AddSection(kSecDistinctObjPool,
                    RawBytes(store.distinct_object_pool_.data(),
                             store.distinct_object_pool_.size()));
  writer.AddSection(kSecProminence,
                    RawBytes(kb.entities_by_prominence_.data(),
                             kb.entities_by_prominence_.size()));
  writer.AddSection(
      kSecFreqByRank,
      RawBytes(kb.freq_by_rank_.data(), kb.freq_by_rank_.size()));
  writer.AddSection(
      kSecRankByTerm,
      RawBytes(kb.rank_by_term_.data(), kb.rank_by_term_.size()));
  writer.AddSection(kSecClasses,
                    RawBytes(kb.classes_.data(), kb.classes_.size()));
  writer.AddSection(
      kSecClassOffsets,
      RawBytes(kb.class_offsets_.data(), kb.class_offsets_.size()));
  writer.AddSection(
      kSecClassMembers,
      RawBytes(kb.class_members_.data(), kb.class_members_.size()));
  writer.AddSection(
      kSecInversePairs,
      RawBytes(inverse_pairs.data(), inverse_pairs.size()));
  return writer.Finish();
}

Result<KnowledgeBase> SnapshotCodec::Open(std::shared_ptr<MmapFile> backing) {
  REMI_ASSIGN_OR_RETURN(const Rkf2Image image,
                        Rkf2Image::Parse(backing->data()));
  auto meta_payload = image.Section(kSecMeta);
  if (!meta_payload.ok()) return meta_payload.status();
  REMI_ASSIGN_OR_RETURN(const Meta meta, ParseMeta(*meta_payload));

  if (meta.store_terms > meta.dict_terms) {
    return Corrupt("store term universe exceeds dictionary size");
  }
  if (meta.base_facts > meta.triples) {
    return Corrupt("base fact count exceeds total facts");
  }
  if (meta.dict_terms >= kNullTerm) {
    return Corrupt("dictionary too large");
  }
  // Every count describes elements of >= 1 byte stored in this image, so
  // any count beyond the image size is a lie. Rejecting here also keeps
  // later count arithmetic (e.g. inverse_pairs * 2) far from overflow.
  const uint64_t image_bytes = backing->data().size();
  for (const uint64_t count :
       {meta.dict_terms, meta.blob_bytes, meta.store_terms, meta.triples,
        meta.predicates, meta.subjects, meta.subj_off_pool,
        meta.obj_off_pool, meta.distinct_subjects, meta.distinct_objects,
        meta.entities, meta.classes, meta.class_members,
        meta.inverse_pairs, meta.base_facts}) {
    if (count > image_bytes) {
      return Corrupt("meta count " + std::to_string(count) +
                     " exceeds image size");
    }
  }

  // Typed section views; every length is cross-checked against meta.
  REMI_ASSIGN_OR_RETURN(
      const uint8_t* kinds,
      CastSection<uint8_t>(image, kSecDictKinds, meta.dict_terms,
                           "dictionary kinds"));
  REMI_ASSIGN_OR_RETURN(
      const uint32_t* dict_offsets,
      CastSection<uint32_t>(image, kSecDictOffsets, meta.dict_terms + 1,
                            "dictionary offsets"));
  REMI_ASSIGN_OR_RETURN(
      const char* blob,
      CastSection<char>(image, kSecDictBlob, meta.blob_bytes,
                        "dictionary blob"));
  REMI_ASSIGN_OR_RETURN(
      const Triple* spo,
      CastSection<Triple>(image, kSecSpo, meta.triples, "SPO triples"));
  REMI_ASSIGN_OR_RETURN(
      const Triple* pso,
      CastSection<Triple>(image, kSecPso, meta.triples, "PSO triples"));
  REMI_ASSIGN_OR_RETURN(
      const Triple* pos,
      CastSection<Triple>(image, kSecPos, meta.triples, "POS triples"));
  REMI_ASSIGN_OR_RETURN(
      const TermId* predicates,
      CastSection<TermId>(image, kSecPredicates, meta.predicates,
                          "predicate list"));
  REMI_ASSIGN_OR_RETURN(
      const TermId* subjects,
      CastSection<TermId>(image, kSecSubjects, meta.subjects,
                          "subject list"));
  REMI_ASSIGN_OR_RETURN(
      const uint32_t* subject_offsets,
      CastSection<uint32_t>(image, kSecSubjectOffsets, meta.store_terms + 1,
                            "subject offsets"));
  REMI_ASSIGN_OR_RETURN(
      const uint32_t* pred_slot,
      CastSection<uint32_t>(image, kSecPredSlot, meta.store_terms,
                            "predicate slots"));
  using PredicateIndex = TripleStore::PredicateIndex;
  REMI_ASSIGN_OR_RETURN(
      const PredicateIndex* pred_index,
      CastSection<PredicateIndex>(image, kSecPredIndex, meta.predicates,
                                  "predicate index"));
  REMI_ASSIGN_OR_RETURN(
      const uint32_t* subj_off_pool,
      CastSection<uint32_t>(image, kSecSubjOffPool, meta.subj_off_pool,
                            "subject offset pool"));
  REMI_ASSIGN_OR_RETURN(
      const uint32_t* obj_off_pool,
      CastSection<uint32_t>(image, kSecObjOffPool, meta.obj_off_pool,
                            "object offset pool"));
  REMI_ASSIGN_OR_RETURN(
      const TermId* ds_pool,
      CastSection<TermId>(image, kSecDistinctSubjPool,
                          meta.distinct_subjects, "distinct subject pool"));
  REMI_ASSIGN_OR_RETURN(
      const TermId* do_pool,
      CastSection<TermId>(image, kSecDistinctObjPool, meta.distinct_objects,
                          "distinct object pool"));
  REMI_ASSIGN_OR_RETURN(
      const TermId* prominence,
      CastSection<TermId>(image, kSecProminence, meta.entities,
                          "prominence ranking"));
  REMI_ASSIGN_OR_RETURN(
      const uint64_t* freq_by_rank,
      CastSection<uint64_t>(image, kSecFreqByRank, meta.entities,
                            "frequency ranking"));
  REMI_ASSIGN_OR_RETURN(
      const uint32_t* rank_by_term,
      CastSection<uint32_t>(image, kSecRankByTerm, meta.dict_terms,
                            "rank table"));
  REMI_ASSIGN_OR_RETURN(
      const TermId* classes,
      CastSection<TermId>(image, kSecClasses, meta.classes, "class list"));
  REMI_ASSIGN_OR_RETURN(
      const uint32_t* class_offsets,
      CastSection<uint32_t>(image, kSecClassOffsets, meta.classes + 1,
                            "class offsets"));
  REMI_ASSIGN_OR_RETURN(
      const TermId* class_members,
      CastSection<TermId>(image, kSecClassMembers, meta.class_members,
                          "class member pool"));
  REMI_ASSIGN_OR_RETURN(
      const uint32_t* inverse_pairs,
      CastSection<uint32_t>(image, kSecInversePairs, meta.inverse_pairs * 2,
                            "inverse pairs"));

  // --- dictionary invariants ----------------------------------------------
  for (uint64_t i = 0; i < meta.dict_terms; ++i) {
    if (kinds[i] > static_cast<uint8_t>(TermKind::kBlank)) {
      return Corrupt("bad term kind at id " + std::to_string(i));
    }
  }
  REMI_RETURN_NOT_OK(CheckOffsets(dict_offsets, meta.dict_terms + 1, 0,
                                  meta.blob_bytes, "dictionary offsets"));

  // --- triple ordering invariants ------------------------------------------
  const uint64_t n = meta.triples;
  const uint64_t terms = meta.store_terms;
  for (uint64_t i = 0; i < n; ++i) {
    const Triple& t = spo[i];
    if (t.s >= terms || t.p >= terms || t.o >= terms) {
      return Corrupt("SPO triple id out of range at " + std::to_string(i));
    }
    if (i > 0 && !OrderSpo()(spo[i - 1], t)) {
      return Corrupt("SPO triples out of order at " + std::to_string(i));
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    const Triple& t = pso[i];
    if (t.s >= terms || t.p >= terms || t.o >= terms) {
      return Corrupt("PSO triple id out of range at " + std::to_string(i));
    }
    if (i > 0 && !OrderPso()(pso[i - 1], t)) {
      return Corrupt("PSO triples out of order at " + std::to_string(i));
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    const Triple& t = pos[i];
    if (t.s >= terms || t.p >= terms || t.o >= terms) {
      return Corrupt("POS triple id out of range at " + std::to_string(i));
    }
    if (i > 0 && !OrderPos()(pos[i - 1], t)) {
      return Corrupt("POS triples out of order at " + std::to_string(i));
    }
  }

  // --- CSR invariants -------------------------------------------------------
  REMI_RETURN_NOT_OK(CheckOffsets(subject_offsets, meta.store_terms + 1, 0, n,
                                  "subject offsets"));
  for (uint64_t s = 0; s < meta.store_terms; ++s) {
    for (uint64_t k = subject_offsets[s]; k < subject_offsets[s + 1]; ++k) {
      if (spo[k].s != s) {
        return Corrupt("subject offsets disagree with SPO at " +
                       std::to_string(k));
      }
    }
  }
  REMI_RETURN_NOT_OK(CheckAscendingIds(subjects, meta.subjects, terms,
                                       "subject list"));
  // The subject list must be exactly the distinct subjects of the SPO
  // ordering (workload sampling and scans trust it).
  uint64_t subj_cursor = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (i > 0 && spo[i].s == spo[i - 1].s) continue;
    if (subj_cursor >= meta.subjects || subjects[subj_cursor] != spo[i].s) {
      return Corrupt("subject list disagrees with SPO ordering");
    }
    ++subj_cursor;
  }
  if (subj_cursor != meta.subjects) {
    return Corrupt("subject list disagrees with SPO ordering");
  }
  REMI_RETURN_NOT_OK(CheckAscendingIds(predicates, meta.predicates, terms,
                                       "predicate list"));

  // pred_slot must be the exact inverse of the predicate list.
  uint64_t used_slots = 0;
  for (uint64_t t = 0; t < meta.store_terms; ++t) {
    const uint32_t slot = pred_slot[t];
    if (slot == UINT32_MAX) continue;
    if (slot >= meta.predicates || predicates[slot] != t) {
      return Corrupt("predicate slot mismatch for term " + std::to_string(t));
    }
    ++used_slots;
  }
  if (used_slots != meta.predicates) {
    return Corrupt("predicate slot table incomplete");
  }

  // Per-predicate ranges must tile the PSO/POS orderings in slot order and
  // reference monotone offset slices bounded by their range.
  uint64_t pso_cursor = 0, pos_cursor = 0;
  uint64_t subj_pool_cursor = 0, obj_pool_cursor = 0;
  uint64_t ds_cursor = 0, do_cursor = 0;
  for (uint64_t k = 0; k < meta.predicates; ++k) {
    const PredicateIndex& idx = pred_index[k];
    const TermId p = predicates[k];
    const std::string ctx = "predicate " + std::to_string(p);
    if (idx.pso_begin != pso_cursor || idx.pso_end < idx.pso_begin ||
        idx.pso_end > n || idx.pso_end == idx.pso_begin) {
      return Corrupt(ctx + ": PSO range does not tile");
    }
    if (pso[idx.pso_begin].p != p || pso[idx.pso_end - 1].p != p) {
      return Corrupt(ctx + ": PSO range covers wrong predicate");
    }
    pso_cursor = idx.pso_end;
    if (idx.pos_begin != pos_cursor || idx.pos_end < idx.pos_begin ||
        idx.pos_end > n || idx.pos_end == idx.pos_begin) {
      return Corrupt(ctx + ": POS range does not tile");
    }
    if (pos[idx.pos_begin].p != p || pos[idx.pos_end - 1].p != p) {
      return Corrupt(ctx + ": POS range covers wrong predicate");
    }
    pos_cursor = idx.pos_end;

    if (idx.s_base != pso[idx.pso_begin].s || idx.o_base != pos[idx.pos_begin].o) {
      return Corrupt(ctx + ": key base mismatch");
    }
    if (idx.subj_off_begin != subj_pool_cursor ||
        idx.subj_off_end <= idx.subj_off_begin ||
        idx.subj_off_end > meta.subj_off_pool) {
      return Corrupt(ctx + ": subject offset slice does not tile");
    }
    REMI_RETURN_NOT_OK(CheckOffsets(
        subj_off_pool + idx.subj_off_begin,
        idx.subj_off_end - idx.subj_off_begin, idx.pso_begin, idx.pso_end,
        (ctx + " subject offsets").c_str()));
    subj_pool_cursor = idx.subj_off_end;
    if (idx.obj_off_begin != obj_pool_cursor ||
        idx.obj_off_end <= idx.obj_off_begin ||
        idx.obj_off_end > meta.obj_off_pool) {
      return Corrupt(ctx + ": object offset slice does not tile");
    }
    REMI_RETURN_NOT_OK(CheckOffsets(
        obj_off_pool + idx.obj_off_begin,
        idx.obj_off_end - idx.obj_off_begin, idx.pos_begin, idx.pos_end,
        (ctx + " object offsets").c_str()));
    obj_pool_cursor = idx.obj_off_end;

    if (idx.ds_begin != ds_cursor || idx.ds_end < idx.ds_begin ||
        idx.ds_end > meta.distinct_subjects) {
      return Corrupt(ctx + ": distinct subject slice does not tile");
    }
    REMI_RETURN_NOT_OK(CheckAscendingIds(
        ds_pool + idx.ds_begin, idx.ds_end - idx.ds_begin, terms,
        (ctx + " distinct subjects").c_str()));
    ds_cursor = idx.ds_end;
    if (idx.do_begin != do_cursor || idx.do_end < idx.do_begin ||
        idx.do_end > meta.distinct_objects) {
      return Corrupt(ctx + ": distinct object slice does not tile");
    }
    REMI_RETURN_NOT_OK(CheckAscendingIds(
        do_pool + idx.do_begin, idx.do_end - idx.do_begin, terms,
        (ctx + " distinct objects").c_str()));
    do_cursor = idx.do_end;
  }
  if (pso_cursor != n || pos_cursor != n ||
      subj_pool_cursor != meta.subj_off_pool ||
      obj_pool_cursor != meta.obj_off_pool ||
      ds_cursor != meta.distinct_subjects ||
      do_cursor != meta.distinct_objects) {
    return Corrupt("predicate index does not cover all pools");
  }

  // --- prominence invariants ------------------------------------------------
  for (uint64_t i = 0; i < meta.entities; ++i) {
    if (prominence[i] >= meta.dict_terms) {
      return Corrupt("prominence entry out of range at " + std::to_string(i));
    }
    if (rank_by_term[prominence[i]] != i + 1) {
      return Corrupt("rank table disagrees with prominence order at " +
                     std::to_string(i));
    }
    if (i > 0 && freq_by_rank[i] > freq_by_rank[i - 1]) {
      return Corrupt("frequencies not descending at rank " +
                     std::to_string(i + 1));
    }
  }
  uint64_t ranked = 0;
  for (uint64_t t = 0; t < meta.dict_terms; ++t) {
    if (rank_by_term[t] == 0) continue;
    if (rank_by_term[t] > meta.entities) {
      return Corrupt("rank out of range for term " + std::to_string(t));
    }
    ++ranked;
  }
  if (ranked != meta.entities) {
    return Corrupt("rank table entry count mismatch");
  }

  // --- class index invariants -----------------------------------------------
  REMI_RETURN_NOT_OK(CheckAscendingIds(classes, meta.classes,
                                       meta.dict_terms, "class list"));
  REMI_RETURN_NOT_OK(CheckOffsets(class_offsets, meta.classes + 1, 0,
                                  meta.class_members, "class offsets"));
  for (uint64_t c = 0; c < meta.classes; ++c) {
    // Build sorts and deduplicates each class's members; consumers
    // (workload sampling, set operations) rely on it.
    REMI_RETURN_NOT_OK(CheckAscendingIds(
        class_members + class_offsets[c],
        class_offsets[c + 1] - class_offsets[c], meta.dict_terms,
        ("class " + std::to_string(classes[c]) + " members").c_str()));
  }

  // --- inverse map invariants -----------------------------------------------
  std::unordered_map<TermId, TermId> base_to_inverse;
  std::unordered_map<TermId, TermId> inverse_to_base;
  base_to_inverse.reserve(meta.inverse_pairs);
  inverse_to_base.reserve(meta.inverse_pairs);
  for (uint64_t i = 0; i < meta.inverse_pairs; ++i) {
    const TermId base = inverse_pairs[2 * i];
    const TermId inverse = inverse_pairs[2 * i + 1];
    if (base >= meta.dict_terms || inverse >= meta.dict_terms) {
      return Corrupt("inverse pair out of range at " + std::to_string(i));
    }
    if (!base_to_inverse.try_emplace(base, inverse).second ||
        !inverse_to_base.try_emplace(inverse, base).second) {
      return Corrupt("duplicate inverse pair at " + std::to_string(i));
    }
  }

  if (meta.type_predicate != kNullTerm &&
      meta.type_predicate >= meta.dict_terms) {
    return Corrupt("type predicate out of range");
  }
  if (meta.label_predicate != kNullTerm &&
      meta.label_predicate >= meta.dict_terms) {
    return Corrupt("label predicate out of range");
  }

  // --- adopt everything in place --------------------------------------------
  KnowledgeBase kb;
  kb.dict_ = Dictionary::View(kinds, dict_offsets, blob, meta.dict_terms);

  TripleStore store;
  store.spo_ = ArrayRef<Triple>::View(spo, n);
  store.pso_ = ArrayRef<Triple>::View(pso, n);
  store.pos_ = ArrayRef<Triple>::View(pos, n);
  store.predicates_.assign(predicates, predicates + meta.predicates);
  store.subjects_.assign(subjects, subjects + meta.subjects);
  store.num_terms_ = meta.store_terms;
  store.subject_offsets_ =
      ArrayRef<uint32_t>::View(subject_offsets, meta.store_terms + 1);
  store.pred_slot_ = ArrayRef<uint32_t>::View(pred_slot, meta.store_terms);
  store.pred_index_ =
      ArrayRef<PredicateIndex>::View(pred_index, meta.predicates);
  store.subj_offset_pool_ =
      ArrayRef<uint32_t>::View(subj_off_pool, meta.subj_off_pool);
  store.obj_offset_pool_ =
      ArrayRef<uint32_t>::View(obj_off_pool, meta.obj_off_pool);
  store.distinct_subject_pool_ =
      ArrayRef<TermId>::View(ds_pool, meta.distinct_subjects);
  store.distinct_object_pool_ =
      ArrayRef<TermId>::View(do_pool, meta.distinct_objects);
  kb.store_ = std::move(store);

  kb.options_ = meta.options;
  kb.num_base_facts_ = meta.base_facts;
  kb.type_predicate_ = meta.type_predicate;
  kb.label_predicate_ = meta.label_predicate;
  kb.base_to_inverse_ = std::move(base_to_inverse);
  kb.inverse_to_base_ = std::move(inverse_to_base);
  kb.entities_by_prominence_ =
      ArrayRef<TermId>::View(prominence, meta.entities);
  kb.freq_by_rank_ = ArrayRef<uint64_t>::View(freq_by_rank, meta.entities);
  kb.rank_by_term_ =
      ArrayRef<uint32_t>::View(rank_by_term, meta.dict_terms);
  kb.classes_.assign(classes, classes + meta.classes);
  kb.class_offsets_ =
      ArrayRef<uint32_t>::View(class_offsets, meta.classes + 1);
  kb.class_members_ =
      ArrayRef<TermId>::View(class_members, meta.class_members);
  kb.backing_ = std::move(backing);
  return kb;
}

std::string KnowledgeBase::SerializeSnapshot() const {
  return SnapshotCodec::Serialize(*this);
}

Status KnowledgeBase::SaveSnapshot(const std::string& path) const {
  const std::string bytes = SerializeSnapshot();
  // Crash-safe publish: write a temp file *in the target directory* (a
  // cross-filesystem rename is not atomic), fsync it, rename over the
  // destination, then fsync the directory so the rename itself is
  // durable. A writer killed at any step leaves either the old snapshot
  // or a stray .tmp — never a torn destination file.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + tmp + " for writing: " +
                           std::strerror(errno));
  }
  auto fail = [&](const std::string& what) {
    const Status status =
        Status::IoError(what + " " + tmp + ": " + std::strerror(errno));
    io::Hooks()->Close(fd);
    ::unlink(tmp.c_str());
    return status;
  };
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        io::Hooks()->Write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("write failure on");
    }
    written += static_cast<size_t>(n);
  }
  if (io::Hooks()->Fsync(fd) != 0) return fail("fsync failure on");
  if (io::Hooks()->Close(fd) != 0) {
    // close(2) can report a deferred write error; the data may be torn.
    const Status status =
        Status::IoError("close failure on " + tmp + ": " +
                        std::strerror(errno));
    ::unlink(tmp.c_str());
    return status;
  }
  if (io::Hooks()->Rename(tmp.c_str(), path.c_str()) != 0) {
    const Status status = Status::IoError("rename " + tmp + " -> " + path +
                                          ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return status;
  }
  // Durability of the rename: fsync the containing directory. Failure
  // here is reported (the data might vanish on power loss) but the new
  // snapshot is already visible and intact.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::IoError("cannot open directory " + dir +
                           " for fsync: " + std::strerror(errno));
  }
  if (io::Hooks()->Fsync(dir_fd) != 0) {
    const Status status = Status::IoError("fsync failure on directory " +
                                          dir + ": " + std::strerror(errno));
    io::Hooks()->Close(dir_fd);
    return status;
  }
  io::Hooks()->Close(dir_fd);
  return Status::OK();
}

Result<KnowledgeBase> KnowledgeBase::OpenSnapshot(const std::string& path) {
  REMI_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  return SnapshotCodec::Open(std::make_shared<MmapFile>(std::move(file)));
}

Result<KnowledgeBase> KnowledgeBase::OpenSnapshotBuffer(
    std::string_view bytes) {
  return SnapshotCodec::Open(
      std::make_shared<MmapFile>(MmapFile::FromBytes(bytes)));
}

}  // namespace remi
