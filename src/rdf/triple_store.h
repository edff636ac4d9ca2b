// An immutable in-memory triple store with CSR-style adjacency indexes.
//
// This replaces the paper's HDT + Apache Jena access layer (§3.5.1/3.5.2):
// HDT exposes pattern-level retrieval ("bindings for atoms p(X, Y)") and
// leaves joins to upper layers; TripleStore offers the same contract via
// spans over SPO / PSO / POS orderings. Internally the hot lookups are
// backed by offset tables keyed by the dictionary's dense TermIds:
//
//   * a global subject offset array over the SPO ordering makes
//     BySubject(s) a single array index;
//   * each predicate owns offset tables over its PSO range (keyed by
//     subject) and its POS range (keyed by object), so the DFS's dominant
//     lookups ByPredicateSubject / ByPredicateObject are O(1) + span,
//     with per-key degrees available for free as offset differences.
//
// A per-predicate offset table holds one entry per key that occurs under
// the predicate, not one per id in [min_key, max_key]: a rank bitmap over
// the key range (1 bit per id plus one u32 prefix count per 64-bit word)
// maps a key to its rank among the predicate's distinct keys, and the rank
// indexes the offsets. Sparse predicates over a wide id range thus cost
// 1.5 bits per id instead of 32.
//
// Storage comes in two modes sharing this one read path: Build constructs
// owning arrays in memory; an RKF2 snapshot load adopts the same arrays as
// views over the mapped file (see ArrayRef). To keep that possible, every
// per-predicate bitmap/offset/distinct list lives in flat pools indexed by
// a fixed-layout PredicateIndex record rather than in per-predicate
// vectors.

#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "rdf/triple.h"
#include "util/array_ref.h"
#include "util/status.h"

namespace remi {

/// \brief Immutable, fully indexed triple set.
///
/// Construction: collect triples (any order, duplicates allowed) and call
/// TripleStore::Build, or adopt a snapshot via the RKF2 loader.
/// Thread-safe for concurrent reads.
class TripleStore {
 public:
  /// Builds the store: sorts, deduplicates, and materializes the three
  /// index orderings plus the CSR offset tables.
  static TripleStore Build(std::vector<Triple> triples);

  TripleStore() = default;

  size_t size() const { return spo_.size(); }
  bool empty() const { return spo_.empty(); }

  /// All facts with subject `s`, grouped by predicate (SPO order).
  std::span<const Triple> BySubject(TermId s) const;

  /// All facts with predicate `p` (PSO order).
  std::span<const Triple> ByPredicate(TermId p) const;

  /// All facts with predicate `p` (POS order: grouped by object).
  std::span<const Triple> ByPredicateObjectOrder(TermId p) const;

  /// Facts p(s, *): objects of `s` under `p`.
  std::span<const Triple> ByPredicateSubject(TermId p, TermId s) const;

  /// Facts p(*, o): subjects with object `o` under `p`.
  std::span<const Triple> ByPredicateObject(TermId p, TermId o) const;

  /// Membership test for a fully bound fact.
  bool Contains(TermId s, TermId p, TermId o) const;

  /// True if at least one fact uses predicate `p`.
  bool HasPredicate(TermId p) const { return FindPredicate(p) != nullptr; }

  /// Number of facts with predicate `p`.
  size_t CountPredicate(TermId p) const { return ByPredicate(p).size(); }

  /// Number of facts p(s, *).
  size_t CountPredicateSubject(TermId p, TermId s) const {
    return ByPredicateSubject(p, s).size();
  }

  /// Number of facts p(*, o).
  size_t CountPredicateObject(TermId p, TermId o) const {
    return ByPredicateObject(p, o).size();
  }

  // --- degree / adjacency statistics (CSR offset differences) --------------

  /// Number of facts with subject `s` (any predicate).
  size_t SubjectDegree(TermId s) const;

  /// Distinct subjects occurring under predicate `p`, ascending.
  std::span<const TermId> DistinctSubjectsOf(TermId p) const;

  /// Distinct objects occurring under predicate `p`, ascending.
  std::span<const TermId> DistinctObjectsOf(TermId p) const;

  /// One past the largest TermId present in any triple (0 when empty).
  /// EntitySet uses this as the default bitmap universe.
  size_t num_terms() const { return num_terms_; }

  /// Distinct predicates present, ascending.
  const std::vector<TermId>& predicates() const { return predicates_; }

  /// Distinct subjects present, ascending.
  const std::vector<TermId>& subjects() const { return subjects_; }

  /// The SPO-ordered triple list (for full scans / serialization).
  std::span<const Triple> spo() const { return spo_; }

  /// The PSO-ordered triple list.
  std::span<const Triple> pso() const { return pso_; }

 private:
  /// Per-predicate adjacency record: the predicate's contiguous ranges in
  /// pso_/pos_ plus its slices of the flat pools. Fixed-layout POD so the
  /// whole pred_index_ array round-trips through RKF2 snapshots verbatim;
  /// every field is an absolute index into its pool/ordering.
  struct PredicateIndex {
    uint32_t pso_begin = 0;
    uint32_t pso_end = 0;
    uint32_t pos_begin = 0;
    uint32_t pos_end = 0;
    /// Smallest subject/object under the predicate: bit 0 of its bitmap.
    TermId s_base = 0;
    TermId o_base = 0;
    /// Slice of subj_key_bits_ / subj_key_rank_: (max subject - s_base)
    /// / 64 + 1 words.
    uint32_t subj_word_begin = 0;
    uint32_t subj_word_end = 0;
    /// Slice of obj_key_bits_ / obj_key_rank_.
    uint32_t obj_word_begin = 0;
    uint32_t obj_word_end = 0;
    /// Slices of the distinct subject/object pools. The same indexes
    /// address subj_offset_pool_ / obj_offset_pool_.
    uint32_t ds_begin = 0;
    uint32_t ds_end = 0;
    uint32_t do_begin = 0;
    uint32_t do_end = 0;
  };
  static_assert(std::is_trivially_copyable_v<PredicateIndex> &&
                    sizeof(PredicateIndex) == 56,
                "PredicateIndex is serialized verbatim in RKF2 snapshots");

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  const PredicateIndex* FindPredicate(TermId p) const {
    if (p >= pred_slot_.size() || pred_slot_[p] == kNoSlot) return nullptr;
    return &pred_index_[pred_slot_[p]];
  }

  /// Rank of key `rel` (an id minus the predicate's base) in the bitmap
  /// slice [word_begin, word_end): its absolute index in the distinct
  /// pool, or kNoSlot when the key does not occur.
  static uint32_t KeyRank(const ArrayRef<uint64_t>& bits,
                          const ArrayRef<uint32_t>& rank, uint32_t word_begin,
                          uint32_t word_end, uint64_t rel);

  /// The RKF2 snapshot codec serializes and reconstitutes the raw arrays.
  friend struct SnapshotCodec;

  ArrayRef<Triple> spo_;
  ArrayRef<Triple> pso_;
  ArrayRef<Triple> pos_;
  std::vector<TermId> predicates_;
  std::vector<TermId> subjects_;

  size_t num_terms_ = 0;
  /// CSR over spo_: facts of subject s live at [subject_offsets_[s],
  /// subject_offsets_[s + 1]).
  ArrayRef<uint32_t> subject_offsets_;
  /// TermId -> slot in pred_index_ (kNoSlot for non-predicates).
  ArrayRef<uint32_t> pred_slot_;
  ArrayRef<PredicateIndex> pred_index_;
  /// Flat pools backing the per-predicate slices in pred_index_.
  /// Rank bitmaps: bit (s - s_base) of a predicate's word slice is set iff
  /// s is one of its subjects; the parallel rank array holds, per word,
  /// the distinct-pool index of the first key at or after that word.
  ArrayRef<uint64_t> subj_key_bits_;
  ArrayRef<uint32_t> subj_key_rank_;
  ArrayRef<uint64_t> obj_key_bits_;
  ArrayRef<uint32_t> obj_key_rank_;
  /// Parallel to the distinct pools plus one trailing entry: the start of
  /// each (predicate, key) run in pso_ / pos_. A run ends where the next
  /// one starts, since the predicates' runs are laid out in the same slot
  /// order in the pools and in the orderings; the trailing entry is
  /// size().
  ArrayRef<uint32_t> subj_offset_pool_;
  ArrayRef<uint32_t> obj_offset_pool_;
  ArrayRef<TermId> distinct_subject_pool_;
  ArrayRef<TermId> distinct_object_pool_;
};

}  // namespace remi
