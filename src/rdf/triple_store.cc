#include "rdf/triple_store.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace remi {

namespace {

/// Where one predicate's key index landed in the pools.
struct KeySlices {
  uint32_t word_begin = 0;
  uint32_t word_end = 0;
  uint32_t distinct_begin = 0;
  uint32_t distinct_end = 0;
};

/// One side of the per-predicate key indexes (subjects over PSO, or
/// objects over POS), filled predicate by predicate in slot order.
struct KeyPools {
  std::vector<uint64_t> bits;
  std::vector<uint32_t> rank;
  std::vector<uint32_t> offsets;
  std::vector<TermId> distinct;

  /// Appends the index of one predicate's run [begin, end) of `order`,
  /// which is sorted by `key` within the run.
  KeySlices Append(const std::vector<Triple>& order, size_t begin, size_t end,
                   TermId Triple::*key) {
    const TermId base = order[begin].*key;
    const uint64_t words =
        ((static_cast<uint64_t>(order[end - 1].*key) - base) >> 6) + 1;
    KeySlices slices;
    slices.word_begin = static_cast<uint32_t>(bits.size());
    bits.resize(bits.size() + words, 0);
    // The pool sums key ranges over all predicates, which is NOT bounded
    // by the triple count; past 2^32 words the uint32 slice indexes in
    // PredicateIndex would silently wrap and alias other predicates.
    REMI_CHECK(bits.size() <= UINT32_MAX);
    slices.word_end = static_cast<uint32_t>(bits.size());
    slices.distinct_begin = static_cast<uint32_t>(distinct.size());
    uint64_t* slice = bits.data() + slices.word_begin;
    for (size_t k = begin; k < end; ++k) {
      const TermId id = order[k].*key;
      if (distinct.size() > slices.distinct_begin && distinct.back() == id) {
        continue;
      }
      distinct.push_back(id);
      offsets.push_back(static_cast<uint32_t>(k));
      const uint64_t rel = id - base;
      slice[rel >> 6] |= uint64_t{1} << (rel & 63);
    }
    slices.distinct_end = static_cast<uint32_t>(distinct.size());
    uint32_t running = slices.distinct_begin;
    for (uint32_t w = slices.word_begin; w < slices.word_end; ++w) {
      rank.push_back(running);
      running += static_cast<uint32_t>(std::popcount(bits[w]));
    }
    return slices;
  }
};

}  // namespace

TripleStore TripleStore::Build(std::vector<Triple> triples) {
  TripleStore store;
  std::sort(triples.begin(), triples.end(), OrderSpo());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  std::vector<Triple> pso = triples;
  std::sort(pso.begin(), pso.end(), OrderPso());
  std::vector<Triple> pos = triples;
  std::sort(pos.begin(), pos.end(), OrderPos());

  TermId max_id = 0;
  for (const Triple& t : triples) {
    max_id = std::max({max_id, t.s, t.p, t.o});
  }
  store.num_terms_ = triples.empty() ? 0 : static_cast<size_t>(max_id) + 1;

  // Global subject CSR over the SPO ordering.
  std::vector<uint32_t> subject_offsets(store.num_terms_ + 1, 0);
  for (const Triple& t : triples) {
    ++subject_offsets[t.s + 1];
  }
  for (size_t i = 1; i < subject_offsets.size(); ++i) {
    subject_offsets[i] += subject_offsets[i - 1];
  }
  for (const Triple& t : triples) {
    if (store.subjects_.empty() || store.subjects_.back() != t.s) {
      store.subjects_.push_back(t.s);
    }
  }

  // Per-predicate adjacency. pso and pos hold each predicate's facts
  // contiguously; one pass over each ordering fills the key indexes. All
  // per-predicate arrays are slices of shared pools so the whole index
  // round-trips through snapshots as a handful of flat arrays (and Build
  // does O(#predicates) fewer allocations).
  std::vector<uint32_t> pred_slot(store.num_terms_, kNoSlot);
  std::vector<PredicateIndex> pred_index;
  KeyPools subj;
  KeyPools obj;

  for (size_t i = 0; i < pso.size();) {
    const TermId p = pso[i].p;
    size_t j = i;
    while (j < pso.size() && pso[j].p == p) ++j;

    PredicateIndex index;
    index.pso_begin = static_cast<uint32_t>(i);
    index.pso_end = static_cast<uint32_t>(j);
    index.s_base = pso[i].s;
    const KeySlices slices = subj.Append(pso, i, j, &Triple::s);
    index.subj_word_begin = slices.word_begin;
    index.subj_word_end = slices.word_end;
    index.ds_begin = slices.distinct_begin;
    index.ds_end = slices.distinct_end;

    store.predicates_.push_back(p);
    pred_slot[p] = static_cast<uint32_t>(pred_index.size());
    pred_index.push_back(index);
    i = j;
  }
  for (size_t i = 0; i < pos.size();) {
    const TermId p = pos[i].p;
    size_t j = i;
    while (j < pos.size() && pos[j].p == p) ++j;

    PredicateIndex& index = pred_index[pred_slot[p]];
    index.pos_begin = static_cast<uint32_t>(i);
    index.pos_end = static_cast<uint32_t>(j);
    index.o_base = pos[i].o;
    const KeySlices slices = obj.Append(pos, i, j, &Triple::o);
    index.obj_word_begin = slices.word_begin;
    index.obj_word_end = slices.word_end;
    index.do_begin = slices.distinct_begin;
    index.do_end = slices.distinct_end;
    i = j;
  }
  // The trailing offset: the last predicate's last run ends at size().
  subj.offsets.push_back(static_cast<uint32_t>(pso.size()));
  obj.offsets.push_back(static_cast<uint32_t>(pos.size()));

  store.spo_ = std::move(triples);
  store.pso_ = std::move(pso);
  store.pos_ = std::move(pos);
  store.subject_offsets_ = std::move(subject_offsets);
  store.pred_slot_ = std::move(pred_slot);
  store.pred_index_ = std::move(pred_index);
  store.subj_key_bits_ = std::move(subj.bits);
  store.subj_key_rank_ = std::move(subj.rank);
  store.obj_key_bits_ = std::move(obj.bits);
  store.obj_key_rank_ = std::move(obj.rank);
  store.subj_offset_pool_ = std::move(subj.offsets);
  store.obj_offset_pool_ = std::move(obj.offsets);
  store.distinct_subject_pool_ = std::move(subj.distinct);
  store.distinct_object_pool_ = std::move(obj.distinct);
  return store;
}

std::span<const Triple> TripleStore::BySubject(TermId s) const {
  if (s >= num_terms_) return {};
  const uint32_t b = subject_offsets_[s];
  const uint32_t e = subject_offsets_[s + 1];
  return {spo_.data() + b, static_cast<size_t>(e - b)};
}

size_t TripleStore::SubjectDegree(TermId s) const {
  if (s >= num_terms_) return 0;
  return subject_offsets_[s + 1] - subject_offsets_[s];
}

std::span<const Triple> TripleStore::ByPredicate(TermId p) const {
  const PredicateIndex* index = FindPredicate(p);
  if (index == nullptr) return {};
  return {pso_.data() + index->pso_begin,
          static_cast<size_t>(index->pso_end - index->pso_begin)};
}

std::span<const Triple> TripleStore::ByPredicateObjectOrder(TermId p) const {
  const PredicateIndex* index = FindPredicate(p);
  if (index == nullptr) return {};
  return {pos_.data() + index->pos_begin,
          static_cast<size_t>(index->pos_end - index->pos_begin)};
}

uint32_t TripleStore::KeyRank(const ArrayRef<uint64_t>& bits,
                              const ArrayRef<uint32_t>& rank,
                              uint32_t word_begin, uint32_t word_end,
                              uint64_t rel) {
  const uint64_t word = word_begin + (rel >> 6);
  if (word >= word_end) return kNoSlot;
  const uint64_t w = bits[word];
  const uint64_t bit = uint64_t{1} << (rel & 63);
  if ((w & bit) == 0) return kNoSlot;
  return rank[word] + static_cast<uint32_t>(std::popcount(w & (bit - 1)));
}

std::span<const Triple> TripleStore::ByPredicateSubject(TermId p,
                                                        TermId s) const {
  const PredicateIndex* index = FindPredicate(p);
  if (index == nullptr || s < index->s_base) return {};
  const uint32_t k = KeyRank(subj_key_bits_, subj_key_rank_,
                             index->subj_word_begin, index->subj_word_end,
                             s - index->s_base);
  if (k == kNoSlot) return {};
  const uint32_t* offsets = subj_offset_pool_.data() + k;
  return {pso_.data() + offsets[0],
          static_cast<size_t>(offsets[1] - offsets[0])};
}

std::span<const Triple> TripleStore::ByPredicateObject(TermId p,
                                                       TermId o) const {
  const PredicateIndex* index = FindPredicate(p);
  if (index == nullptr || o < index->o_base) return {};
  const uint32_t k = KeyRank(obj_key_bits_, obj_key_rank_,
                             index->obj_word_begin, index->obj_word_end,
                             o - index->o_base);
  if (k == kNoSlot) return {};
  const uint32_t* offsets = obj_offset_pool_.data() + k;
  return {pos_.data() + offsets[0],
          static_cast<size_t>(offsets[1] - offsets[0])};
}

std::span<const TermId> TripleStore::DistinctSubjectsOf(TermId p) const {
  const PredicateIndex* index = FindPredicate(p);
  if (index == nullptr) return {};
  return {distinct_subject_pool_.data() + index->ds_begin,
          static_cast<size_t>(index->ds_end - index->ds_begin)};
}

std::span<const TermId> TripleStore::DistinctObjectsOf(TermId p) const {
  const PredicateIndex* index = FindPredicate(p);
  if (index == nullptr) return {};
  return {distinct_object_pool_.data() + index->do_begin,
          static_cast<size_t>(index->do_end - index->do_begin)};
}

bool TripleStore::Contains(TermId s, TermId p, TermId o) const {
  const auto range = ByPredicateSubject(p, s);  // sorted by object
  auto it = std::lower_bound(
      range.begin(), range.end(), o,
      [](const Triple& t, TermId key) { return t.o < key; });
  return it != range.end() && it->o == o;
}

}  // namespace remi
