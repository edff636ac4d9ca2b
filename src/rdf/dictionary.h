// Dictionary encoding of RDF terms: string <-> dense TermId.
//
// This is the first half of the paper's HDT storage layer (§3.5.1): HDT
// dictionary-encodes all terms and stores triples as id tuples. Interning
// is idempotent; ids are stable for the lifetime of the dictionary.
//
// The dictionary has two storage modes that share one read path:
//
//   * owning mode — the usual append-only in-memory dictionary, grown via
//     Intern;
//   * view mode — Dictionary::View adopts three external buffers (a kind
//     byte per term, a monotone offset table, and one concatenated lexical
//     blob), e.g. sections of an mmap'ed RKF2 snapshot. Nothing is copied;
//     the buffers must outlive the dictionary. A view dictionary still
//     supports Intern: new terms append to an owned tail after the base.
//
// The reverse index used by Lookup is built lazily on first use, so a
// snapshot load stays zero-copy until someone actually needs string ->
// id resolution. A server builds it eagerly (BuildIndex) before a KB
// generation serves, so no request pays for it.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"
#include "util/status.h"

namespace remi {

/// \brief Append-only term dictionary (owning or view-backed).
///
/// Not thread-safe for interning; concurrent read-only access (including
/// Lookup, which may build the reverse index once) is safe after
/// construction completes.
class Dictionary {
 public:
  Dictionary() = default;

  Dictionary(const Dictionary& other) { *this = other; }
  Dictionary& operator=(const Dictionary& other);
  Dictionary(Dictionary&& other) noexcept { *this = std::move(other); }
  Dictionary& operator=(Dictionary&& other) noexcept;

  /// View mode: adopts external buffers for ids [0, size). `kinds` holds
  /// `size` TermKind bytes; `offsets` holds `size + 1` monotone byte
  /// offsets into `blob`. The buffers are not copied and must outlive the
  /// dictionary; the caller is responsible for having validated them
  /// (kind bytes <= kBlank, offsets monotone, offsets[size] == blob size).
  static Dictionary View(const uint8_t* kinds, const uint32_t* offsets,
                         const char* blob, size_t size);

  /// Returns the id of (kind, lexical), interning it if new.
  TermId Intern(TermKind kind, std::string_view lexical);

  /// Convenience for IRIs.
  TermId InternIri(std::string_view iri) {
    return Intern(TermKind::kIri, iri);
  }

  /// Id of an existing term, or NotFound.
  Result<TermId> Lookup(TermKind kind, std::string_view lexical) const;

  /// Builds the reverse index now instead of under the first Lookup.
  /// Idempotent and safe to race with concurrent Lookups.
  void BuildIndex() const { EnsureIndex(); }

  /// True once the reverse index exists (BuildIndex, Lookup or Intern).
  bool index_built() const {
    return index_->built.load(std::memory_order_acquire);
  }

  /// A fully owning deep copy (same ids). Copying a view dictionary with
  /// the copy constructor shares the external buffers; use this instead
  /// when the copy must outlive the buffer owner (e.g. extracting the
  /// dictionary from a snapshot-backed KnowledgeBase).
  Dictionary OwnedCopy() const;

  /// The decoded term for an id (by value: view mode has no materialized
  /// Term objects). Id must be < size().
  Term term(TermId id) const { return Term{kind(id), std::string(lexical(id))}; }

  TermKind kind(TermId id) const {
    return id < base_size_ ? static_cast<TermKind>(base_kinds_[id])
                           : tail_[id - base_size_].kind;
  }
  std::string_view lexical(TermId id) const {
    if (id < base_size_) {
      return {base_blob_ + base_offsets_[id],
              base_offsets_[id + 1] - base_offsets_[id]};
    }
    return tail_[id - base_size_].lexical;
  }
  bool IsIri(TermId id) const { return kind(id) == TermKind::kIri; }
  bool IsLiteral(TermId id) const { return kind(id) == TermKind::kLiteral; }
  bool IsBlank(TermId id) const { return kind(id) == TermKind::kBlank; }

  size_t size() const { return base_size_ + tail_.size(); }

 private:
  /// Lazily built reverse index. Wrapped in a unique_ptr because
  /// std::once_flag is neither movable nor copyable.
  struct ReverseIndex {
    std::once_flag once;
    std::atomic<bool> built{false};
    std::unordered_map<std::string, TermId> map;
  };

  static std::string MakeKey(TermKind kind, std::string_view lexical);
  ReverseIndex& EnsureIndex() const;

  // View base: ids [0, base_size_). Null/empty in pure owning mode.
  const uint8_t* base_kinds_ = nullptr;
  const uint32_t* base_offsets_ = nullptr;
  const char* base_blob_ = nullptr;
  size_t base_size_ = 0;

  // Owned tail: ids [base_size_, size()).
  std::vector<Term> tail_;

  /// Always non-null so that concurrent Lookups only race inside
  /// call_once. Rebuilt empty on copy/move-from.
  mutable std::unique_ptr<ReverseIndex> index_ =
      std::make_unique<ReverseIndex>();
};

}  // namespace remi
