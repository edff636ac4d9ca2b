#include "rdf/dictionary.h"

#include "util/logging.h"

namespace remi {

Dictionary& Dictionary::operator=(const Dictionary& other) {
  if (this == &other) return *this;
  base_kinds_ = other.base_kinds_;
  base_offsets_ = other.base_offsets_;
  base_blob_ = other.base_blob_;
  base_size_ = other.base_size_;
  tail_ = other.tail_;
  index_ = std::make_unique<ReverseIndex>();  // rebuilt lazily
  return *this;
}

Dictionary& Dictionary::operator=(Dictionary&& other) noexcept {
  if (this == &other) return *this;
  base_kinds_ = other.base_kinds_;
  base_offsets_ = other.base_offsets_;
  base_blob_ = other.base_blob_;
  base_size_ = other.base_size_;
  tail_ = std::move(other.tail_);
  index_ = std::move(other.index_);
  other.base_kinds_ = nullptr;
  other.base_offsets_ = nullptr;
  other.base_blob_ = nullptr;
  other.base_size_ = 0;
  other.tail_.clear();
  other.index_ = std::make_unique<ReverseIndex>();
  return *this;
}

Dictionary Dictionary::View(const uint8_t* kinds, const uint32_t* offsets,
                            const char* blob, size_t size) {
  Dictionary dict;
  dict.base_kinds_ = kinds;
  dict.base_offsets_ = offsets;
  dict.base_blob_ = blob;
  dict.base_size_ = size;
  return dict;
}

std::string Dictionary::MakeKey(TermKind kind, std::string_view lexical) {
  std::string key;
  key.reserve(lexical.size() + 1);
  key.push_back(static_cast<char>('0' + static_cast<int>(kind)));
  key.append(lexical);
  return key;
}

Dictionary::ReverseIndex& Dictionary::EnsureIndex() const {
  std::call_once(index_->once, [this] {
    index_->map.reserve(size());
    for (TermId id = 0; id < size(); ++id) {
      index_->map.emplace(MakeKey(kind(id), lexical(id)), id);
    }
    index_->built.store(true, std::memory_order_release);
  });
  return *index_;
}

TermId Dictionary::Intern(TermKind kind, std::string_view lexical) {
  ReverseIndex& index = EnsureIndex();
  std::string key = MakeKey(kind, lexical);
  auto it = index.map.find(key);
  if (it != index.map.end()) return it->second;
  REMI_CHECK(size() < kNullTerm);
  const TermId id = static_cast<TermId>(size());
  tail_.push_back(Term{kind, std::string(lexical)});
  index.map.emplace(std::move(key), id);
  return id;
}

Dictionary Dictionary::OwnedCopy() const {
  Dictionary copy;
  copy.tail_.reserve(size());
  for (TermId id = 0; id < size(); ++id) {
    copy.tail_.push_back(Term{kind(id), std::string(lexical(id))});
  }
  return copy;
}

Result<TermId> Dictionary::Lookup(TermKind kind,
                                  std::string_view lexical) const {
  const ReverseIndex& index = EnsureIndex();
  auto it = index.map.find(MakeKey(kind, lexical));
  if (it == index.map.end()) {
    return Status::NotFound("term not in dictionary: " +
                            std::string(lexical));
  }
  return it->second;
}

}  // namespace remi
