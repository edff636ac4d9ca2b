// Seeded mutation classes shared by the in-tree fuzz tests: the RKF2
// corruption fuzz (tests/rdf), the reload fault-injection harness and
// the frame-decoder fuzz (tests/service).
//
// Every mutator draws only from the Rng it is handed, so a seed replays
// the same mutants. None needs libFuzzer or an external corpus.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "kb/knowledge_base.h"
#include "rdf/rkf2.h"
#include "util/fnv.h"
#include "util/random.h"

namespace remi {

/// A small but structurally rich KB: classes, labels, literals, a blank
/// node, enough shared prefixes to exercise front coding, and inverse
/// predicates, so its snapshot fills every RKF2 section.
inline KnowledgeBase FuzzKb() {
  Dictionary dict;
  std::vector<Triple> triples;
  Rng rng(4242);
  std::vector<TermId> entities;
  for (int i = 0; i < 40; ++i) {
    entities.push_back(
        dict.InternIri("http://fuzz.remi.example/resource/Entity" +
                       std::to_string(i)));
  }
  std::vector<TermId> preds;
  for (int i = 0; i < 6; ++i) {
    preds.push_back(dict.InternIri(
        "http://fuzz.remi.example/ontology/predicate" + std::to_string(i)));
  }
  const TermId type_pred = dict.InternIri(kRdfTypeIri);
  const TermId label_pred = dict.InternIri(kRdfsLabelIri);
  const TermId cls_a = dict.InternIri("http://fuzz.remi.example/class/A");
  const TermId cls_b = dict.InternIri("http://fuzz.remi.example/class/B");
  const TermId blank = dict.Intern(TermKind::kBlank, "b0");
  for (int i = 0; i < 150; ++i) {
    triples.push_back(
        Triple{entities[rng.NextBounded(entities.size())],
               preds[rng.NextBounded(preds.size())],
               entities[rng.NextBounded(entities.size())]});
  }
  for (size_t i = 0; i < entities.size(); ++i) {
    triples.push_back(
        Triple{entities[i], type_pred, i % 2 == 0 ? cls_a : cls_b});
    triples.push_back(Triple{
        entities[i], label_pred,
        dict.Intern(TermKind::kLiteral,
                    "\"entity " + std::to_string(i) + "\"@en")});
  }
  triples.push_back(Triple{blank, preds[0], entities[0]});
  return KnowledgeBase::Build(std::move(dict), std::move(triples));
}

// --- little-endian field access ---------------------------------------------

inline uint32_t ReadU32(const std::string& image, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(image[at + i]))
         << (8 * i);
  }
  return v;
}

inline uint64_t ReadU64(const std::string& image, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(image[at + i]))
         << (8 * i);
  }
  return v;
}

inline void WriteU64(std::string* image, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*image)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Recomputes RKF2 per-section checksums (for every table entry whose
/// payload range still lies within the file) plus the header/table footer,
/// so mutated content sails past every checksum and only structural
/// validation is left to refuse it.
inline void FixRkf2Checksums(std::string* image) {
  if (image->size() < kRkf2HeaderSize + kRkf2FooterSize) return;
  const uint32_t count = ReadU32(*image, 12);
  const uint64_t table_end =
      kRkf2HeaderSize + static_cast<uint64_t>(count) * kRkf2TableEntrySize;
  if (count <= kRkf2MaxSections &&
      table_end + kRkf2FooterSize <= image->size()) {
    for (uint32_t i = 0; i < count; ++i) {
      const size_t entry = kRkf2HeaderSize + i * kRkf2TableEntrySize;
      const uint64_t offset = ReadU64(*image, entry + 8);
      const uint64_t length = ReadU64(*image, entry + 16);
      if (offset > image->size() - kRkf2FooterSize ||
          length > image->size() - kRkf2FooterSize - offset) {
        continue;
      }
      WriteU64(
          image, entry + 24,
          Fnv1a64Wide(std::string_view(image->data() + offset, length)));
    }
    WriteU64(image, image->size() - 8,
             Fnv1a64Wide(std::string_view(image->data(), table_end)));
  }
}

// --- mutators ---------------------------------------------------------------

/// XORs one random byte with a nonzero mask. `image` must be nonempty.
inline std::string FlipByte(const std::string& image, Rng* rng) {
  std::string mutated = image;
  mutated[rng->NextBounded(mutated.size())] ^=
      static_cast<char>(1 + rng->NextBounded(255));
  return mutated;
}

/// A strict prefix of `image`, at least `min_keep` bytes long.
inline std::string Truncate(const std::string& image, Rng* rng,
                            size_t min_keep = 0) {
  return image.substr(0, min_keep + rng->NextBounded(image.size() - min_keep));
}

/// Appends 1-16 random bytes.
inline std::string Extend(const std::string& image, Rng* rng) {
  std::string mutated = image;
  const size_t extra = 1 + rng->NextBounded(16);
  for (size_t i = 0; i < extra; ++i) {
    mutated.push_back(static_cast<char>(rng->NextBounded(256)));
  }
  return mutated;
}

/// Overwrites a random field of a random RKF2 section-table entry with a
/// lie (small perturbation or a huge value), then fixes all checksums.
inline std::string SectionTableLie(const std::string& image, Rng* rng) {
  std::string mutated = image;
  const uint32_t count = ReadU32(mutated, 12);
  if (count == 0) return mutated;
  const size_t entry =
      kRkf2HeaderSize + rng->NextBounded(count) * kRkf2TableEntrySize;
  const size_t field = entry + 8 * (1 + rng->NextBounded(2));  // offset|length
  const uint64_t old = ReadU64(mutated, field);
  uint64_t lie;
  switch (rng->NextBounded(4)) {
    case 0: lie = old + 1 + rng->NextBounded(64); break;
    case 1: lie = old > 64 ? old - 1 - rng->NextBounded(64) : old + 8; break;
    case 2: lie = rng->Next(); break;
    default: lie = mutated.size() + rng->NextBounded(1 << 20); break;
  }
  WriteU64(&mutated, field, lie);
  FixRkf2Checksums(&mutated);
  return mutated;
}

}  // namespace remi
