// RKF2: a versioned, section-table'd, checksummed container for zero-copy
// KB snapshots.
//
// A text KB must be parsed, sorted, CSR-indexed and ranked on every load.
// RKF2 instead stores the *built* KnowledgeBase: each index array becomes
// one section in a flat file that can be mmap'ed and adopted in place
// (paper §3.5.1's "open, don't rebuild" HDT philosophy, pushed one level
// further). It is the repository's one binary KB format.
//
// On-disk layout (all integers little-endian; multi-byte array sections are
// written in host byte order and guarded by the endianness marker):
//
//   [0, 32)                      header
//     u8[4]  magic "RKF2"
//     u32    container version (kRkf2Version)
//     u32    endianness marker 0x0a0b0c0d (rejects cross-endian opens)
//     u32    section count
//     u32[2] reserved (zero)
//     u64    total file size in bytes
//   [32, 32 + 32*count)          section table, one entry per section
//     u32    section id          (opaque to the container)
//     u32    reserved (zero)
//     u64    payload offset      (8-byte aligned)
//     u64    payload length in bytes
//     u64    Fnv1a64Wide checksum of the payload
//   sections                     each padded to an 8-byte boundary
//   [size - 8, size)             u64 Fnv1a64Wide of the header + section
//                                table, i.e. bytes [0, 32 + 32*count)
//
// Integrity: every payload byte is covered by its section checksum and the
// header/table bytes by the footer, so nothing an adopted pointer can
// reach is unchecksummed (inter-section alignment padding carries no
// data). Checksums use the block-wise FNV variant, so verification runs at
// memory bandwidth rather than a byte-serial dependency chain.
//
// Rkf2Image::Parse validates structure and all checksums before exposing
// section views, so adopting a section pointer never reads out of bounds.
// Section *contents* are still untrusted: consumers must validate their own
// invariants (the KB snapshot codec in src/kb/snapshot.cc does).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace remi {

inline constexpr char kRkf2Magic[4] = {'R', 'K', 'F', '2'};
inline constexpr uint32_t kRkf2Version = 1;
inline constexpr uint32_t kRkf2EndianMarker = 0x0a0b0c0d;
inline constexpr size_t kRkf2HeaderSize = 32;
inline constexpr size_t kRkf2TableEntrySize = 32;
inline constexpr size_t kRkf2FooterSize = 8;
/// Upper bound on sections per image; rejects count lies early and keeps
/// duplicate-id detection trivially cheap.
inline constexpr uint32_t kRkf2MaxSections = 1024;

/// \brief Accumulates sections and serializes the container.
class Rkf2Writer {
 public:
  /// Adds a section. Ids must be unique. The payload is NOT copied — the
  /// caller's buffer must stay alive until Finish() returns. (Snapshot
  /// payloads are views over whole KB index arrays; copying them here
  /// would add a full extra KB of peak memory per save.)
  void AddSection(uint32_t id, std::string_view payload);

  /// Serializes header + table + aligned sections + footer checksum.
  std::string Finish() const;

 private:
  struct Section {
    uint32_t id;
    std::string_view payload;
  };
  std::vector<Section> sections_;
};

/// \brief A parsed, structurally validated RKF2 image.
///
/// Holds views into the caller's buffer; the buffer must outlive the image
/// and any section views obtained from it.
class Rkf2Image {
 public:
  /// Validates magic, version, endianness, bounds, alignment, and every
  /// checksum. Fails with Corruption (message includes the failing
  /// section/byte context) on any structural problem.
  static Result<Rkf2Image> Parse(std::string_view file);

  bool Has(uint32_t id) const;

  /// The payload of section `id`. Fails with Corruption if absent (an
  /// image missing a required section is a truncation lie).
  Result<std::string_view> Section(uint32_t id) const;

  size_t num_sections() const { return entries_.size(); }

 private:
  struct Entry {
    uint32_t id;
    std::string_view payload;
  };
  std::vector<Entry> entries_;
};

}  // namespace remi
