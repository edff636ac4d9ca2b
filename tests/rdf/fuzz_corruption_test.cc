// Corruption fuzz harness for the RKF2 on-disk format.
//
// Property: for ANY mutation of a valid image — random byte flips,
// truncations, garbage extensions, section-table lies, and the nasty
// variant where all checksums are recomputed so only structural validation
// stands between the decoder and the lie — loading must either succeed
// with internally consistent data or fail with Corruption. It must never
// crash, hang, or hand back structures that later reads can fall off of.
// The suite runs thousands of seeded cases and is part of the ASan+UBSan
// CI job, which turns any out-of-bounds read into a test failure. The
// mutation classes live in tests/fuzz_mutators.h.

#include <string>

#include <gtest/gtest.h>

#include "fuzz_mutators.h"
#include "kb/knowledge_base.h"

namespace remi {
namespace {

std::string Rkf2ImageBytes() { return FuzzKb().SerializeSnapshot(); }

// --- consistency probes (catch "silently returns data") ---------------------

/// Walks every access path a loaded snapshot exposes; under ASan/UBSan any
/// unvalidated index would fault here. Checksum-fixed mutations may yield
/// *different* (safe) data, so the probe asserts only the invariants the
/// loader's validation pass promises, and otherwise just traverses.
void ProbeKb(const KnowledgeBase& kb) {
  ASSERT_EQ(kb.NumFacts(), kb.store().spo().size());
  size_t touched = 0;
  for (TermId id = 0; id < kb.dict().size(); ++id) {
    touched += kb.dict().lexical(id).size();
    (void)kb.dict().kind(id);
  }
  for (const TermId s : kb.store().subjects()) {
    for (const Triple& t : kb.store().BySubject(s)) {
      ASSERT_EQ(t.s, s);  // guaranteed: subject offsets validated vs SPO
      (void)kb.store().Contains(t.s, t.p, t.o);
    }
  }
  for (const TermId p : kb.store().predicates()) {
    for (const Triple& t : kb.store().ByPredicate(p)) {
      ASSERT_EQ(t.p, p);  // guaranteed: PSO tiling validated
    }
    for (const TermId s : kb.store().DistinctSubjectsOf(p)) {
      for (const Triple& t : kb.store().ByPredicateSubject(p, s)) {
        (void)t;
        ++touched;
      }
    }
    for (const TermId o : kb.store().DistinctObjectsOf(p)) {
      touched += kb.store().ByPredicateObject(p, o).size();
    }
    (void)kb.InverseOf(p);
  }
  for (const TermId e : kb.EntitiesByProminence()) {
    (void)kb.EntityFrequency(e);
    touched += kb.Label(e).size();
  }
  for (const TermId cls : kb.classes()) {
    for (const TermId member : kb.EntitiesOfClass(cls)) {
      ASSERT_LT(member, kb.dict().size());  // guaranteed: members validated
    }
  }
  (void)touched;
}

void CheckRkf2Load(const std::string& image, const char* what, size_t i) {
  SCOPED_TRACE(std::string(what) + " case " + std::to_string(i));
  auto kb = KnowledgeBase::OpenSnapshotBuffer(image);
  if (kb.ok()) {
    ProbeKb(*kb);
  } else {
    EXPECT_TRUE(kb.status().IsCorruption()) << kb.status().ToString();
  }
}

// --- the harness ------------------------------------------------------------

TEST(Rkf2FuzzTest, ByteFlipsNeverCrash) {
  const std::string image = Rkf2ImageBytes();
  Rng rng(201);
  for (size_t i = 0; i < 400; ++i) {
    CheckRkf2Load(FlipByte(image, &rng), "rkf2-flip", i);
  }
}

TEST(Rkf2FuzzTest, TruncationsAndExtensionsNeverCrash) {
  const std::string image = Rkf2ImageBytes();
  Rng rng(202);
  for (size_t i = 0; i < 150; ++i) {
    CheckRkf2Load(Truncate(image, &rng), "rkf2-trunc", i);
  }
  for (size_t i = 0; i < 50; ++i) {
    CheckRkf2Load(Extend(image, &rng), "rkf2-extend", i);
  }
}

TEST(Rkf2FuzzTest, ChecksumFixedFlipsNeverCrash) {
  const std::string image = Rkf2ImageBytes();
  Rng rng(203);
  for (size_t i = 0; i < 400; ++i) {
    std::string mutated = FlipByte(image, &rng);
    FixRkf2Checksums(&mutated);
    CheckRkf2Load(mutated, "rkf2-fixed-flip", i);
  }
}

TEST(Rkf2FuzzTest, SectionTableLiesNeverCrash) {
  const std::string image = Rkf2ImageBytes();
  Rng rng(204);
  for (size_t i = 0; i < 200; ++i) {
    CheckRkf2Load(SectionTableLie(image, &rng), "rkf2-table-lie", i);
  }
}

}  // namespace
}  // namespace remi
