// Golden-file format-stability tests.
//
// Tiny canonical .rkf2 fixtures live in tests/data/. The tests
// rebuild the same KB programmatically and assert byte-identical
// serialization plus load-equality against the checked-in bytes, so a
// future PR cannot silently change the on-disk formats (a format change
// must bump the version and regenerate the fixtures deliberately).
//
// Regenerate after an *intentional* format change with:
//   REMI_UPDATE_GOLDEN=1 ./build/remi_tests --gtest_filter='FormatGolden*'

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kb/knowledge_base.h"
#include "util/status.h"

#ifndef REMI_TESTDATA_DIR
#define REMI_TESTDATA_DIR "tests/data"
#endif

namespace remi {
namespace {

/// The canonical golden KB. Never change this without regenerating the
/// fixtures — its whole purpose is to stay frozen.
struct GoldenKb {
  Dictionary dict;
  std::vector<Triple> triples;

  GoldenKb() {
    const TermId berlin = dict.InternIri("http://golden.example/Berlin");
    const TermId paris = dict.InternIri("http://golden.example/Paris");
    const TermId germany = dict.InternIri("http://golden.example/Germany");
    const TermId france = dict.InternIri("http://golden.example/France");
    const TermId capital = dict.InternIri("http://golden.example/capitalOf");
    const TermId pop = dict.InternIri("http://golden.example/population");
    const TermId type_pred = dict.InternIri(kRdfTypeIri);
    const TermId label_pred = dict.InternIri(kRdfsLabelIri);
    const TermId city = dict.InternIri("http://golden.example/City");
    const TermId country = dict.InternIri("http://golden.example/Country");
    const TermId pop_b =
        dict.Intern(TermKind::kLiteral, "\"3644826\"");
    const TermId label_b = dict.Intern(TermKind::kLiteral, "\"Berlin\"@de");
    const TermId blank = dict.Intern(TermKind::kBlank, "b0");
    triples = {
        {berlin, capital, germany},  {paris, capital, france},
        {berlin, type_pred, city},   {paris, type_pred, city},
        {germany, type_pred, country}, {france, type_pred, country},
        {berlin, pop, pop_b},        {berlin, label_pred, label_b},
        {blank, capital, germany},
    };
  }
};

std::string FixturePath(const std::string& name) {
  return std::string(REMI_TESTDATA_DIR) + "/" + name;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("missing fixture " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool UpdateGoldenRequested() {
  const char* env = std::getenv("REMI_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void WriteOrCompare(const std::string& name, const std::string& bytes) {
  const std::string path = FixturePath(name);
  if (UpdateGoldenRequested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    GTEST_SKIP() << "regenerated " << path;
  }
  auto golden = ReadFileBytes(path);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString()
                           << " (run with REMI_UPDATE_GOLDEN=1 to create)";
  ASSERT_EQ(bytes.size(), golden->size())
      << name << ": serialized size drifted from the golden fixture";
  EXPECT_TRUE(bytes == *golden)
      << name << ": serialized bytes drifted from the golden fixture";
}

TEST(FormatGoldenTest, Rkf2SerializationIsStable) {
  GoldenKb golden;
  const KnowledgeBase kb =
      KnowledgeBase::Build(std::move(golden.dict), std::move(golden.triples));
  WriteOrCompare("golden.rkf2", kb.SerializeSnapshot());
}

TEST(FormatGoldenTest, Rkf2FixtureLoadsAndMatches) {
  auto bytes = ReadFileBytes(FixturePath("golden.rkf2"));
  if (UpdateGoldenRequested() && !bytes.ok()) {
    GTEST_SKIP() << "fixture not generated yet";
  }
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto opened = KnowledgeBase::OpenSnapshotBuffer(*bytes);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  GoldenKb golden;
  const KnowledgeBase built =
      KnowledgeBase::Build(std::move(golden.dict), std::move(golden.triples));
  ASSERT_EQ(opened->NumFacts(), built.NumFacts());
  ASSERT_EQ(opened->NumBaseFacts(), built.NumBaseFacts());
  ASSERT_EQ(opened->NumEntities(), built.NumEntities());
  ASSERT_EQ(opened->dict().size(), built.dict().size());
  for (TermId id = 0; id < built.dict().size(); ++id) {
    EXPECT_EQ(opened->dict().lexical(id), built.dict().lexical(id));
  }
  const auto prom_a = opened->EntitiesByProminence();
  const auto prom_b = built.EntitiesByProminence();
  EXPECT_TRUE(std::equal(prom_a.begin(), prom_a.end(), prom_b.begin(),
                         prom_b.end()));
  // A KB opened from the fixture re-serializes to the fixture, bit for bit.
  EXPECT_EQ(opened->SerializeSnapshot(), *bytes);
}

}  // namespace
}  // namespace remi
