#include "rdf/triple_store.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/random.h"

namespace remi {
namespace {

// Small fixture: ids are plain numbers.
//   p=100: 1->2, 1->3, 2->3
//   p=101: 1->2, 3->2
TEST(TripleStoreTest, BasicLookups) {
  TripleStore store = TripleStore::Build({
      {1, 100, 2},
      {1, 100, 3},
      {2, 100, 3},
      {1, 101, 2},
      {3, 101, 2},
  });
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.BySubject(1).size(), 3u);
  EXPECT_EQ(store.ByPredicate(100).size(), 3u);
  EXPECT_EQ(store.ByPredicateSubject(100, 1).size(), 2u);
  EXPECT_EQ(store.ByPredicateObject(101, 2).size(), 2u);
  EXPECT_TRUE(store.Contains(1, 100, 2));
  EXPECT_FALSE(store.Contains(2, 101, 1));
}

TEST(TripleStoreTest, EmptyStore) {
  TripleStore store = TripleStore::Build({});
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.BySubject(1).empty());
  EXPECT_TRUE(store.ByPredicate(1).empty());
  EXPECT_TRUE(store.ByPredicateObject(1, 2).empty());
  EXPECT_FALSE(store.Contains(1, 2, 3));
  EXPECT_TRUE(store.predicates().empty());
}

TEST(TripleStoreTest, SparseKeysAcrossBitmapWordBoundaries) {
  // Subjects and objects of p=5 straddle 64-bit words of its rank bitmap
  // (keys relative to the base 10: 0, 63, 64, 127, 128, 1000000); every
  // present key maps to its own run, every absent one to nothing.
  const std::vector<TermId> keys = {10, 73, 74, 137, 138, 1000010};
  std::vector<Triple> triples;
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = 0; j <= i; ++j) {
      triples.push_back({keys[i], 5, static_cast<TermId>(2000000 + j)});
      triples.push_back({static_cast<TermId>(3000000 + j), 5, keys[i]});
    }
  }
  triples.push_back({11, 6, 12});  // a second predicate after p=5's slots
  const TripleStore store = TripleStore::Build(std::move(triples));
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto objects = store.ByPredicateSubject(5, keys[i]);
    ASSERT_EQ(objects.size(), i + 1) << keys[i];
    for (const Triple& t : objects) EXPECT_EQ(t.s, keys[i]);
    const auto subjects = store.ByPredicateObject(5, keys[i]);
    ASSERT_EQ(subjects.size(), i + 1) << keys[i];
    for (const Triple& t : subjects) EXPECT_EQ(t.o, keys[i]);
  }
  for (const TermId absent : {9u, 11u, 72u, 75u, 136u, 139u, 1000009u,
                              1000011u, 4000000u}) {
    EXPECT_TRUE(store.ByPredicateSubject(5, absent).empty()) << absent;
    EXPECT_TRUE(store.ByPredicateObject(5, absent).empty()) << absent;
  }
  EXPECT_EQ(store.ByPredicateSubject(6, 11).size(), 1u);
  EXPECT_TRUE(store.ByPredicateSubject(6, 10).empty());
}

TEST(TripleStoreTest, DeduplicatesInput) {
  TripleStore store = TripleStore::Build({
      {1, 100, 2},
      {1, 100, 2},
      {1, 100, 2},
  });
  EXPECT_EQ(store.size(), 1u);
}

TEST(TripleStoreTest, MissingKeysYieldEmptyRanges) {
  TripleStore store = TripleStore::Build({{1, 100, 2}});
  EXPECT_TRUE(store.BySubject(9).empty());
  EXPECT_TRUE(store.ByPredicate(9).empty());
  EXPECT_TRUE(store.ByPredicateSubject(100, 9).empty());
  EXPECT_TRUE(store.ByPredicateObject(100, 9).empty());
  EXPECT_TRUE(store.ByPredicateSubject(9, 1).empty());
}

TEST(TripleStoreTest, PredicatesAndSubjectsAreSortedDistinct) {
  TripleStore store = TripleStore::Build({
      {5, 200, 1},
      {3, 100, 1},
      {5, 100, 2},
      {3, 200, 2},
  });
  EXPECT_EQ(store.predicates(), (std::vector<TermId>{100, 200}));
  EXPECT_EQ(store.subjects(), (std::vector<TermId>{3, 5}));
}

TEST(TripleStoreTest, RangesAreProperlyOrdered) {
  TripleStore store = TripleStore::Build({
      {2, 100, 9},
      {2, 100, 1},
      {2, 100, 5},
  });
  const auto range = store.ByPredicateSubject(100, 2);
  ASSERT_EQ(range.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      range.begin(), range.end(),
      [](const Triple& a, const Triple& b) { return a.o < b.o; }));
}

TEST(TripleStoreTest, ByPredicateObjectOrderGroupsObjects) {
  TripleStore store = TripleStore::Build({
      {1, 100, 7},
      {2, 100, 7},
      {3, 100, 4},
  });
  const auto range = store.ByPredicateObjectOrder(100);
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0].o, 4u);
  EXPECT_EQ(range[1].o, 7u);
  EXPECT_EQ(range[2].o, 7u);
}

TEST(TripleStoreTest, CountersMatchRangeSizes) {
  TripleStore store = TripleStore::Build({
      {1, 100, 2},
      {1, 100, 3},
      {4, 100, 3},
      {1, 101, 2},
  });
  EXPECT_EQ(store.CountPredicate(100), 3u);
  EXPECT_EQ(store.CountPredicateSubject(100, 1), 2u);
  EXPECT_EQ(store.CountPredicateObject(100, 3), 2u);
}

// Property test: random triple sets agree with a brute-force scan.
class TripleStorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TripleStorePropertyTest, RangesMatchBruteForce) {
  Rng rng(GetParam());
  std::vector<Triple> triples;
  const size_t n = 400;
  for (size_t i = 0; i < n; ++i) {
    triples.push_back(Triple{static_cast<TermId>(rng.NextBounded(20)),
                             static_cast<TermId>(rng.NextBounded(6) + 100),
                             static_cast<TermId>(rng.NextBounded(20))});
  }
  TripleStore store = TripleStore::Build(triples);

  // Deduplicate reference set.
  std::sort(triples.begin(), triples.end(), OrderSpo());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  EXPECT_EQ(store.size(), triples.size());

  for (TermId s = 0; s < 20; ++s) {
    size_t expected = 0;
    for (const auto& t : triples) {
      if (t.s == s) ++expected;
    }
    EXPECT_EQ(store.BySubject(s).size(), expected) << "s=" << s;
  }
  for (TermId p = 100; p < 106; ++p) {
    for (TermId o = 0; o < 20; ++o) {
      size_t expected = 0;
      for (const auto& t : triples) {
        if (t.p == p && t.o == o) ++expected;
      }
      EXPECT_EQ(store.ByPredicateObject(p, o).size(), expected);
    }
  }
  for (const auto& t : triples) {
    EXPECT_TRUE(store.Contains(t.s, t.p, t.o));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TripleStorePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace remi
