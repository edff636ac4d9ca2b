// Seeded mutation fuzz for FrameDecoder, the binary wire protocol's
// parser.
//
// The corpus is a stream of valid frames built with AppendFrame: every
// verb plus unknown verb bytes, empty to multi-kilobyte payloads
// (including NUL and non-UTF-8 bytes), request ids from 0 to 2^64 - 1.
// The flip/truncate/extend classes of fuzz_mutators.h mutate the
// stream, which is then fed in seeded random chunks. Three properties:
//
//   * decode(encode(x)) == x on the corpus, at every chunking;
//   * no mutation crashes the decoder (the ASan+UBSan job turns an
//     out-of-bounds read into a failure);
//   * every failure is in-band: kError with a non-OK status(), and no
//     frame after it, however many bytes follow.
//
// Frames wholly before a mutated byte must still decode unchanged, and a
// truncated stream is never an error, only kNeedMore. The seed is a
// constant, echoed so a failing log names it.

#include "service/frame_codec.h"

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz_mutators.h"

namespace remi {
namespace {

constexpr size_t kMaxPayload = 1024;

struct Frame {
  uint8_t verb = 0;
  uint64_t request_id = 0;
  std::string payload;
  bool operator==(const Frame&) const = default;
};

constexpr uint64_t kSeed = 20261020;

uint64_t FuzzSeed() {
  std::cout << "[ fuzz     ] frame seed=" << kSeed << "\n";
  return kSeed;
}

std::vector<Frame> Corpus(Rng* rng) {
  std::vector<Frame> corpus;
  for (uint8_t verb = 0; verb <= 12; ++verb) {
    corpus.push_back({verb, verb, R"({"targets":["Berlin"]})"});
  }
  corpus.push_back({255, 0, ""});
  corpus.push_back({static_cast<uint8_t>(FrameVerb::kPing), ~uint64_t{0}, ""});
  corpus.push_back({static_cast<uint8_t>(FrameVerb::kMine), 1ull << 63,
                    std::string("\0\xff\x80REMI\n{", 9)});
  corpus.push_back({static_cast<uint8_t>(FrameVerb::kBatchMine), 77,
                    std::string(kMaxPayload, 'x')});
  for (int i = 0; i < 16; ++i) {
    Frame frame;
    frame.verb = static_cast<uint8_t>(1 + rng->NextBounded(11));
    frame.request_id = rng->Next();
    const size_t length = rng->NextBounded(300);
    for (size_t j = 0; j < length; ++j) {
      frame.payload.push_back(static_cast<char>(rng->NextBounded(256)));
    }
    corpus.push_back(std::move(frame));
  }
  return corpus;
}

std::string Encode(const std::vector<Frame>& frames) {
  std::string wire;
  for (const Frame& frame : frames) {
    AppendFrame(frame.verb, frame.request_id, frame.payload, &wire);
  }
  return wire;
}

struct Decoded {
  std::vector<Frame> frames;
  bool error = false;
};

/// Feeds `wire` in random chunks of 1-64 bytes, draining Next() after
/// each, and checks the in-band error contract on the way.
Decoded Decode(const std::string& wire, Rng* rng) {
  FrameDecoder decoder(kMaxPayload);
  Decoded out;
  size_t fed = 0;
  while (true) {
    FrameView view;
    const FrameDecoder::Result result = decoder.Next(&view);
    if (result == FrameDecoder::Result::kFrame) {
      EXPECT_FALSE(out.error) << "a frame after kError";
      EXPECT_LE(view.payload.size(), kMaxPayload);
      out.frames.push_back(
          {view.verb, view.request_id, std::string(view.payload)});
      continue;
    }
    if (result == FrameDecoder::Result::kError) {
      EXPECT_FALSE(decoder.status().ok());
      out.error = true;
      if (fed == wire.size()) {
        // Poisoned for good: more bytes never yield another frame.
        decoder.Feed(std::string(kFrameHeaderBytes, 'R'));
        EXPECT_EQ(decoder.Next(&view), FrameDecoder::Result::kError);
        return out;
      }
    }
    if (fed == wire.size()) return out;
    const size_t chunk =
        std::min<size_t>(wire.size() - fed, 1 + rng->NextBounded(64));
    decoder.Feed(std::string_view(wire).substr(fed, chunk));
    fed += chunk;
  }
}

/// Number of corpus frames whose encoding ends at or before `offset`.
size_t FramesBefore(const std::vector<Frame>& corpus, size_t offset) {
  size_t end = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    end += kFrameHeaderBytes + corpus[i].payload.size();
    if (end > offset) return i;
  }
  return corpus.size();
}

/// The first byte index at which `a` and `b` differ (their common length
/// when one is a prefix of the other).
size_t FirstDifference(const std::string& a, const std::string& b) {
  const size_t n = std::min(a.size(), b.size());
  return static_cast<size_t>(
      std::mismatch(a.begin(), a.begin() + n, b.begin()).first - a.begin());
}

TEST(FrameFuzzTest, DecodeOfEncodeIsIdentity) {
  Rng rng(FuzzSeed());
  const std::vector<Frame> corpus = Corpus(&rng);
  const std::string wire = Encode(corpus);
  for (int round = 0; round < 20; ++round) {
    const Decoded decoded = Decode(wire, &rng);
    EXPECT_FALSE(decoded.error) << "round " << round;
    EXPECT_TRUE(decoded.frames == corpus) << "round " << round;
  }
  // One frame at a time, too.
  for (const Frame& frame : corpus) {
    const Decoded decoded = Decode(Encode({frame}), &rng);
    ASSERT_EQ(decoded.frames.size(), 1u);
    EXPECT_TRUE(decoded.frames[0] == frame);
  }
}

TEST(FrameFuzzTest, MutationsFailInBandAndSpareEarlierFrames) {
  Rng rng(FuzzSeed() + 1);
  const std::vector<Frame> corpus = Corpus(&rng);
  const std::string wire = Encode(corpus);
  size_t errors = 0;
  for (size_t i = 0; i < 1500; ++i) {
    std::string mutant;
    const char* what;
    switch (i % 3) {
      case 0: mutant = FlipByte(wire, &rng); what = "flip"; break;
      case 1: mutant = Truncate(wire, &rng); what = "truncate"; break;
      default: mutant = Extend(wire, &rng); what = "extend"; break;
    }
    SCOPED_TRACE(std::string(what) + " case " + std::to_string(i));
    const Decoded decoded = Decode(mutant, &rng);
    errors += decoded.error;
    const size_t intact = FramesBefore(corpus, FirstDifference(wire, mutant));
    ASSERT_GE(decoded.frames.size(), intact);
    for (size_t f = 0; f < intact; ++f) {
      EXPECT_TRUE(decoded.frames[f] == corpus[f]) << "frame " << f;
    }
    if (i % 3 == 1) {
      EXPECT_FALSE(decoded.error) << "a prefix of valid frames is no error";
      EXPECT_EQ(decoded.frames.size(), intact);
    }
  }
  // The classes are seeded: no errors at all would mean the test is
  // replaying no-ops.
  EXPECT_GT(errors, 300u);
}

}  // namespace
}  // namespace remi
