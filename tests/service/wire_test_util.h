// Helpers shared by the suites that drive an in-process EventServer
// over loopback through WireClient.

#pragma once

#include <gtest/gtest.h>

#include <string>

#include "service/wire_client.h"
#include "util/json.h"
#include "util/status.h"

namespace remi {

inline Result<WireClient> Dial(int port) {
  return WireClient::Connect("127.0.0.1", port);
}

/// Parses one response document. A failed read or an unparsable
/// document fails the test and yields a null value.
inline JsonValue Parse(const Result<std::string>& doc) {
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok()) return JsonValue();
  auto parsed = ParseJson(*doc);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << ": " << *doc;
  return parsed.ok() ? *parsed : JsonValue();
}

}  // namespace remi
