// Tests for the command-line parsing of the CLI tools: the flag parser, and
// the --port and ID=HOST:PORT,... parsers of omni_node and omni_client.
#include <gtest/gtest.h>

#include "src/net/tcp_transport.h"
#include "src/util/flags.h"

namespace opx {
namespace {

Flags Parse(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) {
    argv.push_back(s.data());
  }
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  const Flags flags = Parse({"--id=3", "--wal=/tmp/x.wal"});
  EXPECT_EQ(flags.GetInt("id", 0), 3);
  EXPECT_EQ(flags.GetString("wal", ""), "/tmp/x.wal");
}

TEST(Flags, SpaceForm) {
  const Flags flags = Parse({"--port", "7001", "--host", "localhost"});
  EXPECT_EQ(flags.GetInt("port", 0), 7001);
  EXPECT_EQ(flags.GetString("host", ""), "localhost");
}

TEST(Flags, BareBooleans) {
  const Flags flags = Parse({"--status", "--verbose=false"});
  EXPECT_TRUE(flags.GetBool("status", false));
  EXPECT_FALSE(flags.GetBool("verbose", true));
  EXPECT_TRUE(flags.GetBool("missing", true));  // default respected
}

TEST(Flags, Positional) {
  const Flags flags = Parse({"file.wal", "--tail=5", "other"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "file.wal");
  EXPECT_EQ(flags.positional()[1], "other");
  EXPECT_EQ(flags.GetInt("tail", 0), 5);
}

TEST(Flags, DoublesAndDefaults) {
  const Flags flags = Parse({"--rate=2.5e6"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 2.5e6);
  EXPECT_DOUBLE_EQ(flags.GetDouble("other", 1.25), 1.25);
  EXPECT_FALSE(flags.Has("other"));
  EXPECT_TRUE(flags.Has("rate"));
}

TEST(Flags, BooleanFollowedByFlagNotConsumed) {
  const Flags flags = Parse({"--quick", "--count=3"});
  EXPECT_TRUE(flags.GetBool("quick", false));
  EXPECT_EQ(flags.GetInt("count", 0), 3);
}

// Numeric values parse whole: a bad one is reported through ok() and
// bad_flag(), and the accessor falls back to its default — no exception, no
// truncation, no wrap-around.
TEST(Flags, NonNumericIntIsBad) {
  const Flags flags = Parse({"--id=x", "--port=7001"});
  EXPECT_EQ(flags.GetInt("port", 0), 7001);
  EXPECT_TRUE(flags.ok());
  EXPECT_EQ(flags.GetInt("id", 7), 7);
  EXPECT_FALSE(flags.ok());
  EXPECT_EQ(flags.bad_flag(), "id");
}

TEST(Flags, IntWithTrailingCharactersIsBad) {
  const Flags flags = Parse({"--count=12x"});
  EXPECT_EQ(flags.GetInt("count", 1), 1);
  EXPECT_EQ(flags.bad_flag(), "count");
}

TEST(Flags, EmptyIntIsBad) {
  const Flags flags = Parse({"--count="});
  EXPECT_EQ(flags.GetInt("count", 1), 1);
  EXPECT_FALSE(flags.ok());
}

TEST(Flags, IntOverflowIsBad) {
  const Flags flags = Parse({"--count=99999999999999999999"});
  EXPECT_EQ(flags.GetInt("count", 1), 1);
  EXPECT_FALSE(flags.ok());
}

TEST(Flags, IntOutsideItsRangeIsBadNotWrapped) {
  const Flags flags = Parse({"--id=99999999999", "--peer=2147483647"});
  EXPECT_EQ(flags.GetInt("peer", 0, 1, 2147483647), 2147483647);
  EXPECT_TRUE(flags.ok());
  EXPECT_EQ(flags.GetInt("id", 0, 1, 2147483647), 0);
  EXPECT_EQ(flags.bad_flag(), "id");
}

TEST(Flags, NegativeIntBelowItsRangeIsBad) {
  const Flags flags = Parse({"--count=-1"});
  EXPECT_EQ(flags.GetInt("count", 5), -1);  // no range given: -1 is a value
  EXPECT_TRUE(flags.ok());
  EXPECT_EQ(flags.GetInt("count", 5, 0, 100), 5);
  EXPECT_FALSE(flags.ok());
}

TEST(Flags, BadDoublesAreBad) {
  for (const char* value : {"abc", "1.5x", "", "inf", "nan"}) {
    SCOPED_TRACE(value);
    const Flags flags = Parse({std::string("--rate=") + value});
    EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.5), 0.5);
    EXPECT_EQ(flags.bad_flag(), "rate");
  }
}

TEST(Flags, FirstBadFlagIsTheOneNamed) {
  const Flags flags = Parse({"--a=x", "--b=y"});
  flags.GetInt("b", 0);
  flags.GetInt("a", 0);
  EXPECT_EQ(flags.bad_flag(), "b");
}

// Whether ParseEndpoints accepts `spec`; a rejected list must leave the
// output as it was.
bool ParsesEndpoints(const std::string& spec) {
  std::map<NodeId, net::Endpoint> out{{9, net::Endpoint{"keep", 9}}};
  const bool ok = net::ParseEndpoints(spec, &out);
  EXPECT_TRUE(ok || (out.size() == 1 && out[9].host == "keep")) << spec << " changed the output";
  return ok;
}

bool ParsesPort(const std::string& text) {
  uint16_t port = 0;
  return net::ParsePort(text, &port);
}

TEST(ParseEndpoints, ReadsEveryEntry) {
  std::map<NodeId, net::Endpoint> out;
  ASSERT_TRUE(net::ParseEndpoints("2=127.0.0.1:7002,3=10.0.0.3:65535,2147483647=10.0.0.9:1",
                                  &out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].host, "127.0.0.1");
  EXPECT_EQ(out[2].port, 7002);
  EXPECT_EQ(out[3].host, "10.0.0.3");
  EXPECT_EQ(out[3].port, 65535);
  EXPECT_EQ(out[2147483647].port, 1);
}

TEST(ParseEndpoints, RejectsAnEmptyList) { EXPECT_FALSE(ParsesEndpoints("")); }
TEST(ParseEndpoints, RejectsAMissingEquals) { EXPECT_FALSE(ParsesEndpoints("2127.0.0.1:7002")); }
TEST(ParseEndpoints, RejectsAMissingColon) { EXPECT_FALSE(ParsesEndpoints("2=127.0.0.1")); }
TEST(ParseEndpoints, RejectsANonNumericId) { EXPECT_FALSE(ParsesEndpoints("x=127.0.0.1:7002")); }
TEST(ParseEndpoints, RejectsAnIdWithTrailingCharacters) {
  EXPECT_FALSE(ParsesEndpoints("2x=127.0.0.1:7002"));
}
TEST(ParseEndpoints, RejectsANegativeId) { EXPECT_FALSE(ParsesEndpoints("-2=127.0.0.1:7002")); }
TEST(ParseEndpoints, RejectsIdZero) { EXPECT_FALSE(ParsesEndpoints("0=127.0.0.1:7002")); }
TEST(ParseEndpoints, RejectsAnIdAboveInt32) {
  EXPECT_FALSE(ParsesEndpoints("2147483648=127.0.0.1:7002"));
  EXPECT_FALSE(ParsesEndpoints("99999999999=127.0.0.1:7002"));
}
TEST(ParseEndpoints, RejectsANonNumericPort) {
  EXPECT_FALSE(ParsesEndpoints("2=127.0.0.1:7002,3=127.0.0.1:x"));
}
TEST(ParseEndpoints, RejectsAPortWithTrailingCharacters) {
  EXPECT_FALSE(ParsesEndpoints("2=127.0.0.1:7002x"));
}
TEST(ParseEndpoints, RejectsPortZero) { EXPECT_FALSE(ParsesEndpoints("2=127.0.0.1:0")); }
TEST(ParseEndpoints, RejectsAPortAbove65535) { EXPECT_FALSE(ParsesEndpoints("2=127.0.0.1:70000")); }
TEST(ParseEndpoints, RejectsAnEmptyHost) { EXPECT_FALSE(ParsesEndpoints("2=:7002")); }
TEST(ParseEndpoints, RejectsADuplicateId) {
  EXPECT_FALSE(ParsesEndpoints("2=127.0.0.1:7002,2=127.0.0.1:7003"));
}
TEST(ParseEndpoints, RejectsAnEmptyItem) { EXPECT_FALSE(ParsesEndpoints("2=127.0.0.1:7002,")); }
// The transport dials IPv4 literals only; a name would be accepted and never
// dialled.
TEST(ParseEndpoints, RejectsAHostName) { EXPECT_FALSE(ParsesEndpoints("2=localhost:7002")); }
TEST(ParseEndpoints, RejectsAnIpv6Literal) { EXPECT_FALSE(ParsesEndpoints("2=::1:7002")); }
TEST(ParseEndpoints, RejectsAnIncompleteIpv4Address) {
  EXPECT_FALSE(ParsesEndpoints("2=127.0.1:7002"));
}

TEST(ParsePort, AcceptsZeroThroughMax) {
  uint16_t port = 1;
  ASSERT_TRUE(net::ParsePort("0", &port));
  EXPECT_EQ(port, 0);
  ASSERT_TRUE(net::ParsePort("65535", &port));
  EXPECT_EQ(port, 65535);
}

TEST(ParsePort, RejectsANonNumericPort) { EXPECT_FALSE(ParsesPort("x")); }
TEST(ParsePort, RejectsAPortWithTrailingCharacters) { EXPECT_FALSE(ParsesPort("7001x")); }
TEST(ParsePort, RejectsAPortAbove65535) { EXPECT_FALSE(ParsesPort("70000")); }
TEST(ParsePort, RejectsANegativePort) { EXPECT_FALSE(ParsesPort("-1")); }
TEST(ParsePort, RejectsAnEmptyPort) { EXPECT_FALSE(ParsesPort("")); }

}  // namespace
}  // namespace opx
