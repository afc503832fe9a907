// The versioned wire protocol: request parsing, the error taxonomy, and
// the rendering helpers every front end shares.

#include "serve/protocol.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/interest.h"
#include "core/split_kernel.h"
#include "serve/server.h"

namespace sdadcs::serve {
namespace {

JsonValue Parse(const std::string& text) {
  auto parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return *parsed;
}

TEST(WireErrorTest, LiftsFieldFromColonConvention) {
  WireError error = WireError::FromStatus(
      util::Status::InvalidArgument("group_attr: no such attribute 'x'"));
  EXPECT_EQ(error.code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(error.field, "group_attr");
  EXPECT_EQ(error.message, "group_attr: no such attribute 'x'");
}

TEST(WireErrorTest, LiftsFieldFromMustBeConvention) {
  WireError error = WireError::FromStatus(
      util::Status::InvalidArgument("max_depth must be >= 1"));
  EXPECT_EQ(error.field, "max_depth");
}

TEST(WireErrorTest, NoFieldWhenMessageHasNoConvention) {
  WireError error = WireError::FromStatus(
      util::Status::InvalidArgument("something went sideways"));
  EXPECT_EQ(error.field, "");
}

TEST(WireErrorTest, FieldHintWinsOverExtraction) {
  WireError error = WireError::FromStatus(
      util::Status::InvalidArgument("group_attr: nope"), "engine");
  EXPECT_EQ(error.field, "engine");
}

TEST(WireErrorTest, StatusCodeMapping) {
  EXPECT_EQ(WireError::FromStatus(util::Status::NotFound("x")).code,
            ErrorCode::kNotFound);
  EXPECT_EQ(WireError::FromStatus(util::Status::Internal("x")).code,
            ErrorCode::kInternal);
  EXPECT_EQ(
      WireError::FromStatus(util::Status::FailedPrecondition("x")).code,
      ErrorCode::kInvalidArgument);
}

TEST(WireErrorTest, JsonAndTextRenderings) {
  WireError error{ErrorCode::kInvalidArgument, "engine", "unknown engine"};
  EXPECT_EQ(error.ToJson(),
            "{\"code\":\"invalid_argument\",\"field\":\"engine\","
            "\"message\":\"unknown engine\"}");
  EXPECT_EQ(error.ToText(), "invalid_argument[engine]: unknown engine");

  WireError fieldless{ErrorCode::kParseError, "", "bad json"};
  EXPECT_EQ(fieldless.ToJson(),
            "{\"code\":\"parse_error\",\"message\":\"bad json\"}");
  EXPECT_EQ(fieldless.ToText(), "parse_error: bad json");
}

TEST(ProtocolVersionTest, UnpinnedAndMatchingPass) {
  EXPECT_FALSE(CheckProtocolVersion(Parse("{\"op\":\"ping\"}")).has_value());
  EXPECT_FALSE(
      CheckProtocolVersion(Parse("{\"v\":1,\"op\":\"ping\"}")).has_value());
}

TEST(ProtocolVersionTest, MismatchRejected) {
  auto error = CheckProtocolVersion(Parse("{\"v\":2,\"op\":\"ping\"}"));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kUnsupportedVersion);
  EXPECT_EQ(error->field, "v");

  // A non-numeric pin is a mismatch, not silently current-version.
  EXPECT_TRUE(CheckProtocolVersion(Parse("{\"v\":\"1\"}")).has_value());
}

TEST(ParseMineCallTest, MinimalRequest) {
  MineFrame frame;
  auto error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"class\"}"),
      &frame);
  EXPECT_FALSE(error.has_value());
  EXPECT_EQ(frame.call.dataset, "d");
  EXPECT_EQ(frame.call.group_attr, "class");
  EXPECT_TRUE(frame.call.use_cache);
  EXPECT_FALSE(frame.emit_patterns);
}

TEST(ParseMineCallTest, MissingRequiredFieldsNameTheField) {
  MineFrame frame;
  auto error = ParseMineCall(Parse("{\"op\":\"mine\"}"), &frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(error->field, "dataset");

  error = ParseMineCall(Parse("{\"op\":\"mine\",\"dataset\":\"d\"}"), &frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "group");
}

TEST(ParseMineCallTest, FullConfigRoundTrips) {
  MineFrame frame;
  auto error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"groups\":[\"a\",\"b\"],\"engine\":\"serial\","
            "\"deadline_ms\":250,\"node_budget\":1000,\"cache\":false,"
            "\"emit\":\"patterns\",\"tenant\":\"team-a\",\"id\":\"42\","
            "\"config\":{\"depth\":3,\"delta\":0.2,\"alpha\":0.01,"
            "\"top\":7,\"measure\":\"pr\",\"kernel\":\"scalar\"}}"),
      &frame);
  ASSERT_FALSE(error.has_value()) << error->ToText();
  EXPECT_EQ(frame.call.group_values,
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(frame.call.engine, core::EngineKind::kSerial);
  EXPECT_EQ(frame.deadline_ms, 250);
  EXPECT_EQ(frame.node_budget, 1000u);
  EXPECT_FALSE(frame.call.use_cache);
  EXPECT_TRUE(frame.emit_patterns);
  EXPECT_EQ(frame.tenant, "team-a");
  EXPECT_EQ(frame.id, "42");
  EXPECT_EQ(frame.call.config.max_depth, 3);
  EXPECT_EQ(frame.call.config.top_k, 7);
  EXPECT_EQ(frame.call.config.measure, core::MeasureKind::kPurityRatio);
  EXPECT_EQ(frame.call.config.kernel, core::KernelKind::kScalar);
}

TEST(ParseMineCallTest, ShardedEngineNameIsRejected) {
  for (const char* name : {"sharded", "sharded:4"}) {
    MineFrame frame;
    auto error = ParseMineCall(
        Parse(std::string("{\"op\":\"mine\",\"dataset\":\"d\","
                          "\"group\":\"g\",\"engine\":\"") +
              name + "\"}"),
        &frame);
    ASSERT_TRUE(error.has_value()) << name;
    EXPECT_EQ(error->code, ErrorCode::kInvalidArgument) << name;
    EXPECT_EQ(error->field, "engine") << name;
    // The message lists the accepted registry names.
    EXPECT_NE(error->message.find("parallel"), std::string::npos)
        << error->message;
    EXPECT_NE(error->message.find("binned:mvd"), std::string::npos)
        << error->message;
  }
}

TEST(RenderEnginesTest, ListsRegistryAndAliases) {
  JsonObjectWriter w;
  RenderEngines(&w);
  std::string body = w.Str();
  EXPECT_NE(body.find("\"engines\":["), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"serial\""), std::string::npos);
  EXPECT_EQ(body.find("sharded"), std::string::npos);
  EXPECT_NE(body.find("\"aliases\":[\"auto\"]"), std::string::npos);
  // The body itself must be splice-safe JSON.
  auto parsed = JsonValue::Parse(body);
  ASSERT_TRUE(parsed.ok());
  const auto* engines = parsed->Find("engines");
  ASSERT_NE(engines, nullptr);
  EXPECT_TRUE(engines->IsArray());
  EXPECT_EQ(engines->AsArray().size(), 9u);
}

TEST(ParseMineCallTest, UnknownMeasureKernelEngineAreErrors) {
  MineFrame frame;
  auto error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"config\":{\"measure\":\"bogus\"}}"),
      &frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "config.measure");

  error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"config\":{\"kernel\":\"sse9\"}}"),
      &frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "config.kernel");

  error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"engine\":\"warp\"}"),
      &frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->field, "engine");
}

TEST(ParseMineCallTest, BurstAboveOneIsRejected) {
  MineFrame frame;
  auto error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"burst\":4}"),
      &frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(error->field, "burst");

  // A count of one (or below) is a single request, as without the field.
  for (const char* burst : {"1", "0"}) {
    error = ParseMineCall(
        Parse(std::string("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":"
                          "\"g\",\"anytime\":true,\"burst\":") +
              burst + "}"),
        &frame);
    EXPECT_FALSE(error.has_value()) << burst;
  }
}

TEST(ParseMineCallTest, IntegerFieldsRejectNonIntegralOutOfRangeAndNegative) {
  // Every integer field is read by one checked reader: a value that is
  // not an integer in range answers invalid_argument naming the field,
  // never a silent truncation or an undefined cast.
  struct Case {
    std::string fragment;
    std::string field;
  };
  const std::vector<Case> cases = {
      {"\"config\":{\"depth\":1e300}", "config.depth"},
      {"\"config\":{\"depth\":2.5}", "config.depth"},
      {"\"config\":{\"depth\":-1}", "config.depth"},
      {"\"config\":{\"top\":1e300}", "config.top"},
      {"\"config\":{\"top\":2.5}", "config.top"},
      {"\"config\":{\"top\":-1}", "config.top"},
      {"\"config\":{\"top\":\"10\"}", "config.top"},
      {"\"deadline_ms\":1e300", "deadline_ms"},
      {"\"deadline_ms\":2.5", "deadline_ms"},
      {"\"deadline_ms\":-1", "deadline_ms"},
      {"\"node_budget\":1e300", "node_budget"},
      {"\"node_budget\":2.5", "node_budget"},
      {"\"node_budget\":-1", "node_budget"},
  };
  for (const Case& c : cases) {
    MineFrame frame;
    auto error = ParseMineCall(
        Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\"," +
              c.fragment + "}"),
        &frame);
    ASSERT_TRUE(error.has_value()) << c.fragment;
    EXPECT_EQ(error->code, ErrorCode::kInvalidArgument) << c.fragment;
    EXPECT_EQ(error->field, c.field) << c.fragment;
  }

  MineFrame frame;
  auto error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":\"g\","
            "\"config\":{\"depth\":3,\"top\":7},\"deadline_ms\":250,"
            "\"node_budget\":9007199254740992}"),
      &frame);
  ASSERT_FALSE(error.has_value()) << error->ToText();
  EXPECT_EQ(frame.call.config.max_depth, 3);
  EXPECT_EQ(frame.call.config.top_k, 7);
  EXPECT_EQ(frame.deadline_ms, 250);
  EXPECT_EQ(frame.node_budget, uint64_t{1} << 53);
}

TEST(ParseMineCallTest, UnknownConfigKeysAreIgnored) {
  // "seed_sample" named a removed speed knob; like any unknown config
  // key it is ignored, so the parsed config equals one without it.
  MineFrame with;
  MineFrame without;
  ASSERT_FALSE(ParseMineCall(
                   Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":"
                         "\"g\",\"config\":{\"depth\":2,"
                         "\"seed_sample\":500}}"),
                   &with)
                   .has_value());
  ASSERT_FALSE(ParseMineCall(
                   Parse("{\"op\":\"mine\",\"dataset\":\"d\",\"group\":"
                         "\"g\",\"config\":{\"depth\":2}}"),
                   &without)
                   .has_value());
  EXPECT_EQ(with.call.config.Fingerprint(), without.call.config.Fingerprint());
}

TEST(EnumParsersTest, MeasureAndKernelNames) {
  EXPECT_EQ(*MeasureFromString("diff"), core::MeasureKind::kSupportDiff);
  EXPECT_EQ(*MeasureFromString("entropy"),
            core::MeasureKind::kEntropyPurity);
  EXPECT_FALSE(MeasureFromString("").ok());
  EXPECT_EQ(*KernelFromString("avx2"), core::KernelKind::kAvx2);
  EXPECT_FALSE(KernelFromString("neon").ok());
}

TEST(EnvelopeTest, VersionLeadsEveryResponse) {
  EXPECT_EQ(ResponseEnvelope(true, "ping").Str(),
            "{\"v\":1,\"ok\":true,\"op\":\"ping\"}");
  EXPECT_EQ(ResponseEnvelope(true, "mine", "7").Str(),
            "{\"v\":1,\"ok\":true,\"op\":\"mine\",\"id\":\"7\"}");
  WireError error{ErrorCode::kUnknownOp, "op", "unknown op 'x'"};
  EXPECT_EQ(ErrorResponse("x", error).Str(),
            "{\"v\":1,\"ok\":false,\"op\":\"x\",\"error\":{\"code\":"
            "\"unknown_op\",\"field\":\"op\",\"message\":"
            "\"unknown op 'x'\"}}");
}

TEST(RenderMineOutcomeTest, ErrorVerdictCarriesStructuredError) {
  MineOutcome outcome;
  outcome.verdict = Verdict::kError;
  outcome.status = util::Status::NotFound("dataset 'd' is not loaded");
  JsonObjectWriter w;
  RenderMineOutcome(outcome, "", &w);
  std::string rendered = w.Str();
  EXPECT_NE(rendered.find("\"verdict\":\"error\""), std::string::npos);
  EXPECT_NE(rendered.find("\"error\":{\"code\":\"not_found\""),
            std::string::npos);
}

TEST(RenderMineOutcomeTest, PatternsResponseIsOneParseableLine) {
  // ND-JSON framing: a mine response with "emit":"patterns" is one line,
  // however many patterns it carries, and parses back whole.
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Load("breast", "synth:breast").ok());
  MineFrame frame;
  auto error = ParseMineCall(
      Parse("{\"op\":\"mine\",\"dataset\":\"breast\","
            "\"group\":\"class\",\"emit\":\"patterns\","
            "\"config\":{\"depth\":2}}"),
      &frame);
  ASSERT_FALSE(error.has_value()) << error->ToText();
  MineOutcome outcome = server.Mine(frame.call);
  ASSERT_EQ(outcome.verdict, Verdict::kOk) << outcome.status.ToString();
  std::string patterns = RenderPatternsBody(frame.call, outcome);
  ASSERT_FALSE(patterns.empty());

  JsonObjectWriter w = ResponseEnvelope(true, "mine");
  RenderMineOutcome(outcome, patterns, &w);
  const std::string rendered = w.Str();
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 0)
      << rendered;
  auto parsed = JsonValue::Parse(rendered);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* body = parsed->Find("patterns");
  ASSERT_NE(body, nullptr);
  ASSERT_TRUE(body->IsArray());
  EXPECT_GT(body->AsArray().size(), 1u);
}

}  // namespace
}  // namespace sdadcs::serve
