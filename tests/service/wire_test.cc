#include "service/wire.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"

namespace ireduct {
namespace {

Dataset MakeDataset(int rows = 2000) {
  auto schema = Schema::Create({{"A", 4}, {"B", 2}});
  EXPECT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  BitGen gen(1);
  for (int r = 0; r < rows; ++r) {
    const uint16_t a = static_cast<uint16_t>(gen.UniformInt(4));
    const uint16_t b = gen.Bernoulli(0.25) ? 1 : 0;
    EXPECT_TRUE(d.AppendRow(std::vector<uint16_t>{a, b}).ok());
  }
  return d;
}

std::string UniqueSocketPath(const char* tag) {
  return testing::TempDir() + "wire_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(WireRequestTest, OpenRoundTrips) {
  WireRequest req;
  req.id = 7;
  req.op = "open";
  req.tenant = "alice";
  req.dataset = "census";
  req.budget = 1.5;
  req.seed = 42;
  auto parsed = WireRequest::Parse(req.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->id, 7u);
  EXPECT_EQ(parsed->op, "open");
  EXPECT_EQ(parsed->tenant, "alice");
  EXPECT_EQ(parsed->dataset, "census");
  EXPECT_DOUBLE_EQ(parsed->budget, 1.5);
  EXPECT_EQ(parsed->seed, 42u);
}

TEST(WireRequestTest, MarginalsRoundTrips) {
  WireRequest req;
  req.id = 2;
  req.op = "marginals";
  req.tenant = "t";
  req.specs = {MarginalSpec{{0, 1}}, MarginalSpec{{2}}};
  req.mechanism = "two_phase:epsilon1_fraction=0.1";
  req.epsilon = 0.5;
  req.delta = 0.05;
  req.lambda_steps = 128;
  auto parsed = WireRequest::Parse(req.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->specs.size(), 2u);
  EXPECT_EQ(parsed->specs[0].attributes, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(parsed->specs[1].attributes, (std::vector<uint32_t>{2}));
  EXPECT_EQ(parsed->mechanism, "two_phase:epsilon1_fraction=0.1");
  EXPECT_DOUBLE_EQ(parsed->epsilon, 0.5);
  EXPECT_DOUBLE_EQ(parsed->delta, 0.05);
  EXPECT_EQ(parsed->lambda_steps, 128);
  // And serialization is a fixed point.
  EXPECT_EQ(parsed->ToJson(), req.ToJson());
}

TEST(WireRequestTest, CountRoundTrips) {
  WireRequest req;
  req.id = 3;
  req.op = "count";
  req.tenant = "t";
  req.query = ConjunctiveQuery{{{0, 3}, {1, 1}}};
  req.epsilon = 0.1;
  auto parsed = WireRequest::Parse(req.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->query.predicates.size(), 2u);
  EXPECT_EQ(parsed->query.predicates[0].attribute, 0u);
  EXPECT_EQ(parsed->query.predicates[0].value, 3);
  EXPECT_EQ(parsed->query.predicates[1].attribute, 1u);
  EXPECT_EQ(parsed->query.predicates[1].value, 1);
  EXPECT_DOUBLE_EQ(parsed->epsilon, 0.1);
}

TEST(WireRequestTest, SimpleOpsRoundTrip) {
  for (const char* op : {"ping", "stats"}) {
    WireRequest req;
    req.id = 9;
    req.op = op;
    auto parsed = WireRequest::Parse(req.ToJson());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->op, op);
  }
  WireRequest budget;
  budget.id = 10;
  budget.op = "budget";
  budget.tenant = "t";
  auto parsed = WireRequest::Parse(budget.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->tenant, "t");
}

TEST(WireRequestTest, ParseIsStrict) {
  // Not JSON at all.
  EXPECT_FALSE(WireRequest::Parse("not json").ok());
  // Must be an object.
  EXPECT_FALSE(WireRequest::Parse("[1,2]").ok());
  // id and op are mandatory.
  EXPECT_FALSE(WireRequest::Parse(R"({"op":"ping"})").ok());
  EXPECT_FALSE(WireRequest::Parse(R"({"id":1})").ok());
  // Unknown ops and unknown fields are refused, not ignored.
  EXPECT_FALSE(WireRequest::Parse(R"({"id":1,"op":"drop_tables"})").ok());
  EXPECT_FALSE(WireRequest::Parse(R"({"id":1,"op":"ping","shoe":9})").ok());
  // Wrong field types.
  EXPECT_FALSE(WireRequest::Parse(R"({"id":"one","op":"ping"})").ok());
  EXPECT_FALSE(WireRequest::Parse(R"({"id":1,"op":5})").ok());
  // Malformed spec / predicate shapes.
  EXPECT_FALSE(
      WireRequest::Parse(R"({"id":1,"op":"marginals","specs":[0]})").ok());
  EXPECT_FALSE(
      WireRequest::Parse(R"({"id":1,"op":"marginals","specs":[[]]})").ok());
  EXPECT_FALSE(
      WireRequest::Parse(R"({"id":1,"op":"marginals","specs":[[-1]]})").ok());
  EXPECT_FALSE(
      WireRequest::Parse(R"({"id":1,"op":"count","predicates":[[1]]})").ok());
  EXPECT_FALSE(
      WireRequest::Parse(R"({"id":1,"op":"count","predicates":[[1,2,3]]})")
          .ok());
}

TEST(WireRequestTest, IntegerFieldsRoundTripExactly) {
  // A double carries 53 bits; ids and seeds past 2^53 must survive intact.
  const uint64_t two53 = uint64_t{1} << 53;
  for (const uint64_t v :
       {two53 - 1, two53, two53 + 1, std::numeric_limits<uint64_t>::max()}) {
    WireRequest req;
    req.id = v;
    req.op = "open";
    req.tenant = "t";
    req.dataset = "d";
    req.seed = v;
    auto parsed = WireRequest::Parse(req.ToJson());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->id, v);
    EXPECT_EQ(parsed->seed, v);

    WireResponse resp;
    resp.id = v;
    resp.ok = true;
    auto parsed_resp = WireResponse::Parse(resp.ToJson());
    ASSERT_TRUE(parsed_resp.ok()) << parsed_resp.status();
    EXPECT_EQ(parsed_resp->id, v);
  }
  auto edges = WireRequest::Parse(
      R"({"id":1,"op":"marginals","specs":[[4294967295]],)"
      R"("lambda_steps":2147483647})");
  ASSERT_TRUE(edges.ok()) << edges.status();
  EXPECT_EQ(edges->specs[0].attributes[0], 4294967295u);
  EXPECT_EQ(edges->lambda_steps, 2147483647);
  auto predicate = WireRequest::Parse(
      R"({"id":1,"op":"count","predicates":[[4294967295,65535]]})");
  ASSERT_TRUE(predicate.ok()) << predicate.status();
  EXPECT_EQ(predicate->query.predicates[0].attribute, 4294967295u);
  EXPECT_EQ(predicate->query.predicates[0].value, 65535);
}

TEST(WireRequestTest, IntegerFieldsRefuseInexactValues) {
  // Refused with kInvalidArgument, naming an integer field.
  auto refused = [](const std::string& line) {
    auto parsed = WireRequest::Parse(line);
    if (parsed.ok()) return ::testing::AssertionFailure() << "accepted";
    const std::string message(parsed.status().message());
    if (parsed.status().code() != StatusCode::kInvalidArgument ||
        (message.find("integer") == std::string::npos &&
         message.find("out of range") == std::string::npos)) {
      return ::testing::AssertionFailure() << parsed.status();
    }
    return ::testing::AssertionSuccess();
  };
  // 2^64, negative, fractional and exponent-form ids and seeds.
  for (const char* bad : {"18446744073709551616", "-1", "-0", "1.5", "1.0",
                          "1e3", "1E3", "+1"}) {
    const std::string b(bad);
    EXPECT_TRUE(refused(R"({"id":)" + b + R"(,"op":"ping"})")) << bad;
    EXPECT_TRUE(refused(R"({"id":1,"op":"open","seed":)" + b + "}")) << bad;
    EXPECT_TRUE(refused(R"({"id":1,"op":"marginals","lambda_steps":)" + b +
                        "}"))
        << bad;
    EXPECT_TRUE(refused(R"({"id":1,"op":"marginals","specs":[[)" + b +
                        "]]}"))
        << bad;
    EXPECT_TRUE(refused(R"({"id":1,"op":"count","predicates":[[0,)" + b +
                        "]]}"))
        << bad;
  }
  // Past the field's own width: an int step count, a uint32 attribute, a
  // uint16 predicate value.
  EXPECT_TRUE(
      refused(R"({"id":1,"op":"marginals","lambda_steps":2147483648})"));
  EXPECT_TRUE(refused(R"({"id":1,"op":"marginals","specs":[[4294967296]]})"));
  EXPECT_TRUE(
      refused(R"({"id":1,"op":"count","predicates":[[4294967296,0]]})"));
  EXPECT_TRUE(refused(R"({"id":1,"op":"count","predicates":[[0,65536]]})"));
  // Responses parse their integers the same way.
  EXPECT_FALSE(WireResponse::Parse(R"({"id":-1,"ok":true})").ok());
  EXPECT_FALSE(
      WireResponse::Parse(R"({"id":18446744073709551616,"ok":true})").ok());
  EXPECT_FALSE(
      WireResponse::Parse(R"({"id":1,"ok":false,"retry_after_ms":2.5})").ok());
}

TEST(WireResponseTest, OkRoundTrips) {
  WireResponse resp;
  resp.id = 12;
  resp.ok = true;
  resp.result_json = R"({"value":3.5,"tags":["a","b"],"nested":{"n":1}})";
  auto parsed = WireResponse::Parse(resp.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->id, 12u);
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->result_json, resp.result_json);
  EXPECT_EQ(parsed->retry_after_ms, -1);
}

TEST(WireResponseTest, ErrorRoundTripsWithRetryHint) {
  WireResponse resp;
  resp.id = 13;
  resp.ok = false;
  resp.code = std::string(StatusCodeToString(StatusCode::kResourceExhausted));
  resp.message = "admission rejected (queue_full); retry after 50ms";
  resp.retry_after_ms = 50;
  auto parsed = WireResponse::Parse(resp.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->code, "Resource exhausted");
  EXPECT_EQ(parsed->message, resp.message);
  EXPECT_EQ(parsed->retry_after_ms, 50);
  // Non-shed errors omit the hint entirely.
  resp.retry_after_ms = -1;
  EXPECT_EQ(resp.ToJson().find("retry_after_ms"), std::string::npos);
}

TEST(WireResponseTest, ParseIsStrict) {
  EXPECT_FALSE(WireResponse::Parse(R"({"id":1})").ok());
  EXPECT_FALSE(WireResponse::Parse(R"({"ok":true})").ok());
  EXPECT_FALSE(WireResponse::Parse(R"({"id":1,"ok":1})").ok());
  EXPECT_FALSE(WireResponse::Parse(R"({"id":1,"ok":true,"zap":1})").ok());
}

TEST(WireServerTest, EndToEndOverUnixSocket) {
  const Dataset d = MakeDataset();
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  const std::string socket_path = UniqueSocketPath("e2e");
  auto wire = WireServer::Start(server->get(), socket_path);
  ASSERT_TRUE(wire.ok()) << wire.status();
  auto client = WireClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();

  WireRequest ping;
  ping.id = 1;
  ping.op = "ping";
  auto pong = client->Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->ok);
  EXPECT_EQ(pong->result_json, R"({"pong":true})");

  WireRequest open;
  open.id = 2;
  open.op = "open";
  open.tenant = "alice";
  open.dataset = "census";
  open.budget = 1.0;
  open.seed = 21;
  auto opened = client->Call(open);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_TRUE(opened->ok) << opened->message;

  WireRequest marginals;
  marginals.id = 3;
  marginals.op = "marginals";
  marginals.tenant = "alice";
  marginals.specs = {MarginalSpec{{0}}, MarginalSpec{{1}}};
  marginals.mechanism = "ireduct";
  marginals.epsilon = 0.5;
  marginals.delta = 5.0;
  marginals.lambda_steps = 40;
  auto released = client->Call(marginals);
  ASSERT_TRUE(released.ok()) << released.status();
  ASSERT_TRUE(released->ok) << released->message;
  EXPECT_NE(released->result_json.find("\"epsilon_spent\""),
            std::string::npos);
  EXPECT_NE(released->result_json.find("\"counts\""), std::string::npos);

  WireRequest count;
  count.id = 4;
  count.op = "count";
  count.tenant = "alice";
  count.query = ConjunctiveQuery{{{1, 1}}};
  count.epsilon = 0.1;
  auto counted = client->Call(count);
  ASSERT_TRUE(counted.ok()) << counted.status();
  ASSERT_TRUE(counted->ok) << counted->message;
  EXPECT_NE(counted->result_json.find("\"value\""), std::string::npos);

  WireRequest budget;
  budget.id = 5;
  budget.op = "budget";
  budget.tenant = "alice";
  auto budgeted = client->Call(budget);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();
  ASSERT_TRUE(budgeted->ok) << budgeted->message;
  auto doc = obs::JsonParse(budgeted->result_json);
  ASSERT_TRUE(doc.ok());
  const obs::JsonValue* spent = doc->Find("spent");
  ASSERT_NE(spent, nullptr);
  EXPECT_GT(spent->number, 0.0);
  EXPECT_LE(spent->number, 0.6 + 1e-9);

  WireRequest stats;
  stats.id = 6;
  stats.op = "stats";
  auto statsed = client->Call(stats);
  ASSERT_TRUE(statsed.ok()) << statsed.status();
  ASSERT_TRUE(statsed->ok);
  auto stats_doc = obs::JsonParse(statsed->result_json);
  ASSERT_TRUE(stats_doc.ok());
  const obs::JsonValue* admitted = stats_doc->Find("admitted");
  ASSERT_NE(admitted, nullptr);
  EXPECT_DOUBLE_EQ(admitted->number, 2.0);  // marginals + count

  // Errors surface as structured responses, not dropped connections.
  WireRequest ghost;
  ghost.id = 7;
  ghost.op = "budget";
  ghost.tenant = "ghost";
  auto missing = client->Call(ghost);
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_FALSE(missing->ok);
  EXPECT_EQ(missing->code, "Not found");

  EXPECT_EQ((*wire)->connections_served(), 1u);
  (*wire)->Stop();
  (*wire)->Stop();  // idempotent
}

TEST(WireServerTest, ResponsesCorrelateById) {
  const Dataset d = MakeDataset();
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 31).ok());
  const std::string socket_path = UniqueSocketPath("ooo");
  auto wire = WireServer::Start(server->get(), socket_path);
  ASSERT_TRUE(wire.ok()) << wire.status();
  auto client = WireClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();

  // With the dispatcher paused the queued count cannot answer, but the
  // synchronous ping still must: its response arrives first and the
  // client's id correlation has to bridge the gap.
  (*server)->Pause();
  WireRequest count;
  count.id = 100;
  count.op = "count";
  count.tenant = "t";
  count.epsilon = 0.1;
  ASSERT_TRUE(client->Send(count).ok());
  WireRequest ping;
  ping.id = 101;
  ping.op = "ping";
  ASSERT_TRUE(client->Send(ping).ok());
  auto pong = client->Receive(101);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->ok);
  (*server)->Resume();
  auto counted = client->Receive(100);
  ASSERT_TRUE(counted.ok()) << counted.status();
  EXPECT_TRUE(counted->ok) << counted->message;
}

TEST(WireServerTest, AdmissionShedSurfacesRetryAfterOverTheWire) {
  const Dataset d = MakeDataset();
  QueryServerConfig config;
  config.max_queue = 1;
  config.max_inflight_per_tenant = 100;
  config.retry_after_ms = 40;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 41).ok());
  const std::string socket_path = UniqueSocketPath("shed");
  auto wire = WireServer::Start(server->get(), socket_path);
  ASSERT_TRUE(wire.ok()) << wire.status();
  auto client = WireClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();

  (*server)->Pause();
  WireRequest count;
  count.op = "count";
  count.tenant = "t";
  count.epsilon = 0.1;
  count.id = 1;
  ASSERT_TRUE(client->Send(count).ok());  // fills the queue
  count.id = 2;
  ASSERT_TRUE(client->Send(count).ok());  // shed at admission
  auto shed = client->Receive(2);
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_FALSE(shed->ok);
  EXPECT_EQ(shed->code,
            std::string(StatusCodeToString(StatusCode::kResourceExhausted)));
  EXPECT_EQ(shed->retry_after_ms, 40);
  (*server)->Resume();
  auto first = client->Receive(1);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->ok) << first->message;
  // A verbatim retry after the hint succeeds and only then charges.
  count.id = 3;
  auto retried = client->Call(count);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_TRUE(retried->ok) << retried->message;
  auto budget = (*server)->GetBudget("t");
  ASSERT_TRUE(budget.ok());
  EXPECT_DOUBLE_EQ(budget->spent, 0.2);  // two admitted counts, no shed charge
}

TEST(WireServerTest, StartValidatesArguments) {
  EXPECT_FALSE(WireServer::Start(nullptr, "/tmp/x.sock").ok());
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(WireServer::Start(server->get(), "").ok());
  EXPECT_FALSE(
      WireServer::Start(server->get(), std::string(200, 'x')).ok());
  EXPECT_FALSE(WireClient::Connect(testing::TempDir() + "no_such.sock").ok());
}

}  // namespace
}  // namespace ireduct
