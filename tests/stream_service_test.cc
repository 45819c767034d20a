// The v2 streaming wire API over a live NetServer (labels:
// stream;service-net): per-connection version negotiation and its
// stickiness, ping capabilities, the upsert / remove / match /
// invalidations verbs against a real StreamCoordinator, v2 canonical-
// key strictness vs v1 aliases (with the once-per-connection
// deprecation note), stable rejection of future-schema frames, a
// golden corpus of literal v1 frames whose replies are pinned
// byte-for-byte, and the stale-result recompute path.

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "net/wire.h"
#include "service/stream_coordinator.h"
#include "util/json_parser.h"

namespace certa::net {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("certa_stream_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string dir() const { return dir_.string(); }

 private:
  fs::path dir_;
};

/// Blocking loopback client (same shape as net_service_test's): raw
/// line frames in, raw line frames out — byte-exact reads are the
/// point of half these tests.
class TestClient {
 public:
  explicit TestClient(int port, int timeout_seconds = 30) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval timeout{};
    timeout.tv_sec = timeout_seconds;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0;
    EXPECT_TRUE(connected_);
  }
  ~TestClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Sends one line (newline appended when missing).
  bool SendLine(std::string line) {
    if (line.empty() || line.back() != '\n') line += '\n';
    return Send(line);
  }

  bool ReadLine(std::string* line) {
    while (true) {
      size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  bool ReadFrame(JsonValue* frame) {
    std::string line;
    if (!ReadLine(&line)) return false;
    std::string error;
    bool ok = JsonValue::Parse(line, frame, &error);
    EXPECT_TRUE(ok) << error << " in: " << line;
    return ok;
  }

  /// One round trip: send the line, read the reply line verbatim.
  std::string RoundTrip(const std::string& line) {
    EXPECT_TRUE(SendLine(line));
    std::string reply;
    EXPECT_TRUE(ReadLine(&reply)) << "no reply to: " << line;
    return reply;
  }

  /// Round trip, reply parsed.
  JsonValue RoundTripFrame(const std::string& line) {
    const std::string reply = RoundTrip(line);
    JsonValue frame;
    std::string error;
    EXPECT_TRUE(JsonValue::Parse(reply, &frame, &error))
        << error << " in: " << reply;
    return frame;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::string TextOf(const JsonValue& frame, const char* key) {
  const JsonValue* value = frame.Find(key);
  return value != nullptr && value->is_string() ? value->string_value()
                                                : std::string();
}

long long IntOf(const JsonValue& frame, const char* key) {
  const JsonValue* value = frame.Find(key);
  return value != nullptr && value->is_integer() ? value->int_value() : -999;
}

/// A server with streaming attached: coordinator on `<scratch>/stream`,
/// jobs on `<scratch>/jobs`, dataset hook wired — the single-process
/// shape `certa serve --listen --stream-dir` builds.
struct StreamServer {
  explicit StreamServer(const std::string& scratch, int workers = 2) {
    service::StreamCoordinator::Options stream_options;
    stream_options.dir = scratch + "/stream";
    stream_options.slot = 0;
    std::string error;
    EXPECT_TRUE(coordinator.Open(stream_options, &error)) << error;

    NetServerOptions options;
    options.runner.job_root = scratch + "/jobs";
    options.runner.workers = workers;
    options.runner.queue_capacity = 8;
    options.runner.dataset_provider =
        [this](const api::ExplainRequest& request, data::Dataset* dataset,
               std::string* provider_error) {
          return coordinator.ProvideDataset(request, dataset,
                                            provider_error);
        };
    options.stream = &coordinator;
    server = std::make_unique<NetServer>(std::move(options));
    EXPECT_TRUE(server->StartBackground(&error)) << error;
    EXPECT_GT(server->port(), 0);
  }
  ~StreamServer() {
    server.reset();
    coordinator.Close();
  }

  service::StreamCoordinator coordinator;
  std::unique_ptr<NetServer> server;
};

// ---------------------------------------------------------------------
// Wire layer: the v2 builders and the parser are one contract.

TEST(StreamWireTest, V2BuildersRoundTripThroughParser) {
  ClientFrame frame;
  std::string code, error;

  ASSERT_TRUE(ParseClientFrame(
      UpsertRequestFrame("AB", "/dm", 1, 7, {"a", "b"}), &frame, &code,
      &error))
      << error;
  EXPECT_EQ(frame.type, ClientFrame::Type::kUpsert);
  EXPECT_EQ(frame.schema_version, 2);
  EXPECT_EQ(frame.dataset, "AB");
  EXPECT_EQ(frame.data_dir, "/dm");
  EXPECT_EQ(frame.side, 1);
  EXPECT_EQ(frame.record_id, 7);
  EXPECT_EQ(frame.values, (std::vector<std::string>{"a", "b"}));

  ASSERT_TRUE(ParseClientFrame(RemoveRequestFrame("AB", "", 0, 3), &frame,
                               &code, &error))
      << error;
  EXPECT_EQ(frame.type, ClientFrame::Type::kRemove);
  EXPECT_EQ(frame.record_id, 3);

  ASSERT_TRUE(ParseClientFrame(MatchRequestFrame("AB", "", 0, {"probe"}, 5),
                               &frame, &code, &error))
      << error;
  EXPECT_EQ(frame.type, ClientFrame::Type::kMatch);
  EXPECT_EQ(frame.top_k, 5);

  ASSERT_TRUE(ParseClientFrame(InvalidationsRequestFrame(false), &frame,
                               &code, &error))
      << error;
  EXPECT_EQ(frame.type, ClientFrame::Type::kInvalidations);
  EXPECT_FALSE(frame.subscribe);
}

TEST(StreamWireTest, V2VerbsRequireDeclaredVersion) {
  ClientFrame frame;
  std::string code, error;
  // The same verb without the frame-level declaration is refused —
  // a v1 client can never stumble into streaming semantics.
  EXPECT_FALSE(ParseClientFrame(
      "{\"type\":\"upsert\",\"dataset\":\"AB\",\"side\":0,\"id\":1,"
      "\"values\":[\"x\"]}",
      &frame, &code, &error));
  EXPECT_EQ(code, kErrUnsupportedSchema);
  EXPECT_NE(error.find("schema_version 2 verb"), std::string::npos) << error;
}

TEST(StreamWireTest, FutureSchemaFrameRejectedWithStableCode) {
  ClientFrame frame;
  std::string code, error;
  EXPECT_FALSE(ParseClientFrame("{\"schema_version\":3,\"type\":\"ping\"}",
                                &frame, &code, &error));
  EXPECT_EQ(code, kErrUnsupportedSchema);
  EXPECT_EQ(error,
            "frame speaks schema_version 3; this server supports <= 2");
}

// ---------------------------------------------------------------------
// Live server: negotiation, capabilities, verbs.

TEST(StreamServiceTest, StreamingVerbsUnavailableWithoutStreamDir) {
  ScratchDir scratch("nostream");
  NetServerOptions options;
  options.runner.job_root = scratch.dir() + "/jobs";
  options.runner.workers = 1;
  auto server = std::make_unique<NetServer>(std::move(options));
  std::string error;
  ASSERT_TRUE(server->StartBackground(&error)) << error;

  TestClient client(server->port());
  JsonValue reply =
      client.RoundTripFrame(UpsertRequestFrame("AB", "", 0, 1, {"x", "x"}));
  EXPECT_EQ(TextOf(reply, "type"), "error");
  EXPECT_EQ(TextOf(reply, "code"), "streaming_unavailable");
  // The v2 frame upgraded the connection; the error is stamped v2.
  EXPECT_EQ(IntOf(reply, "schema_version"), 2);

  // Ping advertises streaming off.
  reply = client.RoundTripFrame("{\"type\":\"ping\"}");
  const JsonValue* caps = reply.Find("capabilities");
  ASSERT_NE(caps, nullptr);
  ASSERT_NE(caps->Find("streaming"), nullptr);
  EXPECT_FALSE(caps->Find("streaming")->bool_value());
  server->Stop(/*drain=*/true);
}

TEST(StreamServiceTest, NegotiationIsStickyPerConnection) {
  ScratchDir scratch("sticky");
  StreamServer ss(scratch.dir());
  TestClient client(ss.server->port());

  // A bare (v1) frame answers at v1.
  JsonValue reply = client.RoundTripFrame("{\"type\":\"ping\"}");
  EXPECT_EQ(IntOf(reply, "schema_version"), 1);
  // Declaring v2 upgrades the connection...
  reply = client.RoundTripFrame("{\"schema_version\":2,\"type\":\"ping\"}");
  EXPECT_EQ(IntOf(reply, "schema_version"), 2);
  // ...and it never downgrades, even for later version-less frames.
  reply = client.RoundTripFrame("{\"type\":\"ping\"}");
  EXPECT_EQ(IntOf(reply, "schema_version"), 2);

  // A fresh connection starts back at v1 — negotiation is per
  // connection, not per server.
  TestClient fresh(ss.server->port());
  reply = fresh.RoundTripFrame("{\"type\":\"ping\"}");
  EXPECT_EQ(IntOf(reply, "schema_version"), 1);
  ss.server->Stop(/*drain=*/true);
}

TEST(StreamServiceTest, PingCapabilitiesAdvertiseStreamingVerbs) {
  ScratchDir scratch("caps");
  StreamServer ss(scratch.dir());
  TestClient client(ss.server->port());
  JsonValue reply = client.RoundTripFrame("{\"type\":\"ping\"}");
  const JsonValue* caps = reply.Find("capabilities");
  ASSERT_NE(caps, nullptr);
  EXPECT_TRUE(caps->Find("streaming")->bool_value());
  EXPECT_EQ(caps->Find("workers")->int_value(), 1);
  EXPECT_EQ(caps->Find("store_mode")->string_value(), "none");
  const JsonValue* versions = caps->Find("schema_versions");
  ASSERT_NE(versions, nullptr);
  ASSERT_EQ(versions->array_items().size(), 2u);
  EXPECT_EQ(versions->array_items()[1].int_value(), 2);
  bool has_upsert = false;
  for (const JsonValue& verb : caps->Find("verbs")->array_items()) {
    if (verb.string_value() == "upsert") has_upsert = true;
  }
  EXPECT_TRUE(has_upsert);
  ss.server->Stop(/*drain=*/true);
}

TEST(StreamServiceTest, UpsertMatchRemoveRoundTrip) {
  ScratchDir scratch("verbs");
  StreamServer ss(scratch.dir());
  const data::Dataset base = data::MakeBenchmark("AB");
  std::vector<std::string> values(
      static_cast<size_t>(base.left.schema().size()),
      "zyzzyx streamrecord");

  TestClient client(ss.server->port());
  // Upsert a brand-new left record.
  JsonValue reply = client.RoundTripFrame(
      UpsertRequestFrame("AB", "", 0, 900001, values));
  ASSERT_EQ(TextOf(reply, "type"), "upserted") << TextOf(reply, "message");
  EXPECT_TRUE(reply.Find("created")->bool_value());
  EXPECT_GE(IntOf(reply, "seq"), 1);
  EXPECT_EQ(IntOf(reply, "slot"), 0);

  // Match finds it by its (unique) tokens.
  reply = client.RoundTripFrame(
      MatchRequestFrame("AB", "", 0, {"zyzzyx"}, 5));
  ASSERT_EQ(TextOf(reply, "type"), "match");
  const JsonValue* candidates = reply.Find("candidates");
  ASSERT_NE(candidates, nullptr);
  ASSERT_EQ(candidates->array_items().size(), 1u);
  EXPECT_EQ(candidates->array_items()[0].Find("id")->int_value(), 900001);

  // Remove tombstones it; the match goes empty.
  reply = client.RoundTripFrame(RemoveRequestFrame("AB", "", 0, 900001));
  ASSERT_EQ(TextOf(reply, "type"), "removed");
  EXPECT_TRUE(reply.Find("removed")->bool_value());
  reply = client.RoundTripFrame(MatchRequestFrame("AB", "", 0,
                                                  {"zyzzyx"}, 5));
  EXPECT_TRUE(reply.Find("candidates")->array_items().empty());

  // Removing again acks as a no-op.
  reply = client.RoundTripFrame(RemoveRequestFrame("AB", "", 0, 900001));
  ASSERT_EQ(TextOf(reply, "type"), "removed");
  EXPECT_FALSE(reply.Find("removed")->bool_value());

  // Unknown dataset / malformed record map to their stable codes.
  reply = client.RoundTripFrame(
      UpsertRequestFrame("NOPE", "", 0, 1, values));
  EXPECT_EQ(TextOf(reply, "code"), "unknown_dataset");
  reply = client.RoundTripFrame(
      UpsertRequestFrame("AB", "", 0, 1, {"wrong-arity"}));
  EXPECT_EQ(TextOf(reply, "code"), "bad_record");
  ss.server->Stop(/*drain=*/true);
}

TEST(StreamServiceTest, InvalidationSubscriberSeesUpsertEvents) {
  ScratchDir scratch("inval");
  StreamServer ss(scratch.dir());
  const data::Dataset base = data::MakeBenchmark("AB");

  // Subscribe on one connection.
  TestClient subscriber(ss.server->port());
  JsonValue reply =
      subscriber.RoundTripFrame(InvalidationsRequestFrame(true));
  ASSERT_EQ(TextOf(reply, "type"), "invalidations");
  ASSERT_NE(reply.Find("subscribed"), nullptr);
  EXPECT_TRUE(reply.Find("subscribed")->bool_value());
  ASSERT_NE(reply.Find("stale"), nullptr);
  EXPECT_TRUE(reply.Find("stale")->array_items().empty());

  // Submit a tiny job and wait for its terminal event on the submit
  // connection, so its deps are registered.
  api::ExplainRequest request;
  request.id = "watched-job";
  request.dataset = "AB";
  request.model = "svm";
  request.pair_index = 0;
  request.triangles = 10;
  TestClient submitter(ss.server->port());
  ASSERT_TRUE(submitter.SendLine(SubmitFrame(request, /*watch=*/true)));
  JsonValue frame;
  ASSERT_TRUE(submitter.ReadFrame(&frame));
  ASSERT_EQ(TextOf(frame, "type"), "accepted") << TextOf(frame, "message");
  bool terminal = false;
  while (!terminal && submitter.ReadFrame(&frame)) {
    terminal = TextOf(frame, "type") == "event" &&
               TextOf(frame, "event") == "terminal";
  }
  ASSERT_TRUE(terminal);

  // Mutate the job's left input record: the subscriber gets an
  // asynchronous invalidation event naming the job.
  const data::LabeledPair& pair = base.test[0];
  const data::Record& left = base.left.record(pair.left_index);
  std::vector<std::string> mutated = left.values;
  mutated[0] = "freshly mutated value";
  JsonValue ack = submitter.RoundTripFrame(
      UpsertRequestFrame("AB", "", 0, left.id, mutated));
  ASSERT_EQ(TextOf(ack, "type"), "upserted") << TextOf(ack, "message");

  ASSERT_TRUE(subscriber.ReadFrame(&frame));
  EXPECT_EQ(TextOf(frame, "type"), "event");
  EXPECT_EQ(TextOf(frame, "event"), "invalidation");
  EXPECT_EQ(TextOf(frame, "job_id"), "watched-job");
  EXPECT_EQ(IntOf(frame, "id"), left.id);

  // A late subscriber catches up through the stale_jobs list.
  TestClient late(ss.server->port());
  reply = late.RoundTripFrame(InvalidationsRequestFrame(true));
  ASSERT_NE(reply.Find("stale"), nullptr);
  ASSERT_EQ(reply.Find("stale")->array_items().size(), 1u);
  EXPECT_EQ(reply.Find("stale")->array_items()[0].string_value(),
            "watched-job");
  ss.server->Stop(/*drain=*/true);
}

TEST(StreamServiceTest, StaleResultAnswersThenRecomputes) {
  ScratchDir scratch("stale");
  StreamServer ss(scratch.dir());
  const data::Dataset base = data::MakeBenchmark("AB");

  api::ExplainRequest request;
  request.id = "stale-job";
  request.dataset = "AB";
  request.model = "svm";
  request.pair_index = 0;
  request.triangles = 10;

  TestClient client(ss.server->port());
  ASSERT_TRUE(client.SendLine(SubmitFrame(request, /*watch=*/true)));
  JsonValue frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(TextOf(frame, "type"), "accepted") << TextOf(frame, "message");
  bool terminal = false;
  while (!terminal && client.ReadFrame(&frame)) {
    terminal = TextOf(frame, "type") == "event" &&
               TextOf(frame, "event") == "terminal";
  }
  ASSERT_TRUE(terminal);

  // Clean fetch first.
  JsonValue reply = client.RoundTripFrame(ResultRequestFrame("stale-job"));
  ASSERT_EQ(TextOf(reply, "type"), "result");

  // Mutate the explained pair's right record.
  const data::LabeledPair& pair = base.test[0];
  const data::Record& right = base.right.record(pair.right_index);
  std::vector<std::string> mutated = right.values;
  mutated[0] = "drifted value";
  reply = client.RoundTripFrame(
      UpsertRequestFrame("AB", "", 1, right.id, mutated));
  ASSERT_EQ(TextOf(reply, "type"), "upserted") << TextOf(reply, "message");

  // The next result fetch says stale_recomputing and re-admits the job.
  reply = client.RoundTripFrame(ResultRequestFrame("stale-job"));
  ASSERT_EQ(TextOf(reply, "type"), "error");
  EXPECT_EQ(TextOf(reply, "code"), "stale_recomputing");

  // Poll status until the recompute lands, then the result serves
  // cleanly again (the recompute's dataset hook cleared the mark).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "recompute never completed";
    reply = client.RoundTripFrame(ResultRequestFrame("stale-job"));
    if (TextOf(reply, "type") == "result") break;
    // Early polls say stale_recomputing; once the recompute has re-
    // registered its deps (clearing the mark) they say not_complete.
    const std::string code = TextOf(reply, "code");
    EXPECT_TRUE(code == "stale_recomputing" || code == "not_complete")
        << code << ": " << TextOf(reply, "message");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_FALSE(ss.coordinator.IsStale("stale-job"));
  ss.server->Stop(/*drain=*/true);
}

// ---------------------------------------------------------------------
// v1 compatibility: aliases + note-once on v1, strictness on v2, and
// the golden byte-for-byte corpus.

TEST(StreamServiceTest, V1AliasesNoteOncePerConnection) {
  ScratchDir scratch("alias");
  StreamServer ss(scratch.dir());
  TestClient client(ss.server->port());
  // Legacy "pair-index" spelling inside a v1 request: accepted, with a
  // deprecation note on the FIRST reply only.
  const std::string submit =
      "{\"type\":\"submit\",\"watch\":false,\"request\":{\"id\":\"a1\","
      "\"dataset\":\"AB\",\"model\":\"svm\",\"pair-index\":0,"
      "\"triangles\":10}}";
  JsonValue reply = client.RoundTripFrame(submit);
  ASSERT_EQ(TextOf(reply, "type"), "accepted") << TextOf(reply, "message");
  EXPECT_NE(TextOf(reply, "note").find("'pair-index' is deprecated"),
            std::string::npos)
      << "first accepted frame should nudge away from the legacy key, got: "
      << TextOf(reply, "note");

  const std::string submit2 =
      "{\"type\":\"submit\",\"watch\":false,\"request\":{\"id\":\"a2\","
      "\"dataset\":\"AB\",\"model\":\"svm\",\"pair-index\":0,"
      "\"triangles\":10}}";
  reply = client.RoundTripFrame(submit2);
  ASSERT_EQ(TextOf(reply, "type"), "accepted");
  EXPECT_EQ(reply.Find("note"), nullptr)
      << "the migration nudge is once per connection";
  ss.server->Stop(/*drain=*/true);
}

TEST(StreamServiceTest, V2RequestsRejectLegacyKeySpellings) {
  ScratchDir scratch("strict");
  StreamServer ss(scratch.dir());
  TestClient client(ss.server->port());
  // The same request at schema_version 2 must use canonical snake_case;
  // the error points at the canonical key.
  const std::string submit =
      "{\"schema_version\":2,\"type\":\"submit\",\"watch\":false,"
      "\"request\":{\"schema_version\":2,\"id\":\"s1\",\"dataset\":\"AB\","
      "\"model\":\"svm\",\"pair-index\":0,\"triangles\":10}}";
  JsonValue reply = client.RoundTripFrame(submit);
  ASSERT_EQ(TextOf(reply, "type"), "error");
  EXPECT_EQ(TextOf(reply, "code"), "bad_request");
  EXPECT_NE(TextOf(reply, "message").find("pair_index"), std::string::npos)
      << TextOf(reply, "message");
  ss.server->Stop(/*drain=*/true);
}

TEST(StreamServiceTest, GoldenV1FramesReplyByteIdentically) {
  ScratchDir scratch("golden");
  // Plain v1-era server shape: no stream, one worker.
  NetServerOptions options;
  options.runner.job_root = scratch.dir() + "/jobs";
  options.runner.workers = 1;
  auto server = std::make_unique<NetServer>(std::move(options));
  std::string error;
  ASSERT_TRUE(server->StartBackground(&error)) << error;
  TestClient client(server->port());

  // Literal v1 request frames with their reply lines pinned
  // byte-for-byte. These are the frozen v1 contract: a change here is
  // a wire-visible breaking change for deployed v1 clients.
  const struct {
    const char* request;
    const char* reply;
  } kCorpus[] = {
      {"{\"type\":\"ping\"}",
       "{\"schema_version\":1,\"type\":\"pong\",\"capabilities\":{"
       "\"schema_versions\":[1,2],\"verbs\":[\"submit\",\"status\","
       "\"result\",\"cancel\",\"stats\",\"ping\"],\"workers\":1,"
       "\"store_mode\":\"none\",\"streaming\":false}}"},
      {"{\"schema_version\":1,\"type\":\"ping\"}",
       "{\"schema_version\":1,\"type\":\"pong\",\"capabilities\":{"
       "\"schema_versions\":[1,2],\"verbs\":[\"submit\",\"status\","
       "\"result\",\"cancel\",\"stats\",\"ping\"],\"workers\":1,"
       "\"store_mode\":\"none\",\"streaming\":false}}"},
      {"{\"type\":\"status\",\"job_id\":\"ghost\"}",
       "{\"schema_version\":1,\"type\":\"error\",\"code\":\"unknown_job\","
       "\"message\":\"no job named \\\"ghost\\\"\",\"job_id\":\"ghost\"}"},
      {"{\"type\":\"warp\"}",
       "{\"schema_version\":1,\"type\":\"error\",\"code\":\"bad_frame\","
       "\"message\":\"unknown frame type \\\"warp\\\"\"}"},
      {"{\"schema_version\":3,\"type\":\"ping\"}",
       "{\"schema_version\":1,\"type\":\"error\","
       "\"code\":\"unsupported_schema\",\"message\":\"frame speaks "
       "schema_version 3; this server supports <= 2\"}"},
  };
  for (const auto& entry : kCorpus) {
    EXPECT_EQ(client.RoundTrip(entry.request), entry.reply)
        << "request: " << entry.request;
  }
  server->Stop(/*drain=*/true);
}

// ---------------------------------------------------------------------
// Coordinator keys: names are framed, never split on a separator byte.

TEST(StreamCoordinatorTest, SeparatorBytesInNamesSurviveCheckpointAndReopen) {
  // Two (dataset, data_dir) splits of one string joined on 0x1f: the
  // dataset name of the second holds the byte, and both directories
  // load. Each split must get its own overlay, and checkpointing after
  // every op must round-trip the names through Close and reopen.
  ScratchDir scratch("sep");
  const std::string root = scratch.dir();
  const std::string dir_b = root + "/b";
  const std::string dir_a = root + "/k\x1f" + root + "/b";
  const data::Dataset base = data::MakeBenchmark("FZ");
  for (const std::string& dir : {dir_a, dir_b}) {
    fs::create_directories(dir);
    ASSERT_TRUE(data::SaveDatasetDirectory(dir, base)) << dir;
  }
  const std::string dataset_a = "ds";
  const std::string dataset_b = "ds\x1f" + root + "/k";
  ASSERT_EQ(dataset_a + '\x1f' + dir_a, dataset_b + '\x1f' + dir_b);

  auto record_with = [&](const std::string& token) {
    data::Record record = base.left.record(0);
    record.id = 900001;
    record.values[0] = token;
    return record;
  };
  service::StreamCoordinator::Options options;
  options.dir = root + "/stream";
  options.checkpoint_every = 1;
  {
    service::StreamCoordinator coordinator;
    std::string error;
    ASSERT_TRUE(coordinator.Open(options, &error)) << error;
    service::StreamCoordinator::Ack ack;
    ASSERT_EQ(coordinator.Upsert(dataset_b, dir_b, 0, record_with("zzbeta"),
                                 &ack, nullptr, &error),
              service::StreamCoordinator::OpStatus::kOk)
        << error;
    ASSERT_EQ(coordinator.Upsert(dataset_a, dir_a, 0,
                                 record_with("zzalpha"), &ack, nullptr,
                                 &error),
              service::StreamCoordinator::OpStatus::kOk)
        << error;
    EXPECT_GE(coordinator.stats().checkpoints, 2);
    coordinator.Close();
  }

  service::StreamCoordinator reopened;
  std::string error;
  ASSERT_TRUE(reopened.Open(options, &error)) << error;
  EXPECT_EQ(reopened.stats().datasets, 2);
  EXPECT_EQ(reopened.stats().replayed_ops, 0);  // checkpoint covered both
  const struct {
    const std::string& dataset;
    const std::string& dir;
    const char* token;
  } kSplits[] = {{dataset_a, dir_a, "zzalpha"}, {dataset_b, dir_b, "zzbeta"}};
  for (const auto& split : kSplits) {
    std::vector<service::StreamCoordinator::MatchCandidate> candidates;
    ASSERT_EQ(reopened.Match(split.dataset, split.dir, 0, {split.token}, 1,
                             &candidates, &error),
              service::StreamCoordinator::OpStatus::kOk)
        << error;
    ASSERT_EQ(candidates.size(), 1u) << split.token;
    EXPECT_EQ(candidates[0].id, 900001) << split.token;
    EXPECT_EQ(candidates[0].values[0], split.token);
    EXPECT_GT(candidates[0].overlap, 0) << split.token;
  }
  reopened.Close();
}

}  // namespace
}  // namespace certa::net
