// stream_mixed: one v2 connection fed open-loop from a seeded Poisson
// schedule of upsert / remove / top-k match ops over a scaled table,
// every answer byte-checked against an in-process StreamCoordinator
// replay of the same op sequence.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "data/benchmarks.h"
#include "data/csv.h"
#include "net/wire.h"
#include "proc.h"
#include "service/stream_coordinator.h"
#include "util/json_parser.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using certa::JsonValue;
using certa::service::StreamCoordinator;

/// The base table: Abt-Buy scaled to this many records (both sides), so
/// a match (~1.4 ms in process) outweighs the loopback round trip
/// around it.
const char kDataset[] = "AB";
constexpr long long kBaseRecords = 20000;
/// Offered load, ops/s: a constant, never adapted at run time. One
/// connection answers ~550 ops/s one op at a time on a 4-core Xeon VM.
/// At this rate and mix the event loop is ~5% busy: about 3% of writes
/// arrive while a match runs and wait behind it, and a checkpoint comes
/// every 64 writes, so the p90s stay inside the ops' own time. When
/// queued ops came near a tenth of all (1.5-3x as much load, or 40%
/// writes at 50 ops/s), p90 sat on the boundary between ops that queued
/// and ops that did not, and moved 1.5-3x as much as the host's speed
/// (perfbench/README.md).
constexpr double kRateOpsPerSecond = 40.0;
/// Op mix: reads are top-k matches; writes split into new upserts,
/// in-place updates and removes of earlier upserts. Writes are the
/// larger share so write_p90 rests on several hundred acks per run.
constexpr double kWriteShare = 0.6;
constexpr int kTopK = 10;
/// Mixed ops sent closed-loop after the two index-building matches,
/// before timing.
constexpr int kWarmupOps = 200;
constexpr int kSetupRepeats = 5;
/// A run whose generator's p90 lateness exceeds this is invalid: the
/// schedule, not the server, would set its latencies.
constexpr double kMaxLateMs = 1.0;
constexpr int kReplyTimeoutMs = 30000;

struct StreamOp {
  enum class Kind { kUpsert, kRemove, kMatch };
  Kind kind = Kind::kMatch;
  int side = 0;
  int id = -1;
  std::vector<std::string> values;
  /// When the op is due, from the window's start.
  double due_ms = 0.0;
  std::string frame;

  bool write() const { return kind != Kind::kMatch; }
};

/// What the client saw for one op.
struct Answer {
  Clock::time_point sent;
  Clock::time_point answered;
  Expected got;
  bool ok = false;
};

/// Generates the op list from the seed: the generator keeps its own
/// model of which upserted ids are live, so the list never depends on
/// the server's answers.
class OpGenerator {
 public:
  OpGenerator(const certa::data::Dataset& base, const std::string& data_dir,
              uint64_t seed)
      : base_(base), data_dir_(data_dir), seed_(seed),
        rng_(seed * 0x9E3779B97F4A7C15ULL + 101) {}

  StreamOp Match(int side) {
    StreamOp op;
    op.kind = StreamOp::Kind::kMatch;
    op.side = side;
    // Probe one side with a record of the other: the ER lookup.
    op.values = BaseRecord(1 - side).values;
    op.frame = certa::net::MatchRequestFrame(kDataset, data_dir_, side,
                                             op.values, kTopK);
    return op;
  }

  StreamOp Next() {
    if (rng_.UniformDouble() >= kWriteShare) {
      return Match(static_cast<int>(rng_.UniformUint64(2)));
    }
    const int side = static_cast<int>(rng_.UniformUint64(2));
    std::vector<int>& live = live_[side];
    const double pick = rng_.UniformDouble();
    StreamOp op;
    op.side = side;
    if (live.size() < 8 || pick < 0.5) {
      op.kind = StreamOp::Kind::kUpsert;
      op.id = kFirstId + next_id_++;
      op.values = FreshValues(side);
      live.push_back(op.id);
    } else {
      const size_t slot = static_cast<size_t>(rng_.UniformUint64(live.size()));
      op.id = live[slot];
      if (pick < 0.75) {
        op.kind = StreamOp::Kind::kUpsert;
        op.values = FreshValues(side);
      } else {
        op.kind = StreamOp::Kind::kRemove;
        live[slot] = live.back();
        live.pop_back();
      }
    }
    if (op.kind == StreamOp::Kind::kUpsert) {
      last_values_[side][op.id] = op.values;
      op.frame = certa::net::UpsertRequestFrame(kDataset, data_dir_, side,
                                                op.id, op.values);
    } else {
      last_values_[side].erase(op.id);
      op.frame =
          certa::net::RemoveRequestFrame(kDataset, data_dir_, side, op.id);
    }
    return op;
  }

  /// An exponential draw of mean 1.
  double Exponential() { return -std::log(1.0 - rng_.UniformDouble()); }

  /// Every upserted record still live, with its last values.
  const std::map<int, std::vector<std::string>>& live(int side) const {
    return last_values_[side];
  }

 private:
  static constexpr int kFirstId = 10'000'000;

  const certa::data::Record& BaseRecord(int side) {
    const certa::data::Table& table = side == 0 ? base_.left : base_.right;
    return table.record(
        static_cast<int>(rng_.UniformUint64(static_cast<uint64_t>(table.size()))));
  }

  /// A base record's values plus a token no other record has, so the
  /// record is its own best match.
  std::vector<std::string> FreshValues(int side) {
    std::vector<std::string> values = BaseRecord(side).values;
    values[0] += " pb" + std::to_string(seed_) + "x" + std::to_string(tokens_++);
    return values;
  }

  const certa::data::Dataset& base_;
  std::string data_dir_;
  uint64_t seed_;
  certa::Rng rng_;
  int next_id_ = 0;
  long long tokens_ = 0;
  std::vector<int> live_[2];
  std::map<int, std::vector<std::string>> last_values_[2];
};

/// Sends `ops` one after another, each after the previous answer.
bool RunClosedLoop(LineConn* conn, const std::vector<StreamOp>& ops,
                   std::vector<Answer>* answers, std::string* error) {
  for (const StreamOp& op : ops) {
    Answer answer;
    std::string line;
    answer.sent = Clock::now();
    if (!conn->Send(op.frame, error) ||
        !conn->ReadLine(&line, kReplyTimeoutMs, error)) {
      return false;
    }
    answer.answered = Clock::now();
    answer.got = ExpectedOf(line + "\n");
    answer.ok = true;
    answers->push_back(answer);
  }
  return true;
}

/// Waits until `due`: sleeps most of the way, then spins, so sends
/// leave within microseconds of their schedule.
void WaitUntil(Clock::time_point due) {
  const Clock::time_point wake = due - std::chrono::microseconds(300);
  if (Clock::now() < wake) std::this_thread::sleep_until(wake);
  while (Clock::now() < due) {
  }
}

}  // namespace

RunOutput RunStreamMixed(const RunConfig& config) {
  RunOutput out;
  // -- preparation: the scaled base table, written where the server and
  // the reference both load it --
  const std::string data_dir = fs::absolute(config.work_dir + "/data").string();
  fs::create_directories(data_dir);
  const certa::data::Dataset base = certa::data::MakeBenchmark(
      kDataset, certa::data::ScaleForRecords(kDataset, kBaseRecords));
  if (!certa::data::SaveDatasetDirectory(data_dir, base)) {
    out.invalid = "cannot write the base table to " + data_dir;
    return out;
  }
  OpGenerator generator(base, data_dir, config.seed);
  std::vector<StreamOp> warmup = {generator.Match(0), generator.Match(1)};
  for (int i = 0; i < kWarmupOps; ++i) warmup.push_back(generator.Next());
  // Poisson arrivals conditioned on their count: exactly rate x seconds
  // ops, their exponential gaps scaled to fill the window, so every run
  // offers the same number of ops.
  const size_t count = static_cast<size_t>(
      std::llround(kRateOpsPerSecond * config.seconds));
  std::vector<double> arrivals(count + 1);
  double total = 0.0;
  for (double& arrival : arrivals) {
    total += generator.Exponential();
    arrival = total;
  }
  std::vector<StreamOp> timed;
  for (size_t i = 0; i < count; ++i) {
    timed.push_back(generator.Next());
    timed.back().due_ms = arrivals[i] / total * config.seconds * 1000.0;
  }

  // -- set-up, repeated; the last server stays up --
  std::vector<double> setup_s;
  std::vector<std::vector<Answer>> warm_answers;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<LineConn> conn;
  std::string error;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const std::string dir =
        config.work_dir + "/serve" + std::to_string(repeat);
    fs::create_directories(dir);
    if (server != nullptr) server->Stop();
    server = std::make_unique<ServerProcess>();
    conn = std::make_unique<LineConn>();
    const Clock::time_point start = Clock::now();
    std::string reply;
    if (!server->Start(config.certa,
                       {"--job-root", dir + "/jobs", "--stream-dir",
                        dir + "/stream"},
                       config.work_dir + "/server.log", &error) ||
        !RoundTrip(server->port(), certa::net::PingFrame(), &reply, &error) ||
        !conn->Connect(server->port(), &error)) {
      out.invalid = "set-up: " + error;
      return out;
    }
    std::vector<Answer> answers;
    if (!RunClosedLoop(conn.get(), warmup, &answers, &error)) {
      out.invalid = "warm-up: " + error;
      return out;
    }
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    warm_answers.push_back(std::move(answers));
  }

  // -- timed window: open loop on one connection --
  JsonValue stats_before;
  JsonValue stats_after;
  if (!FetchStats(server->port(), -1, &stats_before, &error)) {
    out.invalid = "stats before the window: " + error;
    return out;
  }
  std::vector<Answer> answers(timed.size());
  std::atomic<size_t> sent{0};
  std::atomic<bool> send_failed{false};
  const double cpu_before = TreeCpuMs(server->pid());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](size_t i) {
    return start + std::chrono::nanoseconds(
                       static_cast<long long>(timed[i].due_ms * 1e6));
  };
  std::thread sender([&] {
    std::string send_error;
    for (size_t i = 0; i < timed.size(); ++i) {
      WaitUntil(due(i));
      answers[i].sent = Clock::now();
      if (!conn->Send(timed[i].frame, &send_error)) {
        send_failed = true;
        return;
      }
      sent.store(i + 1, std::memory_order_release);
    }
  });
  size_t outstanding_max = 0;
  size_t answered = 0;
  for (; answered < timed.size(); ++answered) {
    std::string line;
    if (!conn->ReadLine(&line, kReplyTimeoutMs, &error)) break;
    Answer& answer = answers[answered];
    answer.answered = Clock::now();
    answer.got = ExpectedOf(line + "\n");
    answer.ok = true;
    outstanding_max = std::max(
        outstanding_max, sent.load(std::memory_order_acquire) - answered);
  }
  sender.join();
  const Clock::time_point stop = Clock::now();
  const double cpu_ms = TreeCpuMs(server->pid()) - cpu_before;
  if (send_failed || answered < timed.size()) {
    out.notes.push_back("connection lost after " + std::to_string(answered) +
                        " answers: " + error);
  }

  // -- every acked upsert still live must be its own best match --
  struct Probe {
    int side;
    int id;
  };
  std::vector<Probe> probes;
  std::vector<std::string> probe_frames;
  for (int side = 0; side < 2; ++side) {
    for (const auto& [id, values] : generator.live(side)) {
      probes.push_back({side, id});
      probe_frames.push_back(
          certa::net::MatchRequestFrame(kDataset, data_dir, side, values, 1));
    }
  }
  long long probed = 0;
  long long unmatchable = 0;
  std::string first_unmatchable;
  for (size_t i = 0; i < probes.size() && answered == timed.size(); ++i) {
    ++probed;
    std::string line;
    JsonValue frame;
    if (!conn->Send(probe_frames[i], &error) ||
        !conn->ReadLine(&line, kReplyTimeoutMs, &error) ||
        !JsonValue::Parse(line, &frame, &error)) {
      ++unmatchable;
      continue;
    }
    const JsonValue* candidates = frame.Find("candidates");
    const bool found = candidates != nullptr && candidates->is_array() &&
                       !candidates->array_items().empty() &&
                       candidates->array_items()[0].Find("id") != nullptr &&
                       candidates->array_items()[0].Find("id")->int_value() ==
                           probes[i].id;
    if (!found) {
      if (first_unmatchable.empty()) first_unmatchable = line.substr(0, 200);
      ++unmatchable;
    }
  }
  const double rss_mb = TreeRssHwmMb(server->pid());
  if (!FetchStats(server->port(), -1, &stats_after, &error)) {
    out.notes.push_back("stats after the window: " + error);
  }
  conn->Close();
  server->Stop();

  // -- reference: the same op sequence through an in-process
  // coordinator, every answer rebuilt with the server's frame builders --
  StreamCoordinator reference;
  StreamCoordinator::Options options;
  options.dir = config.work_dir + "/reference";
  if (!reference.Open(options, &error)) {
    out.invalid = "reference coordinator: " + error;
    return out;
  }
  // Each reference op is a span: request >= 0 for timed ops, negative
  // for the warm-up.
  SpanLog log;
  auto apply = [&](const StreamOp& op, int request) {
    std::string op_error;
    std::vector<StreamCoordinator::Invalidation> invalidated;
    StreamCoordinator::Ack ack;
    std::string frame;
    Span span;
    span.request = request;
    span.start_ns = log.Now();
    if (op.kind == StreamOp::Kind::kMatch) {
      std::vector<StreamCoordinator::MatchCandidate> candidates;
      reference.Match(kDataset, data_dir, op.side, op.values, kTopK,
                      &candidates, &op_error);
      span.end_ns = log.Now();
      span.name = "stream.match";
      std::vector<certa::net::WireMatchCandidate> wire;
      for (const auto& candidate : candidates) {
        wire.push_back({candidate.id, candidate.overlap, candidate.values});
      }
      frame = certa::net::MatchFrame(kDataset, op.side, wire, 2);
    } else if (op.kind == StreamOp::Kind::kUpsert) {
      certa::data::Record record;
      record.id = op.id;
      record.values = op.values;
      reference.Upsert(kDataset, data_dir, op.side, record, &ack, &invalidated,
                       &op_error);
      span.end_ns = log.Now();
      span.name = "stream.upsert";
      frame = certa::net::UpsertedFrame(kDataset, op.side, op.id,
                                        static_cast<long long>(ack.seq),
                                        ack.slot, ack.created, 2);
    } else {
      reference.Remove(kDataset, data_dir, op.side, op.id, &ack, &invalidated,
                       &op_error);
      span.end_ns = log.Now();
      span.name = "stream.remove";
      frame = certa::net::RemovedFrame(kDataset, op.side, op.id,
                                       static_cast<long long>(ack.seq),
                                       ack.slot, ack.removed, 2);
    }
    log.Add(span);
    return ExpectedOf(frame);
  };
  out.attempted = static_cast<long long>(warmup.size() * warm_answers.size() +
                                         timed.size()) +
                  probed;
  for (size_t i = 0; i < warmup.size(); ++i) {
    const Expected expected = apply(warmup[i], -1 - static_cast<int>(i));
    for (const std::vector<Answer>& run : warm_answers) {
      out.Check(expected, run[i].got, "warm-up op " + std::to_string(i));
    }
  }
  std::vector<double> latency, writes, reads, wire_us, lateness;
  for (size_t i = 0; i < timed.size(); ++i) {
    const Expected expected = apply(timed[i], static_cast<int>(i));
    const Answer& answer = answers[i];
    if (!answer.ok) {
      out.Fail("op " + std::to_string(i) + " got no answer");
      continue;
    }
    if (!out.Check(expected, answer.got, "op " + std::to_string(i))) continue;
    const double from_due = MsBetween(due(i), answer.answered);
    latency.push_back(from_due);
    (timed[i].write() ? writes : reads).push_back(from_due);
    wire_us.push_back(MsBetween(answer.sent, answer.answered) * 1000.0);
    lateness.push_back(MsBetween(due(i), answer.sent));
  }
  reference.Close();
  if (unmatchable > 0) {
    out.failed += unmatchable;
    out.errors.push_back(std::to_string(unmatchable) +
                         " acked upserts not matchable at the end, first: " +
                         first_unmatchable);
  }

  const double window_s = MsBetween(start, stop) / 1000.0;
  const double done = std::max<double>(1.0, static_cast<double>(latency.size()));
  out.end_to_end = {
      {"setup_s", Percentile(setup_s, 0.5)},
      {"latency_p50_ms", Percentile(latency, 0.5)},
      {"latency_p90_ms", Percentile(latency, 0.9)},
      {"throughput_ops_s", static_cast<double>(latency.size()) / window_s},
      {"cpu_ms_per_op", cpu_ms / done},
      {"server_rss_mb", rss_mb},
      {"write_p50_ms", Percentile(writes, 0.5)},
      {"write_p90_ms", Percentile(writes, 0.9)},
      {"read_p50_ms", Percentile(reads, 0.5)},
      {"read_p90_ms", Percentile(reads, 0.9)},
  };
  const double late_p90 = Percentile(lateness, 0.9);
  if (late_p90 > kMaxLateMs) {
    out.invalid = "generator fell behind its schedule: p90 lateness " +
                  FormatNumber(late_p90) + " ms > " + FormatNumber(kMaxLateMs) +
                  " ms";
  }
  std::ostringstream summary;
  summary << "ops=" << timed.size() << " ok=" << latency.size()
          << " writes=" << writes.size() << " reads=" << reads.size()
          << " live_upserts_checked=" << probes.size()
          << " window_s=" << window_s << " setups_s=";
  for (double s : setup_s) summary << s << " ";
  out.notes.push_back(summary.str());

  auto delta = [&](std::initializer_list<const char*> path) {
    return static_cast<double>(StatInt(stats_after, path) -
                               StatInt(stats_before, path));
  };
  const double applied = delta({"stream", "ops_applied"});
  out.per_layer["stream.checkpoints_per_kop"] =
      applied > 0 ? delta({"stream", "checkpoints"}) * 1000.0 / applied : 0.0;
  out.per_layer["service.accepted"] = delta({"runner", "accepted"});
  out.per_layer["service.completed"] = delta({"runner", "completed"});
  out.per_layer["service.rejected"] = delta({"runner", "rejected_closed"}) +
                                      delta({"runner", "rejected_queue_full"}) +
                                      delta({"runner", "rejected_deadline"});
  out.per_layer["net.events_dropped"] = delta({"server", "events_dropped"});
  out.per_layer["net.slow_reader_closes"] =
      delta({"server", "slow_reader_closes"});
  // In-process op times; the warm-up's first two matches (one per side)
  // load the base table and build its overlay index.
  std::vector<double> upsert_us, match_us, op_us;
  double first_match_ms = 0.0;
  for (const Span& span : log.spans()) {
    const double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    if (span.request == -1 || span.request == -2) first_match_ms += us / 1e3;
    if (span.request < 0) continue;
    op_us.push_back(us);
    if (std::string_view(span.name) == "stream.upsert") upsert_us.push_back(us);
    if (std::string_view(span.name) == "stream.match") match_us.push_back(us);
  }
  out.per_layer["stream.upsert_us"] = Percentile(upsert_us, 0.5);
  out.per_layer["stream.match_us"] = Percentile(match_us, 0.5);
  out.per_layer["data.first_match_ms"] = first_match_ms;
  out.per_layer["net.stream_overhead_us"] =
      Percentile(wire_us, 0.5) - Percentile(op_us, 0.5);
  out.per_layer["loadgen.late_ms_p90"] = late_p90;
  out.per_layer["loadgen.outstanding_max"] =
      static_cast<double>(outstanding_max);
  if (config.trace) {
    // The wire side of every timed op joins the replay's spans: due →
    // sent is the generator's lag, sent → answered the server's share.
    for (size_t i = 0; i < timed.size(); ++i) {
      if (!answers[i].ok) continue;
      auto ns = [&](Clock::time_point at) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(at - start)
            .count();
      };
      Span wait;
      wait.name = "loadgen.wait";
      wait.request = static_cast<int>(i);
      wait.start_ns = ns(due(i));
      wait.end_ns = ns(answers[i].sent);
      log.Add(wait);
      Span wire = wait;
      wire.name = "wire.op";
      wire.start_ns = wait.end_ns;
      wire.end_ns = ns(answers[i].answered);
      log.Add(wire);
    }
    log.WriteJsonLines(config.spans_path, {});
  }
  return out;
}

}  // namespace perfbench
