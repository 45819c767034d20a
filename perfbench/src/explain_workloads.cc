// explain_cold and explain_warm_fleet: closed-loop watched `submit`
// jobs against a real `certa serve`, every result byte-checked against
// an in-process reference, and (traced run) an in-process replay of the
// first requests through the layers' public functions.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <map>
#include <sstream>
#include <thread>

#include "api/explain_request.h"
#include "core/certa_explainer.h"
#include "data/benchmarks.h"
#include "models/trainer.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "persist/score_store.h"
#include "proc.h"
#include "service/job_runner.h"
#include "util/json_parser.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using certa::JsonValue;
using certa::api::ExplainRequest;

/// Two datasets of different width (FZ: 6 attributes, DA: 4) under all
/// four models: 8 (dataset, model) combinations, each with many pairs,
/// so a run's mix does not hinge on a few expensive jobs.
const std::vector<std::string> kDatasets = {"FZ", "DA"};
const std::vector<std::string> kModels = {"svm", "ditto", "deeper",
                                          "deepmatcher"};
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Leading timed requests the traced run replays in process; the
/// exact-count metrics are taken over the same prefix, so they repeat
/// for a seed whatever the run's throughput.
constexpr size_t kReplayRequests = 24;
/// explain_warm_fleet: distinct requests per combination.
constexpr int kFleetPairsPerCombo = 2;
constexpr int kFleetWorkers = 2;
/// Timed requests per second of --seconds: a run sends a fixed list of
/// seconds x this many requests and times all of it, so runs of one
/// seed do the same work whatever the host's speed. Sized so the list
/// takes about --seconds on a 4-core Xeon VM.
constexpr int kColdRequestsPerSecond = 12;
constexpr int kFleetRequestsPerSecond = 30;
/// A timed list not done by then makes the run invalid, so a run on a
/// slow host still ends within its limit.
constexpr int kMaxWindowSeconds = 120;
constexpr int kFleetClients = 2;
constexpr int kReplyTimeoutMs = 60000;

struct ExplainOp {
  size_t request = 0;
  std::string error;
  Clock::time_point send, accepted, first_progress, terminal, result_sent,
      result_read;
  /// Gap between this client's previous completion and this submit.
  double lag_ms = 0.0;
  long long fresh_scores = 0;
  size_t result_frame_bytes = 0;
  Expected got;
  /// The result document, kept only for the counted prefix.
  std::string result_json;

  bool ok() const { return error.empty(); }
  double latency_ms() const { return MsBetween(send, result_read); }
};

std::string Key(const ExplainRequest& request) {
  return request.dataset + "|" + request.model + "|" +
         std::to_string(request.pair_index);
}

std::string FrameType(const JsonValue& frame) {
  const JsonValue* type = frame.Find("type");
  return type != nullptr && type->is_string() ? type->string_value() : "";
}

std::string Clip(const std::string& text) {
  return text.size() > 200 ? text.substr(0, 200) + "..." : text;
}

/// One watched submit on a fresh connection, then the result fetch.
void RunExplainOp(int port, const ExplainRequest& request, bool keep_result,
                  ExplainOp* op) {
  LineConn conn;
  std::string error;
  std::string line;
  JsonValue frame;
  auto fail = [&](const std::string& what) {
    op->error = what + (error.empty() ? "" : ": " + error);
  };
  if (!conn.Connect(port, &error)) return fail("connect");
  op->send = Clock::now();
  if (!conn.Send(certa::net::SubmitFrame(request, /*watch=*/true), &error)) {
    return fail("send submit");
  }
  if (!conn.ReadLine(&line, kReplyTimeoutMs, &error)) return fail("accepted");
  op->accepted = Clock::now();
  if (!JsonValue::Parse(line, &frame, &error) ||
      FrameType(frame) != "accepted") {
    return fail("submit refused: " + Clip(line));
  }
  const std::string job_id = frame.Find("job_id")->string_value();
  bool saw_progress = false;
  while (true) {
    if (!conn.ReadLine(&line, kReplyTimeoutMs, &error)) return fail("events");
    const Clock::time_point now = Clock::now();
    if (!JsonValue::Parse(line, &frame, &error) ||
        FrameType(frame) != "event") {
      return fail("unexpected frame: " + Clip(line));
    }
    const std::string event = frame.Find("event")->string_value();
    if (event == "progress") {
      if (!saw_progress) op->first_progress = now;
      saw_progress = true;
    } else if (event == "terminal") {
      op->terminal = now;
      const JsonValue* state = frame.Find("state");
      if (state == nullptr || state->string_value() != "complete") {
        return fail("job ended " + Clip(line));
      }
      op->fresh_scores = frame.Find("fresh_scores")->int_value();
      break;
    } else {
      return fail("unexpected event: " + Clip(line));
    }
  }
  if (!saw_progress) op->first_progress = op->terminal;
  op->result_sent = Clock::now();
  if (!conn.Send(certa::net::ResultRequestFrame(job_id), &error)) {
    return fail("send result");
  }
  if (!conn.ReadLine(&line, kReplyTimeoutMs, &error)) return fail("result");
  op->result_read = Clock::now();
  // The stored result.json is spliced verbatim after "result":.
  static const std::string kResultKey = ",\"result\":";
  const size_t at = line.find(kResultKey);
  const size_t type = line.find("\"type\":\"result\",\"job_id\":");
  if (type == std::string::npos || at == std::string::npos || at < type ||
      line.back() != '}') {
    return fail("bad result frame: " + Clip(line));
  }
  const std::string_view result(line.data() + at + kResultKey.size(),
                                line.size() - at - kResultKey.size() - 1);
  op->result_frame_bytes = line.size() + 1;
  op->got = ExpectedOf(result);
  if (keep_result) op->result_json.assign(result);
}

/// `clients` closed-loop clients drawing from one list until it is
/// exhausted (or, on a host too slow for it, `end` passes); returns
/// every op in list order.
std::vector<ExplainOp> RunClosedLoop(int port,
                                     const std::vector<ExplainRequest>& list,
                                     int clients, Clock::time_point end,
                                     size_t keep_prefix,
                                     int* outstanding_max = nullptr) {
  std::atomic<size_t> next{0};
  std::atomic<int> outstanding{0};
  std::atomic<int> peak{0};
  std::vector<std::vector<ExplainOp>> per_client(
      static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Clock::time_point previous = Clock::now();
      while (Clock::now() < end) {
        const size_t index = next.fetch_add(1);
        if (index >= list.size()) break;
        ExplainOp op;
        op.request = index;
        const int now_outstanding = ++outstanding;
        for (int seen = peak.load(); now_outstanding > seen &&
                                     !peak.compare_exchange_weak(seen, now_outstanding);) {
        }
        RunExplainOp(port, list[index], index < keep_prefix, &op);
        --outstanding;
        if (op.ok()) op.lag_ms = MsBetween(previous, op.send);
        previous = Clock::now();
        per_client[static_cast<size_t>(c)].push_back(std::move(op));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (outstanding_max != nullptr) *outstanding_max = peak.load();
  std::vector<ExplainOp> ops;
  for (auto& client_ops : per_client) {
    for (ExplainOp& op : client_ops) ops.push_back(std::move(op));
  }
  std::sort(ops.begin(), ops.end(),
            [](const ExplainOp& a, const ExplainOp& b) {
              return a.request < b.request;
            });
  return ops;
}

/// The wire's model names (service::JobRunner's spelling).
certa::models::ModelKind ModelKindOf(const std::string& name) {
  using certa::models::ModelKind;
  if (name == "deeper") return ModelKind::kDeepEr;
  if (name == "deepmatcher") return ModelKind::kDeepMatcher;
  if (name == "ditto") return ModelKind::kDitto;
  return ModelKind::kSvm;
}

/// The result document of `request`'s pair of `dataset`, explained
/// in process by `model`.
std::string ExplainJson(const ExplainRequest& request,
                        const certa::data::Dataset& dataset,
                        const certa::models::Matcher& model,
                        const certa::core::CertaExplainer::Options& options) {
  certa::explain::ExplainContext context{&model, &dataset.left, &dataset.right};
  certa::core::CertaExplainer explainer(context, options);
  const certa::data::LabeledPair& pair =
      dataset.test[static_cast<size_t>(request.pair_index)];
  const certa::core::CertaResult result =
      explainer.Explain(dataset.left.record(pair.left_index),
                        dataset.right.record(pair.right_index));
  return certa::core::CertaResultToJson(result, dataset.left.schema(),
                                        dataset.right.schema());
}

/// In-process references: one dataset build per code and one trained
/// model per combination, then every distinct request explained on
/// `threads` workers. Results are byte-identical at any thread count,
/// so each explain runs single-threaded.
std::map<std::string, Expected> ComputeReferences(
    const std::vector<ExplainRequest>& requests, int threads) {
  std::map<std::string, ExplainRequest> distinct;
  for (const ExplainRequest& request : requests) {
    distinct.emplace(Key(request), request);
  }
  std::map<std::string, certa::data::Dataset> datasets;
  std::map<std::string, std::unique_ptr<certa::models::Matcher>> models;
  for (const auto& [key, request] : distinct) {
    if (!datasets.count(request.dataset)) {
      datasets.emplace(request.dataset,
                       certa::data::MakeBenchmark(request.dataset));
    }
    models.emplace(request.dataset + "|" + request.model, nullptr);
  }
  std::vector<std::string> combos;
  for (const auto& entry : models) combos.push_back(entry.first);
  auto parallel = [threads](size_t count, const auto& body) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
          body(i);
        }
      });
    }
    for (std::thread& thread : pool) thread.join();
  };
  parallel(combos.size(), [&](size_t i) {
    const std::string& combo = combos[i];
    const std::string code = combo.substr(0, combo.find('|'));
    models.at(combo) = certa::models::TrainMatcher(
        ModelKindOf(combo.substr(combo.find('|') + 1)), datasets.at(code));
  });
  std::vector<const ExplainRequest*> tasks;
  for (const auto& entry : distinct) tasks.push_back(&entry.second);
  std::vector<Expected> expected(tasks.size());
  parallel(tasks.size(), [&](size_t i) {
    const ExplainRequest& request = *tasks[i];
    certa::core::CertaExplainer::Options options =
        certa::service::ExplainerOptionsFromRequest(request, false);
    options.num_threads = 1;
    expected[i] = ExpectedOf(ExplainJson(
        request, datasets.at(request.dataset),
        *models.at(request.dataset + "|" + request.model), options));
  });
  std::map<std::string, Expected> references;
  for (size_t i = 0; i < tasks.size(); ++i) {
    references[Key(*tasks[i])] = expected[i];
  }
  return references;
}

/// Times the wrapped model's scoring calls as `models.score` spans,
/// children of whichever phase is open.
class TimingMatcher : public certa::models::Matcher {
 public:
  TimingMatcher(const certa::models::Matcher* base, SpanLog* log,
                const std::atomic<int>* parent, int request)
      : base_(base), log_(log), parent_(parent), request_(request) {}

  double Score(const certa::data::Record& u,
               const certa::data::Record& v) const override {
    const int64_t start = log_->Now();
    const double score = base_->Score(u, v);
    Record(start, 1);
    return score;
  }
  std::vector<double> ScoreBatch(
      std::span<const certa::models::RecordPair> pairs) const override {
    const int64_t start = log_->Now();
    std::vector<double> scores = base_->ScoreBatch(pairs);
    Record(start, static_cast<long long>(pairs.size()));
    return scores;
  }
  std::string name() const override { return base_->name(); }

 private:
  void Record(int64_t start, long long units) const {
    Span span;
    span.name = "models.score";
    span.start_ns = start;
    span.end_ns = log_->Now();
    span.parent = parent_->load();
    span.request = request_;
    span.units = units;
    log_->Add(span);
  }

  const certa::models::Matcher* base_;
  SpanLog* log_;
  const std::atomic<int>* parent_;
  int request_;
};

/// Runs `call` as a span named `name` under `parent`.
template <typename Call>
auto Timed(SpanLog* log, const char* name, int parent, int request,
           Call&& call) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = log->Now();
  auto result = call();
  span.end_ns = log->Now();
  log->Add(span);
  return result;
}

const char* PhaseSpanName(const std::string& phase) {
  static const std::map<std::string, const char*> kPhaseSpans = {
      {"pivot", "core.pivot"},
      {"triangles", "core.triangles"},
      {"lattice", "core.lattice"},
      {"counterfactuals", "core.counterfactuals"}};
  const auto named = kPhaseSpans.find(phase);
  return named == kPhaseSpans.end() ? nullptr : named->second;
}

/// One request through service::RunDurableExplain, the path a serve
/// worker runs: dataset build (a `data.build` span around its
/// dataset_provider), training, journal, checkpoints and score store.
/// Journal fsync and checkpoint times land in `metrics`.
certa::service::JobOutcome ReplayDurable(const ExplainRequest& request,
                                         const std::string& job_dir,
                                         certa::persist::ScoreStore* store,
                                         certa::obs::MetricsRegistry* metrics,
                                         SpanLog* log, int request_id) {
  using namespace certa;
  const int root = log->Open("service.durable_run", -1, request_id);
  service::DurableRunOptions options;
  options.store = store;
  options.metrics = metrics;
  options.dataset_provider = [&](const ExplainRequest& spec,
                                 data::Dataset* dataset, std::string*) {
    const int build = log->Open("data.build", root, request_id);
    *dataset = data::MakeBenchmark(spec.dataset);
    log->Close(build);
    return true;
  };
  service::JobOutcome outcome =
      service::RunDurableExplain(request, job_dir, options);
  log->Close(root);
  return outcome;
}

/// One request through the benchmark's own CertaExplainer, for what
/// RunDurableExplain has no hook for: training time, a timing Matcher
/// around the trained model, and ScoreStore Lookup / Put / RefreshPeers
/// timed through the explainer's store hooks. Phase spans come from its
/// progress hook. No journal or checkpoint. Returns the result document.
std::string ReplayScoring(const ExplainRequest& request,
                          const certa::data::Dataset& dataset,
                          certa::persist::ScoreStore* store, SpanLog* log,
                          int request_id) {
  using namespace certa;
  const int root = log->Open("request", -1, request_id);
  const int train = log->Open("models.train", root, request_id);
  const std::unique_ptr<models::Matcher> model =
      models::TrainMatcher(ModelKindOf(request.model), dataset);
  log->Close(train);

  const int explain = log->Open("core.explain", root, request_id);
  std::atomic<int> phase{explain};
  core::CertaExplainer::Options options =
      service::ExplainerOptionsFromRequest(request, false);
  const uint64_t scope =
      persist::HashScope(request.model, Digest(request.dataset));
  Timed(log, "persist.refresh_peers", explain, request_id,
        [&] { return store->RefreshPeers(); });
  options.store_probe = [&, scope](const models::PairKey& key, double* score) {
    bool from_peer = false;
    const bool hit =
        Timed(log, "persist.store_probe", phase.load(), request_id,
              [&] { return store->Lookup(scope, key, score, &from_peer); });
    return hit ? (from_peer ? 2 : 1) : 0;
  };
  options.store_write = [&, scope](const models::PairKey& key, double score) {
    Timed(log, "persist.store_put", phase.load(), request_id,
          [&] { return store->Put(scope, key, score); });
  };
  int open_phase = -1;
  options.progress = [&](const core::ExplainProgress& progress) {
    if (progress.last_tags != nullptr) return;  // a triangle, not a phase
    if (open_phase >= 0) log->Close(open_phase);
    open_phase = -1;
    phase = explain;
    if (const char* name = PhaseSpanName(progress.phase)) {
      open_phase = log->Open(name, explain, request_id);
      phase = open_phase;
    }
  };
  TimingMatcher timed_model(model.get(), log, &phase, request_id);
  const std::string json = ExplainJson(request, dataset, timed_model, options);
  if (open_phase >= 0) log->Close(open_phase);
  log->Close(explain);
  log->Close(root);
  return json;
}

struct ExplainPlan {
  bool fleet = false;
  int clients = 1;
  std::vector<ExplainRequest> warmup;
  std::vector<ExplainRequest> timed;
};

ExplainRequest MakeRequest(const std::string& dataset, const std::string& model,
                           int pair, int threads) {
  ExplainRequest request;
  request.dataset = dataset;
  request.model = model;
  request.pair_index = pair;
  request.threads = threads;
  return request;
}

/// Every combination's test pairs in a seeded order.
std::vector<std::vector<int>> ShuffledPairs(uint64_t seed) {
  std::vector<std::vector<int>> orders;
  certa::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  for (const std::string& code : kDatasets) {
    const size_t pairs = certa::data::MakeBenchmark(code).test.size();
    for (size_t m = 0; m < kModels.size(); ++m) {
      std::vector<int> order(pairs);
      for (size_t i = 0; i < pairs; ++i) order[i] = static_cast<int>(i);
      for (size_t i = pairs; i > 1; --i) {
        std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformUint64(i))]);
      }
      orders.push_back(std::move(order));
    }
  }
  return orders;
}

std::string ComboDataset(size_t combo) { return kDatasets[combo / kModels.size()]; }
std::string ComboModel(size_t combo) { return kModels[combo % kModels.size()]; }

RunOutput RunExplain(const RunConfig& config, const ExplainPlan& plan) {
  RunOutput out;
  const std::string server_log = config.work_dir + "/server.log";
  std::vector<std::string> server_args;
  if (plan.fleet) {
    server_args = {"--workers", std::to_string(kFleetWorkers)};
  }

  // -- set-up, repeated; the last server stays up for the timed window --
  std::vector<double> setup_s;
  std::vector<ExplainOp> warm_ops;
  std::unique_ptr<ServerProcess> server;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const std::string dir =
        config.work_dir + "/serve" + std::to_string(repeat);
    fs::create_directories(dir);
    std::vector<std::string> args = {"--job-root", dir + "/jobs",
                                     "--store-dir", dir + "/store"};
    args.insert(args.end(), server_args.begin(), server_args.end());
    server = std::make_unique<ServerProcess>();
    std::string error;
    const Clock::time_point start = Clock::now();
    if (!server->Start(config.certa, args, server_log, &error)) {
      out.invalid = "set-up: " + error;
      return out;
    }
    const int workers = plan.fleet ? kFleetWorkers : 1;
    for (int w = 0; w < workers; ++w) {
      std::string reply;
      if (!RoundTrip(server->port(), certa::net::PingFrame(), &reply,
                     &error) ||
          reply.find("\"type\":\"pong\"") == std::string::npos) {
        out.invalid = "set-up: ping: " + error + Clip(reply);
        return out;
      }
    }
    std::vector<ExplainOp> ops =
        RunClosedLoop(server->port(), plan.warmup, plan.clients,
                      Clock::time_point::max(), 0);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    warm_ops.insert(warm_ops.end(), std::make_move_iterator(ops.begin()),
                    std::make_move_iterator(ops.end()));
    if (repeat + 1 < kSetupRepeats) {
      server->Stop();
      fs::remove_all(dir);
    }
  }

  // -- timed window --
  const int port = server->port();
  std::string error;
  JsonValue stats_before;
  JsonValue stats_after;
  // A fleet's stats fan-in lags its workers: wait for every job so far.
  const long long warm_jobs = static_cast<long long>(plan.warmup.size());
  if (!FetchStats(port, plan.fleet ? warm_jobs : -1, &stats_before, &error)) {
    out.invalid = "stats before the window: " + error;
    return out;
  }
  const double cpu_before = TreeCpuMs(server->pid());
  const Clock::time_point start = Clock::now();
  int outstanding_max = 0;
  std::vector<ExplainOp> ops =
      RunClosedLoop(port, plan.timed, plan.clients,
                    start + std::chrono::seconds(kMaxWindowSeconds),
                    kReplayRequests, &outstanding_max);
  const Clock::time_point stop = Clock::now();
  if (ops.size() < plan.timed.size()) {
    out.invalid = "the timed list was not done within " +
                  std::to_string(kMaxWindowSeconds) + " s (" +
                  std::to_string(ops.size()) + " of " +
                  std::to_string(plan.timed.size()) + " requests)";
  }
  const double cpu_ms = TreeCpuMs(server->pid()) - cpu_before;
  const double rss_mb = TreeRssHwmMb(server->pid());
  long long completed_ok = 0;
  for (const ExplainOp& op : ops) completed_ok += op.ok() ? 1 : 0;
  const bool have_stats_after = FetchStats(
      port, plan.fleet ? warm_jobs + completed_ok : -1, &stats_after, &error);
  if (!have_stats_after) out.notes.push_back("stats after the window: " + error);
  server->Stop();

  // -- correctness: every result against its in-process reference --
  std::vector<ExplainRequest> needed = plan.warmup;
  for (const ExplainOp& op : ops) {
    if (op.ok()) needed.push_back(plan.timed[op.request]);
  }
  const std::map<std::string, Expected> references =
      ComputeReferences(needed, config.nproc);
  auto check = [&](const ExplainOp& op, const ExplainRequest& request) {
    if (!op.ok()) {
      out.Fail(Key(request) + ": " + op.error);
      return false;
    }
    return out.Check(references.at(Key(request)), op.got, Key(request));
  };
  out.attempted = static_cast<long long>(warm_ops.size() + ops.size());
  for (const ExplainOp& op : warm_ops) check(op, plan.warmup[op.request]);
  std::vector<const ExplainOp*> good;
  for (const ExplainOp& op : ops) {
    if (check(op, plan.timed[op.request])) good.push_back(&op);
  }

  // -- end-to-end metrics --
  // An explain job writes its result (submit until the terminal event:
  // computed, result.json durable) and is then read (the result fetch).
  std::vector<double> latency, written, fetch;
  for (const ExplainOp* op : good) {
    latency.push_back(op->latency_ms());
    written.push_back(MsBetween(op->send, op->terminal));
    fetch.push_back(MsBetween(op->result_sent, op->result_read));
  }
  const double window_s = MsBetween(start, stop) / 1000.0;
  const double done = std::max<double>(1.0, static_cast<double>(good.size()));
  out.end_to_end = {
      {"setup_s", Percentile(setup_s, 0.5)},
      {"latency_p50_ms", Percentile(latency, 0.5)},
      {"latency_p90_ms", Percentile(latency, 0.9)},
      {"throughput_ops_s", static_cast<double>(good.size()) / window_s},
      {"cpu_ms_per_op", cpu_ms / done},
      {"server_rss_mb", rss_mb},
      {"write_p50_ms", Percentile(written, 0.5)},
      {"write_p90_ms", Percentile(written, 0.9)},
      {"read_p50_ms", Percentile(fetch, 0.5)},
      {"read_p90_ms", Percentile(fetch, 0.9)},
  };
  std::ostringstream summary;
  summary << "ops=" << ops.size() << " ok=" << good.size()
          << " window_s=" << window_s << " setups_s=";
  for (double s : setup_s) summary << s << " ";
  out.notes.push_back(summary.str());

  // -- counters the server reports (stats verb) --
  auto delta = [&](std::initializer_list<const char*> path) {
    return static_cast<double>(StatInt(stats_after, path) -
                               StatInt(stats_before, path));
  };
  auto counter = [&](const char* section, const char* name) {
    return plan.fleet ? delta({"fleet", section, name})
                      : delta({section, name});
  };
  out.per_layer["service.accepted"] = counter("runner", "accepted");
  out.per_layer["service.completed"] = counter("runner", "completed");
  out.per_layer["service.rejected"] =
      counter("runner", "rejected_closed") +
      counter("runner", "rejected_queue_full") +
      counter("runner", "rejected_deadline");
  out.per_layer["net.events_dropped"] = counter("server", "events_dropped");
  out.per_layer["net.slow_reader_closes"] =
      counter("server", "slow_reader_closes");
  if (plan.fleet) {
    const double hits = delta({"fleet", "store", "hits"});
    const double appends = delta({"fleet", "store", "appends"});
    const double peer_hits = delta({"fleet", "store", "peer_hits"});
    out.per_layer["persist.store_hit_ratio"] =
        hits + appends > 0 ? hits / (hits + appends) : 0.0;
    out.per_layer["persist.peer_hit_share"] = hits > 0 ? peer_hits / hits : 0.0;
  }
  std::vector<double> lags;
  for (const ExplainOp* op : good) lags.push_back(op->lag_ms);
  out.per_layer["loadgen.late_ms_p90"] = Percentile(lags, 0.9);
  out.per_layer["loadgen.outstanding_max"] = outstanding_max;
  if (!config.trace) return out;

  // -- traced run: wire spans of the ops around the median latency --
  const double p50 = out.end_to_end["latency_p50_ms"];
  std::vector<const ExplainOp*> band;
  {
    const double low = Percentile(latency, 0.45);
    const double high = Percentile(latency, 0.55);
    for (const ExplainOp* op : good) {
      if (op->latency_ms() >= low && op->latency_ms() <= high) band.push_back(op);
    }
    if (band.empty() && !good.empty()) band.push_back(good.front());
  }
  auto band_mean = [&](Clock::time_point ExplainOp::*from,
                       Clock::time_point ExplainOp::*to) {
    std::vector<double> values;
    for (const ExplainOp* op : band) values.push_back(MsBetween(op->*from, op->*to));
    return Mean(values);
  };
  const double admit_ms = band_mean(&ExplainOp::send, &ExplainOp::accepted);
  const double start_ms =
      band_mean(&ExplainOp::accepted, &ExplainOp::first_progress);
  const double run_ms =
      band_mean(&ExplainOp::first_progress, &ExplainOp::terminal);
  const double result_ms =
      band_mean(&ExplainOp::result_sent, &ExplainOp::result_read);
  out.per_layer["net.admit_ms"] = admit_ms;
  out.per_layer["service.start_ms"] = start_ms;
  out.per_layer["core.run_ms"] = run_ms;
  out.per_layer["net.result_ms"] = result_ms;
  out.per_layer["wire.unattributed_ms"] =
      p50 - (admit_ms + start_ms + run_ms + result_ms);
  std::vector<double> frame_bytes;
  for (const ExplainOp* op : good) {
    frame_bytes.push_back(static_cast<double>(op->result_frame_bytes));
  }
  out.per_layer["net.result_bytes"] = Mean(frame_bytes);

  // -- exact counts over the leading requests --
  std::vector<double> fresh, predictions;
  double cache_hits = 0.0;
  double cache_lookups = 0.0;
  for (const ExplainOp* op : good) {
    if (op->request >= kReplayRequests) continue;
    fresh.push_back(static_cast<double>(op->fresh_scores));
    JsonValue result;
    std::string parse_error;
    if (!JsonValue::Parse(op->result_json, &result, &parse_error)) continue;
    predictions.push_back(result.Find("predictions_performed")->number_value());
    const double hits = result.Find("cache_hits")->number_value();
    cache_hits += hits;
    cache_lookups += hits + result.Find("cache_misses")->number_value();
  }
  out.per_layer["models.fresh_calls_per_op"] = Mean(fresh);
  out.per_layer["core.predictions_per_op"] = Mean(predictions);
  out.per_layer["models.cache_hit_ratio"] =
      cache_lookups > 0 ? cache_hits / cache_lookups : 0.0;

  // -- in-process replays of the same leading requests: once through
  // service::RunDurableExplain, once through the benchmark's own
  // explainer for the figures the durable path has no hook for --
  const std::string replay_dir = config.work_dir + "/replay";
  const size_t replayed = std::min(kReplayRequests, plan.timed.size());
  std::map<std::string, certa::data::Dataset> datasets;
  for (const ExplainRequest& request : plan.warmup) {
    if (!datasets.count(request.dataset)) {
      datasets.emplace(request.dataset,
                       certa::data::MakeBenchmark(request.dataset));
    }
  }
  SpanLog log;
  certa::obs::MetricsRegistry metrics;
  certa::persist::ScoreStore durable_store;
  certa::persist::ScoreStore scoring_store;
  {
    // The fleet's store is two streams of one shared directory, like two
    // workers: the warm-up pays through one, the replay reads it as a
    // peer. The cold store starts empty.
    certa::persist::ScoreStore durable_warm;
    certa::persist::ScoreStore scoring_warm;
    certa::persist::ScoreStore::Options store_options;
    if (plan.fleet) {
      store_options.stream_slot = 0;
      durable_warm.Open(replay_dir + "/durable-store", store_options);
      scoring_warm.Open(replay_dir + "/scoring-store", store_options);
      SpanLog discard;
      for (size_t i = 0; i < plan.warmup.size(); ++i) {
        const ExplainRequest& request = plan.warmup[i];
        ReplayDurable(request, replay_dir + "/warm" + std::to_string(i),
                      &durable_warm, nullptr, &discard, static_cast<int>(i));
        ReplayScoring(request, datasets.at(request.dataset), &scoring_warm,
                      &discard, static_cast<int>(i));
      }
      durable_warm.Sync();
      scoring_warm.Sync();
      store_options.stream_slot = 1;
    }
    durable_store.Open(replay_dir + "/durable-store", store_options);
    scoring_store.Open(replay_dir + "/scoring-store", store_options);
  }
  for (size_t i = 0; i < replayed; ++i) {
    const ExplainRequest& request = plan.timed[i];
    const int id = static_cast<int>(i);
    const certa::service::JobOutcome outcome =
        ReplayDurable(request, replay_dir + "/job" + std::to_string(i),
                      &durable_store, &metrics, &log, id);
    out.Check(references.at(Key(request)), ExpectedOf(outcome.result_json),
              Key(request) + " (durable replay)");
    const std::string json = ReplayScoring(
        request, datasets.at(request.dataset), &scoring_store, &log, id);
    out.Check(references.at(Key(request)), ExpectedOf(json),
              Key(request) + " (scoring replay)");
  }
  const std::vector<Span> spans = log.spans();
  const std::vector<int64_t> self_ns = SelfTimesNs(spans);
  std::map<std::string, double> total_ns;
  std::map<std::string, double> count;
  std::map<std::string, double> self_total_ns;
  double scored_pairs = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    total_ns[spans[i].name] += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    count[spans[i].name] += 1.0;
    self_total_ns[spans[i].name] += static_cast<double>(self_ns[i]);
    if (std::string_view(spans[i].name) == "models.score") {
      scored_pairs += static_cast<double>(spans[i].units);
    }
  }
  const double requests = static_cast<double>(std::max<size_t>(1, replayed));
  auto per_call = [&](const char* name, double unit_ns) {
    return count[name] > 0 ? total_ns[name] / count[name] / unit_ns : 0.0;
  };
  auto per_request = [&](const char* name, double unit_ns) {
    return total_ns[name] / requests / unit_ns;
  };
  out.per_layer["data.build_ms"] = per_request("data.build", 1e6);
  out.per_layer["models.train_ms"] = per_request("models.train", 1e6);
  // Queue wait: the wire's accepted → first progress of each replayed
  // request, less its own dataset build and training in process.
  std::map<int, double> setup_ms;
  for (const Span& span : spans) {
    const std::string_view name = span.name;
    if (name == "data.build" || name == "models.train") {
      setup_ms[span.request] += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  std::vector<double> queue_wait;
  for (const ExplainOp* op : good) {
    if (op->request >= replayed) continue;
    queue_wait.push_back(MsBetween(op->accepted, op->first_progress) -
                         setup_ms[static_cast<int>(op->request)]);
  }
  out.per_layer["service.queue_wait_ms"] = Mean(queue_wait);
  for (const char* phase : {"core.pivot", "core.triangles", "core.lattice",
                            "core.counterfactuals"}) {
    out.per_layer[std::string(phase) + "_ms"] =
        self_total_ns[phase] / requests / 1e6;
  }
  out.per_layer["models.score_ms"] = per_request("models.score", 1e6);
  out.per_layer["models.batch_pairs"] =
      count["models.score"] > 0 ? scored_pairs / count["models.score"] : 0.0;
  out.per_layer["models.score_busy_per_wall"] =
      total_ns["core.explain"] > 0
          ? total_ns["models.score"] / total_ns["core.explain"]
          : 0.0;
  out.per_layer["persist.store_probe_us"] = per_call("persist.store_probe", 1e3);
  out.per_layer["persist.store_put_us"] = per_call("persist.store_put", 1e3);
  out.per_layer["persist.refresh_peers_us"] =
      per_call("persist.refresh_peers", 1e3);
  out.per_layer["persist.journal_us"] =
      metrics.histogram("journal.fsync_us")->sum() / requests;
  out.per_layer["persist.checkpoint_ms"] =
      metrics.histogram("checkpoint.save_us")->sum() / requests / 1e3;
  if (!plan.fleet) {
    const certa::persist::ScoreStore::Stats st = durable_store.stats();
    const double hits = static_cast<double>(st.hits);
    const double appends = static_cast<double>(st.appends);
    out.per_layer["persist.store_hit_ratio"] =
        hits + appends > 0 ? hits / (hits + appends) : 0.0;
    out.per_layer["persist.peer_hit_share"] =
        hits > 0 ? static_cast<double>(st.peer_hits) / hits : 0.0;
  }

  // Wire spans of every timed op join the replay's spans in the file.
  for (const ExplainOp* op : good) {
    const int request = static_cast<int>(op->request);
    auto add = [&](const char* name, Clock::time_point from,
                   Clock::time_point to) {
      Span span;
      span.name = name;
      span.request = request;
      span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          from - start).count();
      span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        to - start).count();
      log.Add(span);
    };
    add("wire.request", op->send, op->result_read);
    add("net.admit", op->send, op->accepted);
    add("service.start", op->accepted, op->first_progress);
    add("core.run", op->first_progress, op->terminal);
    add("net.result", op->result_sent, op->result_read);
  }
  log.WriteJsonLines(config.spans_path,
                     {"persist.store_probe", "persist.store_put",
                      "persist.journal", "models.score"});
  return out;
}

}  // namespace

RunOutput RunExplainCold(const RunConfig& config) {
  ExplainPlan plan;
  plan.clients = 1;
  const std::vector<std::vector<int>> orders = ShuffledPairs(config.seed);
  // Round-robin over the combinations: any prefix of the list is
  // balanced across them. Pair 0 of each order is the warm-up's.
  size_t rounds = 0;
  for (const std::vector<int>& order : orders) {
    rounds = std::max(rounds, order.size());
  }
  for (size_t combo = 0; combo < orders.size(); ++combo) {
    plan.warmup.push_back(MakeRequest(ComboDataset(combo), ComboModel(combo),
                                      orders[combo][0], config.nproc));
  }
  const size_t count =
      static_cast<size_t>(config.seconds) * kColdRequestsPerSecond;
  for (size_t round = 1; round < rounds && plan.timed.size() < count; ++round) {
    for (size_t combo = 0;
         combo < orders.size() && plan.timed.size() < count; ++combo) {
      if (round >= orders[combo].size()) continue;
      plan.timed.push_back(MakeRequest(ComboDataset(combo), ComboModel(combo),
                                       orders[combo][round], config.nproc));
    }
  }
  return RunExplain(config, plan);
}

RunOutput RunExplainWarmFleet(const RunConfig& config) {
  ExplainPlan plan;
  plan.fleet = true;
  plan.clients = kFleetClients;
  const std::vector<std::vector<int>> orders = ShuffledPairs(config.seed);
  for (size_t combo = 0; combo < orders.size(); ++combo) {
    for (int k = 0; k < kFleetPairsPerCombo; ++k) {
      plan.warmup.push_back(MakeRequest(ComboDataset(combo), ComboModel(combo),
                                        orders[combo][static_cast<size_t>(k)],
                                        /*threads=*/1));
    }
  }
  // Draws with repetition: each round is a seeded permutation of the
  // distinct set, so every prefix stays close to balanced.
  certa::Rng rng(config.seed * 0x2545F4914F6CDD1DULL + 3);
  std::vector<size_t> order(plan.warmup.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t count =
      static_cast<size_t>(config.seconds) * kFleetRequestsPerSecond;
  while (plan.timed.size() < count) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformUint64(i))]);
    }
    for (size_t index : order) {
      if (plan.timed.size() < count) plan.timed.push_back(plan.warmup[index]);
    }
  }
  return RunExplain(config, plan);
}

}  // namespace perfbench
