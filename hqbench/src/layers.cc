#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "backend/connector.h"
#include "clients.h"
#include "binder/binder.h"
#include "common/features.h"
#include "common/stopwatch.h"
#include "convert/result_converter.h"
#include "observability/metric_names.h"
#include "report.h"
#include "serializer/serializer.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "stats.h"
#include "transform/transformer.h"
#include "workload/tpch.h"

namespace hqbench {

namespace {

using hyperq::Stopwatch;
namespace backend = hyperq::backend;
namespace names = hyperq::observability::names;
namespace protocol = hyperq::protocol;
namespace service = hyperq::service;
namespace sql = hyperq::sql;
namespace transform = hyperq::transform;

// Tracing on/off rounds, interleaved on-off-off-on so drift cancels.
constexpr int kOverheadRounds = 8;
constexpr double kOverheadRoundSeconds = 0.5;
// Executions of each TPC-H query for vdb.tpch.qNN_ms (median taken).
constexpr int kTpchReps = 3;
// The layer pass executes each statement's SQL-B about this many times in
// total over all statements (at least once each), so a workload with few
// statements gets repeated, median-taken vdb/backend timings.
constexpr int kLayerExecutions = 66;

// Which end-to-end metric, on which workload, each layer metric should
// move (printed next to the value).
constexpr const char* kMovesWire = "moves latency_p50_ms on bi_replay";
constexpr const char* kMovesTranslate =
    "moves latency_p50_ms/latency_p95_ms on bi_replay";
constexpr const char* kMovesP95Bi = "moves latency_p95_ms on bi_replay";
constexpr const char* kMovesVdb =
    "moves throughput_qps, latency_p95_ms on tpch_seq";
constexpr const char* kMovesConvert =
    "moves rows_per_s, latency_p50_ms on etl_mixed";

struct Counters {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t bypasses = 0;
  int64_t attempts = 0;
};

Counters ReadCounters(const Proxy& proxy) {
  auto snap = proxy.service->StatsSnapshot().metrics;
  Counters c;
  c.hits = snap.CounterOr(names::kCacheHits);
  c.misses = snap.CounterOr(names::kCacheMisses);
  c.bypasses = snap.CounterOr(names::kCacheBypasses);
  c.attempts = snap.CounterOr(names::kBackendAttempts);
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-statement layer timings in microseconds.
struct LayerSamples {
  std::vector<double> normalize, parse, bind, rewrite, serialize;
  std::vector<double> translate_hit, translate_miss;
  std::vector<double> vdb, backend, buffer;
  std::vector<double> convert, ns_per_row, batches;
  std::vector<double> unattributed;
  int64_t failed = 0;
};

/// Times every layer on one statement against a quiescent proxy:
///   * the wire round trip (for the unattributed remainder),
///   * HyperQService::Translate on the warm service (hit) and on the
///     cache-disabled `cold` service (miss),
///   * each pipeline stage through its module's public function,
///   * vdb::Engine::Execute and BackendConnector::Execute of the SQL-B,
///   * ResultConverter::Convert of the backend result.
/// Emulated statements are skipped here; EmulationProbe times them.
void TimeStatement(Proxy* proxy, protocol::TdwpClient* wire, Proxy* cold,
                   const std::string& sql_a,
                   const transform::Transformer& transformer,
                   const hyperq::serializer::Serializer& serializer,
                   int reps, LayerSamples* out) {
  hyperq::FeatureSet features;
  Stopwatch miss_sw;
  auto cold_sql = cold->service->Translate(sql_a, &features);
  double miss_us = miss_sw.ElapsedMicros();
  if (!cold_sql.ok() || cold_sql->size() != 1 ||
      features.HasClass(hyperq::RewriteClass::kEmulation) ||
      (*cold_sql)[0].rfind("--", 0) == 0) {
    return;
  }
  out->translate_miss.push_back(miss_us);

  int64_t hits_before = ReadCounters(*proxy).hits;
  auto reply = wire->Run(sql_a);
  if (!reply.ok()) {
    ++out->failed;
    return;
  }
  bool hit = ReadCounters(*proxy).hits > hits_before;
  double server_us = reply->translation_micros + reply->execution_micros +
                     reply->conversion_micros;

  double translate_us = 0;
  if (hit) {
    Stopwatch sw;
    auto r = proxy->service->Translate(sql_a, nullptr);
    translate_us = sw.ElapsedMicros();
    if (r.ok()) out->translate_hit.push_back(translate_us);
  }

  Stopwatch sw;
  auto norm = sql::NormalizeStatement(sql_a);
  double normalize_us = sw.ElapsedMicros();
  sql::Dialect dialect = sql::Dialect::Teradata();
  sw = Stopwatch();
  auto stmt = sql::ParseStatement(sql_a, dialect);
  double parse_us = sw.ElapsedMicros();
  if (!norm.ok() || !stmt.ok()) return;
  hyperq::binder::Binder binder(proxy->service->catalog(), dialect);
  sw = Stopwatch();
  auto plan = binder.BindStatement(**stmt);
  double bind_us = sw.ElapsedMicros();
  if (!plan.ok()) return;
  // Same fresh id space the service hands its rewrite rules.
  hyperq::binder::ColIdGenerator ids;
  for (int i = 0; i < 1000000; ++i) ids.Next();
  hyperq::FeatureSet rule_features;
  sw = Stopwatch();
  Status st = transformer.Run(transform::Stage::kBinding, &*plan, &ids,
                              &rule_features, proxy->service->catalog());
  if (st.ok()) {
    st = transformer.Run(transform::Stage::kSerialization, &*plan, &ids,
                         &rule_features, proxy->service->catalog());
  }
  double rewrite_us = sw.ElapsedMicros();
  if (!st.ok()) return;
  sw = Stopwatch();
  auto sql_b = serializer.Serialize(**plan);
  double serialize_us = sw.ElapsedMicros();
  if (!sql_b.ok()) return;
  out->normalize.push_back(normalize_us);
  out->parse.push_back(parse_us);
  out->bind.push_back(bind_us);
  out->rewrite.push_back(rewrite_us);
  out->serialize.push_back(serialize_us);
  if (!hit) {
    translate_us =
        normalize_us + parse_us + bind_us + rewrite_us + serialize_us;
  }

  // vdb alone and through the connector, alternated; medians of `reps`.
  std::vector<double> vdb_runs, backend_runs;
  hyperq::Result<backend::BackendResult> backend_result =
      Status::Internal("not run");
  backend::BackendConnector connector(&proxy->engine);
  for (int r = 0; r < reps; ++r) {
    sw = Stopwatch();
    auto vdb_result = proxy->engine.Execute(*sql_b);
    vdb_runs.push_back(sw.ElapsedMicros());
    sw = Stopwatch();
    backend_result = connector.Execute(*sql_b);
    backend_runs.push_back(sw.ElapsedMicros());
    if (!vdb_result.ok() || !backend_result.ok()) {
      ++out->failed;
      return;
    }
  }
  double vdb_us = Distribution(vdb_runs).Median();
  double backend_us = Distribution(backend_runs).Median();
  out->vdb.push_back(vdb_us);
  out->backend.push_back(backend_us);
  out->buffer.push_back(backend_us - vdb_us);

  double convert_us = 0;
  if (backend_result->is_rowset()) {
    hyperq::convert::ConverterOptions options;
    options.parallelism = service::ServiceOptions().convert_parallelism;
    hyperq::convert::ResultConverter converter(options);
    sw = Stopwatch();
    auto converted = converter.Convert(*backend_result);
    convert_us = sw.ElapsedMicros();
    if (!converted.ok()) {
      ++out->failed;
      return;
    }
    out->convert.push_back(convert_us);
    out->batches.push_back(converted->batches.size());
    if (converted->total_rows > 0) {
      out->ns_per_row.push_back(convert_us * 1e3 / converted->total_rows);
    }
  }
  out->unattributed.push_back(server_us -
                              (translate_us + backend_us + convert_us));
}

/// Emulation layer: Submit of the emulation-tagged statements of the
/// bi_replay population (macros, recursion, MERGE, DML on views, session
/// commands, SET tables) on a fresh library proxy; the other workloads
/// have none, so every traced run measures this same population.
struct EmulationStats {
  std::vector<double> request_us;
  double backend_stmts = 0;
};

Status EmulationProbe(uint64_t seed, EmulationStats* out) {
  auto bi = MakeWorkload("bi_replay", seed);
  Proxy proxy(/*tracing=*/false);
  HQ_RETURN_IF_ERROR(bi->Load(&proxy));
  int64_t stmts = 0;
  for (const auto& sql_a : bi->LayerStatements()) {
    hyperq::FeatureSet features;
    if (!proxy.service->Translate(sql_a, &features).ok() ||
        !features.HasClass(hyperq::RewriteClass::kEmulation)) {
      continue;
    }
    // A fresh session each time: session commands must not leak into
    // the next statement's settings.
    HQ_ASSIGN_OR_RETURN(uint32_t sid,
                        proxy.service->OpenSession("hqbench_emulation"));
    service::QueryRequest request;
    request.session_id = sid;
    request.sql = sql_a;
    Stopwatch sw;
    auto outcome = proxy.service->Submit(request);
    double us = sw.ElapsedMicros();
    proxy.service->CloseSession(sid);
    HQ_RETURN_IF_ERROR(outcome.status());
    out->request_us.push_back(us);
    stmts += static_cast<int64_t>(outcome->backend_sql.size());
  }
  out->backend_stmts = Ratio(stmts, out->request_us.size());
  return Status::OK();
}

/// vdb alone: Engine::Execute of each TPC-H query's serialized SQL-B on a
/// fresh proxy loaded at the tpch_seq scale; ms, median of kTpchReps.
Status TpchProbe(std::vector<double>* query_ms) {
  auto tpch = MakeWorkload("tpch_seq", 0);
  Proxy proxy(/*tracing=*/false);
  HQ_RETURN_IF_ERROR(tpch->Load(&proxy));
  for (const auto& sql_a : hyperq::workload::TpchQueries()) {
    HQ_ASSIGN_OR_RETURN(auto sql_b, proxy.service->Translate(sql_a, nullptr));
    if (sql_b.size() != 1) return Status::Internal("TPC-H query expands");
    std::vector<double> ms;
    for (int r = 0; r < kTpchReps; ++r) {
      Stopwatch sw;
      HQ_RETURN_IF_ERROR(proxy.engine.Execute(sql_b[0]).status());
      ms.push_back(sw.ElapsedMillis());
    }
    query_ms->push_back(Distribution(ms).Median());
  }
  return Status::OK();
}

/// Tracing cost: the same workload on a tracing-on and a tracing-off
/// proxy, in interleaved rounds; percent change of the median latency.
Status TracingOverhead(const Workload& workload, ClientPool* on_clients,
                       double* pct, RunStats* totals) {
  std::unique_ptr<Proxy> off_proxy;
  std::unique_ptr<ClientPool> off_clients;
  HQ_RETURN_IF_ERROR(
      SetUp(workload, /*tracing=*/false, &off_proxy, &off_clients));
  std::vector<double> on_us, off_us;
  for (int round = 0; round < kOverheadRounds; ++round) {
    bool on = (round % 4 == 0) || (round % 4 == 3);
    RunStats run =
        (on ? on_clients : off_clients.get())->Run(kOverheadRoundSeconds);
    totals->attempted += run.attempted;
    totals->failed += run.failed;
    if (totals->wrong_answer.empty()) totals->wrong_answer = run.wrong_answer;
    for (const auto& s : run.samples) {
      if (!s.write) (on ? on_us : off_us).push_back(s.latency_us);
    }
  }
  double on_med = Distribution(on_us).Median();
  double off_med = Distribution(off_us).Median();
  *pct = 100.0 * Ratio(on_med - off_med, off_med);
  return Status::OK();
}

/// Sends each session's first requests both over the wire to one fresh
/// proxy and through HyperQService::Submit on another fresh proxy, in the
/// same order, and compares every reply. Empty string = all equal.
std::string LibraryCheck(const Workload& workload, uint64_t requests) {
  Proxy wire_proxy(/*tracing=*/false);
  Proxy library(/*tracing=*/false);
  Status st = workload.Load(&wire_proxy);
  if (st.ok()) st = wire_proxy.StartServer();
  if (st.ok()) st = workload.Load(&library);
  if (!st.ok()) return "library check set-up: " + st.ToString();
  for (int s = 0; s < workload.sessions(); ++s) {
    protocol::TdwpClient client;
    st = client.Connect(wire_proxy.server->port());
    if (st.ok()) st = client.Logon("hqbench" + std::to_string(s), "pw");
    auto sid = library.service->OpenSession("hqbench" + std::to_string(s));
    if (!st.ok() || !sid.ok()) return "library check logon failed";
    for (uint64_t i = 0; i < requests; ++i) {
      Request request = workload.Next(s, i);
      auto wire = client.Run(request.sql);
      auto lib = library.service->Submit(*sid, request.sql);
      if (wire.ok() != lib.ok()) {
        return "wire/library disagree on success: " + request.sql;
      }
      if (!wire.ok()) continue;
      if (lib->result.is_rowset() != !wire->columns.empty()) {
        return "wire/library disagree on result kind: " + request.sql;
      }
      if (lib->result.is_rowset()) {
        auto rows = lib->result.DecodeRows();
        if (!rows.ok() || rows->size() != wire->rows.size() ||
            RowsChecksum(*rows) != RowsChecksum(wire->rows)) {
          return "SELECT answers differ: " + request.sql;
        }
      } else if (static_cast<int64_t>(wire->activity_count) !=
                 lib->result.affected_rows) {
        return "activity counts differ: " + request.sql;
      }
    }
    client.Goodbye();
    library.service->CloseSession(*sid);
  }
  return std::string();
}

}  // namespace

int RunTraced(const Workload& workload, uint64_t seed, double seconds) {
  std::unique_ptr<Proxy> proxy;
  std::unique_ptr<ClientPool> clients;
  Status st = SetUp(workload, /*tracing=*/true, &proxy, &clients);
  if (!st.ok()) {
    std::fprintf(stderr, "hqbench: set-up failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  // 1. The workload with tracing on, while the main thread probes the
  //    engine's wait.
  Counters before = ReadCounters(*proxy);
  std::vector<double> probe_us;
  RunStats run = clients->Run(seconds, &probe_us);
  Counters after = ReadCounters(*proxy);
  std::string wrong = run.wrong_answer;
  std::string final_check = workload.FinalCheck(proxy.get(), clients->sent());
  if (wrong.empty()) wrong = final_check;
  auto snap = proxy->service->StatsSnapshot();

  std::vector<double> wire_us;
  for (const auto& s : run.samples) {
    wire_us.push_back(s.latency_us -
                      (s.translate_us + s.execute_us + s.convert_us));
  }
  Figure9 fig9(run.samples);
  int64_t lookups = (after.hits - before.hits) +
                    (after.misses - before.misses) +
                    (after.bypasses - before.bypasses);

  // 2. Tracing on/off, interleaved, continuing the same sessions (before
  //    the layer pass below, whose extra statements change the data).
  RunStats overhead_runs;
  double tracing_pct = 0;
  st = TracingOverhead(workload, clients.get(), &tracing_pct,
                       &overhead_runs);
  if (!st.ok()) {
    std::fprintf(stderr, "hqbench: tracing study failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  if (wrong.empty()) wrong = overhead_runs.wrong_answer;

  // 3. Each layer on the workload's distinct statements, system quiet.
  LayerSamples layers;
  {
    Proxy cold(/*tracing=*/false, /*cache=*/false);
    st = workload.LoadSchema(&cold);
    protocol::TdwpClient wire;
    if (st.ok()) st = wire.Connect(proxy->server->port());
    if (st.ok()) st = wire.Logon("hqbench_layers", "pw");
    if (!st.ok()) {
      std::fprintf(stderr, "hqbench: layer set-up failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    transform::Transformer transformer(proxy->service->profile());
    hyperq::serializer::Serializer serializer(proxy->service->profile());
    auto statements = workload.LayerStatements();
    int reps = std::max<int>(1, kLayerExecutions / statements.size());
    for (const auto& sql_a : statements) {
      TimeStatement(proxy.get(), &wire, &cold, sql_a, transformer,
                    serializer, reps, &layers);
    }
    wire.Goodbye();
  }

  // 4. Module probes with their own data.
  EmulationStats emulation;
  std::vector<double> tpch_ms;
  st = EmulationProbe(seed, &emulation);
  if (st.ok()) st = TpchProbe(&tpch_ms);
  if (!st.ok()) {
    std::fprintf(stderr, "hqbench: module probe failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  // 5. Answers of the wire path against the library path.
  if (wrong.empty() && workload.library_check_requests() > 0) {
    wrong = LibraryCheck(workload, workload.library_check_requests());
  }

  Report report;
  std::printf("hqbench %s (traced): %d session(s), %.2f s, %zu requests\n",
              workload.name(), workload.sessions(), run.elapsed_s,
              run.samples.size());
  report.AddQuantiles("protocol.wire_us", Distribution(wire_us), "us",
                      kMovesWire);
  report.Add("protocol.queued_peak",
             snap.metrics.GaugeOr(names::kServerQueuedPeak), "count",
             "moves latency_p95_ms on bi_replay, etl_mixed");
  report.AddQuantiles("service.translate_hit_us",
                      Distribution(layers.translate_hit), "us",
                      kMovesTranslate);
  report.AddQuantiles("service.translate_miss_us",
                      Distribution(layers.translate_miss), "us",
                      kMovesTranslate);
  report.Add("service.cache_hit_ratio",
             Ratio(after.hits - before.hits, lookups), "ratio",
             "moves throughput_qps on bi_replay");
  report.Add("service.cache_bypass_ratio",
             Ratio(after.bypasses - before.bypasses, lookups), "ratio",
             "moves throughput_qps on bi_replay");
  report.Add("service.cache_lookups", lookups, "count", "base of the ratios");
  report.Add("service.overhead_pct", fig9.overhead_pct(), "%",
             "reported only (Figure 9)");
  report.Add("service.translate_us", fig9.translate_us, "us", "base");
  report.Add("service.execute_us", fig9.execute_us, "us", "base");
  report.Add("service.convert_us", fig9.convert_us, "us", "base");
  report.AddQuantiles("sql.normalize_us", Distribution(layers.normalize),
                      "us", kMovesWire);
  report.AddQuantiles("sql.parse_us", Distribution(layers.parse), "us",
                      kMovesP95Bi);
  report.AddQuantiles("binder.bind_us", Distribution(layers.bind), "us",
                      kMovesP95Bi);
  report.AddQuantiles("transform.rewrite_us", Distribution(layers.rewrite),
                      "us", kMovesP95Bi);
  report.AddQuantiles("serializer.serialize_us",
                      Distribution(layers.serialize), "us", kMovesP95Bi);
  report.AddQuantiles("emulation.request_us",
                      Distribution(emulation.request_us), "us",
                      "moves latency_p95_ms, throughput_qps on bi_replay");
  report.Add("emulation.backend_stmts_per_request", emulation.backend_stmts,
             "count");
  report.AddQuantiles("backend.execute_us", Distribution(layers.backend),
                      "us", "moves rows_per_s on etl_mixed");
  report.AddQuantiles("backend.buffer_us", Distribution(layers.buffer), "us",
                      "moves rows_per_s on etl_mixed");
  report.Add("backend.attempts_per_request",
             Ratio(after.attempts - before.attempts, run.samples.size()),
             "count", "moves error_rate, latency_p95_ms on etl_mixed");
  report.Add("backend.spill_bytes",
             static_cast<double>(snap.lifecycle.spill_bytes), "bytes");
  report.AddQuantiles("vdb.execute_us", Distribution(layers.vdb), "us",
                      kMovesVdb);
  for (size_t q = 0; q < tpch_ms.size(); ++q) {
    char name[48];
    std::snprintf(name, sizeof(name), "vdb.tpch.q%02zu_ms", q + 1);
    report.Add(name, tpch_ms[q], "ms", q == 0 ? kMovesVdb : "");
  }
  Distribution probe(probe_us);
  report.Add("vdb.wait_probe_p50_us", probe.Median(), "us",
             "n=" + std::to_string(probe.count()) +
                 "; moves write_p50_ms on etl_mixed");
  report.Add("vdb.wait_probe_p95_us", probe.Quantile(0.95), "us",
             std::to_string(probe.Beyond(0.95)) + " beyond p95");
  report.Add("vdb.busy_share", Ratio(fig9.execute_us, run.elapsed_s * 1e6),
             "ratio",
             "moves throughput_qps on bi_replay, etl_mixed");
  report.AddQuantiles("convert.convert_us", Distribution(layers.convert),
                      "us", kMovesConvert);
  report.Add("convert.ns_per_row", Distribution(layers.ns_per_row).Median(),
             "ns", kMovesConvert);
  report.Add("convert.batches_per_result",
             Distribution(layers.batches).Mean(), "count");
  report.Add("common.governor_peak_mb",
             proxy->governor->stats().peak_memory_bytes / 1048576.0, "MB",
             "moves peak_rss_mb");
  report.Add("observability.tracing_overhead_pct", tracing_pct, "%",
             "moves latency_p50_ms when tracing is on");
  report.AddQuantiles("bench.unattributed_us",
                      Distribution(layers.unattributed), "us",
                      "server time the layers above do not explain");

  report.Note(fig9.Line(workload.name()));
  if (!run.first_error.empty()) {
    report.Note("  first error: " + run.first_error);
  }
  if (!wrong.empty()) report.Note("  WRONG ANSWER: " + wrong);

  int64_t attempted = run.attempted + overhead_runs.attempted;
  int64_t failed = run.failed + overhead_runs.failed + layers.failed;
  clients.reset();
  proxy.reset();
  report.Print(wrong.empty(), attempted, failed);
  return wrong.empty() ? 0 : 1;
}

}  // namespace hqbench
