#include "traced.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "engine/classifier.h"
#include "engine/exec_options.h"
#include "engine/exec_stats.h"
#include "engine/unnested_evaluator.h"
#include "obs/trace.h"
#include "relational/catalog.h"
#include "server/session.h"
#include "server/wire.h"
#include "shell/shell.h"
#include "sql/binder.h"
#include "sql/statement.h"
#include "storage/buffer_pool.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"

namespace servebench {

namespace {

using namespace fuzzydb;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded span: a layer call (or an engine operator inside
/// engine.evaluate) of one statement.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  size_t statement = 0;
};

class SpanLog {
 public:
  int Open(std::string name, int parent, size_t statement) {
    spans_.push_back({std::move(name), NowUs(), 0.0, parent, statement});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its duration in microseconds.
  double Close(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_us = NowUs();
    return span.end_us - span.start_us;
  }
  int Add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  bool WriteChromeJson(const std::string& path) const {
    std::ofstream file(path);
    if (!file) return false;
    const double epoch = spans_.empty() ? 0.0 : spans_.front().start_us;
    file << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,",
                    s.start_us - epoch, s.end_us - s.start_us);
      file << (i > 0 ? ",\n" : "\n") << "{\"name\":\""
           << server::JsonEscape(s.name) << "\"," << buf
           << "\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"statement\":" << s.statement << "}}";
    }
    file << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(file);
  }

 private:
  std::vector<Span> spans_;
};

/// The engine operator spans, grouped into the layers the report names.
const char* EngineBucket(const std::string& op) {
  if (op == "filter") return "engine.filter_us";
  if (op == "interval-sort" || op == "sort" || op == "external-sort") {
    return "engine.sort_us";
  }
  if (op == "merge-window") return "engine.window_us";
  if (op == "probe-materialized" || op == "nested-pairing" ||
      op == "nested-loop-join" || op == "merge-join" ||
      op == "partitioned-join") {
    return "engine.probe_us";
  }
  if (op == "group-aggregate") return "engine.group_us";
  if (op == "chain-join" || op == "plan-join-order") return "engine.chain_us";
  if (op == "emit") return "engine.emit_us";
  return "engine.evaluate_self_us";
}

const char* const kEngineBuckets[] = {
    "engine.filter_us", "engine.sort_us",  "engine.window_us",
    "engine.probe_us",  "engine.group_us", "engine.chain_us",
    "engine.emit_us",   "engine.evaluate_self_us"};

std::string StripSemicolon(const std::string& line) {
  std::string text = line;
  while (!text.empty() && (text.back() == ';' || text.back() == ' ')) {
    text.pop_back();
  }
  return text;
}

ExecOptions EngineOptions() {
  ExecOptions options;
  options.num_threads = 1;  // every served session runs SET threads 1
  return options;
}

/// Sums of one run: microseconds per layer and call counts.
struct Totals {
  std::map<std::string, double> us;
  std::map<std::string, double> calls;
  double execute_us = 0;      // Session::Execute wall, same statements
  double attributed_us = 0;   // layer spans inside Execute's scope
  double evaluate_untraced_us = 0;
  double evaluate_traced_us = 0;
  double tuple_pairs = 0, degree_evals = 0, rows_out = 0;

  void Add(const std::string& layer, double us_value, bool inside_execute) {
    us[layer] += us_value;
    calls[layer] += 1;
    if (inside_execute) attributed_us += us_value;
  }
};

/// The write path the shell runs for INSERT under a WAL, one call per
/// layer: parse, snapshot (kept alive as a pinned reader, so the apply
/// pays copy-on-write), append, apply, and the batch mode's group sync.
bool TracedWrite(const std::string& line, size_t statement, int root,
                 Catalog* catalog, wal::WalManager* manager, SpanLog* log,
                 Totals* totals, size_t* writes, std::string* error) {
  int span = log->Open("sql.parse", root, statement);
  auto parsed = sql::ParseStatement(StripSemicolon(line));
  totals->Add("sql.parse_us", log->Close(span), true);
  if (!parsed.ok() || parsed->kind != sql::Statement::Kind::kInsert) {
    *error = "traced write did not parse as INSERT: " + line;
    return false;
  }
  span = log->Open("relational.snapshot", root, statement);
  const Catalog pinned = catalog->Snapshot();  // alive until return
  totals->Add("relational.snapshot_us", log->Close(span), true);

  std::vector<Value> values;
  for (const sql::Literal& literal : parsed->insert.values) {
    values.push_back(literal.value);
  }
  wal::WalRecord record;
  record.type = wal::WalRecordType::kInsert;
  record.table = parsed->insert.table;
  record.tuple = Tuple(std::move(values), parsed->insert.degree);

  auto commit = manager->AcquireCommitLock();
  span = log->Open("wal.append", root, statement);
  Status status = manager->Append(&record);
  totals->Add("wal.append_us", log->Close(span), true);
  if (status.ok()) {
    span = log->Open("wal.apply", root, statement);
    status = wal::ApplyWalRecord(record, catalog);
    totals->Add("wal.apply_us", log->Close(span), true);
  }
  // Batch mode fsyncs inside the Append that reaches batch_records
  // unsynced records; syncing one record earlier keeps the same flush
  // interval and gives the fsync a span of its own.
  const uint64_t group = std::max<uint64_t>(
      1, manager->options().batch_records - 1);
  if (status.ok() && ++*writes % group == 0) {
    span = log->Open("wal.sync", root, statement);
    status = manager->Sync();
    totals->Add("wal.sync_us", log->Close(span), true);
  }
  if (!status.ok()) {
    *error = "traced write failed: " + status.ToString();
    return false;
  }
  return true;
}

bool TracedRead(const std::string& line, const server::ReplyFrame& frame,
                size_t statement, int root, const Catalog& catalog,
                SpanLog* log, Totals* totals, std::string* error) {
  const std::string text = StripSemicolon(line);
  // Untraced evaluate of the same bound query: the base of the tracing
  // overhead.
  {
    auto parsed = sql::ParseStatement(text);
    if (!parsed.ok() || parsed->select == nullptr) {
      *error = "traced read did not parse: " + line;
      return false;
    }
    const Catalog snapshot = catalog.Snapshot();
    auto bound = sql::Bind(*parsed->select, snapshot);
    if (!bound.ok()) {
      *error = bound.status().ToString();
      return false;
    }
    UnnestingEvaluator engine(EngineOptions());
    const double start = NowUs();
    auto answer = engine.Evaluate(**bound);
    // Execute runs this untraced evaluate, so the untraced time stands
    // for the engine in the attributed sum; the operator spans below
    // split the traced time, and overhead_share reports the gap.
    const double untraced_us = NowUs() - start;
    totals->evaluate_untraced_us += untraced_us;
    totals->attributed_us += untraced_us;
    if (!answer.ok()) {
      *error = answer.status().ToString();
      return false;
    }
  }

  int span = log->Open("sql.parse", root, statement);
  auto parsed = sql::ParseStatement(text);
  totals->Add("sql.parse_us", log->Close(span), true);
  span = log->Open("relational.snapshot", root, statement);
  const Catalog snapshot = catalog.Snapshot();
  totals->Add("relational.snapshot_us", log->Close(span), true);
  span = log->Open("sql.bind", root, statement);
  auto bound = sql::Bind(*parsed->select, snapshot);
  totals->Add("sql.bind_us", log->Close(span), true);
  if (!bound.ok()) {
    *error = bound.status().ToString();
    return false;
  }
  span = log->Open("engine.classify", root, statement);
  Classify(**bound);
  totals->Add("engine.classify_us", log->Close(span), true);

  ExecTrace trace;
  const double trace_epoch = NowUs();
  ExecOptions options = EngineOptions();
  options.trace = &trace;
  CpuStats cpu;
  UnnestingEvaluator engine(options, &cpu);
  const int evaluate = log->Open("engine.evaluate", root, statement);
  auto answer = engine.Evaluate(**bound);
  const double evaluate_us = log->Close(evaluate);
  totals->Add("engine.evaluate_us", evaluate_us, false);
  totals->evaluate_traced_us += evaluate_us;
  if (!answer.ok()) {
    *error = answer.status().ToString();
    return false;
  }
  // Engine operator spans become children of engine.evaluate; each
  // operator's self time (its wall minus its children's) goes to its
  // layer, and whatever no root operator covers is evaluate's own.
  const auto& nodes = trace.nodes();
  std::vector<int> ids(nodes.size(), -1);
  std::vector<int> parent_of(nodes.size(), evaluate);
  double roots_us = 0;
  for (size_t root_node : trace.roots()) {
    roots_us += nodes[root_node].wall_seconds * 1e6;
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const TraceNode& node = nodes[i];
    const double start = trace_epoch + node.start_seconds * 1e6;
    ids[i] = log->Add({node.name, start, start + node.wall_seconds * 1e6,
                       parent_of[i], statement});
    double children_us = 0;
    for (size_t child : node.children) {
      parent_of[child] = ids[i];
      children_us += nodes[child].wall_seconds * 1e6;
    }
    totals->us[EngineBucket(node.name)] +=
        std::max(0.0, node.wall_seconds * 1e6 - children_us);
  }
  totals->us["engine.evaluate_self_us"] += std::max(0.0, evaluate_us - roots_us);
  for (const char* bucket : kEngineBuckets) totals->calls[bucket] += 1;
  totals->tuple_pairs += static_cast<double>(cpu.tuple_pairs);
  totals->degree_evals += static_cast<double>(cpu.degree_evaluations);
  totals->rows_out += static_cast<double>(answer->NumTuples());

  span = log->Open("relational.render", root, statement);
  const std::string rendered = answer->ToString(100);
  totals->Add("relational.render_us", log->Close(span), true);
  if (rendered.empty()) {
    *error = "empty rendering";
    return false;
  }

  // Encode and decode run outside Session::Execute (connection thread
  // and client), so they are not part of its attributed share.
  span = log->Open("server.encode", root, statement);
  const std::string wire_line = server::RenderReplyFrame(frame);
  totals->Add("server.encode_us", log->Close(span), false);
  server::ReplyFrame decoded;
  span = log->Open("server.decode", root, statement);
  const bool parsed_back = server::ParseReplyFrame(wire_line, &decoded);
  totals->Add("server.decode_us", log->Close(span), false);
  if (!parsed_back || decoded.rows.size() != answer->NumTuples()) {
    *error = "reply frame did not round-trip";
    return false;
  }
  return true;
}

/// Loads `load` through the WAL the way the shell does (append, then
/// apply), untraced.
bool LoadDurable(const std::vector<std::string>& load, Catalog* catalog,
                 wal::WalManager* manager, std::string* error) {
  for (const std::string& line : load) {
    if (line.rfind("SET ", 0) == 0) continue;
    auto parsed = sql::ParseStatement(StripSemicolon(line));
    if (!parsed.ok()) {
      *error = parsed.status().ToString();
      return false;
    }
    wal::WalRecord record;
    if (parsed->kind == sql::Statement::Kind::kCreateTable) {
      record.type = wal::WalRecordType::kCreateTable;
      record.table = parsed->create_table.name;
      record.schema = parsed->create_table.schema;
    } else {
      std::vector<Value> values;
      for (const sql::Literal& literal : parsed->insert.values) {
        values.push_back(literal.value);
      }
      record.type = wal::WalRecordType::kInsert;
      record.table = parsed->insert.table;
      record.tuple = Tuple(std::move(values), parsed->insert.degree);
    }
    Status status = manager->Append(&record);
    if (status.ok()) status = wal::ApplyWalRecord(record, catalog);
    if (!status.ok()) {
      *error = status.ToString();
      return false;
    }
  }
  return manager->Sync().ok();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

}  // namespace

bool RunTraced(const Workload& workload, size_t statements,
               const std::string& scratch_dir,
               const std::string& trace_json_path,
               std::map<std::string, double>* metrics, std::string* error) {
  server::SessionDefaults defaults;
  defaults.threads = 1;
  wal::WalOptions wal_options;
  wal_options.fsync = wal::FsyncMode::kBatch;  // as --wal-fsync=batch
  BufferPool pool(64);

  // The pipeline's catalog (and WAL), and an identically loaded
  // Session whose Execute wall time is the accounting base.
  Shell shell;
  shell.set_num_threads(1);
  Catalog* catalog = &shell.catalog();
  std::unique_ptr<wal::RecoveredDatabase> pipeline_db, session_db;
  std::unique_ptr<server::Session> session;
  const std::string pipeline_dir = scratch_dir + "/traced_pipeline";
  if (workload.durable) {
    auto opened = wal::OpenWalDatabase(pipeline_dir, wal_options, &pool);
    auto opened_b = wal::OpenWalDatabase(scratch_dir + "/traced_session",
                                         wal_options, &pool);
    if (!opened.ok() || !opened_b.ok()) {
      *error = "cannot open traced WAL directories";
      return false;
    }
    pipeline_db =
        std::make_unique<wal::RecoveredDatabase>(std::move(opened).value());
    session_db =
        std::make_unique<wal::RecoveredDatabase>(std::move(opened_b).value());
    catalog = &pipeline_db->catalog;
    if (!LoadDurable(workload.load, catalog, pipeline_db->manager.get(),
                     error)) {
      return false;
    }
    session = std::make_unique<server::Session>(
        1, defaults, 0, &session_db->catalog, session_db->manager.get());
  } else {
    std::ostringstream sink;
    for (const std::string& line : workload.load) {
      if (line.rfind("SET ", 0) != 0) shell.FeedLine(line, sink);
    }
    session = std::make_unique<server::Session>(1, defaults, 0);
  }
  for (const std::string& line : workload.load) {
    if (session->Execute(line).status != "OK") {
      *error = "traced session load failed: " + line;
      return false;
    }
  }

  SpanLog log;
  Totals totals;
  RequestStream stream(workload);
  Request request;
  size_t writes = 0;
  size_t traced = 0;
  for (; traced < statements && stream.Next(&request); ++traced) {
    const double start = NowUs();
    const server::ReplyFrame frame = session->Execute(request.line);
    totals.execute_us += NowUs() - start;
    if (frame.status != "OK") {
      *error = "Session::Execute failed: " + frame.error;
      return false;
    }
    const int root = log.Open("statement", -1, traced);
    const bool ok =
        request.write
            ? TracedWrite(request.line, traced, root, catalog,
                          pipeline_db->manager.get(), &log, &totals, &writes,
                          error)
            : TracedRead(request.line, frame, traced, root, *catalog, &log,
                         &totals, error);
    log.Close(root);
    if (!ok) return false;
  }

  double recovery_ms = 0;
  if (workload.durable) {
    // The closing group sync of the writes since the last one.
    const int span = log.Open("wal.sync", -1, traced);
    const Status synced = pipeline_db->manager->Sync();
    totals.us["wal.sync_us"] += log.Close(span);
    totals.calls["wal.sync_us"] += 1;
    if (!synced.ok()) {
      *error = "WAL sync failed: " + synced.ToString();
      return false;
    }
    pipeline_db.reset();  // closes the log before it is recovered
    std::vector<double> samples;
    for (int i = 0; i < 3; ++i) {
      const double start = NowUs();
      auto recovered = wal::OpenWalDatabase(pipeline_dir, wal_options, &pool);
      samples.push_back((NowUs() - start) / 1e3);
      if (!recovered.ok()) {
        *error = "recovery failed: " + recovered.status().ToString();
        return false;
      }
    }
    recovery_ms = Median(samples);
  }
  if (!log.WriteChromeJson(trace_json_path)) {
    *error = "cannot write " + trace_json_path;
    return false;
  }

  const char* const kLayers[] = {
      "sql.parse_us",     "relational.snapshot_us", "sql.bind_us",
      "engine.classify_us", "engine.evaluate_us",  "relational.render_us",
      "server.encode_us", "server.decode_us",       "wal.append_us",
      "wal.sync_us",      "wal.apply_us"};
  const auto per_call = [&](const std::string& layer) {
    const double calls = totals.calls[layer];
    return calls > 0 ? totals.us[layer] / calls : 0.0;
  };
  for (const char* layer : kLayers) (*metrics)[layer] = per_call(layer);
  for (const char* bucket : kEngineBuckets) (*metrics)[bucket] = per_call(bucket);
  const double reads = totals.calls["engine.evaluate_us"];
  (*metrics)["wal.recovery_ms"] = recovery_ms;
  (*metrics)["engine.tuple_pairs"] = reads > 0 ? totals.tuple_pairs / reads : 0;
  (*metrics)["fuzzy.degree_evals"] = reads > 0 ? totals.degree_evals / reads : 0;
  (*metrics)["engine.rows_out"] = reads > 0 ? totals.rows_out / reads : 0;
  (*metrics)["trace.unattributed_share"] =
      totals.execute_us > 0 ? 1.0 - totals.attributed_us / totals.execute_us
                            : 0.0;
  (*metrics)["trace.overhead_share"] =
      totals.evaluate_untraced_us > 0
          ? totals.evaluate_traced_us / totals.evaluate_untraced_us - 1.0
          : 0.0;
  return true;
}

}  // namespace servebench
