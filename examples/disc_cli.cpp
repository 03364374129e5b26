// disc_cli — run DISC outlier saving end-to-end on a CSV file.
//
// Usage:
//   disc_cli <input.csv> <output.csv> [--epsilon E] [--eta N]
//            [--kappa K] [--threads T] [--normalize] [--exact]
//            [--deadline-ms D]
//            [--metrics-json PATH] [--trace PATH] [--explain[=PATH]]
//            [--journal PATH] [--resume] [--fault-spec SPEC]
//            [--strict-csv] [--max-input-bytes N]
//            [--serve[=PORT]] [--log-level LEVEL] [--quiet]
//   disc_cli --serve-idle[=PORT] [--log-level LEVEL] [--quiet]
//
// Without --epsilon/--eta the constraint is fitted automatically with the
// Poisson rule of §2.1.2 (p(N(ε) >= η) >= 0.99). --normalize min-max scales
// numeric attributes before saving and maps the repairs back to original
// units. --threads T saves outliers on T worker threads (0 = one per
// hardware thread; results are bit-identical for any T).
// --deadline-ms bounds the whole pipeline's wall clock: searches that run
// out of time return their best feasible incumbent and the run reports how
// many outliers degraded (anytime saving — see DESIGN.md).
// --metrics-json PATH attaches a MetricsRegistry to the run and writes its
// JSON snapshot to PATH on exit (see DESIGN.md §8 for the metric names).
// --trace PATH streams the hierarchical span trees of the run to PATH (or
// stdout for "-") as JSONL: per outlier a "save_outlier" root, its "search"
// span and the per-phase children (index_query/bounds_scan/dcache_fill/
// verdict), all linked by trace_id/span_id/parent_id (analyze with
// scripts/analyze_trace.py).
// --explain[=PATH] streams per-search decision provenance to PATH (or
// stdout when PATH is omitted) as JSONL, one object per saved outlier:
// every node the branch-and-bound search visited with the action taken
// (expand / prune_lb / prune_budget / infeasible / incumbent_update /
// memo_hit / prune_dominated / revert_refine), its Prop-3/Prop-5 bounds,
// and a derived summary with prune breakdown, incumbent timeline and
// bound-tightness ratios (schemas/explain.schema.json; analyze with
// scripts/analyze_explain.py). Capture is bit-identical for any --threads.
// An export written to stdout (--metrics-json -, --trace -, or --explain
// without a path) owns that stream: the human-readable report then goes to
// stderr, so stdout parses as one JSON document or as JSONL. Any two of
// them would put two documents on one stream and are rejected.
//
// Crash safety & chaos testing (DESIGN.md §11):
// --journal PATH appends every definitively finished outlier to a JSONL
// save journal; --resume restores journaled verdicts from a previous
// interrupted run of the same batch and searches every other outlier
// again, including the faulted and budget-stopped ones the journal never
// holds (the merged output is bit-identical to an uninterrupted run).
// --fault-spec SPEC arms the deterministic fault injector (grammar in
// common/fault.h, e.g. "search.node:cancel:nth=100"). Injected kCancel
// faults cancel the batch cooperatively, like Ctrl-C.
// --strict-csv rejects mixed numeric/non-numeric CSV columns instead of
// demoting them to strings; --max-input-bytes N caps the input file size.
//
// Live observability plane (DESIGN.md §8):
// --serve[=PORT] starts the embedded HTTP server on 127.0.0.1 (PORT omitted
// or 0 = ephemeral, printed at startup) before the pipeline runs, serving
// /metrics, /metrics.json, /tracez, /profilez, /explainz, /healthz and
// /statusz concurrently with the save (serve mode also attaches the trace
// recorder, the wall-phase profiler and the explain recorder). The process
// then keeps serving until
// SIGINT/SIGTERM; the signal
// cancels any in-flight batch cooperatively, stops the server, and flushes
// metrics/trace outputs before exiting 0. --serve-idle[=PORT] serves
// without requiring a pipeline (input/output become optional).
// --log-level LEVEL (debug|info|warn|error) filters the structured JSON
// logs; --quiet silences them on stderr (they still feed the in-memory
// ring exposed at /statusz?logs=N).
// Prints a per-outlier report and writes the repaired relation.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/csv.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "constraints/parameter_selection.h"
#include "core/outlier_saving.h"
#include "distance/normalization.h"
#include "obs/endpoints.h"
#include "obs/explain.h"
#include "obs/http_server.h"
#include "obs/progress.h"

namespace {

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <input.csv> <output.csv> [--epsilon E] [--eta N]\n"
               "          [--kappa K] [--threads T] [--normalize] [--exact]\n"
               "          [--deadline-ms D]\n"
               "          [--metrics-json PATH] [--trace PATH]\n"
               "          [--explain[=PATH]]\n"
               "          [--journal PATH] [--resume] [--fault-spec SPEC]\n"
               "          [--strict-csv] [--max-input-bytes N]\n"
               "          [--serve[=PORT]] [--log-level LEVEL] [--quiet]\n"
               "       %s --serve-idle[=PORT] [--log-level LEVEL] [--quiet]\n",
               argv0, argv0);
}

/// Writes `text` to `path` ("-" or empty = stdout). Returns false on error.
bool WriteTextTo(const std::string& path, const std::string& text) {
  if (path.empty() || path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = std::fclose(f) == 0 && written == text.size();
  return ok;
}

// Signal → shutdown hand-off. The handler does only async-signal-safe work:
// two lock-free atomic stores. g_cancel is set (and never changed again)
// before the handlers are installed, so the handler can't observe a
// half-built source; RequestCancel() is a single release store on the
// shared flag.
std::atomic<bool> g_shutdown{false};
disc::CancellationSource* g_cancel = nullptr;

void HandleShutdownSignal(int /*signum*/) {
  g_shutdown.store(true, std::memory_order_release);
  if (g_cancel != nullptr) g_cancel->RequestCancel();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace disc;

  double epsilon = 0;
  std::size_t eta = 0;
  std::size_t kappa = 0;
  std::size_t threads = 1;
  bool normalize = false;
  bool use_exact = false;
  long long deadline_ms = 0;
  std::string metrics_json_path;
  std::string trace_path;
  bool explain_requested = false;
  std::string explain_path;
  std::string journal_path;
  bool resume = false;
  std::string fault_spec;
  bool strict_csv = false;
  long long max_input_bytes = 0;
  bool metrics_requested = false;
  bool serve = false;
  bool serve_idle = false;
  int serve_port = 0;
  std::string log_level_name;
  std::vector<std::string> positional;
  // Accepts both `--flag PATH` and `--flag=PATH`.
  auto path_flag = [&](int* i, const char* flag, std::string* out) {
    const std::size_t flag_len = std::strlen(flag);
    if (std::strcmp(argv[*i], flag) == 0 && *i + 1 < argc) {
      *out = argv[++*i];
      return true;
    }
    if (std::strncmp(argv[*i], flag, flag_len) == 0 &&
        argv[*i][flag_len] == '=') {
      *out = argv[*i] + flag_len + 1;
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    if (path_flag(&i, "--metrics-json", &metrics_json_path)) {
      metrics_requested = true;
    } else if (path_flag(&i, "--trace", &trace_path)) {
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain_requested = true;
    } else if (std::strncmp(argv[i], "--explain=", 10) == 0) {
      explain_requested = true;
      explain_path = argv[i] + 10;
    } else if (path_flag(&i, "--journal", &journal_path)) {
    } else if (path_flag(&i, "--fault-spec", &fault_spec)) {
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--strict-csv") == 0) {
      strict_csv = true;
    } else if (std::strcmp(argv[i], "--max-input-bytes") == 0 &&
               i + 1 < argc) {
      max_input_bytes = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--epsilon") == 0 && i + 1 < argc) {
      epsilon = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--eta") == 0 && i + 1 < argc) {
      eta = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--kappa") == 0 && i + 1 < argc) {
      kappa = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--normalize") == 0) {
      normalize = true;
    } else if (std::strcmp(argv[i], "--exact") == 0) {
      use_exact = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      SetLogToStderr(false);
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strncmp(argv[i], "--serve=", 8) == 0) {
      serve = true;
      serve_port = std::atoi(argv[i] + 8);
    } else if (std::strcmp(argv[i], "--serve-idle") == 0) {
      serve = true;
      serve_idle = true;
    } else if (std::strncmp(argv[i], "--serve-idle=", 13) == 0) {
      serve = true;
      serve_idle = true;
      serve_port = std::atoi(argv[i] + 13);
    } else if (std::strcmp(argv[i], "--log-level") == 0 && i + 1 < argc) {
      log_level_name = argv[++i];
    } else if (std::strncmp(argv[i], "--log-level=", 12) == 0) {
      log_level_name = argv[i] + 12;
    } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      PrintUsage(argv[0]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (!log_level_name.empty()) {
    LogLevel level;
    if (!ParseLogLevel(log_level_name, &level)) {
      std::fprintf(stderr,
                   "invalid --log-level: %s (want debug|info|warn|error)\n",
                   log_level_name.c_str());
      return 2;
    }
    SetMinLogLevel(level);
  }
  if (serve_port < 0 || serve_port > 65535) {
    std::fprintf(stderr, "invalid --serve port: %d\n", serve_port);
    return 2;
  }
  const bool run_pipeline = positional.size() == 2;
  if (!run_pipeline && !(serve_idle && positional.empty())) {
    PrintUsage(argv[0]);
    return 2;
  }
  const bool metrics_to_stdout =
      metrics_requested &&
      (metrics_json_path.empty() || metrics_json_path == "-");
  const bool explain_to_stdout =
      explain_requested && (explain_path.empty() || explain_path == "-");
  const bool trace_to_stdout = trace_path == "-";
  const int stdout_exports =
      metrics_to_stdout + explain_to_stdout + trace_to_stdout;
  if (stdout_exports > 1) {
    std::fprintf(stderr,
                 "--metrics-json -, --trace - and --explain without a path "
                 "all write to stdout; give all but one of them a path\n");
    return 2;
  }
  // The human-readable report: stdout, unless an export owns stdout.
  std::FILE* const report = stdout_exports > 0 ? stderr : stdout;

  // Fault injection (DESIGN.md §11): configure-then-attach. Armed before
  // the observability plane and the pipeline so every fault site in the
  // process resolves against it. Injected kCancel faults mirror into the
  // batch cancellation source, so they cancel the run exactly like Ctrl-C.
  CancellationSource cancel;
  std::unique_ptr<FaultInjector> fault_injector;
  if (!fault_spec.empty()) {
    fault_injector = std::make_unique<FaultInjector>();
    Status armed = fault_injector->AddFromString(fault_spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "invalid --fault-spec: %s\n",
                   armed.ToString().c_str());
      return 2;
    }
    fault_injector->MirrorCancelTo(cancel);
    AttachGlobalFaultInjector(fault_injector.get());
    std::fprintf(report, "fault injection armed: %s\n", fault_spec.c_str());
  }

  // Observability plane (DESIGN.md §8). The registries attach globally
  // *before* the pipeline so the neighbor indexes built inside SaveOutliers
  // resolve their raw-traffic counters and SaveAll registers its progress
  // tracker; per-search stats flush into the metrics registry once per
  // batch either way. The server starts before the pipeline so scrapes
  // observe the run live.
  std::unique_ptr<MetricsRegistry> metrics;
  if (metrics_requested || serve) {
    metrics = std::make_unique<MetricsRegistry>();
    AttachGlobalMetrics(metrics.get());
  }
  std::unique_ptr<ProgressRegistry> progress;
  std::unique_ptr<TraceRecorder> recorder;
  std::unique_ptr<WallPhaseProfiler> profiler;
  std::unique_ptr<ExplainRecorder> explain_recorder;
  std::unique_ptr<HttpServer> server;
  if (serve) {
    progress = std::make_unique<ProgressRegistry>();
    AttachGlobalProgress(progress.get());
    // /tracez and /profilez backends: the recorder keeps a ring of recent
    // search spans plus the in-flight ones, the profiler accumulates the
    // wall-phase totals. Attached before the pipeline so every search of
    // the run is covered.
    recorder = std::make_unique<TraceRecorder>();
    AttachGlobalTraceRecorder(recorder.get());
    profiler = std::make_unique<WallPhaseProfiler>();
    AttachGlobalWallProfiler(profiler.get());
    // /explainz backend: per-search decision summaries (recent + slowest).
    explain_recorder = std::make_unique<ExplainRecorder>();
    AttachGlobalExplainRecorder(explain_recorder.get());
    HttpServer::Options server_options;
    server_options.port = static_cast<std::uint16_t>(serve_port);
    server = std::make_unique<HttpServer>(server_options);
    RegisterObsEndpoints(server.get());
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "error starting observability server: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::fprintf(report,
                 "serving /metrics /metrics.json /tracez /profilez /explainz "
                 "/healthz /statusz on http://127.0.0.1:%u\n",
                 static_cast<unsigned>(server->port()));
    std::fflush(report);
    // Install the graceful-shutdown path only in serve mode: without the
    // server a Ctrl-C should keep its default kill-the-process meaning.
    g_cancel = &cancel;
    std::signal(SIGINT, HandleShutdownSignal);
    std::signal(SIGTERM, HandleShutdownSignal);
  }

  std::unique_ptr<JsonlTraceSink> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<JsonlTraceSink>(trace_path);
  }
  std::unique_ptr<ExplainJsonlSink> explain_sink;
  if (explain_requested) {
    explain_sink = std::make_unique<ExplainJsonlSink>(explain_path);
  }

  int exit_code = 0;
  if (run_pipeline) {
    const std::string& input_path = positional[0];
    const std::string& output_path = positional[1];

    CsvOptions csv_options;
    csv_options.strict_numeric = strict_csv;
    if (max_input_bytes > 0) {
      csv_options.max_bytes = static_cast<std::size_t>(max_input_bytes);
    }
    Result<Relation> loaded = ReadCsv(input_path, csv_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error reading %s: %s\n", input_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    Relation raw = std::move(loaded).value();
    if (raw.size() == 0) {
      std::fprintf(stderr, "error: %s has a header but no data rows\n",
                   input_path.c_str());
      return 1;
    }
    std::fprintf(report, "loaded %zu tuples x %zu attributes from %s\n",
                 raw.size(), raw.arity(), input_path.c_str());

    Normalizer normalizer = Normalizer::Fit(raw);
    Relation working = normalize ? normalizer.Apply(raw) : raw;
    DistanceEvaluator evaluator(working.schema());

    DistanceConstraint constraint{epsilon, eta};
    if (epsilon <= 0 || eta == 0) {
      ParameterSelection sel = SelectParametersPoisson(working, evaluator);
      if (epsilon <= 0) constraint.epsilon = sel.constraint.epsilon;
      if (eta == 0) constraint.eta = sel.constraint.eta;
      std::fprintf(
          report,
          "fitted constraint via Poisson rule: eps=%.4f eta=%zu "
          "(lambda=%.2f, confidence=%.3f)\n",
          constraint.epsilon, constraint.eta, sel.lambda_epsilon,
          sel.confidence);
    } else {
      std::fprintf(report, "using constraint: eps=%.4f eta=%zu\n",
                   constraint.epsilon, constraint.eta);
    }

    OutlierSavingOptions options;
    options.constraint = constraint;
    options.save.kappa = kappa;
    options.use_exact = use_exact;
    if (use_exact) options.save.budget.max_visited_sets = 200000;
    options.num_threads = threads;
    options.batch_deadline_ms = deadline_ms;
    options.cancellation = cancel.token();
    options.metrics = metrics.get();
    options.trace = trace.get();
    options.explain = explain_sink.get();
    options.journal_path = journal_path;
    options.resume_from_journal = resume;

    SavedDataset saved = SaveOutliers(working, evaluator, options);
    if (!saved.status.ok()) {
      std::fprintf(stderr, "error saving outliers: %s\n",
                   saved.status.ToString().c_str());
      return 1;
    }

    std::fprintf(report,
                 "outliers: %zu flagged / %zu tuples; %zu saved, %zu natural, "
                 "%zu infeasible; mean cost %.4f, mean #attrs %.2f\n",
                 saved.outlier_rows.size(), working.size(),
                 saved.CountDisposition(OutlierDisposition::kSaved),
                 saved.CountDisposition(OutlierDisposition::kNaturalOutlier),
                 saved.CountDisposition(OutlierDisposition::kInfeasible),
                 saved.MeanAdjustmentCost(), saved.MeanAdjustedAttributes());

    // Degradation summary: which searches were truncated and why. Every
    // applied adjustment is fully feasible regardless — a truncated search
    // just may have settled for a costlier repair (anytime contract).
    if (saved.degraded()) {
      std::fprintf(
          report,
          "degraded: %s\n  completed %zu, deadline %zu, cancelled %zu, "
          "visit-budget %zu, query-budget %zu, faulted %zu, infeasible %zu\n",
          saved.DegradationStatus().ToString().c_str(),
          saved.CountTermination(SaveTermination::kCompleted),
          saved.CountTermination(SaveTermination::kDeadline),
          saved.CountTermination(SaveTermination::kCancelled),
          saved.CountTermination(SaveTermination::kVisitBudget),
          saved.CountTermination(SaveTermination::kQueryBudget),
          saved.CountTermination(SaveTermination::kFault),
          saved.CountTermination(SaveTermination::kInfeasible));
    } else if (deadline_ms > 0) {
      std::fprintf(report,
                   "no degradation: all %zu searches finished in budget\n",
                   saved.records.size());
    }

    Relation repaired =
        normalize ? normalizer.Invert(saved.repaired) : saved.repaired;

    // Per-outlier report (first 20 rows).
    int shown = 0;
    for (const OutlierRecord& rec : saved.records) {
      if (rec.disposition != OutlierDisposition::kSaved || shown >= 20)
        continue;
      std::fprintf(report, "  row %zu:", rec.row);
      for (std::size_t a : rec.adjusted_attributes.ToIndices()) {
        std::fprintf(report, " %s %s->%s", raw.schema().name(a).c_str(),
                     raw[rec.row][a].ToString().c_str(),
                     repaired[rec.row][a].ToString().c_str());
      }
      std::fprintf(report, "  (cost %.4f)\n", rec.cost);
      ++shown;
    }

    Status write_status = WriteCsv(repaired, output_path);
    if (!write_status.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", output_path.c_str(),
                   write_status.ToString().c_str());
      return 1;
    }
    std::fprintf(report, "wrote repaired relation to %s\n",
                 output_path.c_str());
  }

  if (serve) {
    // Keep serving until SIGINT/SIGTERM: a scraper should be able to read
    // the final state of a finished run, and --serve-idle exists purely to
    // expose the plane. The shutdown ordering below mirrors
    // HttpServer::Stop's contract: stop accepting scrapes first, then
    // detach the global registries (record sites become no-ops), then
    // flush the durable outputs.
    std::fprintf(report, run_pipeline
                             ? "pipeline done; serving until SIGINT/SIGTERM\n"
                             : "idle; serving until SIGINT/SIGTERM\n");
    std::fflush(report);
    while (!g_shutdown.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(report, "shutdown signal received; stopping server\n");
    server->Stop();
    // Detach order mirrors attach: the server no longer answers, so the
    // live hooks can go first; record sites degrade to no-ops instantly.
    AttachGlobalTraceRecorder(nullptr);
    AttachGlobalWallProfiler(nullptr);
    AttachGlobalExplainRecorder(nullptr);
    AttachGlobalProgress(nullptr);
  }

  if (metrics != nullptr) {
    AttachGlobalMetrics(nullptr);
    if (metrics_requested) {
      if (WriteTextTo(metrics_json_path, metrics->ToJson())) {
        if (metrics_json_path != "-" && !metrics_json_path.empty()) {
          std::fprintf(report, "wrote metrics snapshot to %s\n",
                       metrics_json_path.c_str());
        }
      } else {
        std::fprintf(stderr, "error writing metrics to %s\n",
                     metrics_json_path.c_str());
        exit_code = 1;
      }
    }
  }
  if (fault_injector != nullptr) {
    AttachGlobalFaultInjector(nullptr);
    std::fprintf(report, "fault injection: %llu fires (%s)\n",
                 static_cast<unsigned long long>(fault_injector->total_fires()),
                 fault_injector->cancel_fired() ? "cancel fired"
                                                : "no cancel fired");
  }
  if (trace != nullptr) {
    Status trace_status = trace->Close();
    if (trace_status.ok()) {
      if (!trace_to_stdout) {
        std::fprintf(report, "wrote trace to %s\n", trace_path.c_str());
      }
    } else {
      std::fprintf(stderr, "error writing trace to %s: %s\n",
                   trace_path.c_str(), trace_status.ToString().c_str());
      exit_code = 1;
    }
  }
  if (explain_sink != nullptr) {
    Status explain_status = explain_sink->Close();
    if (!explain_status.ok()) {
      std::fprintf(stderr, "error writing explain log: %s\n",
                   explain_status.ToString().c_str());
      exit_code = 1;
    } else if (!explain_path.empty() && explain_path != "-") {
      std::fprintf(report, "wrote explain log to %s\n", explain_path.c_str());
    }
  }
  return exit_code;
}
