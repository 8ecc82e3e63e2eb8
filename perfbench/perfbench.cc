// Statement-level benchmark of the platform: builds one workload's
// database, warms it, and runs a single-client closed loop of SQL
// statements through Platform::Execute, checking every result. The last
// line of standard output is one JSON object with the run's metrics.
//
// Usage:
//   hana_perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//                  [--workdir <dir>] [--trace-out <file>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates whole
// rounds of untraced statements with rounds in which each statement is
// split into its layers (parse, bind, optimize, execute) by calling the
// layers' public entry points from here, and reports per-layer metrics
// and the tracing overhead. perfbench/README.md describes every metric.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/util.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "plan/binder.h"
#include "platform/platform.h"
#include "sql/parser.h"
#include "tpch/queries.h"
#include "workload.h"

namespace hana::perfbench {
namespace {

namespace fs = std::filesystem;

// Set-ups per run; setup_s is their median. The count is fixed so that a
// run's work, and the heap it leaves behind for peak_rss_mb, does not
// depend on how fast the host is.
constexpr int kSetups = 5;
// Full rounds of every class run before the measured window.
constexpr int kWarmupRounds = 2;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)) * 1e3 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

size_t UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The highest sample that still has at least 10 samples above it (the
/// maximum when there are 10 or fewer), and its percentile.
std::pair<double, double> Tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  size_t idx = n > 10 ? n - 11 : n - 1;
  return {v[idx], 100.0 * static_cast<double>(idx + 1) /
                      static_cast<double>(n)};
}

/// Statements per second of execution time; 0 when none ran.
double Rate(double statements, double busy_ms) {
  return busy_ms > 0 ? statements / (busy_ms / 1e3) : 0;
}

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---- Host memory-latency probe -------------------------------------------
// A dependent pointer chase over a buffer larger than the per-core
// caches. Diagnostic only: it is printed, never used to scale a metric.
// The buffer is larger than glibc's largest mmap threshold, so it is
// mapped for the probe alone and unmapped after it. The first probe runs
// before the inputs are generated and peak_rss_mb is read before the
// second, so the probe adds nothing to peak_rss_mb.

volatile uint32_t g_chase_sink = 0;

double ChaseNanosPerLoad(uint64_t seed) {
  constexpr size_t kSlots = (64u << 20) / sizeof(uint32_t);
  constexpr size_t kSteps = 2'000'000;
  std::vector<uint32_t> next(kSlots);
  // Sattolo's algorithm: a single cycle through every slot.
  std::iota(next.begin(), next.end(), 0u);
  Rng rng(seed);
  for (size_t i = kSlots - 1; i > 0; --i) {
    size_t j = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(i) - 1));
    std::swap(next[i], next[j]);
  }
  uint32_t p = 0;
  double start = NowMs();
  for (size_t i = 0; i < kSteps; ++i) p = next[p];
  double elapsed = NowMs() - start;
  g_chase_sink = p;
  return elapsed * 1e6 / static_cast<double>(kSteps);
}

// ---- Tracing -------------------------------------------------------------

struct Span {
  const char* name;
  double start_ms;
  double end_ms;
  int parent;  // Index of the enclosing span, -1 for a statement root.
  uint64_t statement;
};

/// Spans are kept in memory and written out when the run ends.
class Tracer {
 public:
  int Begin(const char* name, int parent, uint64_t statement) {
    spans_.push_back({name, NowMs(), 0, parent, statement});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ms = NowMs(); }
  double Duration(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return s.end_ms - s.start_ms;
  }

  /// Total self time per span name: each span's duration minus the time
  /// its (sequential) children cover.
  std::map<std::string, double> SelfMs() const {
    std::vector<double> child_ms(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] +=
          spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
    }
    return self;
  }

  void Write(const std::string& path) const {
    if (path.empty()) return;
    fs::create_directories(fs::path(path).parent_path());
    std::ofstream out(path);
    out << std::fixed << std::setprecision(4);
    const double origin = spans_.empty() ? 0 : spans_.front().start_ms;
    for (const Span& s : spans_) {
      out << "{\"name\": \"" << s.name << "\", \"statement\": " << s.statement
          << ", \"parent\": " << s.parent
          << ", \"start_ms\": " << s.start_ms - origin
          << ", \"end_ms\": " << s.end_ms - origin << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Per-layer counters summed over traced statements.
struct LayerTotals {
  double statements = 0;
  double selects = 0;
  double stmt_bytes = 0;
  double plan_nodes = 0;
  double remote_queries = 0;
  double execute_ms = 0;
  double cpu_ms = 0;
  double pipelines = 0;
  double morsels = 0;
  double pipeline_wall_ms = 0;
  double pipeline_cpu_ms = 0;
  double serial_fallbacks = 0;
  double agg_groups = 0;
  double result_rows = 0;
  double result_cells = 0;
  double write_apply_ms = 0;
  double remote_calls = 0;
  double rows_fetched = 0;
  double mapreduce_jobs = 0;
  double cache_hits = 0;
  double cache_attempts = 0;
  double local_ms = 0;
  double remote_virtual_ms = 0;
  double blocks_read = 0;
  double bytes_read = 0;
  double simulated_io_ms = 0;
  std::map<int, std::pair<double, double>> query_exec;  // q -> (ms, n)
};

void CountPlan(const plan::LogicalOp& op, LayerTotals* t) {
  t->plan_nodes += 1;
  if (op.kind == plan::LogicalKind::kRemoteQuery) t->remote_queries += 1;
  for (const auto& child : op.children) CountPlan(*child, t);
}

extended::ExtendedStoreMetrics ExtendedMetrics(platform::Platform& db) {
  return db.iq() != nullptr ? db.iq()->store()->metrics()
                            : extended::ExtendedStoreMetrics();
}

double VirtualNow(platform::Platform& db) {
  double now = db.clock().now_ms();
  if (db.iq() != nullptr) now += db.iq()->store()->clock().now_ms();
  return now;
}

/// A SELECT run layer by layer through the same public entry points
/// Platform::Execute uses, with a span around each.
Result<platform::ExecResult> TracedSelect(platform::Platform& db,
                                          const sql::SelectStmt& stmt,
                                          Tracer* tracer, int root,
                                          uint64_t id, int tpch_query,
                                          LayerTotals* t) {
  double virtual_before = VirtualNow(db);
  extended::ExtendedStoreMetrics ext_before = ExtendedMetrics(db);
  db.sda().ResetStats();
  double local_start = NowMs();

  int bind = tracer->Begin("plan.bind", root, id);
  Result<plan::LogicalOpPtr> logical =
      plan::BindSelectStatement(db.catalog(), stmt);
  tracer->End(bind);
  HANA_RETURN_IF_ERROR(logical.status());

  optimizer::OptimizeContext ctx;
  ctx.catalog = &db.catalog();
  ctx.sda = &db.sda();
  ctx.options = db.optimizer_options();
  ctx.options.use_remote_cache = false;
  for (const std::string& hint : stmt.hints) {
    if (hint == "USE_REMOTE_CACHE") ctx.options.use_remote_cache = true;
    if (hint == "NO_FEDERATION") ctx.options.enable_federation = false;
  }
  int optimize = tracer->Begin("optimizer.optimize", root, id);
  Status optimized = optimizer::Optimize(&*logical, ctx);
  tracer->End(optimize);
  HANA_RETURN_IF_ERROR(optimized);
  CountPlan(**logical, t);

  std::vector<exec::PipelineStats> stats;
  double cpu_before = CpuMs();
  int execute = tracer->Begin("exec.execute", root, id);
  Result<storage::Table> table =
      exec::ExecutePlanWithStats(**logical, &db, &stats);
  tracer->End(execute);
  double cpu = CpuMs() - cpu_before;
  HANA_RETURN_IF_ERROR(table.status());

  platform::ExecResult result;
  result.metrics.local_ms = NowMs() - local_start;
  result.metrics.simulated_remote_ms = VirtualNow(db) - virtual_before;
  result.metrics.total_ms =
      result.metrics.local_ms + result.metrics.simulated_remote_ms;
  result.metrics.rows = table->num_rows();
  federation::StatementRemoteStats remote = db.sda().stats();
  result.metrics.remote_calls = remote.remote_calls;
  result.metrics.mapreduce_jobs = remote.mapreduce_jobs;
  result.metrics.remote_cache_hit = remote.any_cache_hit;
  result.metrics.remote_materialization = remote.any_materialization;
  result.table = std::move(*table);

  double execute_ms = tracer->Duration(execute);
  t->selects += 1;
  t->execute_ms += execute_ms;
  t->cpu_ms += cpu;
  t->pipelines += static_cast<double>(stats.size());
  if (stats.empty()) t->serial_fallbacks += 1;
  for (const exec::PipelineStats& p : stats) {
    t->morsels += static_cast<double>(p.morsels);
    t->pipeline_wall_ms += p.wall_ms;
    t->pipeline_cpu_ms += p.cpu_ms;
    t->agg_groups += static_cast<double>(p.agg_groups);
  }
  t->result_rows += static_cast<double>(result.table.num_rows());
  t->result_cells += static_cast<double>(result.table.num_rows() *
                                         result.table.schema()->num_columns());
  t->remote_calls += static_cast<double>(remote.remote_calls);
  t->rows_fetched += static_cast<double>(remote.rows_fetched);
  t->mapreduce_jobs += static_cast<double>(remote.mapreduce_jobs);
  if (ctx.options.use_remote_cache) {
    t->cache_attempts += 1;
    if (remote.any_cache_hit) t->cache_hits += 1;
  }
  t->local_ms += result.metrics.local_ms;
  t->remote_virtual_ms += result.metrics.simulated_remote_ms;
  extended::ExtendedStoreMetrics ext_after = ExtendedMetrics(db);
  t->blocks_read +=
      static_cast<double>(ext_after.blocks_read - ext_before.blocks_read);
  t->bytes_read +=
      static_cast<double>(ext_after.bytes_read - ext_before.bytes_read);
  t->simulated_io_ms += ext_after.simulated_io_ms - ext_before.simulated_io_ms;
  if (tpch_query != 0) {
    auto& [ms, n] = t->query_exec[tpch_query];
    ms += execute_ms;
    n += 1;
  }
  return result;
}

/// Outcome of one executed statement.
struct Outcome {
  bool ok = false;
  double wall_ms = 0;
  double remote_ms = 0;  // QueryMetrics::simulated_remote_ms.
};

Outcome RunPlain(platform::Platform& db, Workload& w, size_t c,
                 const std::string& sql) {
  double start = NowMs();
  Result<platform::ExecResult> result = db.Execute(sql);
  Outcome o;
  o.wall_ms = NowMs() - start;
  if (result.ok()) {
    o.ok = w.Check(c, *result);
    o.remote_ms = result->metrics.simulated_remote_ms;
  }
  return o;
}

Outcome RunTraced(platform::Platform& db, Workload& w, size_t c,
                  const std::string& sql, uint64_t id, Tracer* tracer,
                  LayerTotals* t) {
  int root = tracer->Begin("statement", -1, id);
  int parse = tracer->Begin("sql.parse", root, id);
  Result<sql::StmtPtr> parsed = sql::ParseStatement(sql);
  tracer->End(parse);
  Result<platform::ExecResult> result = parsed.status();
  if (parsed.ok() && (*parsed)->kind() == sql::StmtKind::kSelect) {
    result = TracedSelect(db, static_cast<const sql::SelectStmt&>(**parsed),
                          tracer, root, id, w.classes()[c].tpch_query, t);
  } else if (parsed.ok()) {
    // Writes go through Platform::Execute whole; it parses again, so the
    // write path's own time is Execute minus the parse.
    int execute = tracer->Begin("platform.execute", root, id);
    result = db.Execute(sql);
    tracer->End(execute);
    t->write_apply_ms += tracer->Duration(execute) - tracer->Duration(parse);
  }
  tracer->End(root);
  t->statements += 1;
  t->stmt_bytes += static_cast<double>(sql.size());
  Outcome o;
  o.wall_ms = tracer->Duration(root);
  if (result.ok()) {
    o.ok = w.Check(c, *result);
    o.remote_ms = result->metrics.simulated_remote_ms;
  }
  return o;
}

// ---- Storage counters ----------------------------------------------------

struct StorageTotals {
  double main_bytes = 0;
  double delta_bytes = 0;
  double merges = 0;
  double rows_merged = 0;
  double merge_ms = 0;
  double rows_retained = 0;
};

void AddTable(const storage::ColumnTable& table, StorageTotals* s) {
  s->main_bytes += static_cast<double>(table.MainMemoryBytes());
  s->delta_bytes += static_cast<double>(table.DeltaMemoryBytes());
  const storage::MergeStats& m = table.merge_stats();
  s->merges += static_cast<double>(m.merges_completed.load(std::memory_order_relaxed));
  s->rows_merged += static_cast<double>(m.rows_merged.load(std::memory_order_relaxed));
  s->merge_ms +=
      static_cast<double>(m.merge_micros.load(std::memory_order_relaxed)) / 1e3;
  s->rows_retained += static_cast<double>(
      m.rows_retained_by_watermark.load(std::memory_order_relaxed));
}

StorageTotals ReadStorage(platform::Platform& db) {
  StorageTotals s;
  for (const std::string& name : db.catalog().TableNames()) {
    Result<catalog::TableEntry*> entry = db.catalog().GetTable(name);
    if (!entry.ok()) continue;  // Virtual tables hold no local storage.
    if ((*entry)->column_table != nullptr) AddTable(*(*entry)->column_table, &s);
    for (const catalog::Partition& p : (*entry)->partitions) {
      if (p.hot != nullptr) AddTable(*p.hot, &s);
    }
  }
  return s;
}

// ---- Main ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool seen_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      seen_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (!seen_workload) Fail("--workload is required");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) Fail("unknown workload " + args.workload);
  const std::vector<StatementClass>& classes = w->classes();
  const size_t nc = classes.size();
  const size_t threads = UsableCores();

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# host_cores=%u threads=%zu scale_factor=%g classes=%zu "
              "warmup_rounds=%d\n",
              std::thread::hardware_concurrency(), threads, w->scale_factor(),
              nc, kWarmupRounds);

  const double chase_before = ChaseNanosPerLoad(args.seed);
  w->Generate(args.seed);

  // Set-up, repeated; the last platform is the one measured.
  const fs::path work =
      fs::absolute(args.workdir) /
      (args.workload + "_" + std::to_string(::getpid()));
  std::unique_ptr<platform::Platform> db;
  std::vector<double> setup_s, load_ms, merge_ms;
  SetupTimes times;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    fs::remove_all(work);
    platform::PlatformOptions options;
    options.workspace_dir = (work / std::to_string(i)).string();
    options.num_threads = threads;
    times = SetupTimes();
    double start = NowMs();
    db = std::make_unique<platform::Platform>(options);
    w->Load(*db, &times);
    setup_s.push_back((NowMs() - start) / 1e3);
    load_ms.push_back(times.load_ms);
    merge_ms.push_back(times.merge_ms);
  }
  StorageTotals loaded = ReadStorage(*db);
  w->DropInputs();
  std::printf("# setups=%zu setup_s:", setup_s.size());
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  w->Prepare(*db);

  size_t attempted = 0, failed = 0;
  for (int r = 0; r < kWarmupRounds; ++r) {
    for (size_t c = 0; c < nc; ++c) {
      Outcome o = RunPlain(*db, *w, c, w->Next(*db, c));
      ++attempted;
      if (!o.ok) {
        ++failed;
        std::printf("# FAILED (warm-up) %s\n", classes[c].name.c_str());
      }
    }
  }

  StorageTotals before = ReadStorage(*db);

  // Measured window: classes round-robin, so host drift hits every class
  // alike. With --trace 1, odd rounds are traced.
  std::vector<std::vector<double>> lat(nc), lat_incl_remote(nc);
  std::vector<size_t> failed_by_class(nc, 0);
  double busy_ms[2] = {0, 0};
  double done[2] = {0, 0};
  Tracer tracer;
  LayerTotals layers;
  const double deadline = NowMs() + args.seconds * 1e3;
  for (size_t i = 0; NowMs() < deadline; ++i) {
    size_t c = i % nc;
    bool traced = args.trace && (i / nc) % 2 == 1;
    std::string sql = w->Next(*db, c);
    Outcome o = traced ? RunTraced(*db, *w, c, sql, i, &tracer, &layers)
                       : RunPlain(*db, *w, c, sql);
    ++attempted;
    if (!o.ok) {
      ++failed;
      ++failed_by_class[c];
    }
    busy_ms[traced] += o.wall_ms;
    done[traced] += 1;
    if (!traced) {
      lat[c].push_back(o.wall_ms);
      lat_incl_remote[c].push_back(o.wall_ms + o.remote_ms);
    }
  }
  StorageTotals after = ReadStorage(*db);
  const double peak_rss_mb = PeakRssMb();
  const double chase_after = ChaseNanosPerLoad(args.seed);
  std::printf("# memory_latency_ns: before=%.1f after=%.1f "
              "(64 MiB pointer chase; diagnostic only)\n",
              chase_before, chase_after);

  // Per-class summaries.
  std::vector<double> medians, tails, medians_incl_remote;
  std::printf("# %-18s %7s %12s %12s %8s %14s\n", "class", "samples",
              "median_ms", "tail_ms", "tail_pct", "incl_remote_ms");
  for (size_t c = 0; c < nc; ++c) {
    if (lat[c].empty()) Fail("class " + classes[c].name + " got no samples");
    auto [tail, pct] = Tail(lat[c]);
    medians.push_back(Median(lat[c]));
    tails.push_back(tail);
    medians_incl_remote.push_back(Median(lat_incl_remote[c]));
    std::printf("# %-18s %7zu %12.4f %12.4f %8.1f %14.4f%s\n",
                classes[c].name.c_str(), lat[c].size(), medians.back(), tail,
                pct, medians_incl_remote.back(),
                failed_by_class[c] > 0 ? "  FAILED" : "");
  }
  std::printf("# storage: merges=%.0f rows_merged=%.0f in the window\n",
              after.merges - before.merges,
              after.rows_merged - before.rows_merged);

  const double stmt_per_s = Rate(done[0], busy_ms[0]);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"stmt_per_s", stmt_per_s, "1/s"},
        {"lat_geomean_ms", GeoMean(medians), "ms"},
        {"lat_tail_geomean_ms", GeoMean(tails), "ms"},
        {"lat_incl_remote_geomean_ms", GeoMean(medians_incl_remote), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    tracer.Write(args.trace_out);
    const double n = std::max(1.0, layers.statements);
    std::map<std::string, double> self = tracer.SelfMs();
    const double traced_per_s = Rate(done[1], busy_ms[1]);
    const double parallelism =
        layers.execute_ms > 0 ? layers.cpu_ms / layers.execute_ms : 0;
    std::printf("# exec.parallelism = exec cpu %.3f ms / exec wall %.3f ms "
                "over %.0f SELECTs\n",
                layers.cpu_ms, layers.execute_ms, layers.selects);
    std::printf("# trace: %.0f traced and %.0f untraced statements\n",
                done[1], done[0]);
    metrics = {
        {"sql.parse_ms", self["sql.parse"] / n, "ms"},
        {"sql.stmt_bytes", layers.stmt_bytes / n, "bytes"},
        {"plan.bind_ms", self["plan.bind"] / n, "ms"},
        {"optimizer.optimize_ms", self["optimizer.optimize"] / n, "ms"},
        {"optimizer.plan_nodes", layers.plan_nodes / n, "count"},
        {"optimizer.remote_queries", layers.remote_queries / n, "count"},
        {"exec.execute_ms", self["exec.execute"] / n, "ms"},
        {"exec.cpu_ms", layers.cpu_ms / n, "ms"},
        {"exec.parallelism", parallelism, "ratio"},
        {"exec.pipelines", layers.pipelines / n, "count"},
        {"exec.morsels", layers.morsels / n, "count"},
        {"exec.pipeline_wall_ms", layers.pipeline_wall_ms / n, "ms"},
        {"exec.pipeline_cpu_ms", layers.pipeline_cpu_ms / n, "ms"},
        {"exec.serial_fallbacks",
         layers.serial_fallbacks / std::max(1.0, layers.selects), "ratio"},
        {"exec.agg_groups", layers.agg_groups / n, "count"},
        {"exec.result_rows", layers.result_rows / n, "count"},
        {"exec.result_cells", layers.result_cells / n, "count"},
    };
    for (int q : tpch::BenchmarkQueries()) {
      auto it = layers.query_exec.find(q);
      double ms = it == layers.query_exec.end()
                      ? 0
                      : it->second.first / it->second.second;
      metrics.push_back({"exec.q" + std::to_string(q) + "_ms", ms, "ms"});
    }
    const double window_n = std::max(1.0, done[0] + done[1]);
    std::vector<Metric> rest = {
        {"storage.load_ms", Median(load_ms), "ms"},
        {"storage.merge_ms", Median(merge_ms), "ms"},
        {"storage.main_mb", after.main_bytes / (1 << 20), "MB"},
        {"storage.delta_mb", after.delta_bytes / (1 << 20), "MB"},
        {"storage.bytes_per_input_byte",
         (loaded.main_bytes + loaded.delta_bytes) /
             std::max(1.0, times.input_bytes),
         "ratio"},
        {"storage.auto_merges", after.merges - before.merges, "count"},
        {"storage.rows_merged", after.rows_merged - before.rows_merged,
         "count"},
        {"storage.merge_busy_ms", (after.merge_ms - before.merge_ms) / window_n,
         "ms"},
        {"storage.rows_retained_by_watermark",
         after.rows_retained - before.rows_retained, "count"},
        {"htap.write_apply_ms", layers.write_apply_ms / n, "ms"},
        {"federation.remote_calls", layers.remote_calls / n, "count"},
        {"federation.rows_fetched", layers.rows_fetched / n, "count"},
        {"federation.mapreduce_jobs", layers.mapreduce_jobs / n, "count"},
        {"federation.cache_hit_ratio",
         layers.cache_attempts > 0 ? layers.cache_hits / layers.cache_attempts
                                   : 0,
         "ratio"},
        {"federation.local_ms", layers.local_ms / n, "ms"},
        {"federation.remote_virtual_ms", layers.remote_virtual_ms / n, "ms"},
        {"extended.blocks_read", layers.blocks_read / n, "count"},
        {"extended.bytes_read", layers.bytes_read / n, "bytes"},
        {"extended.simulated_io_ms", layers.simulated_io_ms / n, "ms"},
        {"trace.untraced_stmt_per_s", stmt_per_s, "1/s"},
        {"trace.traced_stmt_per_s", traced_per_s, "1/s"},
        {"trace.overhead_pct",
         stmt_per_s > 0 ? 100.0 * (stmt_per_s - traced_per_s) / stmt_per_s : 0,
         "%"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
  }

  db.reset();
  fs::remove_all(work);
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace hana::perfbench

int main(int argc, char** argv) { return hana::perfbench::Main(argc, argv); }
