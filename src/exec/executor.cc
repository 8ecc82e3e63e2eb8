#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/sync.h"
#include "common/task_pool.h"
#include "common/util.h"
#include "exec/evaluator.h"
#include "exec/pipeline.h"
#include "exec/radix_join.h"
#include "storage/column_table.h"

namespace hana::exec {

namespace {

using plan::LogicalOp;

size_t ProbeStageCount(const Pipeline& p) {
  size_t n = 0;
  for (const PipelineStage& s : p.stages) {
    if (s.kind == PipelineStage::Kind::kJoinProbe) ++n;
  }
  return n;
}

/// Radix partition count of a kGroups sink: the knob override wins,
/// then the optimizer's stamp from group-cardinality stats, then the
/// default. parallel_agg=off forces the single-partition legacy fold.
/// Purely a function of the plan and the policy — never of the thread
/// count — and the partition count itself never changes results (the
/// rank-ordered emit is partition-agnostic), only scheduling.
size_t AggPartitionCount(const Pipeline& p, const ParallelPolicy& policy) {
  if (!policy.parallel_agg) return 1;
  if (policy.agg_partitions > 0) return policy.agg_partitions;
  if (p.sink_op->agg_partitions > 0) {
    return static_cast<size_t>(p.sink_op->agg_partitions);
  }
  return DefaultAggPartitions(p.sink_op->group_by);
}

/// Row cap of a LIMIT-capped kCollect sink, or nullopt.
std::optional<uint64_t> RowCap(const Pipeline& p) {
  if (p.sink != Pipeline::SinkKind::kCollect || p.sink_op == nullptr) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(std::max<int64_t>(0, p.sink_op->limit));
}

/// First `rows` rows of `chunk`.
Chunk HeadRows(const Chunk& chunk, size_t rows) {
  Chunk out = Chunk::Empty(chunk.schema);
  for (size_t r = 0; r < rows; ++r) out.AppendRowFrom(chunk, r);
  return out;
}

/// Runtime state of one pipeline. Morsel-indexed members are sized at
/// Prepare() and each index is touched by exactly one worker; the
/// completion counter publishes them to whichever thread merges.
struct PipelineRun {
  const Pipeline* p = nullptr;

  std::optional<PartitionSource> partition;  // kScan, when partitionable.
  size_t num_morsels = 0;
  // atomic: relaxed morsel counter — fetch_add hands out disjoint
  // indices; morsel results are published by workers_remaining below.
  std::atomic<size_t> next_morsel{0};
  // atomic: acq_rel completion counter — the final decrement's
  // release pairs with the merging thread's acquire load, publishing
  // every per-morsel slot write.
  std::atomic<size_t> workers_remaining{0};
  std::vector<Status> statuses;               // Per morsel.
  std::vector<std::vector<Chunk>> collected;  // kCollect / kSort / NL build.
  std::vector<uint64_t> collected_rows;       // Per morsel, capped kCollect.
  /// kGroups: per-morsel radix-partitioned partials (phase 1).
  std::vector<std::unique_ptr<PartitionedGroupTable>> partials;
  size_t agg_partitions = 0;  // kGroups: phase-2 partition count.
  uint64_t agg_groups = 0;    // kGroups: groups emitted.

  /// Merged result chunks (consumed by dependents or the caller).
  std::vector<Chunk> output;
  Status final_status;

  Stopwatch wall;
  double wall_ms = 0.0;
  // atomic: relaxed stats counters; read only after the pipeline's
  // completion counter has synchronized, or for approximate progress.
  std::atomic<uint64_t> rows{0};
  // atomic: relaxed stats counter, same publication rule as rows.
  std::atomic<int64_t> cpu_us{0};
};

/// Drives one decomposed plan to completion. Two schedules share the
/// same morsel decomposition and the same morsel-order merges, so their
/// results are bit-identical; only the wall-clock overlap differs:
///   inline — no pool or dop 1: pipelines in id (topological) order,
///            morsels on the calling thread.
///   DAG    — every dependency-free pipeline scheduled on the pool at
///            once; a dynamic SDA bracket (opened when the number of
///            in-flight pipelines reaches 2, closed when it drops back
///            to 1) charges concurrently dispatched federation branches
///            max instead of sum.
///
/// Lock order: mu_ may be held while entering the SDA dispatch bracket
/// (mu_ -> sda dispatch_mu_); tasks are never submitted and
/// TryRunOneTask is never called while holding mu_ (TaskPool::mu_ is a
/// leaf and a popped task may itself lock mu_ on completion).
class PipelineExecutor {
 public:
  PipelineExecutor(PipelinePlan* plan, ExecContext* ctx, ParallelPolicy policy,
                   const mvcc::ReadView& view)
      : plan_(plan),
        ctx_(ctx),
        policy_(policy),
        view_(view),
        runs_(plan->pipelines.size()),
        dependents_(plan->pipelines.size()),
        pending_(plan->pipelines.size(), 0),
        done_(plan->pipelines.size(), 0) {
    for (size_t i = 0; i < runs_.size(); ++i) {
      runs_[i].p = &plan_->pipelines[i];
    }
    for (const Pipeline& p : plan_->pipelines) {
      for (size_t d : p.deps) dependents_[d].push_back(p.id);
    }
  }

  /// Runs every pipeline, returning the root pipeline's output chunks.
  /// The reported error is deterministic: within a pipeline the first
  /// failing morsel in morsel order wins, across pipelines the lowest
  /// failed pipeline id wins, and dependents of a failed pipeline are
  /// skipped (inheriting its status) rather than run.
  [[nodiscard]] Result<std::vector<Chunk>> Run(
      std::vector<PipelineStats>* stats) {
    if (policy_.pool != nullptr && policy_.dop > 1) {
      RunConcurrent();
    } else {
      RunInline();
    }
    if (stats != nullptr) {
      for (const PipelineRun& run : runs_) {
        PipelineStats st;
        st.id = run.p->id;
        st.label = run.p->label;
        st.morsels = run.num_morsels;
        st.rows = run.rows.load(std::memory_order_relaxed);
        st.wall_ms = run.wall_ms;
        st.cpu_ms =
            static_cast<double>(run.cpu_us.load(std::memory_order_relaxed)) /
            1000.0;
        st.agg_partitions = run.agg_partitions;
        st.agg_groups = run.agg_groups;
        stats->push_back(std::move(st));
      }
    }
    for (PipelineRun& run : runs_) {
      HANA_RETURN_IF_ERROR(run.final_status);
    }
    return std::move(runs_.back().output);
  }

 private:
  /// First failed dependency (lowest pipeline id) of `run`, or OK.
  Status DepsStatus(const PipelineRun& run) const {
    size_t best = runs_.size();
    for (size_t d : run.p->deps) {
      if (!runs_[d].final_status.ok() && d < best) best = d;
    }
    return best < runs_.size() ? runs_[best].final_status : Status::OK();
  }

  void RunInline() {
    for (PipelineRun& run : runs_) {
      Status dep = DepsStatus(run);
      if (!dep.ok()) {
        run.final_status = std::move(dep);
        continue;
      }
      run.wall.Reset();
      Status st = Prepare(run);
      if (st.ok()) {
        std::vector<RadixJoinTable::ProbeKeys> scratch(ProbeStageCount(*run.p));
        for (size_t m = 0; m < run.num_morsels; ++m) {
          run.statuses[m] = ProcessMorsel(run, m, &scratch);
        }
        st = Finish(run);
      }
      run.final_status = std::move(st);
      run.wall_ms = run.wall.ElapsedMillis();
      run.cpu_us.store(static_cast<int64_t>(run.wall_ms * 1000.0),
                       std::memory_order_relaxed);
    }
  }

  void RunConcurrent() {
    {
      MutexLock lock(mu_);
      for (size_t i = 0; i < runs_.size(); ++i) {
        pending_[i] = runs_[i].p->deps.size();
        if (pending_[i] == 0) ready_.push_back(i);
      }
    }
    while (true) {
      std::vector<size_t> batch;
      {
        MutexLock lock(mu_);
        if (done_count_ == runs_.size()) break;
        batch.swap(ready_);
        if (!batch.empty()) {
          // Open the SDA bracket BEFORE the batch's tasks can dispatch
          // remote branches, so overlapping federation latencies charge
          // max instead of sum (Union Plan execution, Section 5). The
          // bracket call stays under mu_ (lock order mu_ -> SDA
          // dispatch_mu_) so Begin/End reach the SDA in the same order
          // as the region_open_ transitions; issued outside the lock, a
          // racing completion's End could run first, no-op at depth
          // zero, and leave the region depth unbalanced across
          // statements.
          if (in_flight_ + batch.size() >= 2 && !region_open_) {
            region_open_ = true;
            ctx_->BeginConcurrentRemoteDispatch();
          }
          in_flight_ += batch.size();
        }
      }
      if (!batch.empty()) {
        std::sort(batch.begin(), batch.end());  // Launch order: id order.
        for (size_t id : batch) Launch(runs_[id]);
        continue;
      }
      // Nothing ready: help drain the pool, then sleep until a
      // completion changes the schedule. TryRunOneTask drains FIFO, so
      // this thread eventually runs its own queued tasks — the untimed
      // wait below can always be satisfied.
      if (policy_.pool->TryRunOneTask()) continue;
      MutexLock lock(mu_);
      if (ready_.empty() && done_count_ < runs_.size()) cv_.Wait(mu_);
    }
    {
      MutexLock lock(mu_);
      if (region_open_) {
        region_open_ = false;
        ctx_->EndConcurrentRemoteDispatch();
      }
    }
  }

  /// Prepares and schedules one pipeline's morsel tasks on the pool.
  void Launch(PipelineRun& run) {
    run.wall.Reset();
    Status st = Prepare(run);
    if (!st.ok()) {
      CompleteLaunched(run, std::move(st));
      return;
    }
    size_t n = run.num_morsels;
    if (n == 0) {
      // Empty source (zero-morsel table): nothing to schedule, merge
      // directly — kGroups still emits the global-aggregate row.
      CompleteLaunched(run, Finish(run));
      return;
    }
    size_t probes = ProbeStageCount(*run.p);
    size_t k = std::min(policy_.dop, n);
    run.workers_remaining.store(k, std::memory_order_relaxed);
    for (size_t t = 0; t < k; ++t) {
      policy_.pool->Submit([this, &run, probes] {
        Stopwatch sw;
        std::vector<RadixJoinTable::ProbeKeys> scratch(probes);
        while (true) {
          size_t m = run.next_morsel.fetch_add(1, std::memory_order_relaxed);
          if (m >= run.num_morsels) break;
          run.statuses[m] = ProcessMorsel(run, m, &scratch);
        }
        run.cpu_us.fetch_add(static_cast<int64_t>(sw.ElapsedMillis() * 1000.0),
                             std::memory_order_relaxed);
        if (run.workers_remaining.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          // Last worker out merges and completes the pipeline.
          CompleteLaunched(run, Finish(run));
        }
      });
    }
  }

  /// Completion of a pipeline counted in in_flight_ (concurrent mode).
  void CompleteLaunched(PipelineRun& run, Status st) EXCLUDES(mu_) {
    run.final_status = std::move(st);
    run.wall_ms = run.wall.ElapsedMillis();
    {
      MutexLock lock(mu_);
      MarkDone(run.p->id);
      --in_flight_;
      if (region_open_ && in_flight_ <= 1) {
        region_open_ = false;
        ctx_->EndConcurrentRemoteDispatch();
      }
      cv_.NotifyAll();
    }
  }

  /// Marks a pipeline done and cascades: dependents whose dependencies
  /// all succeeded become ready; dependents of a failure are marked
  /// done immediately with the failed dependency's status.
  void MarkDone(size_t id) REQUIRES(mu_) {
    done_[id] = 1;
    ++done_count_;
    for (size_t d : dependents_[id]) {
      if (--pending_[d] != 0) continue;
      Status dep = DepsStatus(runs_[d]);
      if (dep.ok()) {
        ready_.push_back(d);
      } else {
        runs_[d].final_status = std::move(dep);
        MarkDone(d);
      }
    }
  }

  /// Resolves the source into a morsel count and creates the pipeline's
  /// join build state when it feeds one.
  [[nodiscard]] Status Prepare(PipelineRun& run) {
    const Pipeline& p = *run.p;
    run.num_morsels = 1;
    run.partition.reset();
    if (p.source == Pipeline::SourceKind::kScan) {
      HANA_ASSIGN_OR_RETURN(
          run.partition,
          ctx_->OpenPartitionedScan(*p.source_op, policy_.morsel_rows, view_));
      if (run.partition.has_value()) {
        run.num_morsels = run.partition->num_morsels;
      }
      // Non-partitionable scan targets (remote, hybrid umbrella) fall
      // back to a single morsel streaming through OpenScan.
    }
    if (p.sink == Pipeline::SinkKind::kJoinBuild) {
      JoinBuildState* b = p.build_target;
      if (b->nested_loop) {
        if (b->join->condition != nullptr &&
            b->join->join_kind != plan::JoinKind::kCross) {
          // A conditioned join with no usable equi key: falling off the
          // hash path is worth noticing — count it and log.
          GlobalJoinExecStats().nested_loop_fallbacks.fetch_add(
              1, std::memory_order_relaxed);
          HANA_LOG(LogLevel::kDebug,
                   "join fell back to nested-loop: no equi key in " +
                       b->join->condition->ToString());
        }
      } else {
        bool vectorized = plan::EquiKeysVectorizable(b->parts);
        b->table = std::make_unique<RadixJoinTable>(
            b->build->schema, b->build_key_exprs, vectorized,
            b->join->perfect_hash);
        GlobalJoinExecStats().radix_hash_joins.fetch_add(
            1, std::memory_order_relaxed);
        if (!vectorized) {
          GlobalJoinExecStats().boxed_key_builds.fetch_add(
              1, std::memory_order_relaxed);
        }
        b->table->SetNumMorsels(run.num_morsels);
      }
    }
    run.statuses.assign(run.num_morsels, Status::OK());
    if (p.sink == Pipeline::SinkKind::kGroups) {
      run.partials.clear();
      run.partials.resize(run.num_morsels);
    } else {
      run.collected.assign(run.num_morsels, {});
    }
    if (RowCap(p).has_value()) run.collected_rows.assign(run.num_morsels, 0);
    run.next_morsel.store(0, std::memory_order_relaxed);
    run.output.clear();
    return Status::OK();
  }

  /// Capped kCollect: true once morsel m holds the cap.
  bool MorselFull(const PipelineRun& run, size_t m) const {
    std::optional<uint64_t> cap = RowCap(*run.p);
    return cap.has_value() && run.collected_rows[m] >= *cap;
  }

  /// Opens a kStream source: a table function, or a remote query that
  /// first uploads its relocated local child or ships the semijoin
  /// IN-list of the collected probe side.
  [[nodiscard]] Result<ChunkStream> OpenStream(const Pipeline& p) {
    const LogicalOp& op = *p.source_op;
    if (op.kind == plan::LogicalKind::kTableFunctionScan) {
      return ctx_->OpenTableFunction(op);
    }
    if (p.in_list_from.has_value()) {
      // Distinct non-null values of the first equi key drive the IN-list.
      const JoinBuildState& b = *p.build_target;
      if (b.parts.equi_keys.empty()) {
        return Status::Internal("semijoin pushdown requires an equi key");
      }
      const plan::BoundExpr& key = *b.parts.equi_keys[0].left;
      PushdownInList in_list;
      in_list.column = b.join->pushdown_remote_column;
      std::unordered_set<Value, storage::ValueHash> seen;
      for (const Chunk& chunk : runs_[*p.in_list_from].output) {
        for (size_t r = 0; r < chunk.num_rows(); ++r) {
          HANA_ASSIGN_OR_RETURN(Value v, EvalExpr(key, chunk, r));
          if (!v.is_null() && seen.insert(v).second) {
            in_list.values.push_back(std::move(v));
          }
        }
      }
      return ctx_->OpenRemoteQuery(op, &in_list, nullptr);
    }
    if (!p.upstream.empty()) {
      storage::Table relocated(op.children[0]->schema);
      for (Chunk& chunk : runs_[p.upstream[0]].output) {
        relocated.AppendChunk(std::move(chunk));
      }
      runs_[p.upstream[0]].output.clear();
      return ctx_->OpenRemoteQuery(op, nullptr, &relocated);
    }
    return ctx_->OpenRemoteQuery(op, nullptr, nullptr);
  }

  /// Streams morsel m's chunks from the source through the stage chain
  /// into the sink. Per-morsel state depends only on the morsel index.
  [[nodiscard]] Status ProcessMorsel(
      PipelineRun& run, size_t m,
      std::vector<RadixJoinTable::ProbeKeys>* scratch) {
    const Pipeline& p = *run.p;
    PartitionedGroupTable* partial = nullptr;
    if (p.sink == Pipeline::SinkKind::kGroups) {
      // Phase 1: each morsel accumulates into its own partitioned
      // partial (thread-local by construction — one worker per morsel).
      // parallel_agg=off keeps the legacy boxed row-at-a-time layout.
      run.partials[m] = std::make_unique<PartitionedGroupTable>(
          &p.sink_op->group_by, &p.sink_op->aggregates,
          AggPartitionCount(p, policy_), policy_.parallel_agg);
      run.partials[m]->BeginMorsel(static_cast<uint32_t>(m));
      partial = run.partials[m].get();
    }
    auto feed = [&](const Chunk& chunk) {
      return ProcessChunk(run, m, chunk, partial, scratch);
    };
    auto drain = [&](ChunkStream& stream) -> Status {
      while (!MorselFull(run, m)) {
        HANA_ASSIGN_OR_RETURN(std::optional<Chunk> chunk, stream());
        if (!chunk.has_value()) break;
        HANA_RETURN_IF_ERROR(feed(*chunk));
      }
      return Status::OK();
    };
    switch (p.source) {
      case Pipeline::SourceKind::kScan: {
        if (run.partition.has_value()) {
          Status inner = Status::OK();
          Status scan_status =
              run.partition->scan_morsel(m, [&](const Chunk& in) {
                inner = feed(in);
                return inner.ok() && !MorselFull(run, m);
              });
          HANA_RETURN_IF_ERROR(inner);
          return scan_status;
        }
        HANA_ASSIGN_OR_RETURN(ChunkStream stream,
                              ctx_->OpenScan(*p.source_op, view_));
        return drain(stream);
      }
      case Pipeline::SourceKind::kStream: {
        HANA_ASSIGN_OR_RETURN(ChunkStream stream, OpenStream(p));
        return drain(stream);
      }
      case Pipeline::SourceKind::kUpstream: {
        // Upstream outputs as one morsel, one chunk from each upstream
        // in turn (round-robin), so one chunk-heavy union branch cannot
        // monopolize the stream and a LIMIT cutoff sees every branch
        // early. The producers finished before this pipeline launched,
        // so their chunks can be consumed destructively (single
        // consumer).
        for (size_t round = 0, live = 1; live > 0; ++round) {
          live = 0;
          for (size_t uid : p.upstream) {
            std::vector<Chunk>& chunks = runs_[uid].output;
            if (round >= chunks.size() || MorselFull(run, m)) continue;
            ++live;
            chunks[round].schema = p.source_schema;  // Union restamp.
            HANA_RETURN_IF_ERROR(feed(chunks[round]));
          }
        }
        for (size_t uid : p.upstream) runs_[uid].output.clear();
        return Status::OK();
      }
      case Pipeline::SourceKind::kOneRow: {
        // Table-less SELECT: exactly one row of constants.
        static const std::vector<Value> kEmptyRow;
        const LogicalOp& project = *p.source_op;
        Chunk row = Chunk::Empty(project.schema);
        for (size_t c = 0; c < project.exprs.size(); ++c) {
          HANA_ASSIGN_OR_RETURN(Value v,
                                EvalExprRow(*project.exprs[c], kEmptyRow));
          row.columns[c]->Append(v);
        }
        return feed(row);
      }
    }
    return Status::Internal("unknown pipeline source");
  }

  /// Runs the stage chain over one chunk, then feeds the sink.
  [[nodiscard]] Status ProcessChunk(
      PipelineRun& run, size_t m, const Chunk& in,
      PartitionedGroupTable* partial,
      std::vector<RadixJoinTable::ProbeKeys>* scratch) {
    const Pipeline& p = *run.p;
    if (MorselFull(run, m)) return Status::OK();  // LIMIT 0.
    Chunk owned;
    const Chunk* stage = &in;
    size_t probe_idx = 0;
    for (const PipelineStage& s : p.stages) {
      if (s.kind == PipelineStage::Kind::kFilter) {
        HANA_ASSIGN_OR_RETURN(owned, FilterChunk(*s.op->predicate, *stage));
      } else if (s.kind == PipelineStage::Kind::kProject) {
        HANA_ASSIGN_OR_RETURN(owned, ProjectChunk(*s.op, *stage));
      } else if (s.kind == PipelineStage::Kind::kJoinProbe) {
        HANA_ASSIGN_OR_RETURN(
            owned, ProbeJoinChunk(*s.build, *stage, &(*scratch)[probe_idx]));
        ++probe_idx;
      } else {  // kNestedLoopProbe
        HANA_ASSIGN_OR_RETURN(owned, NestedLoopJoinChunk(*s.build, *stage));
      }
      stage = &owned;
    }
    if (p.sink == Pipeline::SinkKind::kGroups) {
      return partial->AccumulateChunk(*stage);
    }
    if (p.sink == Pipeline::SinkKind::kJoinBuild &&
        !p.build_target->nested_loop) {
      run.rows.fetch_add(stage->num_rows(), std::memory_order_relaxed);
      return p.build_target->table->AddBuildChunk(m, *stage);
    }
    // Collected sinks: kCollect, kSort and nested-loop builds.
    if (stage->num_rows() == 0) return Status::OK();
    Chunk out = stage == &in ? in : std::move(owned);
    out.schema = p.output_schema;
    if (std::optional<uint64_t> cap = RowCap(p); cap.has_value()) {
      uint64_t room = *cap - run.collected_rows[m];
      if (out.num_rows() > room) out = HeadRows(out, room);
      run.collected_rows[m] += out.num_rows();
    }
    run.collected[m].push_back(std::move(out));
    return Status::OK();
  }

  /// Merges per-morsel results in ascending morsel order — the step
  /// that makes every schedule (and thread count) bit-identical.
  [[nodiscard]] Status Finish(PipelineRun& run) {
    const Pipeline& p = *run.p;
    // First failure in morsel order wins (deterministic error too).
    for (Status& s : run.statuses) HANA_RETURN_IF_ERROR(s);
    switch (p.sink) {
      case Pipeline::SinkKind::kCollect: {
        // A LIMIT keeps the first `cap` rows in morsel order.
        uint64_t cap = RowCap(p).value_or(UINT64_MAX);
        uint64_t rows = 0;
        for (std::vector<Chunk>& morsel : run.collected) {
          for (Chunk& chunk : morsel) {
            if (rows >= cap) break;
            if (chunk.num_rows() > cap - rows) {
              chunk = HeadRows(chunk, cap - rows);
            }
            rows += chunk.num_rows();
            run.output.push_back(std::move(chunk));
          }
        }
        run.collected.clear();
        run.rows.fetch_add(rows, std::memory_order_relaxed);
        return Status::OK();
      }
      case Pipeline::SinkKind::kGroups: {
        // Phase 2: per-partition merges of the morsel partials, fanned
        // out on the pool — partitions touch disjoint sub-tables, so no
        // locks are needed, and each partition still folds its partials
        // in ascending morsel order (determinism). parallel_agg=off
        // degenerates to the legacy single-partition serial fold.
        PartitionedGroupTable merged(&p.sink_op->group_by,
                                     &p.sink_op->aggregates,
                                     AggPartitionCount(p, policy_),
                                     policy_.parallel_agg);
        size_t parts = merged.num_partitions();
        if (policy_.pool != nullptr && parts > 1 && policy_.dop > 1) {
          // ParallelFor from within a pool task is safe (caller
          // participation — same pattern as RadixJoinTable::Finalize).
          policy_.pool->ParallelFor(
              parts,
              [&](size_t part) { merged.MergePartition(part, run.partials); },
              policy_.dop);
        } else {
          for (size_t part = 0; part < parts; ++part) {
            merged.MergePartition(part, run.partials);
          }
        }
        AggExecStats& stats = GlobalAggExecStats();
        (policy_.parallel_agg ? stats.partitioned_aggs
                              : stats.serial_fold_aggs)
            .fetch_add(1, std::memory_order_relaxed);
        run.partials.clear();
        merged.EnsureGlobalGroup();
        // Rank-ordered emit across partitions reproduces the serial
        // first-seen group order bit-identically.
        Chunk out = Chunk::Empty(p.output_schema);
        merged.EmitInOrder([&](const GroupTable& t, size_t g) {
          out.AppendRow(t.EmitRow(g));
          if (out.num_rows() >= storage::kDefaultChunkRows) {
            run.output.push_back(std::move(out));
            out = Chunk::Empty(p.output_schema);
          }
        });
        if (out.num_rows() > 0) run.output.push_back(std::move(out));
        run.agg_partitions = parts;
        run.agg_groups = merged.num_groups();
        run.rows.store(merged.num_groups(), std::memory_order_relaxed);
        return Status::OK();
      }
      case Pipeline::SinkKind::kJoinBuild: {
        JoinBuildState* b = p.build_target;
        if (!b->nested_loop) {
          return b->table->Finalize(policy_.pool, policy_.dop);
        }
        b->rows.clear();
        for (const std::vector<Chunk>& morsel : run.collected) {
          for (const Chunk& chunk : morsel) {
            for (size_t r = 0; r < chunk.num_rows(); ++r) {
              b->rows.push_back(chunk.Row(r));
            }
          }
        }
        run.collected.clear();
        run.rows.store(b->rows.size(), std::memory_order_relaxed);
        return Status::OK();
      }
      case Pipeline::SinkKind::kSort: {
        std::vector<std::vector<Value>> rows;
        for (std::vector<Chunk>& morsel : run.collected) {
          for (const Chunk& chunk : morsel) {
            for (size_t r = 0; r < chunk.num_rows(); ++r) {
              rows.push_back(chunk.Row(r));
            }
          }
        }
        run.collected.clear();
        const std::vector<plan::SortKey>& keys = p.sink_op->sort_keys;
        std::vector<std::vector<Value>> sort_keys(rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          for (const plan::SortKey& k : keys) {
            HANA_ASSIGN_OR_RETURN(Value v, EvalExprRow(*k.expr, rows[i]));
            sort_keys[i].push_back(std::move(v));
          }
        }
        std::vector<size_t> order(rows.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          for (size_t k = 0; k < keys.size(); ++k) {
            int cmp = sort_keys[a][k].Compare(sort_keys[b][k]);
            if (cmp != 0) return keys[k].ascending ? cmp < 0 : cmp > 0;
          }
          return false;
        });
        size_t emitted = 0;
        while (emitted < order.size()) {
          Chunk out = Chunk::Empty(p.output_schema);
          size_t end =
              std::min(order.size(), emitted + storage::kDefaultChunkRows);
          for (; emitted < end; ++emitted) {
            out.AppendRow(rows[order[emitted]]);
          }
          run.output.push_back(std::move(out));
        }
        run.rows.store(rows.size(), std::memory_order_relaxed);
        return Status::OK();
      }
    }
    return Status::Internal("unknown pipeline sink");
  }

  PipelinePlan* plan_;
  ExecContext* ctx_;
  ParallelPolicy policy_;
  mvcc::ReadView view_;  // Every scan of the statement reads here.
  std::vector<PipelineRun> runs_;
  std::vector<std::vector<size_t>> dependents_;  // Immutable after ctor.

  /// Guards the schedule. Acquired before the SDA dispatch bracket
  /// (rank 40 < sda.dispatch 50); never held across TaskPool calls
  /// (Submit / TryRunOneTask).
  Mutex mu_{"executor.schedule", lock_rank::kExecutorSchedule};
  CondVar cv_;
  std::vector<size_t> pending_ GUARDED_BY(mu_);  // Unfinished dep counts.
  std::vector<size_t> ready_ GUARDED_BY(mu_);
  std::vector<char> done_ GUARDED_BY(mu_);
  size_t done_count_ GUARDED_BY(mu_) = 0;
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool region_open_ GUARDED_BY(mu_) = false;
};

void AnnotateNode(LogicalOp* op, const PipelinePlan& plan, int inherited) {
  auto it = plan.op_pipeline.find(op);
  int id = it != plan.op_pipeline.end() ? static_cast<int>(it->second)
                                        : inherited;
  op->pipeline_id = id;
  for (const auto& child : op->children) AnnotateNode(child.get(), plan, id);
}

}  // namespace

Result<storage::Table> ExecutePlanWithStats(const plan::LogicalOp& logical,
                                            ExecContext* ctx,
                                            std::vector<PipelineStats>* stats) {
  if (stats != nullptr) stats->clear();
  // One read lease per statement: every scan the plan opens — across
  // pipelines and morsels — resolves against the same MVCC view, and
  // the lease's snapshot registration holds the merge watermark back
  // until the statement finishes (RAII on return).
  ExecContext::ReadLease lease = ctx->AcquireReadLease();
  PipelinePlan plan = DecomposePlan(logical);
  PipelineExecutor executor(&plan, ctx, ctx->parallel_policy(), lease.view);
  HANA_ASSIGN_OR_RETURN(std::vector<Chunk> chunks, executor.Run(stats));
  storage::Table table(plan.root().output_schema);
  for (Chunk& chunk : chunks) table.AppendChunk(std::move(chunk));
  return table;
}

std::vector<plan::PipelineSummary> AnnotatePipelines(plan::LogicalOp* root) {
  PipelinePlan plan = DecomposePlan(*root);
  AnnotateNode(root, plan, static_cast<int>(plan.root().id));
  std::vector<plan::PipelineSummary> out;
  for (const Pipeline& p : plan.pipelines) {
    plan::PipelineSummary summary;
    summary.id = static_cast<int>(p.id);
    for (size_t d : p.deps) summary.deps.push_back(static_cast<int>(d));
    summary.description = p.label;
    out.push_back(std::move(summary));
  }
  return out;
}

}  // namespace hana::exec
