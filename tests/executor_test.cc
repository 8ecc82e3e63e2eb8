// Every plan runs through the pipeline executor, and its result must
// not depend on the thread count: one plan decomposition shared by the
// inline (dop 1) and DAG (dop > 1) schedules, deterministic morsel
// decomposition, and morsel-order merges at every breaker. The tests
// below pin that invariant on the edge cases (zero-morsel scans,
// single-row tables, breakers producing zero groups, empty build
// sides), on the shapes that need more than scans, filters, projections
// and hash joins (LIMIT, nested-loop and CROSS joins, table-less
// SELECT, the Figure-7 federation strategies), on union plans (branches
// become concurrently scheduled pipelines), and on every TPC-H
// benchmark query at SF 0.01 across thread counts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/radix_join.h"
#include "platform/platform.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace hana::exec {
namespace {

void ExpectTablesIdentical(const storage::Table& a, const storage::Table& b,
                           const std::string& context) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  ASSERT_EQ(a.schema()->num_columns(), b.schema()->num_columns()) << context;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    const auto& arow = a.row(r);
    const auto& brow = b.row(r);
    for (size_t c = 0; c < arow.size(); ++c) {
      ASSERT_EQ(arow[c].is_null(), brow[c].is_null())
          << context << " row " << r << " col " << c;
      ASSERT_TRUE(arow[c] == brow[c])
          << context << " row " << r << " col " << c << ": "
          << arow[c].ToString() << " vs " << brow[c].ToString();
    }
  }
}

/// Runs `query` at threads 1/2/4/8 and asserts every result is
/// cell-for-cell identical to the threads=1 baseline, including row
/// order. Returns the baseline for content assertions.
storage::Table RunThreadMatrixIdentical(platform::Platform* db,
                                        const std::string& query) {
  EXPECT_TRUE(db->SetParameter("threads", "1").ok());
  auto baseline = db->Query(query);
  EXPECT_TRUE(baseline.ok()) << query << ": " << baseline.status().ToString();
  if (!baseline.ok()) return storage::Table(std::make_shared<Schema>());
  for (const char* threads : {"1", "2", "4", "8"}) {
    EXPECT_TRUE(db->SetParameter("threads", threads).ok());
    auto result = db->Query(query);
    std::string context = query + " [threads=" + threads + "]";
    EXPECT_TRUE(result.ok()) << context << ": " << result.status().ToString();
    if (result.ok()) ExpectTablesIdentical(*baseline, *result, context);
  }
  EXPECT_TRUE(db->SetParameter("threads", "0").ok());
  return std::move(*baseline);
}

// ---------------------------------------------------------------------
// Edge cases: zero-morsel scans, single-row tables, empty breakers.
// ---------------------------------------------------------------------

class ExecutorEdgeCases : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    ASSERT_TRUE(db_->Run(R"(
        CREATE TABLE empty_t (k BIGINT, v DOUBLE);
        CREATE TABLE one_row (k BIGINT, v DOUBLE);
        INSERT INTO one_row VALUES (7, 1.25);
        CREATE TABLE one_dim (k BIGINT, name VARCHAR(10));
        INSERT INTO one_dim VALUES (7, 'seven');
        CREATE TABLE small (k BIGINT, name VARCHAR(10));
    )").ok());
    // nums: 1000 rows over 16 morsels; small: 12 rows, one NULL key.
    std::vector<std::vector<Value>> nums, small;
    for (int64_t i = 0; i < kNumsRows; ++i) {
      nums.push_back({Value::Int(i), Value::Int(i % 7),
                      Value::Double(static_cast<double>(i % 13) * 0.5)});
    }
    for (int64_t i = 0; i < 12; ++i) {
      small.push_back({i == 5 ? Value::Null() : Value::Int(i),
                       Value::String("s" + std::to_string(i))});
    }
    sql::CreateTableStmt create;
    create.table = "nums";
    create.columns = {{"k", DataType::kInt64, false},
                      {"g", DataType::kInt64, false},
                      {"v", DataType::kDouble, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(create).ok());
    ASSERT_TRUE(db_->catalog().Insert("nums", nums).ok());
    ASSERT_TRUE(db_->catalog().Insert("small", small).ok());
    // Tiny morsels so even small tables decompose into several tasks.
    ASSERT_TRUE(db_->SetParameter("morsel_rows", "64").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static constexpr int64_t kNumsRows = 1000;
  static platform::Platform* db_;
};

platform::Platform* ExecutorEdgeCases::db_ = nullptr;

TEST_F(ExecutorEdgeCases, EmptyTableScanHasZeroMorsels) {
  storage::Table t =
      RunThreadMatrixIdentical(db_, "SELECT k, v FROM empty_t WHERE k > 0");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(ExecutorEdgeCases, GlobalAggregateOverEmptyInputEmitsOneRow) {
  storage::Table t = RunThreadMatrixIdentical(
      db_, "SELECT COUNT(*) AS n, SUM(v) AS s FROM empty_t");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0)[0].int_value(), 0);
  EXPECT_TRUE(t.row(0)[1].is_null());
}

TEST_F(ExecutorEdgeCases, GroupedBreakerProducingZeroGroups) {
  storage::Table t = RunThreadMatrixIdentical(
      db_, "SELECT k, SUM(v) AS s FROM empty_t GROUP BY k");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(ExecutorEdgeCases, JoinWithEmptyBuildSide) {
  storage::Table inner = RunThreadMatrixIdentical(
      db_, "SELECT o.k FROM one_row o JOIN empty_t e ON o.k = e.k");
  EXPECT_EQ(inner.num_rows(), 0u);
  storage::Table left = RunThreadMatrixIdentical(
      db_,
      "SELECT o.k, e.v FROM one_row o LEFT JOIN empty_t e ON o.k = e.k");
  ASSERT_EQ(left.num_rows(), 1u);
  EXPECT_TRUE(left.row(0)[1].is_null());
}

TEST_F(ExecutorEdgeCases, SingleRowTablesThroughJoinAndAggregate) {
  storage::Table joined = RunThreadMatrixIdentical(
      db_,
      "SELECT o.k, d.name, o.v FROM one_row o JOIN one_dim d ON o.k = d.k");
  ASSERT_EQ(joined.num_rows(), 1u);
  EXPECT_EQ(joined.row(0)[1].string_value(), "seven");
  storage::Table agg = RunThreadMatrixIdentical(
      db_, "SELECT k, COUNT(*) AS n FROM one_row GROUP BY k");
  ASSERT_EQ(agg.num_rows(), 1u);
  EXPECT_EQ(agg.row(0)[1].int_value(), 1);
}

TEST_F(ExecutorEdgeCases, SortBreakerOverEmptyAndSingleRowInputs) {
  storage::Table empty =
      RunThreadMatrixIdentical(db_, "SELECT k FROM empty_t ORDER BY k");
  EXPECT_EQ(empty.num_rows(), 0u);
  storage::Table one =
      RunThreadMatrixIdentical(db_, "SELECT k, v FROM one_row ORDER BY v DESC");
  ASSERT_EQ(one.num_rows(), 1u);
  EXPECT_EQ(one.row(0)[0].int_value(), 7);
}

TEST_F(ExecutorEdgeCases, ExplainRendersPipelineAnnotations) {
  auto plan = db_->Explain(
      "SELECT d.name, SUM(o.v) AS s FROM one_row o "
      "JOIN one_dim d ON o.k = d.k GROUP BY d.name");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Pipelines:"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("[P"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("build"), std::string::npos) << *plan;
}

TEST_F(ExecutorEdgeCases, PipelineStatsSurfaceAfterExecution) {
  ASSERT_TRUE(db_->SetParameter("threads", "4").ok());
  auto result = db_->Query(
      "SELECT o.k, d.name FROM one_row o JOIN one_dim d ON o.k = d.k");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // A join plan needs at least a build pipeline and a probe pipeline.
  EXPECT_GE(db_->last_pipeline_stats().size(), 2u);
}

TEST_F(ExecutorEdgeCases, LimitWithoutOrderByKeepsMorselOrder) {
  storage::Table t =
      RunThreadMatrixIdentical(db_, "SELECT k, v FROM nums LIMIT 100");
  ASSERT_EQ(t.num_rows(), 100u);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(t.row(r)[0].int_value(), static_cast<int64_t>(r));
  }
  // A filtered scan: the cap spans several morsels.
  storage::Table f =
      RunThreadMatrixIdentical(db_, "SELECT k FROM nums WHERE g = 3 LIMIT 50");
  ASSERT_EQ(f.num_rows(), 50u);
  for (size_t r = 0; r < f.num_rows(); ++r) {
    EXPECT_EQ(f.row(r)[0].int_value(), static_cast<int64_t>(7 * r + 3));
  }
  // A cap above the input size returns everything.
  storage::Table all = RunThreadMatrixIdentical(
      db_, "SELECT k FROM nums WHERE k >= 990 LIMIT 5000");
  EXPECT_EQ(all.num_rows(), 10u);
}

TEST_F(ExecutorEdgeCases, LimitWithOrderBy) {
  storage::Table t = RunThreadMatrixIdentical(
      db_, "SELECT k, v FROM nums ORDER BY v DESC, k LIMIT 25");
  ASSERT_EQ(t.num_rows(), 25u);
  EXPECT_EQ(t.row(0)[1].double_value(), 6.0);
  EXPECT_EQ(t.row(0)[0].int_value(), 12);
  RunThreadMatrixIdentical(
      db_, "SELECT g, COUNT(*) AS n FROM nums GROUP BY g ORDER BY g LIMIT 3");
}

TEST_F(ExecutorEdgeCases, LimitZero) {
  EXPECT_EQ(RunThreadMatrixIdentical(db_, "SELECT k FROM nums LIMIT 0")
                .num_rows(),
            0u);
  EXPECT_EQ(
      RunThreadMatrixIdentical(db_, "SELECT k FROM nums ORDER BY k LIMIT 0")
          .num_rows(),
      0u);
}

TEST_F(ExecutorEdgeCases, LimitOverJoin) {
  storage::Table t = RunThreadMatrixIdentical(
      db_, "SELECT n.k, s.name FROM nums n JOIN small s ON n.g = s.k LIMIT 40");
  EXPECT_EQ(t.num_rows(), 40u);
  storage::Table nl = RunThreadMatrixIdentical(
      db_, "SELECT n.k, s.k FROM nums n JOIN small s ON n.g < s.k LIMIT 40");
  EXPECT_EQ(nl.num_rows(), 40u);
  // A LIMIT below a join: the capped pipeline feeds the probe side.
  storage::Table below = RunThreadMatrixIdentical(
      db_,
      "SELECT t.k, s.name FROM (SELECT k, g FROM nums LIMIT 20) t "
      "JOIN small s ON t.g = s.k");
  EXPECT_EQ(below.num_rows(), 17u);  // g = 5 meets small's NULL key.
}

TEST_F(ExecutorEdgeCases, CrossJoin) {
  storage::Table t = RunThreadMatrixIdentical(
      db_, "SELECT a.name, b.name FROM small a CROSS JOIN small b");
  ASSERT_EQ(t.num_rows(), 144u);
  // Probe row, then every build row in order.
  EXPECT_EQ(t.row(0)[0].string_value(), "s0");
  EXPECT_EQ(t.row(1)[0].string_value(), "s0");
  EXPECT_EQ(t.row(1)[1].string_value(), "s1");
  EXPECT_EQ(t.row(12)[0].string_value(), "s1");
  storage::Table big = RunThreadMatrixIdentical(
      db_, "SELECT n.k, o.v FROM nums n CROSS JOIN one_row o");
  EXPECT_EQ(big.num_rows(), static_cast<size_t>(kNumsRows));
  storage::Table empty = RunThreadMatrixIdentical(
      db_, "SELECT n.k FROM nums n CROSS JOIN empty_t e");
  EXPECT_EQ(empty.num_rows(), 0u);
}

TEST_F(ExecutorEdgeCases, NonEquiJoinsRunAsNestedLoop) {
  ResetJoinExecStats();
  storage::Table inner = RunThreadMatrixIdentical(
      db_, "SELECT n.k, s.k FROM nums n JOIN small s ON n.g < s.k");
  EXPECT_GT(inner.num_rows(), 0u);
  storage::Table left = RunThreadMatrixIdentical(
      db_,
      "SELECT n.k, s.name FROM nums n LEFT JOIN small s "
      "ON n.g > s.k AND s.k < 4");
  EXPECT_GT(left.num_rows(), static_cast<size_t>(kNumsRows));
  // `3 = n.g` correlates through the outer side only: the semi/anti
  // join condition has no equi key.
  storage::Table semi = RunThreadMatrixIdentical(
      db_,
      "SELECT n.k FROM nums n WHERE EXISTS "
      "(SELECT * FROM small s WHERE s.k > 3 AND 3 = n.g)");
  EXPECT_EQ(semi.num_rows(), static_cast<size_t>((kNumsRows + 3) / 7));
  storage::Table anti = RunThreadMatrixIdentical(
      db_,
      "SELECT n.k FROM nums n WHERE NOT EXISTS "
      "(SELECT * FROM small s WHERE s.k > 3 AND 3 = n.g)");
  EXPECT_EQ(anti.num_rows() + semi.num_rows(), static_cast<size_t>(kNumsRows));
  EXPECT_GT(GlobalJoinExecStats().nested_loop_fallbacks.load(), 0u);
  EXPECT_EQ(GlobalJoinExecStats().radix_hash_joins.load(), 0u);
}

TEST_F(ExecutorEdgeCases, TableLessSelect) {
  storage::Table t =
      RunThreadMatrixIdentical(db_, "SELECT 1 + 2 AS three, 'x' AS s");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0)[0].int_value(), 3);
  EXPECT_EQ(t.row(0)[1].string_value(), "x");
}

TEST_F(ExecutorEdgeCases, EverySelectRunsThroughPipelines) {
  for (const char* query :
       {"SELECT 1 AS one", "SELECT k FROM nums LIMIT 3",
        "SELECT a.k FROM small a CROSS JOIN small b"}) {
    for (const char* threads : {"1", "4"}) {
      ASSERT_TRUE(db_->SetParameter("threads", threads).ok());
      ASSERT_TRUE(db_->Query(query).ok()) << query;
      EXPECT_FALSE(db_->last_pipeline_stats().empty()) << query;
    }
  }
  ASSERT_TRUE(db_->SetParameter("threads", "0").ok());
}

TEST_F(ExecutorEdgeCases, RemovedExecutorKnobsAreUnknown) {
  EXPECT_EQ(db_->SetParameter("executor", "serial").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_->SetParameter("parallel_join", "on").code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------
// Figure-7 federation strategies over extended storage: the semijoin
// ships the probe side's keys into the remote query, the relocation
// uploads the local side; both run as ordinary pipelines.
// ---------------------------------------------------------------------

class ExecutorFederationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = true, .start_hadoop = false});
    ASSERT_TRUE(db_->Run(R"(
        CREATE COLUMN TABLE dim (k BIGINT, name VARCHAR(20));
        CREATE TABLE fact (id BIGINT, k BIGINT, v DOUBLE)
          USING EXTENDED STORAGE)").ok());
    std::vector<std::vector<Value>> dims, facts;
    for (int64_t i = 0; i < 100; ++i) {
      dims.push_back({Value::Int(i), Value::String("d" + std::to_string(i))});
    }
    for (int64_t i = 0; i < 3000; ++i) {
      facts.push_back({Value::Int(i), Value::Int((i * 37) % 100),
                       Value::Double(static_cast<double>(i % 11) * 0.25)});
    }
    ASSERT_TRUE(db_->catalog().Insert("dim", dims).ok());
    ASSERT_TRUE(db_->catalog().Insert("fact", facts).ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  void TearDown() override {
    db_->optimizer_options().strategy = optimizer::FederationStrategy::kAuto;
  }

  static platform::Platform* db_;
};

platform::Platform* ExecutorFederationTest::db_ = nullptr;

TEST_F(ExecutorFederationTest, SemijoinAndRelocationMatchRemoteScan) {
  const std::string query =
      "SELECT d.name, f.id, f.v FROM dim d JOIN fact f ON d.k = f.k "
      "WHERE d.name IN ('d3', 'd42', 'd77') ORDER BY f.id";
  db_->optimizer_options().strategy =
      optimizer::FederationStrategy::kRemoteScanOnly;
  storage::Table expected = RunThreadMatrixIdentical(db_, query);
  EXPECT_EQ(expected.num_rows(), 90u);

  db_->optimizer_options().strategy = optimizer::FederationStrategy::kSemijoin;
  auto plan = db_->Explain(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("/*PUSHDOWN*/"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("remote query -> build"), std::string::npos) << *plan;
  ExpectTablesIdentical(expected, RunThreadMatrixIdentical(db_, query),
                        "semijoin");

  db_->optimizer_options().strategy =
      optimizer::FederationStrategy::kRelocation;
  plan = db_->Explain(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("remote query <- P"), std::string::npos) << *plan;
  ExpectTablesIdentical(expected, RunThreadMatrixIdentical(db_, query),
                        "relocation");

  // Aggregates over the strategies agree too.
  const std::string agg =
      "SELECT d.name, SUM(f.v) AS s FROM dim d JOIN fact f ON d.k = f.k "
      "WHERE d.name = 'd7' GROUP BY d.name";
  storage::Table relocated = RunThreadMatrixIdentical(db_, agg);
  db_->optimizer_options().strategy = optimizer::FederationStrategy::kSemijoin;
  ExpectTablesIdentical(relocated, RunThreadMatrixIdentical(db_, agg),
                        "semijoin aggregate");
}

// ---------------------------------------------------------------------
// Union plans: branches become concurrently schedulable pipelines whose
// outputs a union source interleaves round-robin.
// ---------------------------------------------------------------------

class ExecutorUnionTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRowsPerPartition = 3000;

  static void SetUpTestSuite() {
    db_ = new platform::Platform();  // Extended store for COLD partitions.
    ASSERT_TRUE(db_->Run(R"(
        CREATE TABLE hybrid (id BIGINT, m BIGINT, v DOUBLE)
          USING HYBRID EXTENDED STORAGE
          PARTITION BY RANGE (m)
            (PARTITION VALUES < 50 COLD, PARTITION OTHERS HOT))")
                    .ok());
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 0; i < 2 * kRowsPerPartition; ++i) {
      rows.push_back({Value::Int(i), Value::Int(i % 100),
                      Value::Double(static_cast<double>(i % 37) * 0.25)});
    }
    ASSERT_TRUE(db_->catalog().Insert("hybrid", rows).ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static platform::Platform* db_;
};

platform::Platform* ExecutorUnionTest::db_ = nullptr;

TEST_F(ExecutorUnionTest, UnionBranchesIdenticalAcrossThreads) {
  RunThreadMatrixIdentical(db_, "SELECT COUNT(*) AS n, SUM(v) AS s FROM hybrid");
  RunThreadMatrixIdentical(db_,
                       "SELECT m, COUNT(*) AS n FROM hybrid "
                       "WHERE m >= 40 AND m < 60 GROUP BY m ORDER BY m");
  RunThreadMatrixIdentical(db_, "SELECT id, m, v FROM hybrid WHERE m = 10");
}

TEST_F(ExecutorUnionTest, SerialUnionInterleavesChildrenRoundRobin) {
  // The union source must alternate between its branches chunk by
  // chunk: a LIMIT cutoff that
  // spans more than one chunk has to contain rows of BOTH partitions
  // (the old first-child-to-exhaustion order would return only cold
  // rows here, since each partition holds more rows than the limit).
  ASSERT_TRUE(db_->SetParameter("threads", "1").ok());
  auto result = db_->Query("SELECT m FROM hybrid LIMIT 2500");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2500u);
  size_t cold = 0, hot = 0;
  for (size_t r = 0; r < result->num_rows(); ++r) {
    (result->row(r)[0].int_value() < 50 ? cold : hot) += 1;
  }
  EXPECT_GT(cold, 0u);
  EXPECT_GT(hot, 0u);
}

// ---------------------------------------------------------------------
// TPC-H SF 0.01: every benchmark query at thread counts 1/2/4/8 —
// bit-identical to the threads=1 baseline.
// ---------------------------------------------------------------------

class ExecutorTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new tpch::TpchData(tpch::Generate(0.01));
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    for (const std::string& table : tpch::TpchTableNames()) {
      sql::CreateTableStmt create;
      create.table = table;
      create.columns = tpch::TpchSchema(table)->columns();
      ASSERT_TRUE(db_->catalog().CreateTable(create).ok());
      ASSERT_TRUE(
          db_->catalog().Insert(table, *tpch::TableRows(*data_, table)).ok());
    }
    // Small morsels so SF 0.01 still fans out into many tasks.
    ASSERT_TRUE(db_->SetParameter("morsel_rows", "4096").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    delete data_;
    db_ = nullptr;
    data_ = nullptr;
  }

  static tpch::TpchData* data_;
  static platform::Platform* db_;
};

tpch::TpchData* ExecutorTpchTest::data_ = nullptr;
platform::Platform* ExecutorTpchTest::db_ = nullptr;

TEST_F(ExecutorTpchTest, AllQueriesBitIdenticalAcrossThreads) {
  for (int q : tpch::BenchmarkQueries()) {
    SCOPED_TRACE("Q" + std::to_string(q));
    RunThreadMatrixIdentical(db_, tpch::QueryText(q));
  }
}

}  // namespace
}  // namespace hana::exec
