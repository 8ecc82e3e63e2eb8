#include <gtest/gtest.h>

#include "common/strings.h"
#include "common/util.h"
#include "hadoop/hdfs.h"
#include "hadoop/hive.h"
#include "hadoop/mapreduce.h"
#include "hadoop/serde.h"

namespace hana::hadoop {
namespace {

TEST(HdfsTest, FileLifecycle) {
  Hdfs hdfs;
  ASSERT_TRUE(hdfs.WriteFile("/a/b", {"l1", "l2"}).ok());
  EXPECT_TRUE(hdfs.Exists("/a/b"));
  auto lines = hdfs.ReadFile("/a/b");
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines->size(), 2u);
  ASSERT_TRUE(hdfs.AppendLines("/a/b", {"l3"}).ok());
  EXPECT_EQ(hdfs.Stat("/a/b")->num_lines, 3u);
  ASSERT_TRUE(hdfs.Rename("/a/b", "/c").ok());
  EXPECT_FALSE(hdfs.Exists("/a/b"));
  EXPECT_TRUE(hdfs.Exists("/c"));
  ASSERT_TRUE(hdfs.Delete("/c").ok());
  EXPECT_FALSE(hdfs.Delete("/c").ok());
  EXPECT_FALSE(hdfs.ReadFile("/c").ok());
}

TEST(HdfsTest, ListByPrefix) {
  Hdfs hdfs;
  (void)hdfs.WriteFile("/warehouse/t1", {"x"});
  (void)hdfs.WriteFile("/warehouse/t2", {"x"});
  (void)hdfs.WriteFile("/tmp/t3", {"x"});
  EXPECT_EQ(hdfs.List("/warehouse/").size(), 2u);
  EXPECT_EQ(hdfs.List("/").size(), 3u);
}

TEST(HdfsTest, BlockSplittingAndPlacement) {
  HdfsOptions options;
  options.block_size_bytes = 100;
  options.replication = 3;
  options.num_datanodes = 6;
  Hdfs hdfs(options);
  std::vector<std::string> lines(50, std::string(19, 'x'));  // 20 B/line.
  ASSERT_TRUE(hdfs.WriteFile("/big", lines).ok());
  auto blocks = hdfs.Blocks("/big");
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks->size(), 10u);  // 1000 bytes / 100-byte blocks.
  for (const HdfsBlock* block : *blocks) {
    EXPECT_EQ(block->datanodes.size(), 3u);
  }
  // Replication triples the accounted usage.
  EXPECT_EQ(hdfs.used_bytes(), 3000u);
  // Round-robin placement spreads blocks over every datanode.
  auto usage = hdfs.DatanodeUsage();
  for (uint64_t bytes : usage) EXPECT_GT(bytes, 0u);
}

TEST(HdfsTest, CapacityEnforced) {
  HdfsOptions options;
  options.capacity_bytes = 1000;
  options.replication = 3;
  Hdfs hdfs(options);
  std::vector<std::string> lines(100, std::string(9, 'x'));
  EXPECT_FALSE(hdfs.WriteFile("/too-big", lines).ok());
}

TEST(SerdeTest, RowRoundTripAllTypes) {
  Schema schema({{"i", DataType::kInt64, true},
                 {"d", DataType::kDouble, true},
                 {"s", DataType::kString, true},
                 {"dt", DataType::kDate, true},
                 {"b", DataType::kBool, true}});
  std::vector<std::vector<Value>> rows = {
      {Value::Int(-5), Value::Double(3.14159265358979),
       Value::String("plain"), Value::Date(9000), Value::Bool(true)},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null(),
       Value::Null()},
      {Value::Int(0), Value::Double(-0.0),
       Value::String("tab\tand\nnewline\\slash"), Value::Date(-1),
       Value::Bool(false)},
  };
  for (const auto& row : rows) {
    auto back = ParseRow(SerializeRow(row), schema);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->size(), row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].is_null()) {
        EXPECT_TRUE((*back)[c].is_null());
      } else {
        EXPECT_EQ((*back)[c].Compare(row[c]), 0) << c;
      }
    }
  }
}

TEST(SerdeTest, RejectsWrongArity) {
  Schema schema({{"a", DataType::kInt64, true},
                 {"b", DataType::kInt64, true}});
  EXPECT_FALSE(ParseRow("1", schema).ok());
  EXPECT_FALSE(ParseRow("1\t2\t3", schema).ok());
}

class MapReduceTest : public ::testing::Test {
 protected:
  MapReduceTest() : engine_(&hdfs_, {}, &clock_) {}
  Hdfs hdfs_;
  SimClock clock_;
  MapReduceEngine engine_;
};

TEST_F(MapReduceTest, WordCount) {
  (void)hdfs_.WriteFile("/in", {"a b a", "b a", "c"});
  JobSpec spec;
  spec.name = "wordcount";
  spec.inputs = {"/in"};
  spec.output = "/out";
  spec.mapper = [](int, const std::string& line,
                   std::vector<KeyValue>* out) {
    for (const std::string& word : Split(line, ' ')) {
      out->emplace_back(word, "1");
    }
  };
  spec.reducer = [](const std::string& key,
                    const std::vector<std::string>& values,
                    std::vector<std::string>* out) {
    out->push_back(key + "=" + std::to_string(values.size()));
  };
  auto stats = engine_.RunJob(spec);
  ASSERT_TRUE(stats.ok());
  auto lines = hdfs_.ReadFile("/out");
  ASSERT_TRUE(lines.ok());
  std::sort(lines->begin(), lines->end());
  EXPECT_EQ(*lines, (std::vector<std::string>{"a=3", "b=2", "c=1"}));
  EXPECT_EQ(stats->map_tasks, 1u);
  EXPECT_GT(stats->simulated_ms, engine_.config().job_startup_ms);
  EXPECT_GT(clock_.now_ms(), 0.0);
}

TEST_F(MapReduceTest, MapOnlyJob) {
  (void)hdfs_.WriteFile("/in", {"1", "2", "3"});
  JobSpec spec;
  spec.name = "filter";
  spec.inputs = {"/in"};
  spec.output = "/out";
  spec.mapper = [](int, const std::string& line,
                   std::vector<KeyValue>* out) {
    if (line != "2") out->emplace_back("", line);
  };
  ASSERT_TRUE(engine_.RunJob(spec).ok());
  EXPECT_EQ(hdfs_.ReadFile("/out")->size(), 2u);
}

TEST_F(MapReduceTest, MultiInputJoinTagging) {
  (void)hdfs_.WriteFile("/left", {"1:a", "2:b"});
  (void)hdfs_.WriteFile("/right", {"1:x", "3:y"});
  JobSpec spec;
  spec.name = "join";
  spec.inputs = {"/left", "/right"};
  spec.output = "/out";
  spec.mapper = [](int input, const std::string& line,
                   std::vector<KeyValue>* out) {
    auto pos = line.find(':');
    out->emplace_back(line.substr(0, pos),
                      (input == 0 ? "L" : "R") + line.substr(pos + 1));
  };
  spec.reducer = [](const std::string& key,
                    const std::vector<std::string>& values,
                    std::vector<std::string>* out) {
    std::string l, r;
    for (const auto& v : values) {
      (v[0] == 'L' ? l : r) = v.substr(1);
    }
    if (!l.empty() && !r.empty()) out->push_back(key + ":" + l + r);
  };
  ASSERT_TRUE(engine_.RunJob(spec).ok());
  auto lines = hdfs_.ReadFile("/out");
  ASSERT_EQ(lines->size(), 1u);
  EXPECT_EQ((*lines)[0], "1:ax");
}

TEST_F(MapReduceTest, CostModelScalesWithTasksAndBytes) {
  std::vector<std::string> small(100, "data line"), large(20000, "data line");
  (void)hdfs_.WriteFile("/small", small);
  (void)hdfs_.WriteFile("/large", large);
  auto run = [&](const std::string& input) {
    JobSpec spec;
    spec.name = "scan";
    spec.inputs = {input};
    spec.output = "/out";
    spec.mapper = [](int, const std::string&, std::vector<KeyValue>*) {};
    return *engine_.RunJob(spec);
  };
  JobStats small_stats = run("/small");
  JobStats large_stats = run("/large");
  EXPECT_GT(large_stats.simulated_ms, small_stats.simulated_ms);
  EXPECT_GE(large_stats.map_tasks, small_stats.map_tasks);
}

class HiveTest : public ::testing::Test {
 protected:
  HiveTest() : engine_(&hdfs_, {}, &clock_), hive_(&hdfs_, &engine_) {
    auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
        {"id", DataType::kInt64, false},
        {"grp", DataType::kString, false},
        {"v", DataType::kDouble, false}});
    EXPECT_TRUE(hive_.CreateTable("t", schema).ok());
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 0; i < 100; ++i) {
      rows.push_back({Value::Int(i),
                      Value::String(i % 2 == 0 ? "even" : "odd"),
                      Value::Double(static_cast<double>(i))});
    }
    EXPECT_TRUE(hive_.LoadRows("t", rows).ok());
  }

  Hdfs hdfs_;
  SimClock clock_;
  MapReduceEngine engine_;
  HiveEngine hive_;
};

TEST_F(HiveTest, SelectFilterProject) {
  auto result = hive_.ExecuteQuery("SELECT id, v FROM t WHERE id < 10");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_rows(), 10u);
  EXPECT_EQ(result->num_jobs, 1u);  // Fused map-only pipeline.
  EXPECT_GT(result->simulated_ms, 0.0);
}

TEST_F(HiveTest, GroupByRunsMapReduce) {
  auto result = hive_.ExecuteQuery(
      "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY grp");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows(), 2u);
  for (const auto& row : result->table.rows()) {
    EXPECT_EQ(row[1].int_value(), 50);
  }
  EXPECT_GE(result->num_jobs, 1u);
}

TEST_F(HiveTest, JoinAndOrderByAndLimit) {
  auto result = hive_.ExecuteQuery(R"(
      SELECT a.id, b.v FROM t a JOIN t b ON a.id = b.id
      WHERE a.id < 20 ORDER BY a.id DESC LIMIT 5)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows(), 5u);
  EXPECT_EQ(result->table.row(0)[0].int_value(), 19);
}

TEST_F(HiveTest, StatsFromMetastore) {
  auto stats = hive_.Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->row_count, 100u);
  EXPECT_GT(stats->total_bytes, 0u);
  auto binding = hive_.ResolveTable("db.t");  // Dotted names resolve.
  ASSERT_TRUE(binding.ok());
  EXPECT_DOUBLE_EQ(binding->estimated_rows, 100.0);
}

TEST_F(HiveTest, CtasMaterializesAndRegisters) {
  auto name = hive_.CreateTableAsSelect(
      "evens", "SELECT id, v FROM t WHERE grp = 'even'");
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  auto result = hive_.ExecuteQuery("SELECT COUNT(*) AS n FROM evens");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.row(0)[0].int_value(), 50);
  auto table = hive_.GetTable("evens");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->temporary);
}

TEST_F(HiveTest, QueryStageOutputsAreDeleted) {
  uint64_t used_before = hdfs_.used_bytes();
  for (const char* sql :
       {"SELECT id, v FROM t WHERE id < 10",
        "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY grp",
        "SELECT a.id, b.v FROM t a JOIN t b ON a.id = b.id "
        "WHERE a.id < 20 ORDER BY a.id DESC LIMIT 5"}) {
    auto result = hive_.ExecuteQuery(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    EXPECT_GT(result->num_jobs, 0u) << sql;
  }
  // A job that fails mid-query leaves nothing behind either.
  EXPECT_FALSE(hive_.ExecuteQuery(
                        "SELECT a.id FROM t a JOIN t b ON a.id = b.id "
                        "WHERE CAST(a.grp AS BIGINT) > 0")
                   .ok());
  EXPECT_TRUE(hdfs_.List("/tmp/hive-query-").empty());
  EXPECT_EQ(hdfs_.used_bytes(), used_before);
}

TEST_F(HiveTest, DropTableRemovesData) {
  ASSERT_TRUE(hive_.DropTable("t").ok());
  EXPECT_FALSE(hive_.ExecuteQuery("SELECT id FROM t").ok());
  EXPECT_FALSE(hive_.DropTable("t").ok());
}

}  // namespace
}  // namespace hana::hadoop
