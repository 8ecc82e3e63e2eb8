#ifndef HANA_HADOOP_HIVE_H_
#define HANA_HADOOP_HIVE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "hadoop/hdfs.h"
#include "hadoop/mapreduce.h"
#include "plan/logical.h"
#include "storage/column_vector.h"

namespace hana::hadoop {

/// MetaStore entry for a Hive table.
struct HiveTable {
  std::string name;
  std::shared_ptr<Schema> schema;
  std::string path;  // HDFS warehouse location.
  bool temporary = false;
};

/// Statistics the SDA cost model pulls from the Hive MetaStore
/// (Section 4.2: "we rely on the statistics available in the Hive
/// MetaStore, e.g. the row count and number of files used for a table").
struct HiveTableStats {
  size_t row_count = 0;
  size_t file_count = 0;
  size_t num_blocks = 0;
  uint64_t total_bytes = 0;
};

/// Result of one HiveQL execution.
struct HiveResult {
  storage::Table table;
  size_t num_jobs = 0;
  double simulated_ms = 0.0;
};

/// A scaled-down Hive: a MetaStore over HDFS warehouse files plus a
/// compiler that turns a (parsed + bound) HiveQL SELECT into a DAG of
/// MapReduce jobs and runs them. Supports scans, filters, projections,
/// inner/left/cross/semi/anti equi-joins (repartition joins), hash
/// aggregation, order-by (single reducer) and limit.
class HiveEngine : public plan::BinderCatalog {
 public:
  HiveEngine(Hdfs* hdfs, MapReduceEngine* mapreduce)
      : hdfs_(hdfs), mapreduce_(mapreduce) {}

  // ---- MetaStore ------------------------------------------------------
  [[nodiscard]] Status CreateTable(const std::string& name, std::shared_ptr<Schema> schema,
                     bool temporary = false);
  [[nodiscard]] Status LoadRows(const std::string& name,
                  const std::vector<std::vector<Value>>& rows);
  [[nodiscard]] Result<const HiveTable*> GetTable(const std::string& name) const;
  [[nodiscard]] Status DropTable(const std::string& name);
  [[nodiscard]] Result<HiveTableStats> Stats(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // ---- Query execution ------------------------------------------------
  /// Parses, plans and executes a HiveQL SELECT as MapReduce jobs.
  [[nodiscard]] Result<HiveResult> ExecuteQuery(const std::string& sql);

  /// CREATE TABLE AS SELECT. Per the paper this is a two-phase
  /// implementation (schema first, then the target table), which is the
  /// source of the materialization overhead in Figure 15. Returns the
  /// created table's name.
  [[nodiscard]] Result<std::string> CreateTableAsSelect(const std::string& name,
                                          const std::string& sql);

  Hdfs* hdfs() const { return hdfs_; }
  MapReduceEngine* mapreduce() const { return mapreduce_; }

  // ---- plan::BinderCatalog (Hive's own name resolution) ---------------
  [[nodiscard]] Result<plan::TableBinding> ResolveTable(
      const std::string& name) const override;
  [[nodiscard]] Result<plan::TableFunctionBinding> ResolveTableFunction(
      const std::string& name) const override;

 private:
  /// An intermediate relation: an HDFS file + the schema of its rows.
  struct Dataset {
    std::string path;
    std::shared_ptr<Schema> schema;
  };

  [[nodiscard]] Result<Dataset> CompileNode(const plan::LogicalOp& op, size_t* job_counter,
                              size_t query_id);
  /// Every job output of query `query_id` lives under this prefix.
  std::string TempPrefix(size_t query_id) const;
  std::string TempPath(size_t query_id, size_t job) const;
  /// ExecuteQuery minus the clean-up of the query's job outputs.
  [[nodiscard]] Result<HiveResult> RunQuery(const std::string& sql,
                                            size_t query_id);

  Hdfs* hdfs_;
  MapReduceEngine* mapreduce_;
  std::map<std::string, HiveTable> tables_;
  size_t next_query_id_ = 1;
  size_t next_temp_table_ = 1;
};

}  // namespace hana::hadoop

#endif  // HANA_HADOOP_HIVE_H_
