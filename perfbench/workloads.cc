// The four workloads of the benchmark; perfbench/README.md says why
// each exists and which layers it loads.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>

#include "common/strings.h"
#include "common/util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "workload.h"

namespace hana::perfbench {
namespace {

using Rows = std::vector<std::vector<Value>>;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Require(const Status& status, const std::string& what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
    std::exit(2);
  }
}

double RawBytes(const Rows& rows) {
  double bytes = 0;
  for (const auto& row : rows) {
    for (const Value& v : row) {
      bytes += v.type() == DataType::kString
                   ? static_cast<double>(v.string_value().size())
                   : 8.0;
    }
  }
  return bytes;
}

/// Creates a column table, bulk-loads `rows` and merges its delta.
void LoadColumnTable(platform::Platform& db, const std::string& name,
                     const Schema& schema, const Rows& rows,
                     SetupTimes* times) {
  sql::CreateTableStmt create;
  create.table = name;
  create.columns = schema.columns();
  Require(db.catalog().CreateTable(create), "create " + name);
  double start = NowMs();
  Require(db.catalog().Insert(name, rows), "load " + name);
  double loaded = NowMs();
  Require(db.catalog().MergeDelta(name), "merge " + name);
  times->load_ms += loaded - start;
  times->merge_ms += NowMs() - loaded;
  times->input_bytes += RawBytes(rows);
}

/// Order-sensitive digest of a result: equal digests mean bit-identical
/// tables (up to hash collisions), without keeping the table.
struct Digest {
  size_t rows = 0;
  size_t columns = 0;
  uint64_t hash = 0;
  bool operator==(const Digest&) const = default;
};

Digest DigestOf(const storage::Table& table) {
  Digest d;
  d.rows = table.num_rows();
  d.columns = table.schema()->num_columns();
  uint64_t h = 1469598103934665603ULL;
  for (const auto& row : table.rows()) {
    for (const Value& v : row) {
      h = (h ^ static_cast<uint64_t>(v.type())) * 1099511628211ULL;
      h = (h ^ static_cast<uint64_t>(v.Hash())) * 1099511628211ULL;
    }
  }
  d.hash = h;
  return d;
}

double AsDouble(const Value& v) {
  return v.type() == DataType::kDouble ? v.double_value()
                                       : static_cast<double>(v.int_value());
}

bool Near(double x, double y) {
  return std::fabs(x - y) <=
         1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

bool NearValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
    return Near(AsDouble(a), AsDouble(b));
  }
  return a == b;
}

/// Rows sorted by their non-double columns first, so that rows whose
/// doubles differ only in the last bits (another summation order) still
/// line up.
std::vector<const std::vector<Value>*> Sorted(const storage::Table& t) {
  std::vector<const std::vector<Value>*> rows;
  for (const auto& row : t.rows()) rows.push_back(&row);
  auto key_less = [](const std::vector<Value>& a, const std::vector<Value>& b,
                     bool doubles) {
    for (size_t c = 0; c < a.size(); ++c) {
      bool is_double = a[c].type() == DataType::kDouble;
      if (is_double != doubles) continue;
      int cmp = a[c].Compare(b[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  };
  std::sort(rows.begin(), rows.end(), [&](const auto* a, const auto* b) {
    if (key_less(*a, *b, false)) return true;
    if (key_less(*b, *a, false)) return false;
    return key_less(*a, *b, true);
  });
  return rows;
}

/// Same multiset of rows, doubles equal to a relative 1e-9.
bool SameRows(const storage::Table& a, const storage::Table& b) {
  if (a.num_rows() != b.num_rows() ||
      a.schema()->num_columns() != b.schema()->num_columns()) {
    return false;
  }
  auto ra = Sorted(a);
  auto rb = Sorted(b);
  for (size_t r = 0; r < ra.size(); ++r) {
    for (size_t c = 0; c < ra[r]->size(); ++c) {
      if (!NearValue((*ra[r])[c], (*rb[r])[c])) return false;
    }
  }
  return true;
}

size_t Column(const std::string& table, const std::string& column) {
  int idx = tpch::TpchSchema(table)->FindColumn(column);
  if (idx < 0) {
    std::fprintf(stderr, "perfbench: no column %s.%s\n", table.c_str(),
                 column.c_str());
    std::exit(2);
  }
  return static_cast<size_t>(idx);
}

// ---------------------------------------------------------------------
// tpch_olap and olap_extract: read-only queries over merged column
// tables. The reference of each class is its result under the dop-1
// schedule; every measured result must be bit-identical to it.

class LocalQueries : public Workload {
 public:
  LocalQueries(double scale_factor, std::vector<std::string> tables)
      : scale_factor_(scale_factor), tables_(std::move(tables)) {}

  void Add(const std::string& name, int tpch_query, std::string sql) {
    StatementClass cls;
    cls.name = name;
    cls.tpch_query = tpch_query;
    classes_.push_back(std::move(cls));
    statements_.push_back(std::move(sql));
  }

  double scale_factor() const override { return scale_factor_; }
  const std::vector<StatementClass>& classes() const override {
    return classes_;
  }

  void Generate(uint64_t seed) override {
    data_ = tpch::Generate(scale_factor_, seed);
  }

  void Load(platform::Platform& db, SetupTimes* times) override {
    for (const std::string& t : tables_) {
      LoadColumnTable(db, t, *tpch::TpchSchema(t), *tpch::TableRows(data_, t),
                      times);
    }
  }

  void DropInputs() override { data_ = tpch::TpchData(); }

  void Prepare(platform::Platform& db) override {
    std::string dop = std::to_string(db.degree_of_parallelism());
    Require(db.SetParameter("threads", "1"), "threads=1");
    for (size_t c = 0; c < statements_.size(); ++c) {
      auto result = db.Execute(statements_[c]);
      Require(result.status(), "reference " + classes_[c].name);
      reference_.push_back(DigestOf(result->table));
    }
    Require(db.SetParameter("threads", dop), "threads=" + dop);
  }

  std::string Next(platform::Platform&, size_t c) override {
    return statements_[c];
  }

  bool Check(size_t c, const platform::ExecResult& result) override {
    return DigestOf(result.table) == reference_[c];
  }

 private:
  double scale_factor_;
  std::vector<std::string> tables_;
  std::vector<StatementClass> classes_;
  std::vector<std::string> statements_;
  tpch::TpchData data_;
  std::vector<Digest> reference_;
};

std::unique_ptr<Workload> MakeTpchOlap() {
  auto w = std::make_unique<LocalQueries>(0.01, tpch::TpchTableNames());
  for (int q : tpch::BenchmarkQueries()) {
    w->Add(StrFormat("q%d", q), q, tpch::QueryText(q));
  }
  return w;
}

std::unique_ptr<Workload> MakeOlapExtract() {
  auto w = std::make_unique<LocalQueries>(
      0.05, std::vector<std::string>{"lineitem"});
  w->Add("orderkey_groups", 0,
         "SELECT l_orderkey, COUNT(*) AS lines, SUM(l_quantity) AS qty, "
         "SUM(l_extendedprice) AS price FROM lineitem GROUP BY l_orderkey");
  w->Add("part_supp_groups", 0,
         "SELECT l_partkey, l_suppkey, l_returnflag, COUNT(*) AS lines, "
         "SUM(l_quantity) AS qty, MAX(l_discount) AS max_disc FROM lineitem "
         "GROUP BY l_partkey, l_suppkey, l_returnflag");
  w->Add("wide_projection", 0,
         "SELECT l_orderkey, l_linenumber, l_partkey, l_suppkey, l_quantity, "
         "l_extendedprice, l_discount, l_tax, l_shipdate, l_shipmode "
         "FROM lineitem WHERE l_discount >= 0.08");
  return w;
}

// ---------------------------------------------------------------------
// htap_mix: writes beside reads on the same tables. Every check is a
// row count (or an exact integer sum) the workload derives from the
// generated data and its own inserts and deletes.

class HtapMix : public Workload {
 public:
  HtapMix() {
    classes_ = {{"insert_batch", 0},
                {"delete_oldest", 0},
                {"update_point", 0},
                {"read_q6", 0}};
  }

  double scale_factor() const override { return 0.02; }
  const std::vector<StatementClass>& classes() const override {
    return classes_;
  }

  void Generate(uint64_t seed) override {
    data_ = tpch::Generate(scale_factor(), seed);
    rng_ = std::make_unique<Rng>(seed * 0x9E3779B97F4A7C15ULL + 1);
    num_orders_ = static_cast<int64_t>(data_.orders.size());
    first_key_ = num_orders_ + 1;
    const size_t ship = Column("lineitem", "l_shipdate");
    const size_t qty = Column("lineitem", "l_quantity");
    const size_t disc = Column("lineitem", "l_discount");
    const size_t price = Column("lineitem", "l_extendedprice");
    const int64_t from = DaysFromCivil(1994, 1, 1);
    const int64_t to = DaysFromCivil(1995, 1, 1);
    base_ = Totals();
    for (const auto& row : data_.lineitem) {
      int64_t day = row[ship].int_value();
      if (day >= from && day < to) {
        Add(&base_, row[qty].double_value(), row[disc].double_value(),
            row[price].double_value());
      }
    }
  }

  void Load(platform::Platform& db, SetupTimes* times) override {
    for (const std::string t : {"orders", "lineitem"}) {
      LoadColumnTable(db, t, *tpch::TpchSchema(t), *tpch::TableRows(data_, t),
                      times);
    }
    Require(db.SetParameter("merge_threshold_rows",
                            std::to_string(kMergeThresholdRows)),
            "merge_threshold_rows");
  }

  void DropInputs() override { data_ = tpch::TpchData(); }

  /// Fills the window of live inserted batches, so every round's delete
  /// removes a full batch and the table size stays steady.
  void Prepare(platform::Platform& db) override {
    while (live_.size() < kLiveBatches) {
      std::string sql = NextInsert();
      auto result = db.Execute(sql);
      Require(result.status(), "prefill insert");
      if (result->metrics.rows != kBatchRows) {
        std::fprintf(stderr, "perfbench: prefill inserted %zu rows\n",
                     result->metrics.rows);
        std::exit(2);
      }
    }
  }

  std::string Next(platform::Platform&, size_t c) override {
    switch (c) {
      case 0:
        return NextInsert();
      case 1: {
        Batch oldest = live_.front();
        live_.pop_front();
        return StrFormat(
            "DELETE FROM lineitem WHERE l_orderkey >= %lld AND "
            "l_orderkey < %lld",
            static_cast<long long>(oldest.first_key),
            static_cast<long long>(oldest.first_key + kBatchRows));
      }
      case 2:
        return StrFormat(
            "UPDATE orders SET o_orderpriority = '1-URGENT' "
            "WHERE o_orderkey = %lld",
            static_cast<long long>(rng_->Uniform(1, num_orders_)));
      default:
        return "SELECT COUNT(*) AS n, SUM(l_quantity) AS qty, "
               "SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
               "WHERE l_shipdate >= DATE '1994-01-01' "
               "AND l_shipdate < DATE '1995-01-01' "
               "AND l_discount >= 0.045 AND l_discount <= 0.075 "
               "AND l_quantity < 24";
    }
  }

  bool Check(size_t c, const platform::ExecResult& result) override {
    switch (c) {
      case 0:
      case 1:
        return result.metrics.rows == kBatchRows;
      case 2:
        return result.metrics.rows == 1;
      default: {
        Totals want = base_;
        for (const Batch& b : live_) {
          want.count += b.totals.count;
          want.qty += b.totals.qty;
          want.revenue += b.totals.revenue;
        }
        if (result.table.num_rows() != 1) return false;
        const auto& row = result.table.row(0);
        return row.size() == 3 && !row[0].is_null() &&
               row[0].int_value() == want.count && !row[1].is_null() &&
               AsDouble(row[1]) == want.qty && !row[2].is_null() &&
               Near(AsDouble(row[2]), want.revenue);
      }
    }
  }

 private:
  // Matching rows of the read class: count and quantity are integers,
  // so their sums are exact in any order.
  struct Totals {
    int64_t count = 0;
    double qty = 0;
    double revenue = 0;
  };
  struct Batch {
    int64_t first_key = 0;
    Totals totals;
  };

  static constexpr size_t kBatchRows = 100;
  static constexpr size_t kLiveBatches = 10;
  // Auto-merge the lineitem delta every 20 insert batches: a few merges
  // per run, few enough that the insert class's tail sample (the 11th
  // slowest) does not sit on the boundary between merging and plain
  // inserts.
  static constexpr size_t kMergeThresholdRows = 20 * kBatchRows;

  static void Add(Totals* t, double qty, double discount, double price) {
    if (discount >= 0.045 && discount <= 0.075 && qty < 24) {
      ++t->count;
      t->qty += qty;
      t->revenue += price * discount;
    }
  }

  std::string NextInsert() {
    Batch batch;
    batch.first_key = first_key_ + next_batch_ * static_cast<int64_t>(kBatchRows);
    ++next_batch_;
    std::string sql = "INSERT INTO lineitem VALUES ";
    for (size_t i = 0; i < kBatchRows; ++i) {
      int64_t qty = rng_->Uniform(1, 50);
      int64_t cents = rng_->Uniform(90000, 10000000);
      int64_t discount = rng_->Uniform(0, 10);
      int month = static_cast<int>(rng_->Uniform(1, 12));
      int day = static_cast<int>(rng_->Uniform(1, 28));
      Add(&batch.totals, static_cast<double>(qty),
          static_cast<double>(discount) / 100.0,
          static_cast<double>(cents) / 100.0);
      sql += StrFormat(
          "%s(%lld, %lld, %lld, 1, %lld, %lld.%02lld, 0.%02lld, 0.04, 'N', "
          "'O', DATE '1994-%02d-%02d', DATE '1994-%02d-%02d', "
          "DATE '1995-%02d-%02d', 'DELIVER IN PERSON', 'MAIL', "
          "'perfbench insert')",
          i == 0 ? "" : ", ",
          static_cast<long long>(batch.first_key + static_cast<int64_t>(i)),
          static_cast<long long>(rng_->Uniform(1, 10000)),
          static_cast<long long>(rng_->Uniform(1, 500)),
          static_cast<long long>(qty), static_cast<long long>(cents / 100),
          static_cast<long long>(cents % 100),
          static_cast<long long>(discount), month, day, month, day, month,
          day);
    }
    live_.push_back(batch);
    return sql;
  }

  std::vector<StatementClass> classes_;
  tpch::TpchData data_;
  std::unique_ptr<Rng> rng_;
  int64_t num_orders_ = 0;
  int64_t first_key_ = 0;
  int64_t next_batch_ = 0;
  Totals base_;
  std::deque<Batch> live_;
};

// ---------------------------------------------------------------------
// federation: the paper's federated TPC-H deployment (SUPPLIER, NATION,
// REGION and a local PART copy in HANA; LINEITEM, CUSTOMER, ORDERS,
// PARTSUPP, PART at Hive via SDA), each query plain and with
// USE_REMOTE_CACHE; the Figure-7 stores-join-sales query over the
// extended storage under each federation strategy; and a hybrid table
// whose cold partitions expand into a Union Plan.

class Federation : public Workload {
 public:
  Federation() {
    for (int q : tpch::BenchmarkQueries()) {
      std::string text = tpch::QueryText(q, q == 14 || q == 19 ? "part_local"
                                                               : "part");
      Add({StrFormat("q%d_sda", q), q}, text,
          optimizer::FederationStrategy::kAuto);
      Add({StrFormat("q%d_cached", q), 0},
          text + " WITH HINT (USE_REMOTE_CACHE)",
          optimizer::FederationStrategy::kAuto);
    }
    const std::pair<const char*, optimizer::FederationStrategy> kFig7[] = {
        {"fig7_remote_scan", optimizer::FederationStrategy::kRemoteScanOnly},
        {"fig7_semijoin", optimizer::FederationStrategy::kSemijoin},
        {"fig7_relocation", optimizer::FederationStrategy::kRelocation},
        {"fig7_auto", optimizer::FederationStrategy::kAuto},
    };
    for (const auto& [name, strategy] : kFig7) {
      Add({name, 0},
          "SELECT s.region, SUM(f.amount) AS revenue "
          "FROM stores s JOIN sales f ON s.store_id = f.store_id "
          "WHERE s.name = 'Store#42' GROUP BY s.region",
          strategy);
    }
    Add({"union_plan", 0},
        "SELECT COUNT(*) AS n, SUM(amount) AS total FROM events",
        optimizer::FederationStrategy::kAuto);
  }

  double scale_factor() const override { return 0.001; }
  const std::vector<StatementClass>& classes() const override {
    return classes_;
  }

  void Generate(uint64_t seed) override {
    data_ = tpch::Generate(scale_factor(), seed);
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
    const char* kRegions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
    stores_.clear();
    for (int64_t i = 0; i < kStores; ++i) {
      stores_.push_back({Value::Int(i),
                         Value::String("Store#" + std::to_string(i)),
                         Value::String(kRegions[i % 4])});
    }
    sales_.clear();
    for (int64_t i = 0; i < kSalesRows; ++i) {
      sales_.push_back({Value::Int(i), Value::Int(rng.Uniform(0, kStores - 1)),
                        Value::Double(rng.Uniform(100, 99999) / 100.0)});
    }
    events_.clear();
    event_total_ = 0;
    for (int64_t i = 0; i < kEventRows; ++i) {
      double amount = static_cast<double>(rng.Uniform(0, 996)) * 0.5;
      event_total_ += amount;
      events_.push_back(
          {Value::Int(i), Value::Int(i % 5), Value::Double(amount)});
    }
  }

  void Load(platform::Platform& db, SetupTimes* times) override {
    for (const std::string t : {"supplier", "nation", "region"}) {
      LoadColumnTable(db, t, *tpch::TpchSchema(t), *tpch::TableRows(data_, t),
                      times);
    }
    LoadColumnTable(db, "part_local", *tpch::TpchSchema("part"), data_.part,
                    times);
    for (const std::string t :
         {"lineitem", "customer", "orders", "partsupp", "part"}) {
      Require(db.hive()->CreateTable(t, tpch::TpchSchema(t)),
              "hive create " + t);
      const Rows& rows = *tpch::TableRows(data_, t);
      double start = NowMs();
      Require(db.hive()->LoadRows(t, rows), "hive load " + t);
      times->load_ms += NowMs() - start;
      times->input_bytes += RawBytes(rows);
    }
    Require(db.Run(R"(
        CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc" CONFIGURATION
          'DSN=hive1' WITH CREDENTIAL TYPE 'PASSWORD'
          USING 'user=dfuser;password=dfpass';
        CREATE VIRTUAL TABLE lineitem AT "HIVE1"."dflo"."dflo"."lineitem";
        CREATE VIRTUAL TABLE customer AT "HIVE1"."dflo"."dflo"."customer";
        CREATE VIRTUAL TABLE orders AT "HIVE1"."dflo"."dflo"."orders";
        CREATE VIRTUAL TABLE partsupp AT "HIVE1"."dflo"."dflo"."partsupp";
        CREATE VIRTUAL TABLE part AT "HIVE1"."dflo"."dflo"."part";
        CREATE TABLE sales (sale_id BIGINT, store_id BIGINT, amount DOUBLE)
          USING EXTENDED STORAGE;
        CREATE TABLE events (id BIGINT, bucket BIGINT, amount DOUBLE)
          USING HYBRID EXTENDED STORAGE
          PARTITION BY RANGE (bucket) (
            PARTITION VALUES < 1 COLD, PARTITION VALUES < 2 COLD,
            PARTITION VALUES < 3 COLD, PARTITION VALUES < 4 COLD,
            PARTITION OTHERS HOT))"),
            "federation DDL");
    Schema store_schema({{"store_id", DataType::kInt64, true},
                         {"name", DataType::kString, true},
                         {"region", DataType::kString, true}});
    LoadColumnTable(db, "stores", store_schema, stores_, times);
    for (const auto& [table, rows] :
         {std::pair<const char*, const Rows*>{"sales", &sales_},
          {"events", &events_}}) {
      double start = NowMs();
      Require(db.catalog().Insert(table, *rows), std::string("load ") + table);
      times->load_ms += NowMs() - start;
      times->input_bytes += RawBytes(*rows);
    }
    Require(db.SetParameter("enable_remote_cache", "true"), "remote cache");
  }

  void DropInputs() override {
    data_ = tpch::TpchData();
    stores_.clear();
    sales_.clear();
    events_.clear();
  }

  /// References: each TPC-H query's plain-SDA result and the Figure-7
  /// query's cost-based result. Every strategy and cache mode must
  /// return the same multiset.
  void Prepare(platform::Platform& db) override {
    reference_.assign(statements_.size(), storage::Table());
    for (size_t c = 0; c < statements_.size(); ++c) {
      bool plain = classes_[c].tpch_query != 0 ||
                   classes_[c].name == "fig7_auto";
      if (!plain) continue;
      db.optimizer_options().strategy = strategies_[c];
      auto result = db.Execute(statements_[c]);
      Require(result.status(), "reference " + classes_[c].name);
      reference_[c] = std::move(result->table);
    }
    for (size_t c = 0; c < statements_.size(); ++c) {
      const std::string& name = classes_[c].name;
      if (name.ends_with("_cached")) {
        reference_[c] = reference_[c - 1];
      } else if (name.starts_with("fig7_") && name != "fig7_auto") {
        reference_[c] = reference_[IndexOf("fig7_auto")];
      }
    }
  }

  std::string Next(platform::Platform& db, size_t c) override {
    db.optimizer_options().strategy = strategies_[c];
    return statements_[c];
  }

  bool Check(size_t c, const platform::ExecResult& result) override {
    if (classes_[c].name == "union_plan") {
      const storage::Table& t = result.table;
      return t.num_rows() == 1 && t.row(0).size() == 2 &&
             !t.row(0)[0].is_null() && t.row(0)[0].int_value() == kEventRows &&
             !t.row(0)[1].is_null() && Near(AsDouble(t.row(0)[1]), event_total_);
    }
    return SameRows(result.table, reference_[c]);
  }

 private:
  static constexpr int64_t kStores = 500;
  static constexpr int64_t kSalesRows = 20000;
  static constexpr int64_t kEventRows = 8000;

  void Add(StatementClass cls, std::string sql,
           optimizer::FederationStrategy strategy) {
    classes_.push_back(std::move(cls));
    statements_.push_back(std::move(sql));
    strategies_.push_back(strategy);
  }

  size_t IndexOf(const std::string& name) const {
    for (size_t c = 0; c < classes_.size(); ++c) {
      if (classes_[c].name == name) return c;
    }
    return 0;
  }

  std::vector<StatementClass> classes_;
  std::vector<std::string> statements_;
  std::vector<optimizer::FederationStrategy> strategies_;
  tpch::TpchData data_;
  Rows stores_, sales_, events_;
  double event_total_ = 0;
  std::vector<storage::Table> reference_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"tpch_olap", "olap_extract", "htap_mix", "federation"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tpch_olap") return MakeTpchOlap();
  if (name == "olap_extract") return MakeOlapExtract();
  if (name == "htap_mix") return std::make_unique<HtapMix>();
  if (name == "federation") return std::make_unique<Federation>();
  return nullptr;
}

}  // namespace hana::perfbench
