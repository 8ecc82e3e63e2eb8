#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "platform/platform.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace hana::tpch {
namespace {

TEST(DbgenTest, RowCountsFollowOfficialRatios) {
  TpchData data = Generate(0.01);
  EXPECT_EQ(data.region.size(), 5u);
  EXPECT_EQ(data.nation.size(), 25u);
  EXPECT_EQ(data.supplier.size(), 100u);
  EXPECT_EQ(data.customer.size(), 1500u);
  EXPECT_EQ(data.part.size(), 2000u);
  EXPECT_EQ(data.partsupp.size(), 8000u);  // 4 suppliers per part.
  EXPECT_EQ(data.orders.size(), 15000u);
  // 1..7 lineitems per order.
  EXPECT_GT(data.lineitem.size(), data.orders.size());
  EXPECT_LT(data.lineitem.size(), data.orders.size() * 7 + 1);
}

TEST(DbgenTest, Deterministic) {
  TpchData a = Generate(0.001), b = Generate(0.001);
  ASSERT_EQ(a.lineitem.size(), b.lineitem.size());
  for (size_t c = 0; c < a.lineitem[0].size(); ++c) {
    EXPECT_EQ(a.lineitem[0][c].Compare(b.lineitem[0][c]), 0);
  }
  TpchData other = Generate(0.001, /*seed=*/99);
  bool any_diff = other.lineitem.size() != a.lineitem.size();
  if (!any_diff) {
    for (size_t c = 0; c < a.lineitem[0].size() && !any_diff; ++c) {
      any_diff = a.lineitem[0][c].Compare(other.lineitem[0][c]) != 0;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(DbgenTest, SchemasMatchRows) {
  TpchData data = Generate(0.001);
  for (const std::string& table : TpchTableNames()) {
    auto schema = TpchSchema(table);
    const auto* rows = TableRows(data, table);
    ASSERT_NE(rows, nullptr) << table;
    ASSERT_FALSE(rows->empty()) << table;
    for (const auto& row : *rows) {
      ASSERT_EQ(row.size(), schema->num_columns()) << table;
    }
  }
  EXPECT_EQ(TableRows(data, "nope"), nullptr);
}

TEST(DbgenTest, ForeignKeysResolve) {
  TpchData data = Generate(0.002);
  int64_t num_cust = static_cast<int64_t>(data.customer.size());
  int64_t num_part = static_cast<int64_t>(data.part.size());
  int64_t num_supp = static_cast<int64_t>(data.supplier.size());
  for (const auto& order : data.orders) {
    EXPECT_GE(order[1].int_value(), 1);
    EXPECT_LE(order[1].int_value(), num_cust);
  }
  for (const auto& item : data.lineitem) {
    EXPECT_LE(item[1].int_value(), num_part);
    EXPECT_LE(item[2].int_value(), num_supp);
    // receiptdate > shipdate; dates within the population window.
    EXPECT_GT(item[12].int_value(), item[10].int_value());
  }
}

TEST(DbgenTest, PredicateBearingValuesExist) {
  TpchData data = Generate(0.005);
  size_t promo = 0, building = 0, mail_ship = 0, special = 0;
  for (const auto& p : data.part) {
    if (p[4].string_value().rfind("PROMO", 0) == 0) ++promo;
  }
  for (const auto& c : data.customer) {
    if (c[6].string_value() == "BUILDING") ++building;
  }
  for (const auto& l : data.lineitem) {
    const std::string& mode = l[14].string_value();
    if (mode == "MAIL" || mode == "SHIP") ++mail_ship;
  }
  for (const auto& o : data.orders) {
    if (o[8].string_value().find("special") != std::string::npos) ++special;
  }
  EXPECT_GT(promo, data.part.size() / 10);
  EXPECT_GT(building, data.customer.size() / 10);
  EXPECT_GT(mail_ship, data.lineitem.size() / 10);
  EXPECT_GT(special, 0u);
}

TEST(QueriesTest, TextsAndMetadata) {
  EXPECT_EQ(BenchmarkQueries().size(), 12u);
  for (int q : BenchmarkQueries()) {
    EXPECT_FALSE(QueryText(q).empty()) << q;
  }
  EXPECT_TRUE(QueryText(2).empty());  // Not part of the experiment.
  EXPECT_NE(QueryText(14, "part_local").find("part_local"),
            std::string::npos);
  EXPECT_TRUE(IsModifiedQuery(1));
  EXPECT_FALSE(IsModifiedQuery(6));
}

class TpchLocalExecution : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new TpchData(Generate(0.002));
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    for (const std::string& table : TpchTableNames()) {
      sql::CreateTableStmt create;
      create.table = table;
      create.columns = TpchSchema(table)->columns();
      ASSERT_TRUE(db_->catalog().CreateTable(create).ok());
      ASSERT_TRUE(db_->catalog().Insert(table, *TableRows(*data_, table)).ok());
    }
  }
  static void TearDownTestSuite() {
    delete db_;
    delete data_;
  }

  static TpchData* data_;
  static platform::Platform* db_;
};

TpchData* TpchLocalExecution::data_ = nullptr;
platform::Platform* TpchLocalExecution::db_ = nullptr;

TEST_F(TpchLocalExecution, AllQueriesExecuteLocally) {
  for (int q : BenchmarkQueries()) {
    auto result = db_->Query(QueryText(q));
    ASSERT_TRUE(result.ok()) << "Q" << q << ": "
                             << result.status().ToString();
  }
}

TEST_F(TpchLocalExecution, Q1MatchesHandRolledAggregation) {
  auto result = db_->Query(QueryText(1));
  ASSERT_TRUE(result.ok());
  // Recompute sum_qty per (returnflag, linestatus) directly.
  std::map<std::pair<std::string, std::string>, double> expected_qty;
  std::map<std::pair<std::string, std::string>, int64_t> expected_count;
  int64_t cutoff = *ParseDate("1998-09-02");
  for (const auto& l : data_->lineitem) {
    if (l[10].int_value() > cutoff) continue;
    auto key = std::make_pair(l[8].string_value(), l[9].string_value());
    expected_qty[key] += l[4].double_value();
    expected_count[key] += 1;
  }
  ASSERT_EQ(result->num_rows(), expected_qty.size());
  for (const auto& row : result->rows()) {
    auto key = std::make_pair(row[0].string_value(),
                              row[1].string_value());
    ASSERT_TRUE(expected_qty.count(key)) << key.first << key.second;
    EXPECT_NEAR(row[2].double_value(), expected_qty[key], 1e-6);
    EXPECT_EQ(row[9].int_value(), expected_count[key]);
  }
}

TEST_F(TpchLocalExecution, Q6MatchesHandRolledFilter) {
  auto result = db_->Query(QueryText(6));
  ASSERT_TRUE(result.ok());
  double expected = 0;
  int64_t lo = *ParseDate("1994-01-01"), hi = *ParseDate("1995-01-01");
  for (const auto& l : data_->lineitem) {
    int64_t ship = l[10].int_value();
    double discount = l[6].double_value(), qty = l[4].double_value();
    if (ship >= lo && ship < hi && discount >= 0.05 - 1e-9 &&
        discount <= 0.07 + 1e-9 && qty < 24) {
      expected += l[5].double_value() * discount;
    }
  }
  EXPECT_NEAR(result->row(0)[0].double_value(), expected, 1e-6);
}

// ---------------------------------------------------------------------
// Golden results: the correctness oracle for the 12 benchmark queries.
// Row counts and cell digests were recorded at SF 0.01, threads=1,
// default morsel size, before the executor was folded into a single
// pipeline engine; every later engine must reproduce them bit for bit
// at every thread count.
// ---------------------------------------------------------------------

uint64_t MixBytes(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;  // FNV-1a 64.
  }
  return h;
}

/// Order-sensitive FNV-1a digest of every cell: type tag, then the
/// payload — doubles by their bit pattern, strings length-prefixed.
uint64_t TableDigest(const storage::Table& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (const Value& v : t.row(r)) {
      uint8_t tag = static_cast<uint8_t>(v.type());
      h = MixBytes(h, &tag, 1);
      switch (v.type()) {
        case DataType::kNull:
          break;
        case DataType::kBool: {
          uint8_t b = v.bool_value() ? 1 : 0;
          h = MixBytes(h, &b, 1);
          break;
        }
        case DataType::kDouble: {
          double d = v.double_value();
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          h = MixBytes(h, &bits, sizeof(bits));
          break;
        }
        case DataType::kString: {
          const std::string& str = v.string_value();
          uint64_t n = str.size();
          h = MixBytes(h, &n, sizeof(n));
          h = MixBytes(h, str.data(), str.size());
          break;
        }
        default: {  // kInt64, kDate, kTimestamp.
          int64_t i = v.int_value();
          h = MixBytes(h, &i, sizeof(i));
          break;
        }
      }
    }
  }
  return h;
}

struct GoldenResult {
  int query;
  size_t rows;
  uint64_t digest;
};

constexpr GoldenResult kGolden[] = {
    {4, 5, 0x7b2c225bb9a8a574ULL},   {18, 1, 0xf07d3c63bd1e257cULL},
    {13, 23, 0x6608db2fe1193357ULL}, {3, 133, 0xe4535799631f66ceULL},
    {12, 2, 0x9420823ff8d0c004ULL},  {6, 1, 0xbe0d35cae4987d7cULL},
    {1, 4, 0x2388c47a0e55ae84ULL},   {5, 5, 0xce7e26bb82316963ULL},
    {10, 435, 0xbfd72d5eee989e1dULL}, {19, 1, 0x1450630b80db5570ULL},
    {14, 1, 0x240f2cca43760a3eULL},  {16, 295, 0x04a29b479d9addf0ULL},
};

TEST(TpchGoldenTest, BenchmarkQueriesMatchGoldenDigests) {
  TpchData data = Generate(0.01);
  platform::Platform db(platform::PlatformOptions{.attach_extended = false,
                                                  .start_hadoop = false});
  for (const std::string& table : TpchTableNames()) {
    sql::CreateTableStmt create;
    create.table = table;
    create.columns = TpchSchema(table)->columns();
    ASSERT_TRUE(db.catalog().CreateTable(create).ok());
    ASSERT_TRUE(db.catalog().Insert(table, *TableRows(data, table)).ok());
  }
  ASSERT_EQ(std::size(kGolden), BenchmarkQueries().size());
  for (const char* threads : {"1", "4"}) {
    ASSERT_TRUE(db.SetParameter("threads", threads).ok());
    for (const GoldenResult& golden : kGolden) {
      SCOPED_TRACE("Q" + std::to_string(golden.query) + " threads=" +
                   threads);
      auto result = db.Query(QueryText(golden.query));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->num_rows(), golden.rows);
      EXPECT_EQ(TableDigest(*result), golden.digest);
    }
  }
}

}  // namespace
}  // namespace hana::tpch
