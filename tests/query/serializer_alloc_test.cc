// The serialisers' allocation gate and byte pins.
//
// 1. Steady-state rows allocate nothing: JsonWriter, CsvWriter and
//    WireWriter render each row into one reused buffer, so once the first
//    (widest) row has sized it, every later Row() makes zero heap
//    allocations. This binary replaces the global operator new/delete with
//    malloc-backed versions that count allocations per thread, so the
//    count around a single-threaded call is exact and deterministic.
// 2. Hostile text renders to fixed bytes: labels, tags, column names and
//    cursors holding quotes, backslashes, control bytes, commas, newlines
//    and UTF-8 / high bytes render exactly as the string-concatenating
//    serialisers rendered them (the expected strings were captured from
//    that implementation).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "query/query_result.h"
#include "query/row_sink.h"
#include "query/wire_format.h"

namespace {

thread_local uint64_t tl_allocs = 0;

void* CountedAllocate(std::size_t size) {
  ++tl_allocs;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAllocateAligned(std::size_t size, std::align_val_t align) {
  ++tl_allocs;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAllocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAllocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace scube {
namespace query {
namespace {

const std::string kHostile = "q\"b\\s\x01" "c,n\nu\xc3\xa9\xff\t\r";

/// A REVERSALS-shaped header: every optional column on.
ResultHeader AllColumnsHeader() {
  ResultHeader header;
  header.verb = Verb::kReversals;
  header.by = indexes::IndexKind::kIsolation;
  header.has_value = header.has_aux = header.has_aux2 = header.has_tag = true;
  header.aux_name = "boundary_child";
  header.aux2_name = "children";
  header.tag_name = "direction";
  return header;
}

/// Rows of every shape: defined and undefined, escaped and plain labels
/// (most beyond the short-string buffer), special doubles, merge keys.
/// The first row is the widest, so it sizes every writer's row buffer.
std::vector<ResultRow> MixedRows(size_t n) {
  std::vector<ResultRow> rows;
  for (size_t i = 0; i < n; ++i) {
    ResultRow row;
    const bool hostile = i % 3 == 0;
    row.sa = hostile ? kHostile + kHostile
                     : "gender=F & age_bin=18-38 #" + std::to_string(i);
    row.ca = i % 2 == 0 ? "residence_region=north & sector=" +
                              std::to_string(i % 17)
                        : "*";
    row.t = 1000 + i * 7919;
    row.m = i * 13;
    row.units = static_cast<uint32_t>(i % 50);
    row.defined = i % 5 != 4;
    for (size_t k = 0; k < row.indexes.size(); ++k) {
      row.indexes[k] = static_cast<double>(i + 1) / (k + 3.0);
    }
    row.indexes[0] = i % 7 == 1 ? std::numeric_limits<double>::quiet_NaN()
                                : row.indexes[0];
    row.value = -1.0 / static_cast<double>(i + 1);
    row.aux = i % 11 == 2 ? std::numeric_limits<double>::infinity() : 1e-7;
    row.aux2 = static_cast<double>(i);
    row.tag = hostile ? kHostile : (i % 2 == 0 ? "masked" : "inflated");
    row.skey = std::string(8 + i % 9, static_cast<char>(i));
    rows.push_back(std::move(row));
  }
  // Widest by construction: longest labels, integers, doubles and key.
  ResultRow& widest = rows[0];
  widest.ca = "residence_region=north & sector=99 & hq_region=south";
  widest.t = widest.m = std::numeric_limits<uint64_t>::max();
  widest.units = std::numeric_limits<uint32_t>::max();
  widest.defined = true;
  widest.indexes.fill(-1.2345678e-300);
  widest.value = widest.aux = widest.aux2 = -1.2345678e-300;
  widest.skey = std::string(16, '\xff');
  return rows;
}

/// Renders `rows` through a Writer and returns the heap allocations made
/// by Row() calls after the first. The write callback only counts bytes.
template <typename Writer>
uint64_t AllocationsAfterTheFirstRow(const std::vector<ResultRow>& rows,
                                     uint64_t* bytes) {
  Writer writer([bytes](std::string_view chunk) {
    *bytes += chunk.size();
    return true;
  });
  EXPECT_TRUE(writer.Begin(AllColumnsHeader()));
  EXPECT_TRUE(writer.Row(rows[0]));
  const uint64_t before = tl_allocs;
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_TRUE(writer.Row(rows[i]));
  }
  const uint64_t allocations = tl_allocs - before;
  writer.Finish(ResultTrailer{});
  return allocations;
}

TEST(SerializerAllocTest, TheHookCountsAllocations) {
  const uint64_t before = tl_allocs;
  std::string grown(1000, 'x');
  EXPECT_EQ(grown.size(), 1000u);
  EXPECT_GE(tl_allocs - before, 1u);
}

TEST(SerializerAllocTest, JsonRowsAllocateNothingAfterTheFirst) {
  const std::vector<ResultRow> rows = MixedRows(1000);
  uint64_t bytes = 0;
  EXPECT_EQ(AllocationsAfterTheFirstRow<JsonWriter>(rows, &bytes), 0u);
  EXPECT_GT(bytes, 1000u * 100);
}

TEST(SerializerAllocTest, CsvRowsAllocateNothingAfterTheFirst) {
  const std::vector<ResultRow> rows = MixedRows(1000);
  uint64_t bytes = 0;
  EXPECT_EQ(AllocationsAfterTheFirstRow<CsvWriter>(rows, &bytes), 0u);
  EXPECT_GT(bytes, 1000u * 50);
}

TEST(SerializerAllocTest, WireRowsAllocateNothingAfterTheFirst) {
  const std::vector<ResultRow> rows = MixedRows(1000);
  uint64_t bytes = 0;
  EXPECT_EQ(AllocationsAfterTheFirstRow<WireWriter>(rows, &bytes), 0u);
  EXPECT_GT(bytes, 1000u * 150);
}

// --- hostile text ----------------------------------------------------------

QueryResult HostileResult() {
  QueryResult result;
  static_cast<ResultHeader&>(result) = AllColumnsHeader();
  result.cells_scanned = 42;
  result.next_cursor = "cur\"sor";
  ResultRow a;
  a.sa = kHostile;
  a.ca = "residence_region=north & sector=a,b";
  a.t = std::numeric_limits<uint64_t>::max();
  a.m = 0;
  a.units = std::numeric_limits<uint32_t>::max();
  a.defined = true;
  a.indexes = {0.0, -0.0, 123456.5, 999999.5, 1e-5, 0.0001};
  a.value = std::numeric_limits<double>::denorm_min();
  a.aux = -std::numeric_limits<double>::infinity();
  a.aux2 = std::numeric_limits<double>::quiet_NaN();
  a.tag = kHostile;
  a.skey = std::string("\x00\x7f\x80\xff", 4);
  ResultRow b;
  b.sa = "*";
  b.ca = "say \"hi\"";
  b.t = 7;
  b.m = 3;
  b.units = 1;
  b.defined = false;
  b.indexes = {0.25, 0.5, 0.75, 1.0, 0.1, 0.2};
  b.value = 1.0 / 3;
  b.aux = 2e300;
  b.aux2 = -1.5e-300;
  result.rows = {a, b};
  return result;
}

std::string WireOf(const QueryResult& result) {
  std::string wire;
  WireWriter writer([&wire](std::string_view chunk) {
    wire.append(chunk);
    return true;
  });
  ReplayResult(result, writer);
  return wire;
}

TEST(SerializerAllocTest, HostileLabelsAndTagsRenderToPinnedBytes) {
  const std::string kJson =
      "{\"verb\":\"REVERSALS\",\"by\":\"isolation\",\"rows\":[{\"sa\":\"q\\"
      "\"b\\\\s\\u0001c,n\\nu\303\251\377\\t\\r\",\"ca\":\"residence_region"
      "=north & sector=a,b\",\"T\":18446744073709551615,\"M\":0,\"units\":4"
      "294967295,\"indexes\":{\"dissimilarity\":0,\"gini\":-0,\"information"
      "\":123456,\"isolation\":1e+06,\"interaction\":1e-05,\"atkinson\":0.0"
      "001},\"value\":4.94066e-324,\"boundary_child\":-inf,\"children\":nan"
      ",\"direction\":\"q\\\"b\\\\s\\u0001c,n\\nu\303\251\377\\t\\r\"},{\"s"
      "a\":\"*\",\"ca\":\"say \\\"hi\\\"\",\"T\":7,\"M\":3,\"units\":1,\"in"
      "dexes\":{\"dissimilarity\":null,\"gini\":null,\"information\":null,"
      "\"isolation\":null,\"interaction\":null,\"atkinson\":null},\"value\""
      ":0.333333,\"boundary_child\":2e+300,\"children\":-1.5e-300,\"directi"
      "on\":\"\"}],\"cells_scanned\":42,\"next_cursor\":\"cur\\\"sor\"}";
  const std::string kCsv =
      "sa,ca,T,M,units,dissimilarity,gini,information,isolation,interaction"
      ",atkinson,value,boundary_child,children,direction\n"
      "\"q\"\"b\\s\001c,n\n"
      "u\303\251\377\t\r\",\"residence_region=north & sector=a,b\",18446744"
      "073709551615,0,4294967295,0,-0,123456,1e+06,1e-05,0.0001,4.94066e-32"
      "4,-inf,nan,\"q\"\"b\\s\001c,n\n"
      "u\303\251\377\t\r\"\n"
      "*,\"say \"\"hi\"\"\",7,3,1,,,,,,,0.333333,2e+300,-1.5e-300,\n"
      "# next_cursor: cur\"sor\n";
  const std::string kWire =
      "H\t6\t3\t1\t1\t1\t1\tboundary_child\tchildren\tdirection\n"
      "R\t007f80ff\tq\"b\\\\s\001c,n\\nu\303\251\377\\t\\r\tresidence_regio"
      "n=north & sector=a,b\t18446744073709551615\t0\t4294967295\t1\t000000"
      "0000000000\t8000000000000000\t40fe240800000000\t412e847f00000000\t3e"
      "e4f8b588e368f1\t3f1a36e2eb1c432d\t0000000000000001\tfff0000000000000"
      "\t7ff8000000000000\tq\"b\\\\s\001c,n\\nu\303\251\377\\t\\r\n"
      "R\t\t*\tsay \"hi\"\t7\t3\t1\t0\t3fd0000000000000\t3fe0000000000000\t"
      "3fe8000000000000\t3ff0000000000000\t3fb999999999999a\t3fc99999999999"
      "9a\t3fd5555555555555\t7e47e43c8800759c\t81b01297d23ab683\t\n"
      "T\t42\tcur\"sor\n";
  const QueryResult result = HostileResult();
  EXPECT_EQ(ToJson(result), kJson);
  EXPECT_EQ(ToCsv(result), kCsv);
  EXPECT_EQ(WireOf(result), kWire);
}

TEST(SerializerAllocTest, HostileColumnNamesRenderToPinnedBytes) {
  const std::string kJson =
      "{\"verb\":\"SURPRISES\",\"by\":\"dissimilarity\",\"rows\":[{\"sa\":"
      "\"gender=F\",\"ca\":\"*\",\"T\":10,\"M\":2,\"units\":3,\"indexes\":{"
      "\"dissimilarity\":0.5,\"gini\":0.25,\"information\":0.125,\"isolatio"
      "n\":0.0625,\"interaction\":0.142857,\"atkinson\":0.666667},\"value\""
      ":0.1,\"d\\\"el\\\\ta\":0.2,\"be,st\\n\":0.3,\"t\\u0001\303\251g\\t\""
      ":\"masked\"}],\"cells_scanned\":0}";
  const std::string kCsv =
      "sa,ca,T,M,units,dissimilarity,gini,information,isolation,interaction"
      ",atkinson,value,d\"el\\ta,be,st\n"
      ",t\001\303\251g\t\n"
      "gender=F,*,10,2,3,0.5,0.25,0.125,0.0625,0.142857,0.666667,0.1,0.2,0."
      "3,masked\n";
  const std::string kWire =
      "H\t5\t0\t1\t1\t1\t1\td\"el\\\\ta\tbe,st\\n\tt\001\303\251g\\t\n"
      "R\t\tgender=F\t*\t10\t2\t3\t1\t3fe0000000000000\t3fd0000000000000\t3"
      "fc0000000000000\t3fb0000000000000\t3fc2492492492492\t3fe555555555555"
      "5\t3fb999999999999a\t3fc999999999999a\t3fd3333333333333\tmasked\n"
      "T\t0\t\n";
  QueryResult result;
  result.verb = Verb::kSurprises;
  result.has_value = result.has_aux = result.has_aux2 = result.has_tag = true;
  result.aux_name = "d\"el\\ta";
  result.aux2_name = "be,st\n";
  result.tag_name = "t\x01\xc3\xa9g\t";
  ResultRow row;
  row.sa = "gender=F";
  row.ca = "*";
  row.t = 10;
  row.m = 2;
  row.units = 3;
  row.defined = true;
  row.indexes = {0.5, 0.25, 0.125, 0.0625, 1.0 / 7, 2.0 / 3};
  row.value = 0.1;
  row.aux = 0.2;
  row.aux2 = 0.3;
  row.tag = "masked";
  result.rows = {row};
  EXPECT_EQ(ToJson(result), kJson);
  EXPECT_EQ(ToCsv(result), kCsv);
  EXPECT_EQ(WireOf(result), kWire);
}

TEST(SerializerAllocTest, CursorTokensAndStatusLinesRenderToPinnedBytes) {
  const std::string kCursor =
      "c2NxMXwzfDE3fDAxMjM0NTY3ODlhYmNkZWZ8Y3ViZXxuYW1l";
  const std::string kCursor2 =
      "c2NxMXwxfDB8MDAwMDAwMDAwMDAwMDAwMHx4";
  const std::string kCursor3 =
      "c2NxMXwxfDB8ZmZmZmZmZmZmZmZmZmZmZnx4";
  const std::string kStatus =
      "S\t2\tno\\tsuch\\\\cube\\n\t9\t1\t12\n";
  EXPECT_EQ(EncodeCursor(Cursor{"cube|name", 3, 17, 0x0123456789abcdefull}),
            kCursor);
  EXPECT_EQ(EncodeCursor(Cursor{"x", 1, 0, 0}), kCursor2);
  EXPECT_EQ(EncodeCursor(Cursor{"x", 1, 0, ~0ull}), kCursor3);
  EXPECT_EQ(WireStatusLine(StatusCode::kNotFound, "no\tsuch\\cube\n", 9,
                           true, 12),
            kStatus);
}

}  // namespace
}  // namespace query
}  // namespace scube
