#include <gtest/gtest.h>

#include <cstdio>

#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/serializer.h"
#include "test_util.h"

namespace fuzzydb {
namespace {

using testing_util::ScratchDir;

// ------------------------------ Page ---------------------------------

TEST(PageTest, InsertAndReadBack) {
  Page page;
  EXPECT_EQ(page.NumRecords(), 0);
  const uint8_t rec1[] = {1, 2, 3};
  const uint8_t rec2[] = {9, 8, 7, 6};
  EXPECT_EQ(page.Insert(rec1, sizeof(rec1)), 0);
  EXPECT_EQ(page.Insert(rec2, sizeof(rec2)), 1);
  EXPECT_EQ(page.NumRecords(), 2);
  uint16_t len = 0;
  const uint8_t* r = page.Record(0, &len);
  ASSERT_EQ(len, 3);
  EXPECT_EQ(r[2], 3);
  r = page.Record(1, &len);
  ASSERT_EQ(len, 4);
  EXPECT_EQ(r[0], 9);
}

TEST(PageTest, FillsUpAndRejects) {
  Page page;
  std::vector<uint8_t> record(1000, 0xab);
  int inserted = 0;
  while (page.Insert(record.data(), record.size()) >= 0) ++inserted;
  // 8 records of ~1004 bytes fit in an 8 KiB page.
  EXPECT_EQ(inserted, 8);
  EXPECT_FALSE(page.Fits(record.size()));
  EXPECT_TRUE(page.Fits(8));  // small records still fit
}

TEST(PageTest, ResetClears) {
  Page page;
  const uint8_t rec[] = {1};
  page.Insert(rec, 1);
  page.Reset();
  EXPECT_EQ(page.NumRecords(), 0);
}

// --------------------------- Serializer -------------------------------

TEST(SerializerTest, RoundTripsAllValueTypes) {
  const Tuple original({Value::Null(), Value::String("hello world"),
                        Value::Number(42.5),
                        Value::Fuzzy(Trapezoid(1, 2, 3, 4))},
                       0.625);
  std::vector<uint8_t> bytes;
  SerializeTuple(original, &bytes);
  ASSERT_OK_AND_ASSIGN(Tuple restored,
                       DeserializeTuple(bytes.data(), bytes.size()));
  EXPECT_TRUE(restored.SameValues(original));
  EXPECT_DOUBLE_EQ(restored.degree(), 0.625);
}

TEST(SerializerTest, PadsToMinimumSize) {
  const Tuple t({Value::Number(1)}, 1.0);
  std::vector<uint8_t> bytes;
  SerializeTuple(t, &bytes, 256);
  EXPECT_EQ(bytes.size(), 256u);
  ASSERT_OK_AND_ASSIGN(Tuple restored,
                       DeserializeTuple(bytes.data(), bytes.size()));
  EXPECT_TRUE(restored.SameValues(t));
}

TEST(SerializerTest, SizeMatchesActual) {
  const Tuple t({Value::String("abc"), Value::Fuzzy(Trapezoid(0, 1, 2, 3))},
                0.5);
  std::vector<uint8_t> bytes;
  SerializeTuple(t, &bytes);
  EXPECT_EQ(bytes.size(), SerializedTupleSize(t));
}

TEST(SerializerTest, RejectsTruncatedInput) {
  const Tuple t({Value::String("abcdef")}, 1.0);
  std::vector<uint8_t> bytes;
  SerializeTuple(t, &bytes);
  const auto result = DeserializeTuple(bytes.data(), 4);
  EXPECT_FALSE(result.ok());
}

// --------------------------- BufferPool -------------------------------

TEST(BufferPoolTest, CountsReadsHitsAndEvictions) {
  const std::string path = ScratchDir("pool");
  ASSERT_OK_AND_ASSIGN(auto file, PageFile::Create(path));
  Page page;
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(PageId id, file->AppendPage(page));
    (void)id;
  }

  BufferPool pool(2);
  ASSERT_TRUE(pool.GetPage(file.get(), 0).ok());
  ASSERT_TRUE(pool.GetPage(file.get(), 1).ok());
  ASSERT_TRUE(pool.GetPage(file.get(), 0).ok());  // hit
  EXPECT_EQ(pool.stats().page_reads, 2u);
  EXPECT_EQ(pool.stats().buffer_hits, 1u);

  // Page 2 evicts the LRU entry (page 1).
  ASSERT_TRUE(pool.GetPage(file.get(), 2).ok());
  ASSERT_TRUE(pool.GetPage(file.get(), 1).ok());  // miss again
  EXPECT_EQ(pool.stats().page_reads, 4u);

  file.reset();
  RemoveFileIfExists(path);
}

TEST(BufferPoolTest, WriteThroughUpdatesCachedCopy) {
  const std::string path = ScratchDir("wt");
  ASSERT_OK_AND_ASSIGN(auto file, PageFile::Create(path));
  Page page;
  const uint8_t rec[] = {42};
  page.Insert(rec, 1);
  ASSERT_OK(file->WritePage(0, page));

  BufferPool pool(4);
  ASSERT_OK_AND_ASSIGN(const Page* cached, pool.GetPage(file.get(), 0));
  EXPECT_EQ(cached->NumRecords(), 1);

  Page updated;
  updated.Insert(rec, 1);
  updated.Insert(rec, 1);
  ASSERT_OK(pool.WritePage(file.get(), 0, updated));
  ASSERT_OK_AND_ASSIGN(cached, pool.GetPage(file.get(), 0));
  EXPECT_EQ(cached->NumRecords(), 2);
  EXPECT_EQ(pool.stats().page_writes, 1u);

  file.reset();
  RemoveFileIfExists(path);
}

// ---------------------------- HeapFile --------------------------------

TEST(HeapFileTest, WriteScanRoundTrip) {
  const std::string path = ScratchDir("heap");
  Relation relation("R", Schema{Column{"A", ValueType::kFuzzy},
                                Column{"B", ValueType::kString}});
  for (int i = 0; i < 1000; ++i) {
    ASSERT_OK(relation.Append(
        Tuple({Value::Number(i), Value::String("row" + std::to_string(i))},
              1.0 - i * 1e-4)));
  }

  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(auto file,
                       WriteRelationToFile(relation, path, &pool));
  EXPECT_GT(file->NumPages(), 1u);

  ASSERT_OK_AND_ASSIGN(
      Relation restored,
      ReadRelationFromFile(file.get(), &pool, "R", relation.schema()));
  ASSERT_EQ(restored.NumTuples(), relation.NumTuples());
  for (size_t i = 0; i < restored.NumTuples(); ++i) {
    EXPECT_TRUE(restored.TupleAt(i).SameValues(relation.TupleAt(i)));
    EXPECT_DOUBLE_EQ(restored.TupleAt(i).degree(),
                     relation.TupleAt(i).degree());
  }

  file.reset();
  RemoveFileIfExists(path);
}

TEST(HeapFileTest, PaddingControlsPageCount) {
  const std::string small = ScratchDir("small"), large = ScratchDir("large");
  Relation relation("R", Schema{Column{"A", ValueType::kFuzzy}});
  for (int i = 0; i < 256; ++i) {
    ASSERT_OK(relation.Append(Tuple({Value::Number(i)}, 1.0)));
  }
  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(auto f1, WriteRelationToFile(relation, small, &pool, 0));
  ASSERT_OK_AND_ASSIGN(auto f2,
                       WriteRelationToFile(relation, large, &pool, 1024));
  EXPECT_LT(f1->NumPages(), f2->NumPages());
  // 1024-byte records: 7 per 8 KiB page -> ceil(256/7) = 37 pages.
  EXPECT_EQ(f2->NumPages(), 37u);
  f1.reset();
  f2.reset();
  RemoveFileIfExists(small);
  RemoveFileIfExists(large);
}

TEST(HeapFileTest, ScannerSeekToPage) {
  const std::string path = ScratchDir("seek");
  Relation relation("R", Schema{Column{"A", ValueType::kFuzzy}});
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(relation.Append(Tuple({Value::Number(i)}, 1.0)));
  }
  BufferPool pool(4);
  ASSERT_OK_AND_ASSIGN(auto file,
                       WriteRelationToFile(relation, path, &pool, 512));
  ASSERT_GT(file->NumPages(), 2u);

  HeapFileScanner scanner(file.get(), &pool);
  scanner.SeekToPage(1);
  Tuple t;
  bool has = false;
  ASSERT_OK(scanner.Next(&t, &has));
  ASSERT_TRUE(has);
  // 15 records of 512 bytes per page: page 1 starts at tuple 15.
  EXPECT_DOUBLE_EQ(t.ValueAt(0).AsFuzzy().CrispValue(), 15.0);

  file.reset();
  RemoveFileIfExists(path);
}

}  // namespace
}  // namespace fuzzydb
