// The write-ahead log proper: record framing, the segment manager, and
// the checkpoint protocol (docs/durability.md). Crash recovery end to
// end lives in recovery_test.cc; MVCC snapshot semantics in
// mvcc_test.cc.
#include <cstdlib>
#include <vector>

#include "common/failpoint.h"
#include "storage/buffer_pool.h"
#include "test_util.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"
#include "wal/wal_record.h"

namespace fuzzydb {
namespace {

using wal::WalRecord;
using wal::WalRecordType;

using testing_util::ScratchDir;

WalRecord CreateRecord(const std::string& table) {
  WalRecord record;
  record.type = WalRecordType::kCreateTable;
  record.table = table;
  record.schema = Schema{{"x", ValueType::kFuzzy}};
  return record;
}

WalRecord InsertRecord(const std::string& table, double v, double degree) {
  WalRecord record;
  record.type = WalRecordType::kInsert;
  record.table = table;
  record.tuple = Tuple({Value::Number(v)}, degree);
  return record;
}

// ---------------------------- record format ----------------------------

TEST(WalRecordTest, RoundTripsEveryRecordType) {
  std::vector<WalRecord> records;
  WalRecord create;
  create.type = WalRecordType::kCreateTable;
  create.table = "emp";
  ASSERT_OK(create.schema.AddColumn({"name", ValueType::kString}));
  ASSERT_OK(create.schema.AddColumn({"age", ValueType::kFuzzy}));
  records.push_back(create);

  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.table = "emp";
  insert.tuple =
      Tuple({Value::String("ann"), Value::Fuzzy(Trapezoid(25, 28, 32, 35))},
            0.875);
  records.push_back(insert);

  WalRecord drop;
  drop.type = WalRecordType::kDropTable;
  drop.table = "emp";
  records.push_back(drop);

  WalRecord term;
  term.type = WalRecordType::kDefineTerm;
  term.term = "medium young";
  term.shape = Trapezoid(25, 27.5, 32.5, 35);
  records.push_back(term);

  WalRecord checkpoint;
  checkpoint.type = WalRecordType::kCheckpoint;
  checkpoint.checkpoint_lsn = 42;
  records.push_back(checkpoint);

  std::vector<uint8_t> buffer;
  uint64_t lsn = 1;
  for (WalRecord& record : records) {
    record.lsn = lsn++;
    EncodeWalRecord(record, &buffer);
  }

  size_t pos = 0;
  for (const WalRecord& expected : records) {
    WalRecord decoded;
    size_t consumed = 0;
    ASSERT_EQ(wal::DecodeWalRecord(buffer.data() + pos, buffer.size() - pos,
                                   &decoded, &consumed),
              wal::WalDecodeOutcome::kRecord);
    EXPECT_EQ(decoded.lsn, expected.lsn);
    EXPECT_EQ(decoded.type, expected.type);
    EXPECT_EQ(decoded.table, expected.table);
    EXPECT_EQ(decoded.term, expected.term);
    EXPECT_EQ(decoded.checkpoint_lsn, expected.checkpoint_lsn);
    if (expected.type == WalRecordType::kCreateTable) {
      EXPECT_TRUE(decoded.schema == expected.schema);
    }
    if (expected.type == WalRecordType::kInsert) {
      EXPECT_TRUE(decoded.tuple.SameValues(expected.tuple));
      // Degrees survive bit-for-bit: raw IEEE-754 bytes in the frame.
      EXPECT_EQ(decoded.tuple.degree(), expected.tuple.degree());
    }
    if (expected.type == WalRecordType::kDefineTerm) {
      EXPECT_EQ(decoded.shape.a(), expected.shape.a());
      EXPECT_EQ(decoded.shape.d(), expected.shape.d());
    }
    pos += consumed;
  }
  EXPECT_EQ(pos, buffer.size());
  WalRecord tail;
  size_t consumed = 0;
  EXPECT_EQ(wal::DecodeWalRecord(buffer.data() + pos, 0, &tail, &consumed),
            wal::WalDecodeOutcome::kEnd);
}

TEST(WalRecordTest, FlippedBitAnywhereIsCorrupt) {
  WalRecord record = InsertRecord("t", 3.5, 1.0);
  record.lsn = 7;
  std::vector<uint8_t> buffer;
  EncodeWalRecord(record, &buffer);
  for (size_t i = 0; i < buffer.size(); ++i) {
    std::vector<uint8_t> damaged = buffer;
    damaged[i] ^= 0x40;
    WalRecord decoded;
    size_t consumed = 0;
    EXPECT_EQ(wal::DecodeWalRecord(damaged.data(), damaged.size(), &decoded,
                                   &consumed),
              wal::WalDecodeOutcome::kCorrupt)
        << "flip at byte " << i;
  }
}

TEST(WalRecordTest, TruncatedFrameIsCorruptNotEnd) {
  WalRecord record = InsertRecord("t", 1.0, 1.0);
  record.lsn = 1;
  std::vector<uint8_t> buffer;
  EncodeWalRecord(record, &buffer);
  // Every proper prefix is a torn write: corrupt, never a clean end.
  for (size_t keep = 1; keep < buffer.size(); ++keep) {
    WalRecord decoded;
    size_t consumed = 0;
    EXPECT_EQ(wal::DecodeWalRecord(buffer.data(), keep, &decoded, &consumed),
              wal::WalDecodeOutcome::kCorrupt)
        << "prefix of " << keep << " bytes";
  }
}

TEST(WalManagerTest, ParsesFsyncModes) {
  ASSERT_OK_AND_ASSIGN(const wal::FsyncMode always,
                       wal::ParseFsyncMode("always"));
  EXPECT_EQ(always, wal::FsyncMode::kAlways);
  ASSERT_OK_AND_ASSIGN(const wal::FsyncMode batch,
                       wal::ParseFsyncMode("batch"));
  EXPECT_EQ(batch, wal::FsyncMode::kBatch);
  ASSERT_OK_AND_ASSIGN(const wal::FsyncMode off, wal::ParseFsyncMode("off"));
  EXPECT_EQ(off, wal::FsyncMode::kOff);
  EXPECT_FALSE(wal::ParseFsyncMode("sometimes").ok());
}

// ---------------------------- segment manager --------------------------

TEST(WalManagerTest, AppendsStampMonotonicLsnsAcrossReopen) {
  const std::string dir = ScratchDir("reopen");
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kOff;
  {
    ASSERT_OK_AND_ASSIGN(auto manager,
                         wal::WalManager::Open(dir, options, 1, 0));
    WalRecord create = CreateRecord("t");
    ASSERT_OK(manager->Append(&create));
    EXPECT_EQ(create.lsn, 1u);
    for (int i = 0; i < 5; ++i) {
      WalRecord record = InsertRecord("t", i, 1.0);
      ASSERT_OK(manager->Append(&record));
      EXPECT_EQ(record.lsn, static_cast<uint64_t>(i + 2));
    }
    EXPECT_EQ(manager->LastLsn(), 6u);
  }
  // Reopen the way recovery does: next LSN continues after the last.
  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(auto recovered,
                       wal::OpenWalDatabase(dir, options, &pool));
  EXPECT_EQ(recovered.records_replayed, 6u);
  ASSERT_OK_AND_ASSIGN(const Relation* t, recovered.catalog.GetRelation("t"));
  EXPECT_EQ(t->NumTuples(), 5u);
  WalRecord record = InsertRecord("t", 99, 1.0);
  ASSERT_OK(recovered.manager->Append(&record));
  EXPECT_EQ(record.lsn, 7u);
}

TEST(WalManagerTest, RotatesAtTheConfiguredSegmentSize) {
  const std::string dir = ScratchDir("rotate");
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kOff;
  options.segment_bytes = 256;  // a few records per segment
  ASSERT_OK_AND_ASSIGN(auto manager,
                       wal::WalManager::Open(dir, options, 1, 0));
  for (int i = 0; i < 40; ++i) {
    WalRecord record = InsertRecord("t", i, 1.0);
    ASSERT_OK(manager->Append(&record));
  }
  EXPECT_GT(manager->SegmentCount(), 3u);
  ASSERT_OK_AND_ASSIGN(const std::vector<uint64_t> seqs,
                       wal::ListWalSegments(dir));
  EXPECT_EQ(seqs.size(), manager->SegmentCount());
}

TEST(WalManagerTest, BatchModeSyncsEveryNthAppend) {
  const std::string dir = ScratchDir("batch");
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kBatch;
  options.batch_records = 4;
  ASSERT_OK_AND_ASSIGN(auto manager,
                       wal::WalManager::Open(dir, options, 1, 0));
  // Arm the fsync point with a skip larger than the test will ever hit:
  // it never fires, but its hit counter observes exactly when the
  // manager reaches fsync().
  FailPoints::Arm("wal/fsync", /*failures=*/1, /*skip=*/1000);
  for (int i = 0; i < 3; ++i) {
    WalRecord record = InsertRecord("t", i, 1.0);
    ASSERT_OK(manager->Append(&record));
  }
  EXPECT_EQ(FailPoints::Hits("wal/fsync"), 0u);
  WalRecord record = InsertRecord("t", 3, 1.0);
  ASSERT_OK(manager->Append(&record));  // 4th append crosses the batch
  EXPECT_EQ(FailPoints::Hits("wal/fsync"), 1u);
  FailPoints::DisarmAll();
}

TEST(WalManagerTest, FailedAppendLeavesNoTrace) {
  const std::string dir = ScratchDir("scrub");
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kAlways;
  ASSERT_OK_AND_ASSIGN(auto manager,
                       wal::WalManager::Open(dir, options, 1, 0));
  WalRecord create = CreateRecord("t");
  ASSERT_OK(manager->Append(&create));
  WalRecord ok_record = InsertRecord("t", 1, 1.0);
  ASSERT_OK(manager->Append(&ok_record));

  for (const char* point : {"wal/append", "wal/fsync"}) {
    FailPoints::Arm(point);
    WalRecord failed = InsertRecord("t", 2, 1.0);
    EXPECT_FALSE(manager->Append(&failed).ok()) << point;
    FailPoints::DisarmAll();
    // The failed record must leave the log untouched, and the LSN it
    // would have taken is reused by the next success.
    EXPECT_EQ(manager->LastLsn(), 2u) << point;
  }

  WalRecord next = InsertRecord("t", 3, 1.0);
  ASSERT_OK(manager->Append(&next));
  EXPECT_EQ(next.lsn, 3u);
  manager.reset();

  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(auto recovered,
                       wal::OpenWalDatabase(dir, options, &pool));
  EXPECT_EQ(recovered.records_replayed, 3u);
  EXPECT_EQ(recovered.torn_tail_bytes, 0u);
  ASSERT_OK_AND_ASSIGN(const Relation* t, recovered.catalog.GetRelation("t"));
  EXPECT_EQ(t->NumTuples(), 2u);  // values 1 and 3; the failed 2 never was
}

// ------------------------------ checkpoint -----------------------------

TEST(WalManagerTest, CheckpointPrunesSegmentsAndOldImages) {
  const std::string dir = ScratchDir("ckpt");
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kOff;
  options.segment_bytes = 256;
  ASSERT_OK_AND_ASSIGN(auto manager,
                       wal::WalManager::Open(dir, options, 1, 0));

  Catalog catalog;
  WalRecord create = CreateRecord("t");
  ASSERT_OK(manager->Append(&create));
  ASSERT_OK(wal::ApplyWalRecord(create, &catalog));
  for (int i = 0; i < 30; ++i) {
    WalRecord record = InsertRecord("t", i, 1.0);
    ASSERT_OK(manager->Append(&record));
    ASSERT_OK(wal::ApplyWalRecord(record, &catalog));
  }
  ASSERT_GT(manager->SegmentCount(), 2u);

  BufferPool pool(8);
  uint64_t first_lsn = 0;
  ASSERT_OK(manager->Checkpoint(catalog, &pool, &first_lsn));
  EXPECT_EQ(first_lsn, 31u);  // create + 30 inserts
  EXPECT_EQ(manager->CheckpointLsn(), 31u);
  // Sealed segments are gone; only the fresh active one remains.
  EXPECT_EQ(manager->SegmentCount(), 1u);

  // A second checkpoint replaces the image and supersedes the first.
  WalRecord record = InsertRecord("t", 100, 1.0);
  ASSERT_OK(manager->Append(&record));
  ASSERT_OK(wal::ApplyWalRecord(record, &catalog));
  uint64_t second_lsn = 0;
  ASSERT_OK(manager->Checkpoint(catalog, &pool, &second_lsn));
  EXPECT_GT(second_lsn, first_lsn);
  ASSERT_OK_AND_ASSIGN(const wal::CheckpointMeta meta,
                       wal::ReadCheckpointMeta(dir));
  EXPECT_EQ(meta.lsn, second_lsn);

  // Restart: the image alone carries the data; nothing to replay but
  // the informational checkpoint marker.
  manager.reset();
  ASSERT_OK_AND_ASSIGN(auto recovered,
                       wal::OpenWalDatabase(dir, options, &pool));
  EXPECT_EQ(recovered.checkpoint_lsn, second_lsn);
  ASSERT_OK_AND_ASSIGN(const Relation* after,
                       recovered.catalog.GetRelation("t"));
  EXPECT_EQ(after->NumTuples(), 31u);
}

TEST(WalManagerTest, CheckpointFailPointLeavesPreviousCheckpointLive) {
  const std::string dir = ScratchDir("ckptfail");
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kOff;
  ASSERT_OK_AND_ASSIGN(auto manager,
                       wal::WalManager::Open(dir, options, 1, 0));
  Catalog catalog;
  WalRecord create = CreateRecord("t");
  ASSERT_OK(manager->Append(&create));
  ASSERT_OK(wal::ApplyWalRecord(create, &catalog));
  WalRecord record = InsertRecord("t", 1, 1.0);
  ASSERT_OK(manager->Append(&record));
  ASSERT_OK(wal::ApplyWalRecord(record, &catalog));

  BufferPool pool(8);
  uint64_t lsn = 0;
  ASSERT_OK(manager->Checkpoint(catalog, &pool, &lsn));

  FailPoints::Arm("wal/checkpoint");
  EXPECT_FALSE(manager->Checkpoint(catalog, &pool, &lsn).ok());
  FailPoints::DisarmAll();

  ASSERT_OK_AND_ASSIGN(const wal::CheckpointMeta meta,
                       wal::ReadCheckpointMeta(dir));
  EXPECT_EQ(meta.lsn, manager->CheckpointLsn());
}

TEST(WalManagerTest, SysWalRelationListsSegments) {
  const std::string dir = ScratchDir("syswal");
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kOff;
  options.segment_bytes = 256;
  ASSERT_OK_AND_ASSIGN(auto manager,
                       wal::WalManager::Open(dir, options, 1, 0));
  for (int i = 0; i < 20; ++i) {
    WalRecord record = InsertRecord("t", i, 1.0);
    ASSERT_OK(manager->Append(&record));
  }
  const Relation rel = manager->ToRelation();
  EXPECT_EQ(rel.NumTuples(), manager->SegmentCount());
  ASSERT_OK_AND_ASSIGN(const size_t active_col,
                       rel.schema().IndexOf("active"));
  size_t active_rows = 0;
  for (const Tuple& tuple : rel.tuples()) {
    if (tuple.ValueAt(active_col).AsFuzzy().CrispValue() == 1.0) ++active_rows;
  }
  EXPECT_EQ(active_rows, 1u);
}

}  // namespace
}  // namespace fuzzydb
