#include "core/motion_database.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace moloc::core {
namespace {

TEST(MotionDatabase, EmptyByDefault) {
  const MotionDatabase db(4);
  EXPECT_EQ(db.locationCount(), 4u);
  EXPECT_EQ(db.entryCount(), 0u);
  EXPECT_FALSE(db.hasEntry(0, 1));
  EXPECT_FALSE(db.entry(0, 1).has_value());
}

TEST(MotionDatabase, SetAndGetEntry) {
  const std::vector<MotionEntry> entries{{1, 2, {90.0, 5.0, 4.0, 0.3, 12}}};
  const MotionDatabase db(4, entries);
  ASSERT_TRUE(db.hasEntry(1, 2));
  const auto stats = db.entry(1, 2);
  EXPECT_DOUBLE_EQ(stats->muDirectionDeg, 90.0);
  EXPECT_DOUBLE_EQ(stats->sigmaDirectionDeg, 5.0);
  EXPECT_DOUBLE_EQ(stats->muOffsetMeters, 4.0);
  EXPECT_DOUBLE_EQ(stats->sigmaOffsetMeters, 0.3);
  EXPECT_EQ(stats->sampleCount, 12);
  // A plain entry does not mirror.
  EXPECT_FALSE(db.hasEntry(2, 1));
}

TEST(MotionDatabase, MirrorFollowsMutualReachability) {
  std::vector<MotionEntry> entries;
  appendWithMirror(entries, 0, 3, {45.0, 6.0, 5.7, 0.4, 8});
  const MotionDatabase db(4, entries);
  ASSERT_TRUE(db.hasEntry(3, 0));
  const auto mirrored = db.entry(3, 0);
  // Reverse rule of Sec. IV.B.2: direction + 180 (mod 360), offset and
  // sigmas unchanged.
  EXPECT_DOUBLE_EQ(mirrored->muDirectionDeg, 225.0);
  EXPECT_DOUBLE_EQ(mirrored->sigmaDirectionDeg, 6.0);
  EXPECT_DOUBLE_EQ(mirrored->muOffsetMeters, 5.7);
  EXPECT_DOUBLE_EQ(mirrored->sigmaOffsetMeters, 0.4);
  EXPECT_EQ(mirrored->sampleCount, 8);
  EXPECT_EQ(db.entryCount(), 2u);
}

TEST(MotionDatabase, MirrorWrapsAround360) {
  std::vector<MotionEntry> entries;
  appendWithMirror(entries, 0, 1, {300.0, 3.0, 4.0, 0.2, 5});
  const MotionDatabase db(3, entries);
  EXPECT_DOUBLE_EQ(db.entry(1, 0)->muDirectionDeg, 120.0);
}

TEST(MotionDatabase, DuplicatePairIsRejected) {
  // One entry per directed pair: a second (0, 1) is a producer bug, not
  // an update.  The reverse pair is a different entry.
  std::vector<MotionEntry> entries{{0, 1, {10.0, 1.0, 2.0, 0.1, 3}},
                                   {1, 0, {190.0, 1.0, 2.0, 0.1, 3}}};
  EXPECT_EQ(MotionDatabase(3, entries).entryCount(), 2u);
  entries.push_back({0, 1, {20.0, 2.0, 3.0, 0.2, 4}});
  EXPECT_THROW(MotionDatabase(3, entries), std::invalid_argument);
  std::vector<MotionEntry> mirrored;
  appendWithMirror(mirrored, 2, 2, {});
  EXPECT_THROW(MotionDatabase(3, mirrored), std::invalid_argument);
}

TEST(MotionDatabase, SelfEntryAllowedButNotAutomatic) {
  EXPECT_FALSE(MotionDatabase(3).hasEntry(1, 1));
  const std::vector<MotionEntry> entries{{1, 1, {0.0, 1.0, 0.0, 0.1, 2}}};
  EXPECT_TRUE(MotionDatabase(3, entries).hasEntry(1, 1));
}

TEST(MotionDatabase, ThrowsOnBadIds) {
  const std::vector<MotionEntry> badFrom{{3, 0, {}}};
  const std::vector<MotionEntry> badTo{{0, -1, {}}};
  EXPECT_THROW(MotionDatabase(3, badFrom), std::out_of_range);
  EXPECT_THROW(MotionDatabase(3, badTo), std::out_of_range);
  const MotionDatabase db(3);
  EXPECT_THROW(db.entry(0, 3), std::out_of_range);
  EXPECT_THROW(db.hasEntry(-1, 0), std::out_of_range);
  EXPECT_THROW(db.find(0, -1), std::out_of_range);
}

TEST(MotionDatabase, DefaultConstructedIsSizeZero) {
  const MotionDatabase db;
  EXPECT_EQ(db.locationCount(), 0u);
  EXPECT_EQ(db.rowStarts().size(), 1u);
  EXPECT_THROW(db.entry(0, 0), std::out_of_range);
}

TEST(MotionDatabase, EntryCountCountsDirected) {
  std::vector<MotionEntry> entries;
  appendWithMirror(entries, 0, 1, {});
  appendWithMirror(entries, 1, 2, {});
  entries.push_back({3, 4, {}});
  EXPECT_EQ(MotionDatabase(5, entries).entryCount(), 5u);
}

}  // namespace
}  // namespace moloc::core
