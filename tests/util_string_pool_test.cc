#include <gtest/gtest.h>

#include <string>

#include "src/util/string_pool.h"

namespace depsurf {
namespace {

TEST(StringPoolTest, IdsFollowFirstInsertOrder) {
  StringPool pool;
  bool added = false;
  EXPECT_EQ(pool.Intern("task_struct", &added), 0u);
  EXPECT_TRUE(added);
  EXPECT_EQ(pool.Intern("pid"), 1u);
  EXPECT_EQ(pool.Intern("", &added), 2u);
  EXPECT_TRUE(added);
  EXPECT_EQ(pool.Intern("task_struct", &added), 0u);
  EXPECT_FALSE(added);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.At(0), "task_struct");
  EXPECT_EQ(pool.At(1), "pid");
  EXPECT_EQ(pool.At(2), "");
  EXPECT_EQ(pool.Lookup("pid"), 1u);
  EXPECT_EQ(pool.Lookup("pi"), StringPool::kNone);
  EXPECT_EQ(StringPool().Lookup("pid"), StringPool::kNone);
}

TEST(StringPoolTest, BlobAndOffsetsAreTheDdsStringTable) {
  StringPool pool;
  pool.Intern("ab");
  pool.Intern("");
  pool.Intern("c");
  EXPECT_EQ(pool.blob(), std::string_view("ab\0\0c\0", 6));
  EXPECT_EQ(pool.offsets(), (std::vector<uint64_t>{0, 3, 4, 6}));
}

TEST(StringPoolTest, GrowsAndInternsItsOwnStrings) {
  StringPool pool;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(pool.Intern("name_" + std::to_string(i)), static_cast<uint32_t>(i));
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(pool.Lookup("name_" + std::to_string(i)), static_cast<uint32_t>(i));
  }
  // Interning a view of the pool's own blob is safe, also when it appends.
  uint32_t id = pool.Intern(pool.At(4321).substr(0, 6));  // "name_4"
  EXPECT_EQ(id, 4u);
  id = pool.Intern(pool.At(4999).substr(5));  // "4999", new
  EXPECT_EQ(id, 5000u);
  EXPECT_EQ(pool.At(id), "4999");
}

TEST(StringPoolTest, ReserveKeepsEveryId) {
  StringPool pool;
  pool.Intern("a");
  pool.Intern("b");
  pool.Reserve(100000, 1 << 20);
  EXPECT_EQ(pool.Lookup("a"), 0u);
  EXPECT_EQ(pool.Lookup("b"), 1u);
  EXPECT_EQ(pool.Intern("c"), 2u);
}

}  // namespace
}  // namespace depsurf
