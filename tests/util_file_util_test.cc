#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/util/file_util.h"

namespace depsurf {
namespace {

class FileUtilTest : public testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/depsurf_file_util_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::remove((dir_ + "/data").c_str());
    rmdir(dir_.c_str());
  }
  std::string dir_;
};

TEST_F(FileUtilTest, ReadsARegularFileWhole) {
  std::string payload(100000, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 7);
  }
  {
    std::ofstream out(dir_ + "/data", std::ios::binary);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  auto bytes = ReadFileBytes(dir_ + "/data");
  ASSERT_TRUE(bytes.ok()) << bytes.error().ToString();
  EXPECT_EQ(std::string(bytes->begin(), bytes->end()), payload);
}

TEST_F(FileUtilTest, MissingFileIsAnIoError) {
  auto bytes = ReadFileBytes(dir_ + "/missing");
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.error().code(), ErrorCode::kIoError);
  EXPECT_EQ(bytes.error().message(), "cannot open " + dir_ + "/missing");
}

// A directory opens read-only but every read fails (EISDIR): the failure
// must surface, not come back as an empty buffer.
TEST_F(FileUtilTest, ReadFailingAfterOpenIsAnIoError) {
  auto bytes = ReadFileBytes(dir_);
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.error().code(), ErrorCode::kIoError);
  EXPECT_NE(bytes.error().message().find("cannot read " + dir_), std::string::npos);
}

TEST_F(FileUtilTest, NonRegularFilesReadToEof) {
  auto bytes = ReadFileBytes("/dev/null");
  ASSERT_TRUE(bytes.ok()) << bytes.error().ToString();
  EXPECT_TRUE(bytes->empty());
}

}  // namespace
}  // namespace depsurf
