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

TEST_F(FileUtilTest, WriteTruncatesAndAppendAdds) {
  const std::string path = dir_ + "/data";
  ASSERT_TRUE(WriteFile(path, std::string(1000, 'x')).ok());
  ASSERT_TRUE(WriteFile(path, std::string_view("first\n")).ok());
  ASSERT_TRUE(AppendFile(path, "second\n").ok());
  ASSERT_TRUE(WriteFile(path + ".bytes", std::vector<uint8_t>{1, 2, 3}).ok());
  auto text = ReadFileBytes(path);
  ASSERT_TRUE(text.ok()) << text.error().ToString();
  EXPECT_EQ(std::string(text->begin(), text->end()), "first\nsecond\n");
  auto bytes = ReadFileBytes(path + ".bytes");
  ASSERT_TRUE(bytes.ok()) << bytes.error().ToString();
  EXPECT_EQ(*bytes, (std::vector<uint8_t>{1, 2, 3}));
  std::remove((path + ".bytes").c_str());
}

// /dev/full accepts the open and fails the write: a small output that a
// buffered writer would hold until close must still fail, naming the path.
TEST_F(FileUtilTest, FullDeviceIsAnIoError) {
  for (const Status& status : {WriteFile("/dev/full", std::string_view("{}\n")),
                               WriteFile("/dev/full", std::vector<uint8_t>{0}),
                               AppendFile("/dev/full", "{}\n")}) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code(), ErrorCode::kIoError);
    EXPECT_NE(status.error().message().find("cannot write /dev/full"), std::string::npos)
        << status.error().message();
  }
}

TEST_F(FileUtilTest, UnopenableWriteTargetIsAnIoError) {
  for (const Status& status : {WriteFile(dir_ + "/missing/out", std::string_view("x")),
                               AppendFile(dir_, "x")}) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code(), ErrorCode::kIoError);
    EXPECT_EQ(status.error().message().rfind("cannot write ", 0), 0u) << status.error().message();
  }
}

}  // namespace
}  // namespace depsurf
