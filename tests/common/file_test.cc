#include "common/file.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace ireduct {
namespace {

std::string TestPath(const std::string& name) {
  return testing::TempDir() + "/ireduct_file_" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

TEST(FileTest, WriteFileDurablyReplacesTheFileAndLeavesNoTmp) {
  const std::string path = TestPath("replace.txt");
  ASSERT_TRUE(WriteFileDurably(path, "old bytes, and more of them\n").ok());
  ASSERT_TRUE(WriteFileDurably(path, "new\n").ok());
  EXPECT_EQ(Slurp(path), "new\n");
  EXPECT_FALSE(Exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(FileTest, WriteFileDurablyKeepsTheOldFileWhenTheTmpCannotBeCreated) {
  const std::string path = TestPath("blocked.txt");
  ASSERT_TRUE(WriteFileDurably(path, "old\n").ok());
  ::rmdir((path + ".tmp").c_str());
  ASSERT_EQ(::mkdir((path + ".tmp").c_str(), 0755), 0);
  const Status status = WriteFileDurably(path, "new\n");
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_EQ(Slurp(path), "old\n");
  ::rmdir((path + ".tmp").c_str());
  std::remove(path.c_str());
}

TEST(FileTest, WriteFileDurablyIntoAMissingDirectoryIsAnIoError) {
  const std::string path = TestPath("no_such_dir") + "/out.txt";
  EXPECT_EQ(WriteFileDurably(path, "x").code(), StatusCode::kIoError);
  EXPECT_FALSE(Exists(path));
}

TEST(FileTest, RenameDurablyUnlinksTheTmpWhenTheRenameFails) {
  const std::string dir = TestPath("rename_target");
  const std::string tmp = TestPath("rename_source");
  ::rmdir(dir.c_str());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  std::ofstream(tmp) << "payload";
  // A file cannot be renamed over a directory.
  EXPECT_EQ(RenameDurably(tmp, dir).code(), StatusCode::kIoError);
  EXPECT_FALSE(Exists(tmp));
  ::rmdir(dir.c_str());
}

TEST(FileTest, ReadFileReturnsEveryByte) {
  const std::string path = TestPath("read.bin");
  // Larger than one read buffer, with embedded zero bytes.
  std::string data(200000, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i * 7);
  ASSERT_TRUE(WriteFileDurably(path, data).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  std::remove(path.c_str());
  EXPECT_EQ(ReadFile(path).status().code(), StatusCode::kIoError);
}

TEST(FileTest, MakeParentDirsCreatesEveryMissingLevel) {
  const std::string root = TestPath("parents");
  const std::string path = root + "/a/b/file.txt";
  ASSERT_TRUE(MakeParentDirs(path).ok());
  EXPECT_TRUE(Exists(root + "/a/b"));
  EXPECT_FALSE(Exists(path));
  // Existing directories are fine.
  EXPECT_TRUE(MakeParentDirs(path).ok());
  ::rmdir((root + "/a/b").c_str());
  ::rmdir((root + "/a").c_str());
  ::rmdir(root.c_str());
}

}  // namespace
}  // namespace ireduct
