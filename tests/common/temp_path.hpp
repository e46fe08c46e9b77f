// Scratch paths for tests that write files.
//
// ctest runs every test case as its own process, many at once under
// `ctest -j`. A fixed path such as `TempDir() + "store.gshs"` is then
// shared by concurrent processes: one rewrites the file while another has
// it mmapped, which ends in wrong answers or a SIGBUS. Every test file
// path comes from here instead (gosh_lint's `test-tempdir` rule rejects raw
// `TempDir() +` concatenation anywhere else).
//
// A TempPath owns a fresh directory named after the process id, the
// running test and a per-process counter, and removes it — with every
// sidecar the code under test wrote next to the file (shards, indexes,
// temp files) — when it goes out of scope.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

namespace gosh::testing_util {

class TempPath {
 public:
  /// `name` is the file name inside the owned directory.
  explicit TempPath(const std::string& name = "file") {
    static std::atomic<unsigned> counter{0};
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            ("gosh-" + std::to_string(::getpid()) + "-" + test_name() + "-" +
             std::to_string(counter.fetch_add(1))))
               .string();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
    std::filesystem::create_directories(dir_, ignored);
    path_ = file(name);
  }
  ~TempPath() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  const std::string& path() const noexcept { return path_; }
  operator const std::string&() const noexcept { return path_; }
  /// Another file in the same owned directory.
  std::string file(const std::string& name) const { return dir_ + "/" + name; }
  const std::string& dir() const noexcept { return dir_; }

 private:
  // "Suite.Test" of the running test, or the suite inside
  // SetUpTestSuite; only [A-Za-z0-9_.-] so parameterized names stay
  // valid file names.
  static std::string test_name() {
    const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
    std::string name = "global";
    if (const ::testing::TestInfo* info = unit.current_test_info()) {
      name = std::string(info->test_suite_name()) + "." + info->name();
    } else if (const ::testing::TestSuite* suite = unit.current_test_suite()) {
      name = suite->name();
    }
    for (char& c : name) {
      const bool keep = std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_' || c == '.' || c == '-';
      if (!keep) c = '_';
    }
    return name;
  }

  std::string dir_;
  std::string path_;
};

}  // namespace gosh::testing_util
