// Planted violation: a fixed scratch path built from TempDir() in a test.
#include <gtest/gtest.h>

#include <string>

namespace gosh::fixture {

std::string planted_path() {
  // test-tempdir must fire once below, and stay quiet on this comment's
  // TempDir() + "x" and on the bare call in near_miss().
  return testing::TempDir() + "store.gshs";
}

std::string near_miss() { return testing::TempDir(); }

}  // namespace gosh::fixture
