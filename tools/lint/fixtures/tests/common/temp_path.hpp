// Allowlisted: the helper is the one place that builds on TempDir().
#pragma once

#include <gtest/gtest.h>

#include <string>

namespace gosh::fixture {

inline std::string helper_path() { return testing::TempDir() + "unique"; }

}  // namespace gosh::fixture
