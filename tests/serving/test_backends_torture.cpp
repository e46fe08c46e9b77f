// parse_backends under torture: seeded mutations (byte flips, truncations,
// deletions, inserted ',' '|' ':' '#' and line breaks) of valid --backends
// specs, both inline and as files. Every input must come back as a clean
// Status or as well-formed groups that render back to an equal spec —
// never a crash, which the ASan/UBSan CI leg turns into a hard failure.
// Everything is seeded, so a failure reproduces.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "gosh/serving/remote.hpp"

namespace gosh::serving {
namespace {

constexpr int kInlineCases = 4000;
constexpr int kFileCases = 1000;

const char* const kInlineSpecs[] = {
    "127.0.0.1:9001",
    "h1:1, h2:2|h3:3 ,h4:4",
    "localhost:9000,localhost:9001,localhost:9002",
    "10.0.0.1:80|10.0.0.2:80|10.0.0.3:80",
    "a.example:65535,b.example:1",
};

const char* const kFileSpecs[] = {
    "# shard children\n"
    "127.0.0.1:9001 | 127.0.0.1:9002   # shard 0 replicas\n"
    "\n"
    "127.0.0.1:9003\n",
    "h1:1\nh2:2|h3:3\r\nh4:4  # trailing comment\n",
};

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string text) {
    static constexpr char kInserts[] = {',', '|', ':', '#', '\n',
                                        '\r', ' ', '\t', '\0'};
    const std::size_t edits = 1 + pick(4);
    for (std::size_t e = 0; e < edits; ++e) {
      switch (pick(4)) {
        case 0:  // flip one bit of one byte
          if (!text.empty()) {
            text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
          }
          break;
        case 1:  // truncate
          text.resize(pick(text.size() + 1));
          break;
        case 2:  // insert a separator or line break
          text.insert(pick(text.size() + 1), 1,
                      kInserts[pick(sizeof(kInserts))]);
          break;
        default:  // delete one byte
          if (!text.empty()) text.erase(pick(text.size()), 1);
          break;
      }
    }
    return text;
  }

  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

 private:
  std::mt19937_64 rng_;
};

std::vector<std::vector<std::string>> labels(
    const std::vector<std::vector<Endpoint>>& groups) {
  std::vector<std::vector<std::string>> out;
  for (const auto& group : groups) {
    out.emplace_back();
    for (const Endpoint& endpoint : group) {
      out.back().push_back(endpoint.label());
    }
  }
  return out;
}

/// The contract for an accepted spec: at least one group, none empty,
/// every host non-empty and free of whitespace, control bytes and the
/// separators ',' '|' '#', every port in [1, 65535] — and the groups
/// rendered back to an inline spec parse to the same groups.
void expect_well_formed(const std::vector<std::vector<Endpoint>>& groups,
                        const std::string& input) {
  ASSERT_FALSE(groups.empty()) << testing::PrintToString(input);
  std::string spec;
  for (const auto& group : groups) {
    ASSERT_FALSE(group.empty()) << testing::PrintToString(input);
    if (!spec.empty()) spec += ',';
    for (std::size_t r = 0; r < group.size(); ++r) {
      const Endpoint& endpoint = group[r];
      EXPECT_FALSE(endpoint.host.empty()) << testing::PrintToString(input);
      EXPECT_GE(endpoint.port, 1u) << testing::PrintToString(input);
      for (const char c : endpoint.host) {
        EXPECT_TRUE(static_cast<unsigned char>(c) > ' ' && c != '\x7f' &&
                    c != ',' && c != '|' && c != '#')
            << testing::PrintToString(input);
      }
      if (r > 0) spec += '|';
      spec += endpoint.label();
    }
  }
  auto again = parse_backends(spec);
  ASSERT_TRUE(again.ok()) << spec << ": " << again.status().to_string();
  EXPECT_EQ(labels(again.value()), labels(groups))
      << testing::PrintToString(input);
}

TEST(BackendsTorture, MutatedInlineSpecsParseCleanlyOrFail) {
  Mutator mutator(0xB4C4E2D5ULL);
  int accepted = 0;
  for (int i = 0; i < kInlineCases; ++i) {
    const std::string input = mutator.mutate(
        kInlineSpecs[mutator.pick(std::size(kInlineSpecs))]);
    auto groups = parse_backends(input);
    if (!groups.ok()) {
      EXPECT_EQ(groups.status().code(), api::StatusCode::kInvalidArgument)
          << testing::PrintToString(input);
      EXPECT_FALSE(groups.status().message().empty());
      continue;
    }
    ++accepted;
    expect_well_formed(groups.value(), input);
  }
  // Both outcomes must actually be exercised, or the mutator is too tame
  // (or too wild) to test anything.
  EXPECT_GT(accepted, kInlineCases / 20);
  EXPECT_LT(accepted, kInlineCases - kInlineCases / 20);
}

TEST(BackendsTorture, MutatedFileSpecsParseCleanlyOrFail) {
  const testing_util::TempPath path("backends.txt");
  Mutator mutator(0xF11E5ULL);
  int accepted = 0;
  for (int i = 0; i < kFileCases; ++i) {
    const std::string input =
        mutator.mutate(kFileSpecs[mutator.pick(std::size(kFileSpecs))]);
    {
      std::ofstream out(path.path(), std::ios::binary | std::ios::trunc);
      out << input;
    }
    auto groups = parse_backends(path);
    if (!groups.ok()) {
      EXPECT_EQ(groups.status().code(), api::StatusCode::kInvalidArgument)
          << testing::PrintToString(input);
      continue;
    }
    ++accepted;
    expect_well_formed(groups.value(), input);
  }
  EXPECT_GT(accepted, kFileCases / 20);
  EXPECT_LT(accepted, kFileCases - kFileCases / 20);
}

}  // namespace
}  // namespace gosh::serving
