// OptionTable — checked row by row over all three tables (api::Options,
// serving::ServeOptions, net::NetOptions): `--key v` on the command line
// and `key = v` in an options file build the same struct, every bare flag
// also accepts `key = true` in a file, and every key is in the generated
// help.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "gosh/api/options.hpp"
#include "gosh/net/options.hpp"
#include "gosh/serving/options.hpp"

namespace gosh::api {
namespace {

using Samples = std::map<std::string, std::string>;

/// Every row's value, "key=value", in table order.
template <typename Owner>
std::vector<std::string> snapshot(const Owner& owner) {
  std::vector<std::string> values;
  for (const auto& entry : Owner::table().entries())
    values.push_back(entry.key + "=" + Owner::table().show(owner, entry.key));
  return values;
}

template <typename Owner>
Result<Owner> parse_args(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("tool")};
  for (std::string& arg : args) argv.push_back(arg.data());
  return Owner::from_args(static_cast<int>(argv.size()), argv.data());
}

template <typename Owner>
Result<Owner> parse_flags(const KeyValuePairs& pairs) {
  std::vector<std::string> args;
  for (const auto& [key, value] : pairs) {
    args.push_back("--" + key);
    args.push_back(value);
  }
  return parse_args<Owner>(std::move(args));
}

template <typename Owner>
Result<Owner> parse_file(const KeyValuePairs& pairs) {
  const testing_util::TempPath path("options.conf");
  {
    std::ofstream file(path);
    for (const auto& [key, value] : pairs)
      file << key << " = " << value << "\n";
  }
  return Owner::from_file(path);
}

template <typename Owner>
void expect_flags_and_files_agree(const KeyValuePairs& base,
                                  const Samples& samples) {
  const auto& table = Owner::table();
  auto defaults = parse_flags<Owner>(base);
  ASSERT_TRUE(defaults.ok()) << defaults.status().to_string();
  for (const auto& entry : table.entries()) {
    SCOPED_TRACE(entry.key);
    const auto sample = samples.find(entry.key);
    ASSERT_NE(sample, samples.end()) << "no sample value for a new key";
    KeyValuePairs pairs = base;
    pairs.emplace_back(entry.key, sample->second);

    auto flags = parse_flags<Owner>(pairs);
    auto file = parse_file<Owner>(pairs);
    ASSERT_TRUE(flags.ok()) << flags.status().to_string();
    ASSERT_TRUE(file.ok()) << file.status().to_string();
    EXPECT_EQ(snapshot(flags.value()), snapshot(file.value()));
    // The sample moved the field, so the comparison is not vacuous.
    EXPECT_NE(table.show(flags.value(), entry.key),
              table.show(defaults.value(), entry.key));

    if (!entry.flag) continue;
    std::vector<std::string> bare;
    for (const auto& [key, value] : base) {
      bare.push_back("--" + key);
      bare.push_back(value);
    }
    bare.push_back("--" + entry.key);
    KeyValuePairs on = base;
    on.emplace_back(entry.key, "true");
    auto bare_flag = parse_args<Owner>(bare);
    auto file_true = parse_file<Owner>(on);
    ASSERT_TRUE(bare_flag.ok()) << bare_flag.status().to_string();
    ASSERT_TRUE(file_true.ok()) << file_true.status().to_string();
    EXPECT_EQ(snapshot(bare_flag.value()), snapshot(file_true.value()));
    EXPECT_EQ(table.show(bare_flag.value(), entry.key), "true");
  }
}

template <typename Owner>
void expect_help_lists_every_key() {
  const std::string help = Owner::table().help();
  for (const auto& entry : Owner::table().entries()) {
    EXPECT_NE(help.find("  --" + entry.key + (entry.flag ? "" : " ")),
              std::string::npos)
        << entry.key;
    if (!entry.negation.empty()) {
      EXPECT_NE(help.find("--" + entry.negation), std::string::npos);
    }
  }
}

const Samples& options_samples() {
  static const Samples samples = {
      {"input", "g.txt"},
      {"demo", "true"},
      {"output", "o.bin"},
      {"format", "text"},
      {"rows-per-shard", "100"},
      {"eval", "true"},
      {"verbose", "true"},
      {"trace-out", "t.json"},
      {"backend", "largegraph"},
      {"large-scale", "true"},
      {"preset", "fast"},
      {"dim", "48"},
      {"negative-samples", "5"},
      {"learning-rate", "0.05"},
      {"epochs", "77"},
      {"seed", "7"},
      {"smoothing", "0.5"},
      {"edge-epochs", "false"},
      {"update-rule", "sequential"},
      {"positive-sampling", "ppr"},
      {"device-mib", "64"},
      {"workers", "3"},
      {"memory-fraction", "0.5"},
      {"devices", "4"},
      {"sync-interval", "8"},
      {"mile-levels", "3"},
      {"mile-refinement", "1"},
      {"verse-similarity", "adjacency"},
      {"verse-lr", "0.01"},
      {"coarsening", "false"},
      {"coarsening-threshold", "50"},
      {"coarsening-threads", "2"},
      {"pgpu", "4"},
      {"sgpu", "2"},
      {"batch", "3"},
      {"sampler-threads", "2"},
  };
  return samples;
}

const Samples& serve_samples() {
  static const Samples samples = {
      {"store", "other.store"},
      {"index", "i.hnsw"},
      {"strategy", "exact"},
      {"verify", "false"},
      {"shard", "1/3"},
      {"k", "25"},
      {"metric", "l2"},
      {"aggregate", "mean"},
      {"filter", "10:90"},
      {"threads", "3"},
      {"block-rows", "512"},
      {"ef", "128"},
      {"M", "12"},
      {"ef-construction", "80"},
      {"seed", "9"},
      {"batch", "32"},
      {"cache", "true"},
      {"cache-threshold", "0.9"},
      {"cache-capacity", "16"},
      {"cache-ttl-ms", "1000"},
      {"backends", "h:1,h:2"},
      {"remote-deadline-ms", "100"},
      {"retries", "3"},
      {"hedge-after-ms", "20"},
      {"breaker-failures", "2"},
      {"breaker-cooldown-ms", "500"},
      {"probe-interval-ms", "50"},
      {"require-all-shards", "true"},
      {"build-index", "true"},
      {"queries", "q.txt"},
      {"eval", "10"},
      {"recall-floor", "0.5"},
      {"metrics", "true"},
  };
  return samples;
}

Samples net_samples() {
  Samples samples = {
      {"host", "0.0.0.0"},
      {"port", "0"},
      {"threads", "8"},
      {"scan-threads", "5"},
      {"port-file", "p.txt"},
      {"allow-remote-shutdown", "true"},
      {"max-body", "4096"},
      {"max-header", "128"},
      {"read-timeout-ms", "100"},
      {"keepalive-requests", "5"},
      {"rate-qps", "12.5"},
      {"burst", "4"},
      {"conn-rate-qps", "3"},
      {"conn-burst", "2"},
      {"trace-sample-rate", "0.5"},
      {"trace-slow-ms", "20"},
      {"trace-out", "t.json"},
      {"access-log", "true"},
      {"chaos-drop-rate", "0.1"},
      {"chaos-500-rate", "0.1"},
      {"chaos-stall", "0.1"},
      {"chaos-delay-ms", "5"},
      {"chaos-seed", "7"},
  };
  samples.insert(serve_samples().begin(), serve_samples().end());
  return samples;
}

TEST(OptionTable, OptionsFlagsAndFilesAgreeForEveryKey) {
  // rows-per-shard is only valid with the store format.
  expect_flags_and_files_agree<Options>({{"format", "store"}},
                                        options_samples());
}

TEST(OptionTable, ServeOptionsFlagsAndFilesAgreeForEveryKey) {
  expect_flags_and_files_agree<serving::ServeOptions>(
      {{"store", "emb.store"}}, serve_samples());
}

TEST(OptionTable, NetOptionsFlagsAndFilesAgreeForEveryKey) {
  // burst and conn-burst need their rates.
  expect_flags_and_files_agree<net::NetOptions>(
      {{"store", "emb.store"}, {"rate-qps", "10"}, {"conn-rate-qps", "10"}},
      net_samples());
}

TEST(OptionTable, HelpListsEveryKey) {
  expect_help_lists_every_key<Options>();
  expect_help_lists_every_key<serving::ServeOptions>();
  expect_help_lists_every_key<net::NetOptions>();
}

TEST(OptionTable, NetTableCarriesEveryServeKey) {
  // NetOptions shadows only "threads" (its connection pool); every other
  // ServeOptions key reaches `serve` unchanged.
  for (const auto& entry : serving::ServeOptions::table().entries()) {
    net::NetOptions options;
    ASSERT_TRUE(options.set(entry.key, serve_samples().at(entry.key)).is_ok())
        << entry.key;
    if (entry.key == "threads") {
      EXPECT_EQ(options.threads, 3u);
      continue;
    }
    EXPECT_EQ(serving::ServeOptions::table().show(options.serve, entry.key),
              net::NetOptions::table().show(options, entry.key))
        << entry.key;
  }
}

TEST(OptionTable, BareFlagTakesAnExplicitBooleanButNothingElse) {
  auto off = parse_args<Options>({"--coarsening", "false", "--dim", "16"});
  ASSERT_TRUE(off.ok()) << off.status().to_string();
  EXPECT_FALSE(off.value().gosh.enable_coarsening);
  EXPECT_EQ(off.value().train().dim, 16u);
  // A non-boolean after a bare flag is not its value.
  EXPECT_FALSE(parse_args<Options>({"--demo", "yes"}).ok());
}

}  // namespace
}  // namespace gosh::api
