// NetOptions — the HTTP front-end's options surface: net-key parsing, the
// ServeOptions delegation (one flag set across gosh_serve and gosh_query),
// the scan-threads rename, strict from_args, and file/flag layering.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "gosh/net/options.hpp"

namespace gosh::net {
namespace {

/// argv helper: from_args wants mutable char**.
api::Result<NetOptions> parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("gosh_serve"));
  for (std::string& arg : args) argv.push_back(arg.data());
  return NetOptions::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(NetOptions, DefaultsAreSaneButNeedAStore) {
  NetOptions options;
  EXPECT_EQ(options.host, "127.0.0.1");
  EXPECT_EQ(options.port, 8080u);
  EXPECT_EQ(options.threads, 4u);
  EXPECT_FALSE(options.allow_remote_shutdown);
  // validate() delegates to the embedded ServeOptions, which requires a
  // store path — the same contract gosh_query enforces.
  EXPECT_FALSE(options.validate().is_ok());
  options.serve.store_path = "emb.store";
  EXPECT_TRUE(options.validate().is_ok());
}

TEST(NetOptions, SetHandlesNetKeysAndDelegatesTheRest) {
  NetOptions options;
  EXPECT_TRUE(options.set("port", "0").is_ok());
  EXPECT_TRUE(options.set("threads", "2").is_ok());
  EXPECT_TRUE(options.set("max-body", "4096").is_ok());
  EXPECT_TRUE(options.set("rate-qps", "12.5").is_ok());
  EXPECT_TRUE(options.set("burst", "4").is_ok());
  EXPECT_TRUE(options.set("store", "emb.store").is_ok());
  EXPECT_TRUE(options.set("strategy", "exact").is_ok());
  EXPECT_TRUE(options.set("k", "7").is_ok());
  EXPECT_EQ(options.port, 0u);
  EXPECT_EQ(options.threads, 2u);
  EXPECT_EQ(options.max_body, 4096u);
  EXPECT_DOUBLE_EQ(options.rate_qps, 12.5);
  EXPECT_DOUBLE_EQ(options.burst, 4.0);
  EXPECT_EQ(options.serve.store_path, "emb.store");
  EXPECT_EQ(options.serve.strategy, "exact");
  EXPECT_EQ(options.serve.k, 7u);
  // A key neither layer knows stays an error.
  EXPECT_FALSE(options.set("warp-speed", "9").is_ok());
}

TEST(NetOptions, ScanThreadsNamesTheServeSidePool) {
  NetOptions options;
  ASSERT_TRUE(options.set("threads", "3").is_ok());
  ASSERT_TRUE(options.set("scan-threads", "5").is_ok());
  EXPECT_EQ(options.threads, 3u);        // connection workers
  EXPECT_EQ(options.serve.threads, 5u);  // scan parallelism
}

TEST(NetOptions, FromArgsParsesBooleansWithoutValues) {
  auto parsed = parse({"--store", "emb.store", "--port", "0",
                       "--allow-remote-shutdown", "--no-verify",
                       "--rate-qps", "100", "--burst", "10"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_TRUE(parsed.value().allow_remote_shutdown);
  EXPECT_FALSE(parsed.value().serve.verify_checksums);
  EXPECT_DOUBLE_EQ(parsed.value().rate_qps, 100.0);
}

TEST(NetOptions, ServingBareFlagsNeedNoValue) {
  // gosh_serve speaks every gosh_query flag, the bare ones included: a
  // bare flag must not swallow the next argument as its value.
  auto strict = parse({"--store", "s", "--require-all-shards", "--port", "0"});
  ASSERT_TRUE(strict.ok()) << strict.status().to_string();
  EXPECT_TRUE(strict.value().serve.require_all_shards);
  EXPECT_EQ(strict.value().port, 0u);

  auto metrics = parse({"--store", "s", "--metrics"});
  ASSERT_TRUE(metrics.ok()) << metrics.status().to_string();
  EXPECT_TRUE(metrics.value().serve.dump_metrics);

  auto build = parse({"--build-index", "--store", "s"});
  ASSERT_TRUE(build.ok()) << build.status().to_string();
  EXPECT_TRUE(build.value().serve.build_index);
}

TEST(NetOptions, StringValuesAreTrimmed) {
  NetOptions options;
  ASSERT_TRUE(options.set("host", " 0.0.0.0 ").is_ok());
  ASSERT_TRUE(options.set("trace-out", "\ttrace.json ").is_ok());
  ASSERT_TRUE(options.set("port-file", " port.txt").is_ok());
  EXPECT_EQ(options.host, "0.0.0.0");
  EXPECT_EQ(options.trace_out, "trace.json");
  EXPECT_EQ(options.port_file, "port.txt");
}

TEST(NetOptions, FromArgsRejectsWhatValidateRejects) {
  // Missing store.
  EXPECT_FALSE(parse({"--port", "0"}).ok());
  // Out-of-range port.
  EXPECT_FALSE(parse({"--store", "s", "--port", "70000"}).ok());
  // burst without a rate.
  EXPECT_FALSE(parse({"--store", "s", "--burst", "5"}).ok());
  // Negative rate (strict real parse).
  EXPECT_FALSE(parse({"--store", "s", "--rate-qps", "-3"}).ok());
  // Dangling flag.
  EXPECT_FALSE(parse({"--store", "s", "--port"}).ok());
  // Stray non-flag argument.
  EXPECT_FALSE(parse({"emb.store"}).ok());
  // Unknown flag (on either surface).
  EXPECT_FALSE(parse({"--store", "s", "--warp-speed", "9"}).ok());
}

TEST(NetOptions, OptionsFileLoadsFirstAndFlagsOverride) {
  const testing_util::TempPath path("net_options.conf");
  {
    std::ofstream out(path);
    out << "# serving front-end config\n"
        << "store = emb.store\n"
        << "port = 9999\n"
        << "threads = 8\n"
        << "rate-qps = 50\n";
  }
  auto parsed = parse({"--options", path.path(), "--port", "0"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().port, 0u);       // the flag wins
  EXPECT_EQ(parsed.value().threads, 8u);    // the file holds
  EXPECT_DOUBLE_EQ(parsed.value().rate_qps, 50.0);
  EXPECT_EQ(parsed.value().serve.store_path, "emb.store");
}

TEST(NetOptions, FromFileMatchesSetSemantics) {
  const testing_util::TempPath path("net_options_file.conf");
  {
    std::ofstream out(path);
    out << "store = emb.store\nscan-threads = 6\nmax-header = 128\n";
  }
  auto parsed = NetOptions::from_file(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().serve.threads, 6u);
  EXPECT_EQ(parsed.value().max_header, 128u);
}

TEST(NetOptions, HelpShortCircuits) {
  auto parsed = parse({"--help"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().show_help);
}

}  // namespace
}  // namespace gosh::net
