// Harness aggregation helpers and a smoke test of the CLI tools (the
// artifact workflow) driven through std::system.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "support/mini_json.hpp"
#include "szp/harness/runner.hpp"
#include "szp/perfmodel/hardware.hpp"

namespace szp {
namespace {

TEST(HarnessRunner, SweepCodecAveragesAreSane) {
  const perfmodel::CostModel model(perfmodel::a100());
  std::vector<data::Field> fields;
  fields.push_back(data::make_field(data::Suite::kCesmAtm, 0, 0.02));
  const auto st = harness::sweep_codec(fields, harness::CodecId::kSzp, model);
  EXPECT_GT(st.avg.e2e_comp_gbps, 0);
  EXPECT_GT(st.avg.e2e_decomp_gbps, 0);
  EXPECT_GT(st.avg_compression_ratio, 1.0);
  // Single-kernel codec: kernel == e2e.
  EXPECT_NEAR(st.avg.e2e_comp_gbps, st.avg.kernel_comp_gbps,
              st.avg.kernel_comp_gbps * 0.02);
}

TEST(HarnessRunner, CrStatsOrdering) {
  const auto fields = data::make_suite(data::Suite::kHacc, 0.02);
  const auto s =
      harness::cr_over_fields(fields, harness::CodecId::kSzp, 1e-2);
  EXPECT_LE(s.min, s.avg);
  EXPECT_LE(s.avg, s.max);
  EXPECT_GT(s.min, 0);
}

TEST(HarnessRunner, SuiteListMatchesPaperOrder) {
  const auto& ids = harness::all_suite_ids();
  ASSERT_EQ(ids.size(), 6u);
  EXPECT_EQ(data::suite_info(ids.front()).name, "Hurricane");
  EXPECT_EQ(data::suite_info(ids.back()).name, "CESM-ATM");
}

TEST(HarnessRunner, RelBoundsAndRatesMatchPaper) {
  EXPECT_EQ(harness::rel_bounds(),
            (std::vector<double>{1e-1, 1e-2, 1e-3, 1e-4}));
  EXPECT_EQ(harness::fixed_rates(), (std::vector<double>{4, 8, 16, 24}));
}

class CliSmoke : public ::testing::Test {
 protected:
  // ctest runs tests from build/tests; direct invocation often happens
  // from the repo root — try both layouts.
  static std::string tool(const std::string& name) {
    for (const char* prefix : {"build/tools/", "../tools/", "tools/"}) {
      const std::string candidate = prefix + name;
      if (std::filesystem::exists(candidate)) return candidate;
    }
    return {};
  }
  static bool tool_exists(const std::string& name) {
    return !tool(name).empty();
  }
};

TEST_F(CliSmoke, SzpCliDemoWorkflow) {
  if (!tool_exists("szp_cli")) GTEST_SKIP() << "tools not built here";
  // Per-process dir: the devcheck variant of this binary runs the same
  // test and ctest may schedule both concurrently.
  const std::string dir =
      "/tmp/szp_cli_smoke." + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string cmd = "cd " + dir + " && " +
                          std::filesystem::absolute(tool("szp_cli")).string() +
                          " --demo CESM-ATM 1e-3 > cli.log 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/CESM-ATM_CLDHGH.szp.cmp"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/CESM-ATM_CLDHGH.szp.dec"));
  std::ifstream log(dir + "/cli.log");
  const std::string contents((std::istreambuf_iterator<char>(log)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("Pass error check!"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(CliSmoke, CompareAndSsimAndPlot) {
  if (!tool_exists("compare_data")) GTEST_SKIP() << "tools not built here";
  const std::string dir =
      "/tmp/szp_tools_smoke." + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const auto field = data::make_field(data::Suite::kCesmAtm, 0, 0.05);
  data::save_f32(dir + "/a.f32", field);
  data::save_f32(dir + "/b.f32", field);

  auto run = [&](const std::string& c) {
    return std::system((c + " > /dev/null 2>&1").c_str());
  };
  const auto abs = [&](const std::string& t) {
    return std::filesystem::absolute(tool(t)).string();
  };
  EXPECT_EQ(run(abs("compare_data") + " " + dir + "/a.f32 " + dir + "/b.f32"),
            0);
  EXPECT_EQ(run(abs("calculate_ssim") + " " + dir + "/a.f32 " + dir +
                "/b.f32 " + std::to_string(field.dims[0]) + " " +
                std::to_string(field.dims[1])),
            0);
  EXPECT_EQ(run(abs("plot_slice") + " " + dir + "/a.f32 " +
                std::to_string(field.dims[0]) + " " +
                std::to_string(field.dims[1]) + " 0 " + dir + "/s.pgm"),
            0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/s.pgm"));
  std::filesystem::remove_all(dir);
}

// Regression: `--metrics-json -` must keep stdout pure JSON even with
// diagnostics forced on (SZP_LOG=debug + telemetry enabled) — every
// human-readable line belongs on stderr. A single interleaved progress
// line would break any pipeline parsing the scrape.
TEST_F(CliSmoke, MetricsJsonOnStdoutStaysParseableWithDiagnosticsOn) {
  if (!tool_exists("szp_cli")) GTEST_SKIP() << "tools not built here";
  const std::string dir =
      "/tmp/szp_cli_stdout_purity." + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string cmd =
      "cd " + dir + " && SZP_LOG=debug SZP_TELEMETRY=1 " +
      std::filesystem::absolute(tool("szp_cli")).string() +
      " --demo CESM-ATM 1e-3 --stats --metrics-json - > out.json 2> err.txt";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  std::ifstream out(dir + "/out.json");
  const std::string json((std::istreambuf_iterator<char>(out)),
                         std::istreambuf_iterator<char>());
  ASSERT_FALSE(json.empty());
  // stdout is exactly one strict-JSON document.
  EXPECT_NO_THROW((void)testsupport::JsonParser(json).parse())
      << json.substr(0, 400);

  // The diagnostics did happen — they just went to stderr.
  std::ifstream err(dir + "/err.txt");
  const std::string diag((std::istreambuf_iterator<char>(err)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(diag.find("Pass error check!"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace szp
