#include "core/export.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "cache/simulators.hpp"
#include "core/stream_study.hpp"

namespace charisma::core {
namespace {

StreamedStudyOutput study_at(double scale, std::uint64_t seed) {
  StudyConfig config;
  config.workload.scale = scale;
  config.workload.seed = seed;
  return run_streamed_study(config);
}

TEST(ExportFigures, WritesEverySeries) {
  StreamedStudyOutput study = study_at(0.02, 33);
  const cache::SweepRunner sweeps(std::move(study.replay_ops),
                                  study.sessions.read_only_sessions());
  const std::string dir = ::testing::TempDir() + "charisma_export";
  std::filesystem::create_directories(dir);
  const auto result = export_figures(study, sweeps, dir);
  EXPECT_GE(result.files_written, 14);
  for (const char* name :
       {"fig1.tsv", "fig2.tsv", "fig3.tsv", "fig4.tsv", "fig5_read_only.tsv",
        "fig6_write_only.tsv", "fig7_read_bytes.tsv", "fig8_1buf.tsv",
        "fig9.tsv", "iorate.tsv", "plots.gp"}) {
    const std::filesystem::path p = std::filesystem::path(dir) / name;
    EXPECT_TRUE(std::filesystem::exists(p)) << name;
    EXPECT_GT(std::filesystem::file_size(p), 10u) << name;
  }
  // TSVs start with a header comment and have numeric rows.
  std::ifstream f(std::filesystem::path(dir) / "fig4.tsv");
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line[0], '#');
  std::getline(f, line);
  EXPECT_NE(line.find('\t'), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ExportFigures, FailsCleanlyOnBadDirectory) {
  StreamedStudyOutput study = study_at(0.01, 34);
  const cache::SweepRunner sweeps(std::move(study.replay_ops),
                                  study.sessions.read_only_sessions());
  EXPECT_THROW(export_figures(study, sweeps, "/nonexistent-dir/nope"),
               std::runtime_error);
}

}  // namespace
}  // namespace charisma::core
