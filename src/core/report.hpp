// Paper-style reports over a streamed study's finished analyses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzers.hpp"
#include "analysis/session.hpp"
#include "core/stream_study.hpp"
#include "core/strided.hpp"

namespace charisma::core {

/// The names of the eleven §4 report sections (Figure 1 to Figure 7), in
/// report order: jobs, nodes, population, files-per-job, sizes, requests,
/// sequentiality, intervals, regularity, modes, sharing.
[[nodiscard]] std::vector<std::string_view> report_sections();

/// Renders the §4 sections, each as "--- <title> ---\n<table>\n": every one
/// when `section` is "all", else only the named one (nothing for a name
/// that is not a §4 section).  Figure 4 comes from `request_sizes`, the
/// rest from `store`.
[[nodiscard]] std::string render_sections(
    const analysis::SessionStore& store,
    const analysis::RequestSizeResult& request_sizes,
    std::int64_t block_size, std::string_view section = "all");

/// The whole characterization: every §4 section, the I/O rate over time and
/// the §5 strided rewrite (`strided`, from a StridedRewriter the study fed
/// through StreamOptions::sinks).
[[nodiscard]] std::string full_report(const StreamedStudyOutput& study,
                                      const StridedStats& strided);

}  // namespace charisma::core
