// Paper-fidelity checks: measured statistics vs the published values.
//
// Each check compares one statistic measured from a trace (by the analyzers
// in this library — never echoed from the generator configuration) against
// the corresponding analysis::paper constant, with a documented absolute
// tolerance band.  The bands (EXPERIMENTS.md "Fidelity bands") bound how far
// the reproduction is allowed to drift from the paper before the regression
// suite (tests/analysis/paper_fidelity_test.cpp) fails ctest.
//
// The cache figures (Figure 8) need the cache simulators, which live above
// this library; callers that have run them pass the measured values in via
// CacheFigures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analyzers.hpp"
#include "analysis/session.hpp"

namespace charisma::analysis {

/// One measured-vs-published comparison.
struct FidelityCheck {
  std::string figure;  // "fig1" .. "fig9", "table1" .. "table3", "sec4.2"...
  std::string name;    // statistic, unique within the suite
  double measured = 0.0;
  double expected = 0.0;   // the paper's value
  double tolerance = 0.0;  // absolute band around `expected`

  [[nodiscard]] double delta() const noexcept { return measured - expected; }
  [[nodiscard]] bool pass() const noexcept {
    return delta() <= tolerance && -delta() <= tolerance;
  }
};

/// Figure 8 statistics measured by cache::simulate_compute_cache (one
/// buffer per node, the paper's configuration).
struct CacheFigures {
  double jobs_above_hit_rate_75 = 0.0;
  double jobs_at_zero_hit_rate = 0.0;
};

/// Runs every trace-derived check (Figures 1-7, Tables 1-3, §4.2, §4.6)
/// and, when `cache` is non-null, the Figure 8 checks.  Order is fixed and
/// code-defined.  `request_sizes` is the finished Figure 4 analysis (the
/// streamed study's accumulator result, or analyze_request_sizes over a
/// record vector).
[[nodiscard]] std::vector<FidelityCheck> check_paper_fidelity(
    const SessionStore& store, const RequestSizeResult& request_sizes,
    std::int64_t block_size, const CacheFigures* cache = nullptr);

/// Renders the checks as an aligned table with per-row PASS/DRIFT verdicts.
[[nodiscard]] std::string render_fidelity(
    const std::vector<FidelityCheck>& checks);

}  // namespace charisma::analysis
