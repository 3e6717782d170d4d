// Per-figure distribution aggregation (the ROADMAP's "full per-figure CDF
// aggregation" item).
//
// The paper's results are distributions, not scalars, so a campaign that
// wants error bars has to aggregate figure-by-figure: every study samples
// each figure's curve on a fixed, code-defined x grid (a FigureCurve), and
// the campaign folds the replications pointwise into envelope bands
// (FigureEnvelope: mean / min / max / 95% CI at every grid position).
// Fixed grids are what make the pointwise fold well-defined — each
// replication's empirical CDF has its own support, but all of them are
// sampled at the same x positions.
//
// This header covers the trace-derived figures (Figure 4, Figures 5/6,
// Figure 7, Tables 1-3); the cache figures (8/9) are appended by the core
// layer, which owns the cache simulators.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzers.hpp"
#include "analysis/session.hpp"
#include "util/histogram.hpp"

namespace charisma::analysis {

/// One figure's series, sampled on a fixed grid.  `name` doubles as the
/// exported TSV file stem (campaign_<name>.tsv).
struct FigureCurve {
  std::string name;
  std::vector<double> xs;  // grid, identical across replications by design
  std::vector<double> ys;  // measured value at each grid position
};

/// Every per-figure curve of one study, in a fixed code-defined order.
struct FigureSet {
  std::vector<FigureCurve> curves;

  /// Curve by name; nullptr when absent.
  [[nodiscard]] const FigureCurve* find(std::string_view name) const noexcept;
  void add(std::string name, std::vector<double> xs, std::vector<double> ys);
};

/// Pointwise envelope of one figure across replications: at each grid
/// position, the mean / min / max / normal-approximation 95% CI half-width
/// over every replication that produced the curve.  All columns are finite
/// for any replication count — a single replication yields the zero-width
/// band mean == min == max, ci95_half == 0.
struct FigureEnvelope {
  std::string name;
  std::vector<double> xs;
  std::vector<double> mean;
  std::vector<double> min;
  std::vector<double> max;
  std::vector<double> ci95_half;
  std::uint64_t replications = 0;

  [[nodiscard]] std::size_t size() const noexcept { return xs.size(); }
};

// ---- Fixed grids -----------------------------------------------------------

/// 0, 0.05, ..., 1.0 — the grid for every fraction-valued axis
/// (sequentiality, sharing, and cache hit-rate CDFs).
[[nodiscard]] std::vector<double> fraction_grid();

/// Log-spaced request-size positions, 64 B .. 33 MB (Figure 4's axis).
[[nodiscard]] std::vector<double> request_size_grid();

/// The I/O-node cache sweep's buffer counts (Figure 9's axis).
[[nodiscard]] std::vector<double> fig9_buffer_grid();

// ---- Collection ------------------------------------------------------------

/// Samples the trace-derived figures: Figure 4 (request-size CDFs by count
/// and by bytes), Figures 5/6 (per-class sequentiality CDFs), Figure 7
/// (per-class sharing CDFs), and Tables 1-3 (bucket fractions).  Figure 4
/// comes from `request_sizes` — the one figure whose input is the raw record
/// stream, not the session store — so figures are collected from the same
/// bounded inputs the streamed study finishes with.
[[nodiscard]] FigureSet collect_trace_figures(
    const SessionStore& store, const RequestSizeResult& request_sizes,
    std::int64_t block_size);

// ---- Envelope fold ---------------------------------------------------------

/// Folds per-study figure sets into one envelope per figure, pointwise
/// across replications.  Figures appear in first-seen order scanning `sets`
/// in input order and each curve is accumulated in input order, so the
/// result is bitwise reproducible for any campaign worker-thread count.
/// Curves sharing a name must share a grid (CHECK).
[[nodiscard]] std::vector<FigureEnvelope> fold_envelopes(
    const std::vector<const FigureSet*>& sets);

}  // namespace charisma::analysis
