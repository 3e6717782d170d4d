// The materialized study summary: the test oracle the streaming pipeline is
// held bit-identical to.  It summarizes an oracle::run_study output
// (support/materialized_study.hpp) — the whole record vector in memory,
// each consumer its own pass over it — through the same
// core::summarize_measurements that production's
// summarize_streamed_study calls, so the two differ only in where the
// session store, request sizes, header and sweep runner come from.
#pragma once

#include <set>
#include <string>

#include "analysis/analyzers.hpp"
#include "analysis/session.hpp"
#include "cache/simulators.hpp"
#include "core/campaign.hpp"
#include "support/materialized_study.hpp"

namespace charisma::oracle {

[[nodiscard]] inline core::StudySummary summarize_study(
    const std::string& label, const core::StudyConfig& config,
    const StudyOutput& output, bool with_figures = true) {
  const analysis::SessionStore store(output.sorted);
  const analysis::RequestSizeResult requests =
      analysis::analyze_request_sizes(output.sorted);
  const std::set<cache::SessionKey> read_only = store.read_only_sessions();
  const cache::SweepRunner runner(output.sorted, read_only);
  core::StudySummary s = core::summarize_measurements(
      store, requests, output.raw.header, with_figures ? &runner : nullptr);
  s.label = label;
  s.seed = config.workload.seed;
  s.scale = config.workload.scale;
  s.trace_digest = output.raw.digest();
  s.events_dispatched = output.events_dispatched;
  s.records = output.records;
  s.total_ops = output.total_ops;
  s.sim_end = output.sim_end;
  return s;
}

}  // namespace charisma::oracle
