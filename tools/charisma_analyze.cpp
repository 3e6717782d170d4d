// charisma_analyze — offline analysis of a saved CHARISMA trace.
//
// Reads a binary trace written by the collector (e.g. via
// `trace_and_characterize --out=nas.chtr`) and runs the requested analyses,
// like the analysis programs behind the paper's §4.
//
// The trace is *streamed*: the file's blocks are merged in corrected
// chronological order and pushed once through bounded-state sinks (the
// accumulators, the replay-op spill, the strided rewrite) by the merge
// routine a live study runs (core::stream_spilled_trace), so resident
// memory is O(merge window) — a trace far larger than RAM still analyzes.
// The file is opened tolerantly: a trace cut short by a crash (unpatched
// block count, torn final block) analyzes up to the crash point with a
// warning instead of failing.
//
//   charisma_analyze <trace.chtr> [--report=<section>] [--cache=<sim>]
//                    [--buffers=N] [--policy=lru|fifo|ip] [--strided]
//   charisma_analyze --workload=synthetic|replay:<chwl>|checkpoint
//                    [--scale=S] [--seed=N] [--chkpoint-*=...]
//                    [same analysis flags]
//   charisma_analyze --workload=... --dump-workload=<out.chwl>
//
//   --report:  all (default), jobs, nodes, population, files-per-job,
//              sizes, requests, sequentiality, intervals, regularity,
//              modes, sharing, paper (measured-vs-published deltas per
//              figure, with the fidelity tolerance bands)
//   --cache:   io | compute | combined  (trace-driven cache simulation)
//   --policy:  lru (default) | fifo | ip  (I/O-node replacement policy)
//   --strided: rewrite every request stream as strided requests (S5)
//   --workload: instead of reading a saved trace, run a full study from the
//              named workload source and analyze its trace — so a replayed
//              chwl log (or the checkpoint archetype) gets the complete
//              paper-figure report end to end
//   --dump-workload: export the selected source's op stream as a chwl v1
//              text log (see workload/replay.hpp for the schema) and exit
//
// An unknown --report section, --cache simulator or --policy, an unknown
// or retired flag, or anything but exactly one trace path in file mode
// prints the usage line and exits 2 before any work; a runtime error (an
// unreadable trace, a bad workload) prints one error line and exits 1.
#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/fidelity.hpp"
#include "cache/simulators.hpp"
#include "core/report.hpp"
#include "core/stream_study.hpp"
#include "core/strided.hpp"
#include "trace/spill.hpp"
#include "util/flags.hpp"
#include "util/units.hpp"
#include "workload/replay.hpp"
#include "workload/source.hpp"

using namespace charisma;

namespace {

/// The --report values: "all" (every one), the §4 sections, "paper".
std::vector<std::string> report_names() {
  std::vector<std::string> names{"all"};
  for (const std::string_view section : core::report_sections()) {
    names.emplace_back(section);
  }
  names.emplace_back("paper");
  return names;
}

/// The --cache simulators.
constexpr std::array<const char*, 3> kCacheSims{"io", "compute", "combined"};

/// The --policy names, with the replacement policy each selects.
constexpr std::array<std::pair<const char*, cache::Policy>, 3> kPolicies{{
    {"lru", cache::Policy::kLru},
    {"fifo", cache::Policy::kFifo},
    {"ip", cache::Policy::kInterprocessAware},
}};

int usage() {
  std::string sections;
  for (const std::string& r : report_names()) {
    if (!sections.empty()) sections += '|';
    sections += r;
  }
  std::fprintf(stderr,
               "usage: charisma_analyze (<trace.chtr> | "
               "--workload=synthetic|replay:<chwl>|checkpoint [--scale=S] "
               "[--seed=N] [--chkpoint-*=...]) [--report=SECTION] "
               "[--cache=io|compute|combined] [--buffers=N] "
               "[--policy=lru|fifo|ip] [--strided] "
               "[--spill-budget-mb=N] [--spill-dir=DIR] "
               "[--dump-workload=<out.chwl>]; SECTION is one of %s\n",
               sections.c_str());
  return 2;
}

int run(int argc, char** argv) {
  std::vector<std::string> known{
      "report",   "cache",   "buffers",         "policy",
      "strided",  "workload", "dump-workload",  "scale",
      "seed",     "spill-budget-mb",            "spill-dir"};
  for (const auto& name : workload::checkpoint_flag_names()) {
    known.push_back(name);
  }
  util::Flags flags(argc, argv, known);
  const std::string report = flags.get("report", "all");
  const std::vector<std::string> reports = report_names();
  if (std::find(reports.begin(), reports.end(), report) == reports.end()) {
    return usage();
  }
  // A bare --cache parses as "true", which names no simulator either.
  const std::string sim = flags.get("cache", "io");
  if (std::find(kCacheSims.begin(), kCacheSims.end(), sim) ==
      kCacheSims.end()) {
    return usage();
  }
  const std::string policy_name = flags.get("policy", "lru");
  const auto policy_it =
      std::find_if(kPolicies.begin(), kPolicies.end(),
                   [&](const auto& p) { return policy_name == p.first; });
  if (policy_it == kPolicies.end()) return usage();

  // Workload-source modes share one config: --scale/--seed/--chkpoint-*
  // apply on top of the NAS defaults.
  workload::WorkloadConfig wconfig;
  wconfig.scale = flags.get_double("scale", wconfig.scale);
  wconfig.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(wconfig.seed)));
  workload::apply_checkpoint_flags(flags, &wconfig);
  const workload::SourceSpec source_spec =
      workload::parse_source_spec(flags.get("workload", "synthetic"));

  if (flags.has("dump-workload")) {
    // Export-only mode: write the source's op stream as a chwl log.
    const std::string out_path = flags.get("dump-workload", "");
    if (!flags.has("workload") || out_path.empty()) return usage();
    try {
      const auto source = workload::load_source(source_spec, wconfig);
      workload::export_source_log(*source, out_path);
      std::printf("dumped workload '%s' (%zu jobs, %zu input files) to %s\n",
                  workload::to_string(source_spec).c_str(),
                  source->workload().jobs.size(),
                  source->workload().inputs.size(), out_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot dump workload: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  // Exactly one trace origin: a saved trace file, or a study run live from
  // a workload source.
  const bool study_mode = flags.has("workload");
  // argv[0], plus the trace path in file mode; anything else is a stray
  // argument or an unknown flag.
  if (flags.remaining_argc() != (study_mode ? 1 : 2)) return usage();
  const std::string path = study_mode ? "" : flags.remaining()[1];
  const auto want = [&](const char* name) {
    return report == "all" || report == name;
  };
  // Figure 8 / --cache both replay the filtered op stream; collect it during
  // the streaming merge only when something will consume it.
  const bool want_ops = want("paper") || flags.has("cache");
  const bool strided = flags.get_bool("strided", false);
  // Spill knobs (study mode and file mode alike).
  const std::int64_t spill_budget_mb =
      flags.get_int("spill-budget-mb", core::kDefaultSpillBudgetMb);
  const std::string spill_dir = flags.get("spill-dir", "");

  core::StreamOptions sopts;
  sopts.collect_replay_ops = want_ops;
  std::optional<core::StridedRewriter> strided_sink;
  core::StreamedStudyOutput out;
  try {
    if (study_mode) {
      core::StudyConfig config;
      config.workload = wconfig;
      config.source = source_spec;
      config.spill_budget_mb = spill_budget_mb;
      config.spill_dir = spill_dir;
      if (strided) {
        // The geometry the collector stamps into the trace header.
        strided_sink.emplace(config.machine.io_nodes, util::kBlockSize);
        sopts.sinks.push_back(&*strided_sink);
      }
      out = core::run_streamed_study(config, sopts);
    } else {
      bool truncated = false;
      const trace::SpilledTrace spilled =
          trace::SpilledTrace::open(path, /*tolerant=*/true, &truncated);
      if (truncated) {
        std::fprintf(stderr,
                     "warning: %s is truncated (crashed writer?); analyzing "
                     "the %llu complete blocks before the tear\n",
                     path.c_str(),
                     static_cast<unsigned long long>(spilled.blocks.size()));
      }
      if (strided) {
        strided_sink.emplace(spilled.header.io_nodes,
                             spilled.header.block_size);
        sopts.sinks.push_back(&*strided_sink);
      }
      trace::SpillBudget op_budget(spill_budget_mb * (std::int64_t{1} << 20));
      core::stream_spilled_trace(spilled, sopts, op_budget, spill_dir, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot %s %s: %s\n",
                 study_mode ? "run workload" : "read",
                 study_mode ? workload::to_string(source_spec).c_str()
                            : path.c_str(),
                 e.what());
    return 1;
  }
  const trace::TraceHeader& header = out.header;
  const analysis::SessionStore& store = out.sessions;
  std::printf("trace '%s': %llu records from %d compute / %d I/O nodes\n",
              header.label.c_str(),
              static_cast<unsigned long long>(out.streamed_records),
              header.compute_nodes, header.io_nodes);
  std::printf("%s", core::render_sections(store, out.request_sizes,
                                          header.block_size, report)
                        .c_str());

  // Both cache consumers share one runner over one op spill.
  std::optional<cache::SweepRunner> runner;
  if (want_ops) {
    runner.emplace(std::move(out.replay_ops), store.read_only_sessions());
  }

  if (want("paper")) {
    // Figure 8's statistics come from the compute-cache replay (one buffer
    // per node, the paper's configuration).
    const auto compute = runner->run_compute({cache::ComputeCacheConfig{}});
    const analysis::CacheFigures cache_figs{
        compute[0].fraction_jobs_above_75, compute[0].fraction_jobs_zero};
    const auto checks = analysis::check_paper_fidelity(
        store, out.request_sizes, header.block_size, &cache_figs);
    std::printf("--- Paper-vs-measured deltas ---\n%s\n",
                analysis::render_fidelity(checks).c_str());
  }

  if (flags.has("cache")) {
    const auto buffers =
        static_cast<std::size_t>(flags.get_int("buffers", 4000));
    const cache::Policy policy = policy_it->second;

    if (sim == "compute") {
      cache::ComputeCacheConfig cfg;
      cfg.buffers_per_node = std::max<std::size_t>(buffers / 4000, 1);
      const auto r = runner->run_compute({cfg})[0];
      std::printf(
          "compute-node cache: %zu jobs, %.1f%% at zero, %.1f%% above "
          "75%%, overall hit rate %.1f%%\n",
          r.job_hit_rates.size(), r.fraction_jobs_zero * 100.0,
          r.fraction_jobs_above_75 * 100.0, r.overall_hit_rate() * 100.0);
    } else {
      cache::IoNodeSimConfig cfg;
      cfg.io_nodes = header.io_nodes > 0 ? header.io_nodes : 10;
      cfg.total_buffers = buffers;
      cfg.policy = policy;
      if (sim == "combined") cfg.compute_buffers_per_node = 1;
      const auto r = runner->run_io({cfg})[0];
      std::printf("I/O-node cache (%s, %zu buffers): %s\n",
                  to_string(policy), buffers, r.describe().c_str());
    }
  }

  if (strided_sink.has_value()) {
    std::printf("--- Strided rewriting (S5) ---\n%s\n",
                strided_sink->finish().render().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "charisma_analyze: error: %s\n", e.what());
    return 1;
  }
}
