// charisma_bench: one repetition of one benchmark workload.
//
// benchmark/run.py builds this program, runs it once per repetition and
// folds the repetitions into the benchmark's metrics.  Each run prints one
// JSON object as its last stdout line: the studies it ran with their trace
// digests and any failed checks, plus the run's set-up, time-to-results,
// CPU and peak-RSS figures, and (traced runs) the per-layer metrics.
//
// The program drives the library only through its public entry points and
// times every call from here.  Set-up builds the production workload source
// (workload::load_source) and an ipsc::Machine; the source is handed to the
// study through a registered workload method, so the study does not build
// it a second time inside the time-to-results window.
//
// Flags:
//   --workload=NAME   nas_synthetic | checkpoint_write | campaign_seeds |
//                     nas_spill_disk (see README.md for why each exists)
//   --seed=N[,N...]   workload seed (campaign: one per study)
//   --trace=0|1       1 = traced run: spans around each layer call, the
//                     stand-alone layer probes, and per-layer metrics
//   --spill-dir=DIR   spill directory for every study
//   --spans-out=PATH  traced runs write their span list here at exit
//   --pins=S:0xD,...  pinned trace digests by study seed
//   --scale=X         overrides the workload's scale (warm-up, self-test)
//   --input-sizes=A:B instead of measuring, print "<seed> <traced ops>
//                     <blocks> <ops>" for every generator seed in [A, B); the
//                     input table (inputs.json) keeps equal-size seeds
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/fidelity.hpp"
#include "analysis/figures.hpp"
#include "cache/simulators.hpp"
#include "core/campaign.hpp"
#include "core/stream_study.hpp"
#include "ipsc/machine.hpp"
#include "probes.hpp"
#include "sim/engine.hpp"
#include "spans.hpp"
#include "util/flags.hpp"
#include "util/units.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/source.hpp"

namespace charisma::perf {
namespace {

/// One benchmark workload: a production workload source at a fixed scale,
/// run as one study or as a seed-replication campaign.
struct WorkloadDef {
  const char* name;
  const char* method;            ///< production workload source method
  double scale;
  std::int64_t spill_budget_mb;  ///< < 0: the production default
  std::size_t studies;           ///< > 1: a CampaignRunner seed replication
};

constexpr WorkloadDef kWorkloads[] = {
    {"nas_synthetic", "synthetic", 0.2, -1, 1},
    {"checkpoint_write", "checkpoint", 0.2, -1, 1},
    {"campaign_seeds", "synthetic", 0.2, -1, 4},
    // Budget 0: every trace block and replay-op chunk overflows to disk.
    {"nas_spill_disk", "synthetic", 0.2, 0, 1},
};

// ---- Workload hand-off -----------------------------------------------------

/// Host time spent inside one study's Source::next calls (traced runs).
struct SourceTimer {
  std::uint64_t ops = 0;
  std::int64_t ns = 0;
};

/// Forwards to the production source, timing each next() call.
class TimedSource final : public workload::Source {
 public:
  TimedSource(std::unique_ptr<workload::Source> inner, SourceTimer* timer)
      : inner_(std::move(inner)), timer_(timer) {}

  [[nodiscard]] const workload::GeneratedWorkload& workload()
      const noexcept override {
    return inner_->workload();
  }
  std::vector<std::string> start_job(std::size_t spec_index) override {
    return inner_->start_job(spec_index);
  }
  [[nodiscard]] workload::Op next(std::size_t spec_index,
                                  std::int32_t rank) override {
    const auto start = Clock::now();
    workload::Op op = inner_->next(spec_index, rank);
    timer_->ns += ns_between(start, Clock::now());
    ++timer_->ops;
    return op;
  }
  void end_job(std::size_t spec_index) override {
    inner_->end_job(spec_index);
  }

 private:
  std::unique_ptr<workload::Source> inner_;
  SourceTimer* timer_;
};

/// Sources built during set-up, keyed by the "bench:<key>" spec path.
/// Campaign workers claim theirs concurrently, hence the lock.
std::mutex g_handoff_mutex;
std::map<std::string, std::unique_ptr<workload::Source>> g_handoff;

constexpr const char* kHandoffMethod = "bench";

void register_handoff_method() {
  workload::register_source_method(
      kHandoffMethod,
      [](const workload::SourceSpec& spec, const workload::WorkloadConfig&) {
        const std::lock_guard<std::mutex> lock(g_handoff_mutex);
        const auto it = g_handoff.find(spec.path);
        CHECK(it != g_handoff.end(), "no prebuilt source for key ", spec.path);
        std::unique_ptr<workload::Source> source = std::move(it->second);
        g_handoff.erase(it);
        return source;
      });
}

/// Builds the study's machine once, as run_streamed_study will, so set-up
/// covers both halves of the rig.
void build_machine(const core::StudyConfig& config) {
  sim::Engine engine;
  util::Rng rng(config.workload.seed ^ 0xC10CC10CULL);
  const ipsc::Machine machine(engine, config.machine, rng);
}

struct SetupTimes {
  double workload_s = 0.0;
  double machine_s = 0.0;
};

/// Set-ups per study: set-up takes about a millisecond, so one sample is
/// mostly scheduling noise; the median of several is not.
constexpr int kSetupSamples = 31;

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Set-up for one study: builds its production source and a machine
/// kSetupSamples times (median times), parks the last source for the study
/// to claim, and points the config at it.
SetupTimes set_up_study(core::StudyConfig& config, SourceTimer* timer,
                        Spans* spans) {
  std::vector<double> workload_s, machine_s;
  std::unique_ptr<workload::Source> source;
  for (int sample = 0; sample < kSetupSamples; ++sample) {
    auto start = Clock::now();
    {
      const Scope scope(spans, "workload.setup");
      source = workload::load_source(config.source, config.workload);
    }
    workload_s.push_back(seconds_between(start, Clock::now()));
    start = Clock::now();
    {
      const Scope scope(spans, "ipsc.build");
      build_machine(config);
    }
    machine_s.push_back(seconds_between(start, Clock::now()));
  }
  if (timer != nullptr) {
    source = std::make_unique<TimedSource>(std::move(source), timer);
  }
  const std::string key = std::to_string(config.workload.seed);
  {
    const std::lock_guard<std::mutex> lock(g_handoff_mutex);
    g_handoff[key] = std::move(source);
  }
  config.source = workload::SourceSpec{kHandoffMethod, key};
  return {median_of(std::move(workload_s)), median_of(std::move(machine_s))};
}

// ---- The sweep grid --------------------------------------------------------

/// Every Figure 8 point: 1, 10 and 50 buffers per compute node.
std::vector<cache::ComputeCacheConfig> compute_grid() {
  std::vector<cache::ComputeCacheConfig> configs(3);
  configs[0].buffers_per_node = 1;
  configs[1].buffers_per_node = 10;
  configs[2].buffers_per_node = 50;
  return configs;
}

/// Every Figure 9 / §4.8 point: LRU and FIFO over the buffer grid (even /
/// odd indices), the I/O-node-count spread, and the combined-cache pair.
std::vector<cache::IoNodeSimConfig> io_grid() {
  std::vector<cache::IoNodeSimConfig> configs;
  for (const std::size_t buffers :
       {100u, 250u, 500u, 1000u, 2000u, 4000u, 8000u, 16000u, 25000u}) {
    for (const cache::Policy policy :
         {cache::Policy::kLru, cache::Policy::kFifo}) {
      cache::IoNodeSimConfig cfg;
      cfg.total_buffers = buffers;
      cfg.policy = policy;
      configs.push_back(cfg);
    }
  }
  for (const int io : {1, 2, 5, 10, 20}) {
    cache::IoNodeSimConfig cfg;
    cfg.total_buffers = 4000;
    cfg.io_nodes = io;
    configs.push_back(cfg);
  }
  for (const std::size_t front : {0u, 1u}) {
    cache::IoNodeSimConfig cfg;
    cfg.total_buffers = 500;
    cfg.compute_buffers_per_node = front;
    configs.push_back(cfg);
  }
  return configs;
}

constexpr std::size_t kLruGridPoints = 9;  // even indices 0..16 of io_grid()

/// The sweep invariants every study must satisfy.
void check_sweeps(const std::vector<cache::ComputeCacheResult>& compute,
                  const std::vector<cache::IoNodeSimResult>& io,
                  std::vector<std::string>& errors) {
  if (compute.size() != 3 || io.size() != 25) {
    errors.push_back("sweep returned " + std::to_string(compute.size()) +
                     " compute + " + std::to_string(io.size()) +
                     " I/O points, expected 3 + 25");
    return;
  }
  for (std::size_t i = 0; i < compute.size(); ++i) {
    if (compute[i].hits > compute[i].reads) {
      errors.push_back("compute[" + std::to_string(i) + "] hits > reads");
    }
    if (i > 0 &&
        compute[i].overall_hit_rate() < compute[i - 1].overall_hit_rate()) {
      errors.push_back("compute LRU hit rate falls at point " +
                       std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < io.size(); ++i) {
    if (io[i].request_hits > io[i].requests ||
        io[i].block_hits > io[i].block_accesses) {
      errors.push_back("io[" + std::to_string(i) + "] hits > accesses");
    }
  }
  for (std::size_t k = 1; k < kLruGridPoints; ++k) {
    if (io[2 * k].hit_rate < io[2 * (k - 1)].hit_rate) {
      errors.push_back("I/O-node LRU hit rate falls at buffer point " +
                       std::to_string(k));
    }
  }
}

/// The grouping key SweepRunner's planner buckets a config by.
std::tuple<int, std::int64_t, std::size_t, cache::Policy> group_key(
    const cache::IoNodeSimConfig& c) {
  return {c.io_nodes, c.block_size, c.compute_buffers_per_node, c.policy};
}
std::tuple<int, std::int64_t, std::size_t, cache::Policy> group_key(
    const cache::ComputeCacheConfig& c) {
  return {0, c.block_size, 0, cache::Policy::kLru};
}

/// Splits `configs` into subsets that each plan to exactly one grouped
/// pass, so a traced run can time every planned pass as its own call:
/// one subset per grouping key, with single-point subsets fused into one,
/// as the planner fuses them.  CHECKs the split against the plan.
template <typename Config>
std::vector<std::vector<std::size_t>> split_passes(
    const std::vector<Config>& configs,
    cache::SweepPlan (*plan)(const std::vector<Config>&)) {
  const auto subset = [&](const std::vector<std::size_t>& idx) {
    std::vector<Config> out;
    for (const std::size_t i : idx) out.push_back(configs[i]);
    return out;
  };
  std::vector<std::vector<std::size_t>> by_key;
  std::vector<decltype(group_key(configs[0]))> keys;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto key = group_key(configs[i]);
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      keys.push_back(key);
      by_key.push_back({i});
    } else {
      by_key[static_cast<std::size_t>(it - keys.begin())].push_back(i);
    }
  }
  std::vector<std::vector<std::size_t>> parts;
  std::vector<std::size_t> singles;
  for (auto& part : by_key) {
    const cache::SweepPlan p = plan(subset(part));
    if (p.groups.at(0).kind == cache::SweepGroup::Kind::kReplay) {
      singles.insert(singles.end(), part.begin(), part.end());
    } else {
      parts.push_back(std::move(part));
    }
  }
  if (!singles.empty()) parts.push_back(std::move(singles));
  for (const auto& part : parts) {
    CHECK(plan(subset(part)).passes() == 1, "a pass split plans to ",
          plan(subset(part)).passes(), " passes");
  }
  CHECK(parts.size() == plan(configs).passes(), "pass split found ",
        parts.size(), " passes, plan has ", plan(configs).passes());
  return parts;
}

// ---- Results ---------------------------------------------------------------

struct StudyRecord {
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> errors;
};

using Metrics = std::vector<std::pair<std::string, double>>;

struct RunResult {
  std::vector<StudyRecord> studies;
  double setup_s = 0.0;
  double time_to_results_s = 0.0;
  Metrics layers;
};

struct Args {
  const WorkloadDef* def = nullptr;
  std::vector<std::uint64_t> seeds;
  bool trace = false;
  double scale = 0.0;
  std::string spill_dir;
  std::string spans_out;
  std::map<std::uint64_t, std::uint64_t> pins;
  std::size_t threads = 0;
};

void check_digest(const Args& args, StudyRecord& record) {
  const auto it = args.pins.find(record.seed);
  if (it != args.pins.end() && it->second != record.digest) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "digest 0x%016llx != pinned 0x%016llx",
                  static_cast<unsigned long long>(record.digest),
                  static_cast<unsigned long long>(it->second));
    record.errors.emplace_back(buf);
  }
}

core::StudyConfig base_config(const Args& args, std::uint64_t seed) {
  core::StudyConfig config;
  config.workload.scale = args.scale;
  config.workload.seed = seed;
  config.source = workload::parse_source_spec(args.def->method);
  if (args.def->spill_budget_mb >= 0) {
    config.spill_budget_mb = args.def->spill_budget_mb;
  }
  config.spill_dir = args.spill_dir;
  return config;
}

// ---- One study -------------------------------------------------------------

/// Set-up, then study -> characterization -> 28-point sweep -> fidelity.
/// Traced runs additionally time each planned sweep pass on its own pool
/// task, capture the replay ops for the probes, and fill `layers`.
RunResult run_single_study(const Args& args, Spans* spans) {
  const bool traced = spans != nullptr;
  RunResult result;
  StudyRecord record;
  record.seed = args.seeds.at(0);
  core::StudyConfig config = base_config(args, record.seed);
  SourceTimer timer;
  const SetupTimes setup = set_up_study(config, traced ? &timer : nullptr,
                                        spans);
  result.setup_s = setup.workload_s + setup.machine_s;

  util::ThreadPool pool(args.threads);
  const auto compute_configs = compute_grid();
  const auto io_configs = io_grid();
  std::vector<cache::ComputeCacheResult> compute;
  std::vector<cache::IoNodeSimResult> io;
  std::int64_t excluded_ns = 0;  // traced-only capture, not part of the run
  CapturedOps captured;
  double study_s = 0.0, figures_ms = 0.0, fidelity_ms = 0.0;
  double sweep_ms = 0.0, pool_busy_frac = 0.0;
  std::vector<double> pass_ms;
  std::vector<analysis::FidelityCheck> checks;

  const auto start = Clock::now();
  auto stage = start;
  core::StreamedStudyOutput out;
  {
    const Scope scope(spans, "core.study");
    out = core::run_streamed_study(config);
  }
  study_s = seconds_between(stage, Clock::now());
  record.digest = out.trace_digest;
  const analysis::SessionStore& store = out.sessions;

  stage = Clock::now();
  analysis::FigureSet figures;
  {
    const Scope scope(spans, "analysis.figures");
    figures = analysis::collect_trace_figures(store, out.request_sizes,
                                              out.header.block_size);
  }
  figures_ms = seconds_between(stage, Clock::now()) * 1e3;

  if (traced) {
    const auto capture_start = Clock::now();
    captured = capture_ops(out.replay_ops, std::size_t{1} << 21);
    excluded_ns = ns_between(capture_start, Clock::now());
  }
  const std::set<cache::SessionKey> read_only = store.read_only_sessions();
  std::int64_t sweep_bytes_read = 0;
  stage = Clock::now();
  if (!traced) {
    const cache::SweepRunner runner(std::move(out.replay_ops), read_only,
                                    pool);
    compute = runner.run_compute(compute_configs);
    io = runner.run_io(io_configs);
  } else {
    // A serial runner driven from our own pool: one task per planned pass,
    // compute passes first and then I/O passes, as SweepRunner orders them.
    const cache::SweepRunner runner(std::move(out.replay_ops), read_only);
    const Scope scope(spans, "cache.sweep");
    const int parent = Scope::current();
    const auto compute_parts =
        split_passes(compute_configs, &cache::plan_compute_sweep);
    const auto io_parts = split_passes(io_configs, &cache::plan_io_sweep);
    compute.resize(compute_configs.size());
    io.resize(io_configs.size());
    pass_ms.assign(compute_parts.size() + io_parts.size(), 0.0);
    const auto run_part = [&](std::size_t p) {
      const int span = spans->open("cache.pass", parent,
                                   static_cast<int>(p) + 1);
      const auto pass_start = Clock::now();
      if (p < compute_parts.size()) {
        std::vector<cache::ComputeCacheConfig> pass_configs;
        for (const std::size_t i : compute_parts[p]) {
          pass_configs.push_back(compute_configs[i]);
        }
        auto part = runner.run_compute(pass_configs);
        for (std::size_t k = 0; k < part.size(); ++k) {
          compute[compute_parts[p][k]] = std::move(part[k]);
        }
      } else {
        const auto& idx = io_parts[p - compute_parts.size()];
        std::vector<cache::IoNodeSimConfig> pass_configs;
        for (const std::size_t i : idx) pass_configs.push_back(io_configs[i]);
        auto part = runner.run_io(pass_configs);
        for (std::size_t k = 0; k < part.size(); ++k) {
          io[idx[k]] = std::move(part[k]);
        }
      }
      pass_ms[p] = seconds_between(pass_start, Clock::now()) * 1e3;
      spans->close(span);
    };
    // Audited: each task writes only its own pass_ms slot and the result
    // slots of its own configs; the runner is safe for concurrent passes.
    // NOLINTNEXTLINE(charisma-shared-capture)
    util::parallel_for(pool, compute_parts.size(), run_part);
    // NOLINTNEXTLINE(charisma-shared-capture)
    util::parallel_for(pool, io_parts.size(), [&](std::size_t p) {
      run_part(compute_parts.size() + p);
    });
    sweep_bytes_read = runner.spill_bytes_read();
  }
  sweep_ms = seconds_between(stage, Clock::now()) * 1e3;

  stage = Clock::now();
  {
    const Scope scope(spans, "analysis.fidelity");
    const analysis::CacheFigures cache_figs{
        compute.at(0).fraction_jobs_above_75, compute.at(0).fraction_jobs_zero};
    checks = analysis::check_paper_fidelity(
        store, out.request_sizes, out.header.block_size, &cache_figs);
  }
  fidelity_ms = seconds_between(stage, Clock::now()) * 1e3;
  result.time_to_results_s = seconds_between(start, Clock::now()) -
                             static_cast<double>(excluded_ns) * 1e-9;

  check_digest(args, record);
  check_sweeps(compute, io, record.errors);
  if (checks.empty()) record.errors.emplace_back("no fidelity checks ran");
  result.studies.push_back(std::move(record));
  if (!traced) return result;

  // ---- Per-layer metrics of the traced run.
  const std::vector<Span> all = spans->all();
  double busy_ms = 0.0, max_ms = 0.0;
  for (const double ms : pass_ms) {
    busy_ms += ms;
    max_ms = std::max(max_ms, ms);
  }
  const double mean_ms = pass_ms.empty() ? 0.0 : busy_ms / pass_ms.size();
  pool_busy_frac =
      sweep_ms > 0.0 ? busy_ms / (static_cast<double>(pool.thread_count()) *
                                  sweep_ms)
                     : 0.0;
  const core::SpillTelemetry& spill = out.spill;
  // Study self time: the study span minus the in-study layer time the
  // benchmark can see (source pulls, digest fold, merge reads, sinks).
  const double study_self_ns =
      study_s * 1e9 - static_cast<double>(timer.ns) -
      (spill.digest_ms + spill.spill_read_ms + spill.sink_ms) * 1e6;
  const std::uint64_t block_accesses = io.at(0).block_accesses;
  const std::size_t passes = pass_ms.size();
  const ProbeResults probes = run_probes(captured.ops, record.seed);
  std::size_t passed = 0;
  for (const auto& c : checks) passed += c.pass() ? 1 : 0;
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double blocks_total =
      static_cast<double>(spill.trace_blocks_in_memory +
                          spill.trace_blocks_on_disk);
  result.layers = {
      {"sim.events", static_cast<double>(out.events_dispatched)},
      {"sim.ns_per_event",
       per(study_self_ns, static_cast<double>(out.events_dispatched))},
      {"workload.ops", static_cast<double>(timer.ops)},
      {"workload.next_ns", per(static_cast<double>(timer.ns),
                               static_cast<double>(timer.ops))},
      {"workload.setup_ms", setup.workload_s * 1e3},
      {"ipsc.build_ms", setup.machine_s * 1e3},
      {"cfs.plan_ns", probes.cfs_plan_ns},
      {"cfs.blocks_per_request", probes.cfs_blocks_per_request},
      {"net.route_ns", probes.net_route_ns},
      {"net.collector_messages", static_cast<double>(out.collector_messages)},
      {"disk.submit_ns", probes.disk_submit_ns},
      {"trace.records", static_cast<double>(out.records)},
      {"trace.bytes", static_cast<double>(out.trace_bytes)},
      {"trace.sink_ns_per_record",
       per(spill.sink_ms * 1e6, static_cast<double>(out.streamed_records))},
      {"trace.digest_ms", spill.digest_ms},
      {"trace.spill_write_ms", spill.spill_write_ms},
      {"trace.spill_read_ms", spill.spill_read_ms},
      {"trace.append_stall_ms", spill.append_stall_ms},
      {"trace.spill_bytes_written",
       static_cast<double>(spill.spill_bytes_written)},
      {"trace.spill_bytes_read",
       static_cast<double>(spill.spill_bytes_read + sweep_bytes_read)},
      {"trace.mem_block_frac",
       per(static_cast<double>(spill.trace_blocks_in_memory), blocks_total)},
      {"analysis.sessions", static_cast<double>(store.sessions().size())},
      {"analysis.figures_ms", figures_ms},
      {"analysis.fidelity_ms", fidelity_ms},
      {"analysis.fidelity_pass_frac",
       per(static_cast<double>(passed), static_cast<double>(checks.size()))},
      {"cache.replay_ops", static_cast<double>(captured.decoded)},
      {"cache.block_accesses", static_cast<double>(block_accesses)},
      {"cache.passes", static_cast<double>(passes)},
      {"cache.sweep_ms", sweep_ms},
      {"cache.pass_ms_max", max_ms},
      {"cache.pass_ms_mean", mean_ms},
      {"cache.pass_imbalance", per(max_ms, mean_ms)},
      {"cache.ns_per_block_access",
       per(busy_ms * 1e6, static_cast<double>(block_accesses) *
                              static_cast<double>(passes))},
      {"cache.block_cache_access_ns", probes.block_cache_access_ns},
      {"cache.lru_stack_ns", probes.lru_stack_ns},
      {"cache.decode_ns_per_op",
       per(static_cast<double>(captured.decode_ns),
           static_cast<double>(captured.decoded))},
      {"util.pool_busy_frac", pool_busy_frac},
      {"core.study_s_median", study_s},
      {"core.study_s_max", study_s},
      {"core.straggler_ratio", 1.0},
      {"core.aggregate_ms", 0.0},
  };
  std::fprintf(stderr, "probe checksum %llu\n",
               static_cast<unsigned long long>(probes.checksum));
  return result;
}

// ---- Seed-replication campaign ---------------------------------------------

RunResult run_campaign(const Args& args, Spans* spans) {
  const bool traced = spans != nullptr;
  RunResult result;
  std::vector<core::CampaignStudy> studies;
  std::vector<SourceTimer> timers(args.seeds.size());
  for (std::size_t i = 0; i < args.seeds.size(); ++i) {
    core::CampaignStudy study;
    study.config = base_config(args, args.seeds[i]);
    study.label = "seed" + std::to_string(args.seeds[i]);
    const SetupTimes setup = set_up_study(
        study.config, traced ? &timers[i] : nullptr, spans);
    result.setup_s += setup.workload_s + setup.machine_s;
    studies.push_back(std::move(study));
  }

  core::CampaignOptions options;
  options.threads = args.threads;
  options.spill_dir = args.spill_dir;
  options.collect_figures = true;
  std::vector<double> finished_s;
  const auto start = Clock::now();
  if (traced) {
    // Every study starts at `start` (one worker each), so a study's finish
    // time is its duration.  Called under the runner's lock.
    options.on_progress = [&finished_s, start](std::size_t, std::size_t) {
      finished_s.push_back(seconds_between(start, Clock::now()));
    };
  }
  const core::CampaignRunner runner(options);
  core::CampaignResult campaign;
  {
    const Scope scope(spans, "core.campaign");
    campaign = runner.run(studies);
  }
  result.time_to_results_s = seconds_between(start, Clock::now());

  std::set<std::uint64_t> distinct;
  for (const core::StudySummary& s : campaign.studies) {
    StudyRecord record;
    record.seed = s.seed;
    record.digest = s.trace_digest;
    check_digest(args, record);
    distinct.insert(s.trace_digest);
    for (const char* name : {"fig8_1buf", "fig8_50buf", "fig9_lru",
                             "fig9_fifo"}) {
      const analysis::FigureCurve* curve = s.figures.find(name);
      if (curve == nullptr || curve->ys.empty()) {
        record.errors.push_back(std::string("missing figure ") + name);
        continue;
      }
      for (std::size_t k = 0; k < curve->ys.size(); ++k) {
        if (!(curve->ys[k] >= 0.0 && curve->ys[k] <= 1.0)) {
          record.errors.push_back(std::string(name) + " leaves [0, 1]");
          break;
        }
        if (std::string(name) == "fig9_lru" && k > 0 &&
            curve->ys[k] < curve->ys[k - 1]) {
          record.errors.push_back("fig9_lru hit rate falls at point " +
                                  std::to_string(k));
        }
      }
    }
    result.studies.push_back(std::move(record));
  }
  if (result.studies.size() != args.seeds.size()) {
    result.studies.resize(args.seeds.size());
    for (auto& r : result.studies) r.errors.emplace_back("study missing");
  }
  if (distinct.size() != campaign.studies.size()) {
    for (auto& r : result.studies) {
      r.errors.emplace_back("two seeds share a trace digest");
    }
  }
  if (campaign.figure_envelopes.empty() || campaign.aggregates.empty()) {
    for (auto& r : result.studies) {
      r.errors.emplace_back("campaign fold produced no aggregates");
    }
  }
  if (!traced) return result;

  // The fold runs inside run(); time it again on the same summaries.
  const auto fold_start = Clock::now();
  {
    const Scope scope(spans, "core.aggregate");
    const auto aggregates = core::aggregate_campaign(campaign.studies);
    const auto envelopes = core::fold_figure_envelopes(campaign.studies);
    CHECK(aggregates.size() == campaign.aggregates.size() &&
              envelopes.size() == campaign.figure_envelopes.size(),
          "the campaign fold changed size when re-run");
  }
  const double aggregate_ms = seconds_between(fold_start, Clock::now()) * 1e3;

  // The other layers come from a traced pass over the first study.
  Args single = args;
  single.seeds.resize(1);
  single.pins.clear();
  const RunResult layer_pass = run_single_study(single, spans);
  result.layers = layer_pass.layers;
  const double median = median_of(finished_s);
  const double max = finished_s.empty()
                         ? 0.0
                         : *std::max_element(finished_s.begin(),
                                             finished_s.end());
  std::uint64_t ops = 0;
  std::int64_t next_ns = 0;
  for (const SourceTimer& t : timers) {
    ops += t.ops;
    next_ns += t.ns;
  }
  for (auto& [name, value] : result.layers) {
    if (name == "core.study_s_median") value = median;
    if (name == "core.study_s_max") value = max;
    if (name == "core.straggler_ratio") {
      value = median > 0.0 ? max / median : 0.0;
    }
    if (name == "core.aggregate_ms") value = aggregate_ms;
    if (name == "workload.ops") value = static_cast<double>(ops);
    if (name == "workload.next_ns") {
      value = ops > 0 ? static_cast<double>(next_ns) / static_cast<double>(ops)
                      : 0.0;
    }
  }
  return result;
}

// ---- Output ----------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void print_result(const Args& args, const RunResult& r) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double cpu_s =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
          1e-6;
  std::string json = "{\"workload\": " + json_string(args.def->name) +
                     ", \"seed\": " + std::to_string(args.seeds.at(0)) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"studies\": [";
  for (std::size_t i = 0; i < r.studies.size(); ++i) {
    const StudyRecord& s = r.studies[i];
    json += i == 0 ? "" : ", ";
    json += "{\"seed\": " + std::to_string(s.seed) +
            ", \"digest\": " + json_string(hex(s.digest)) + ", \"errors\": [";
    for (std::size_t e = 0; e < s.errors.size(); ++e) {
      json += (e == 0 ? "" : ", ") + json_string(s.errors[e]);
    }
    json += "]}";
  }
  json += "], \"setup_s\": " + json_number(r.setup_s) +
          ", \"time_to_results_s\": " + json_number(r.time_to_results_s) +
          ", \"cpu_s\": " + json_number(cpu_s) +
          ", \"peak_rss_mb\": " +
          json_number(static_cast<double>(usage.ru_maxrss) / 1024.0) +
          ", \"layers\": {";
  for (std::size_t i = 0; i < r.layers.size(); ++i) {
    json += (i == 0 ? "" : ", ") + json_string(r.layers[i].first) + ": " +
            json_number(r.layers[i].second);
  }
  json += "}}\n";
  std::fputs(json.c_str(), stdout);
}

struct InputSize {
  std::uint64_t ops = 0;         ///< every op of every job: engine work
  std::uint64_t traced_ops = 0;  ///< one trace record each
  std::uint64_t blocks = 0;      ///< 4 KB blocks their reads and writes span
};

/// The size of one seed's input as its production source yields it: all
/// ops, and every op but compute think time in jobs linked against the
/// tracing library.  Pulled job by job and rank by rank; rank streams are
/// independent.
InputSize input_size(const Args& args, std::uint64_t seed) {
  const core::StudyConfig config = base_config(args, seed);
  const auto source = workload::load_source(config.source, config.workload);
  InputSize size;
  const auto& jobs = source->workload().jobs;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    (void)source->start_job(j);
    for (std::int32_t rank = 0; rank < jobs[j].nodes; ++rank) {
      for (workload::Op op = source->next(j, rank);
           op.kind != workload::OpKind::kEnd; op = source->next(j, rank)) {
        ++size.ops;
        if (!jobs[j].traced || op.kind == workload::OpKind::kThink) continue;
        ++size.traced_ops;
        if (op.kind == workload::OpKind::kRead ||
            op.kind == workload::OpKind::kWrite) {
          size.blocks += static_cast<std::uint64_t>(
              (op.bytes + util::kBlockSize - 1) / util::kBlockSize);
        }
      }
    }
    source->end_job(j);
  }
  return size;
}

std::map<std::uint64_t, std::uint64_t> parse_pins(const std::string& text) {
  std::map<std::uint64_t, std::uint64_t> pins;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    const std::size_t colon = item.find(':');
    CHECK(colon != std::string::npos, "--pins entry '", item,
          "' is not SEED:0xDIGEST");
    pins[std::stoull(item.substr(0, colon))] =
        std::stoull(item.substr(colon + 1), nullptr, 16);
  }
  return pins;
}

int run(int argc, char** argv) {
  const util::Flags flags(argc, argv,
                          {"workload", "seed", "trace", "spill-dir",
                           "spans-out", "pins", "scale", "input-sizes"});
  Args args;
  const std::string name = flags.get("workload", "");
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) args.def = &def;
  }
  if (args.def == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  std::stringstream seed_list(flags.get("seed", "42"));
  for (std::string item; std::getline(seed_list, item, ',');) {
    args.seeds.push_back(std::stoull(item));
  }
  if (args.seeds.size() != args.def->studies) {
    std::fprintf(stderr, "--workload=%s wants %zu seeds, got %zu\n",
                 args.def->name, args.def->studies, args.seeds.size());
    return 2;
  }
  args.trace = flags.get_int("trace", 0) != 0;
  args.scale = flags.get_double("scale", args.def->scale);
  args.spill_dir = flags.get("spill-dir", "");
  args.spans_out = flags.get("spans-out", "");
  args.pins = parse_pins(flags.get("pins", ""));
  // Sweep pool and campaign workers: at most four busy threads.
  args.threads = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));

  if (flags.has("input-sizes")) {
    const std::string range = flags.get("input-sizes", "");
    const std::size_t colon = range.find(':');
    CHECK(colon != std::string::npos, "--input-sizes wants FROM:TO");
    const std::uint64_t to = std::stoull(range.substr(colon + 1));
    for (std::uint64_t seed = std::stoull(range.substr(0, colon)); seed < to;
         ++seed) {
      const InputSize size = input_size(args, seed);
      std::printf("%llu %llu %llu %llu\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(size.traced_ops),
                  static_cast<unsigned long long>(size.blocks),
                  static_cast<unsigned long long>(size.ops));
    }
    return 0;
  }
  register_handoff_method();
  std::unique_ptr<Spans> spans;
  if (args.trace) spans = std::make_unique<Spans>();
  const RunResult result = args.def->studies > 1
                               ? run_campaign(args, spans.get())
                               : run_single_study(args, spans.get());
  print_result(args, result);
  if (spans != nullptr && !args.spans_out.empty()) {
    std::FILE* f = std::fopen(args.spans_out.c_str(), "w");
    CHECK(f != nullptr, "cannot open --spans-out '", args.spans_out, "'");
    const std::string text = spans_json(spans->all());
    std::fputs(text.c_str(), f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace charisma::perf

int main(int argc, char** argv) {
  try {
    return charisma::perf::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "charisma_bench: %s\n", e.what());
    return 1;
  }
}
