#include "workload/source.hpp"

#include <utility>

#include "util/check.hpp"
#include "workload/checkpoint.hpp"
#include "workload/replay.hpp"

namespace charisma::workload {

namespace {

/// Method "synthetic": the 1993 NAS reconstruction, generate() plus lazy
/// build_scripts() behind the seam; the pinned study digests hold it fixed.
class SyntheticSource final : public ScriptedSource {
 public:
  explicit SyntheticSource(const WorkloadConfig& config) {
    workload_ = generate(config);
  }

 protected:
  [[nodiscard]] JobScripts compile_job(std::size_t spec_index) override {
    return build_scripts(workload_.jobs[spec_index], workload_);
  }
};

/// Method "checkpoint": the Daly-interval writer (checkpoint.hpp).
class CheckpointSource final : public ScriptedSource {
 public:
  explicit CheckpointSource(const WorkloadConfig& config) {
    workload_ = build_checkpoint_workload(config);
  }

 protected:
  [[nodiscard]] JobScripts compile_job(std::size_t spec_index) override {
    return build_checkpoint_scripts(workload_.jobs[spec_index],
                                    workload_.config.checkpoint,
                                    workload_.config.scale);
  }
};

using Registry = std::map<std::string, SourceFactory>;

Registry& registry() {
  // Built-ins are seeded on first touch (function-local static: no
  // static-initialization-order hazard, thread-safe construction).
  static Registry* instance = [] {
    auto* reg = new Registry;
    (*reg)["synthetic"] = [](const SourceSpec& spec,
                             const WorkloadConfig& config)
        -> std::unique_ptr<Source> {
      CHECK(spec.path.empty(), "the synthetic method takes no ':<arg>' (got '",
            spec.path, "')");
      return std::make_unique<SyntheticSource>(config);
    };
    (*reg)["checkpoint"] = [](const SourceSpec& spec,
                              const WorkloadConfig& config)
        -> std::unique_ptr<Source> {
      CHECK(spec.path.empty(),
            "the checkpoint method takes no ':<arg>' (got '", spec.path,
            "'); use the --chkpoint-* knobs");
      return std::make_unique<CheckpointSource>(config);
    };
    (*reg)["replay"] = [](const SourceSpec& spec,
                          const WorkloadConfig& config)
        -> std::unique_ptr<Source> {
      CHECK(!spec.path.empty(),
            "the replay method needs a log: --workload=replay:<path>");
      return make_replay_source(spec.path, config);
    };
    return reg;
  }();
  return *instance;
}

}  // namespace

SourceSpec parse_source_spec(const std::string& text) {
  SourceSpec spec;
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    spec.method = text;
  } else {
    spec.method = text.substr(0, colon);
    spec.path = text.substr(colon + 1);
  }
  CHECK(!spec.method.empty(), "empty workload-source method in '", text, "'");
  return spec;
}

std::string to_string(const SourceSpec& spec) {
  return spec.path.empty() ? spec.method : spec.method + ":" + spec.path;
}

void register_source_method(const std::string& name, SourceFactory factory) {
  CHECK(!name.empty() && factory != nullptr,
        "register_source_method needs a name and a factory");
  registry()[name] = std::move(factory);
}

std::vector<std::string> source_method_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::unique_ptr<Source> load_source(const SourceSpec& spec,
                                    const WorkloadConfig& config) {
  Registry& reg = registry();
  const auto it = reg.find(spec.method);
  if (it == reg.end()) {
    std::string known;
    for (const auto& name : source_method_names()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    CHECK(false, "unknown workload source '", spec.method, "' (known: ",
          known, ")");
  }
  std::unique_ptr<Source> source = it->second(spec, config);
  CHECK(source != nullptr, "workload source factory '", spec.method,
        "' returned null");
  return source;
}

std::vector<std::string> ScriptedSource::start_job(std::size_t spec_index) {
  CHECK(spec_index < workload_.jobs.size(), "start_job(", spec_index,
        ") out of range (", workload_.jobs.size(), " jobs)");
  CHECK(active_.find(spec_index) == active_.end(), "job index ", spec_index,
        " started twice");
  JobScripts scripts = compile_job(spec_index);
  ActiveJob job;
  job.cursors.assign(scripts.nodes.size(), 0);
  job.nodes = std::move(scripts.nodes);
  active_.emplace(spec_index, std::move(job));
  return std::move(scripts.paths);
}

Op ScriptedSource::next(std::size_t spec_index, std::int32_t rank) {
  const auto it = active_.find(spec_index);
  CHECK(it != active_.end(), "next() for job index ", spec_index,
        " outside start_job/end_job");
  ActiveJob& job = it->second;
  CHECK(rank >= 0 && static_cast<std::size_t>(rank) < job.nodes.size(),
        "rank ", rank, " out of range for job index ", spec_index, " (",
        job.nodes.size(), " scripts)");
  const auto r = static_cast<std::size_t>(rank);
  std::size_t& cursor = job.cursors[r];
  const std::vector<Op>& ops = job.nodes[r].ops;
  if (cursor >= ops.size()) {
    Op end;
    end.kind = OpKind::kEnd;
    return end;
  }
  return ops[cursor++];
}

void ScriptedSource::end_job(std::size_t spec_index) {
  active_.erase(spec_index);
}

std::vector<std::string> checkpoint_flag_names() {
  return {"chkpoint-size", "chkpoint-bw",    "chkpoint-runtime",
          "chkpoint-mtti", "chkpoint-nodes", "chkpoint-chunk"};
}

void apply_checkpoint_flags(const util::Flags& flags, WorkloadConfig* config) {
  CheckpointConfig& c = config->checkpoint;
  c.size_tib = flags.get_double("chkpoint-size", c.size_tib);
  c.bw_gib_s = flags.get_double("chkpoint-bw", c.bw_gib_s);
  c.runtime_hours = flags.get_double("chkpoint-runtime", c.runtime_hours);
  c.mtti_hours = flags.get_double("chkpoint-mtti", c.mtti_hours);
  c.nodes =
      static_cast<std::int32_t>(flags.get_int("chkpoint-nodes", c.nodes));
  c.chunk_bytes = flags.get_int("chkpoint-chunk", c.chunk_bytes);
}

}  // namespace charisma::workload
