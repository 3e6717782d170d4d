#include "core/report.hpp"

#include <sstream>

#include "util/units.hpp"

namespace charisma::core {

namespace {

struct SectionInputs {
  const analysis::SessionStore& store;
  const analysis::RequestSizeResult& request_sizes;
  std::int64_t block_size;
};

struct Section {
  const char* name;
  const char* title;
  std::string (*render)(const SectionInputs&);
};

constexpr Section kSections[] = {
    {"jobs", "Jobs (Figure 1)",
     [](const SectionInputs& in) {
       return analysis::analyze_job_concurrency(in.store).render();
     }},
    {"nodes", "Nodes per job (Figure 2)",
     [](const SectionInputs& in) {
       return analysis::analyze_node_counts(in.store).render();
     }},
    {"population", "File population (S4.2)",
     [](const SectionInputs& in) {
       return analysis::analyze_file_population(in.store).render();
     }},
    {"files-per-job", "Files per job (Table 1)",
     [](const SectionInputs& in) {
       return analysis::analyze_files_per_job(in.store).render();
     }},
    {"sizes", "File sizes (Figure 3)",
     [](const SectionInputs& in) {
       return analysis::analyze_file_sizes(in.store).render();
     }},
    {"requests", "Request sizes (Figure 4)",
     [](const SectionInputs& in) { return in.request_sizes.render(); }},
    {"sequentiality", "Sequentiality (Figures 5/6)",
     [](const SectionInputs& in) {
       return analysis::analyze_sequentiality(in.store).render();
     }},
    {"intervals", "Interval regularity (Table 2)",
     [](const SectionInputs& in) {
       return analysis::analyze_intervals(in.store).render();
     }},
    {"regularity", "Request-size regularity (Table 3)",
     [](const SectionInputs& in) {
       return analysis::analyze_request_regularity(in.store).render();
     }},
    {"modes", "I/O modes (S4.6)",
     [](const SectionInputs& in) {
       return analysis::analyze_mode_usage(in.store).render();
     }},
    {"sharing", "Sharing (Figure 7)",
     [](const SectionInputs& in) {
       return analysis::analyze_sharing(in.store, in.block_size).render();
     }},
};

}  // namespace

std::vector<std::string_view> report_sections() {
  std::vector<std::string_view> names;
  for (const Section& s : kSections) names.emplace_back(s.name);
  return names;
}

std::string render_sections(const analysis::SessionStore& store,
                            const analysis::RequestSizeResult& request_sizes,
                            std::int64_t block_size,
                            std::string_view section) {
  const SectionInputs in{store, request_sizes, block_size};
  std::ostringstream out;
  for (const Section& s : kSections) {
    if (section != "all" && section != s.name) continue;
    out << "--- " << s.title << " ---\n" << s.render(in) << '\n';
  }
  return out.str();
}

std::string full_report(const StreamedStudyOutput& study,
                        const StridedStats& strided) {
  std::ostringstream out;
  out << "=== CHARISMA characterization (" << study.streamed_records
      << " events, " << util::format_duration(study.sim_end)
      << " simulated) ===\n\n";
  out << render_sections(study.sessions, study.request_sizes,
                         study.header.block_size);
  out << "--- I/O rate over time ---\n" << study.io_rate.render() << '\n';
  out << "--- Strided rewriting (S5 recommendation) ---\n" << strided.render();
  return out.str();
}

}  // namespace charisma::core
