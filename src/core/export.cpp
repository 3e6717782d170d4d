#include "core/export.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "analysis/analyzers.hpp"
#include "analysis/figures.hpp"
#include "analysis/iorate.hpp"
#include "cache/simulators.hpp"
#include "util/histogram.hpp"

namespace charisma::core {

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  return out;
}

void write_cdf(const std::string& path, const util::Cdf& cdf) {
  auto out = open_out(path);
  out << "# x\tF(x)\n";
  for (const auto& p : cdf.points()) {
    out << p.x << '\t' << p.cumulative_fraction << '\n';
  }
}

}  // namespace

ExportResult export_figures(const StreamedStudyOutput& study,
                            const cache::SweepRunner& sweeps,
                            const std::string& directory) {
  ExportResult result;
  result.directory = directory;
  const analysis::SessionStore& store = study.sessions;
  const auto dir = [&](const std::string& name) {
    return directory + "/" + name;
  };

  {  // Figure 1: time at each concurrency level.
    const auto r = analysis::analyze_job_concurrency(store);
    auto out = open_out(dir("fig1.tsv"));
    out << "# jobs\tfraction_of_time\n";
    for (std::size_t k = 0; k < r.time_fraction.size(); ++k) {
      out << k << '\t' << r.time_fraction[k] << '\n';
    }
    ++result.files_written;
  }
  {  // Figure 2: jobs per node count.
    const auto r = analysis::analyze_node_counts(store);
    auto out = open_out(dir("fig2.tsv"));
    out << "# nodes\tjobs\tnode_seconds\n";
    for (const auto& [nodes, jobs] : r.jobs_by_nodes) {
      const auto it = r.node_seconds_by_nodes.find(nodes);
      out << nodes << '\t' << jobs << '\t'
          << (it == r.node_seconds_by_nodes.end() ? 0.0 : it->second) << '\n';
    }
    ++result.files_written;
  }
  write_cdf(dir("fig3.tsv"), analysis::analyze_file_sizes(store).cdf);
  ++result.files_written;
  {  // Figure 4: four curves in one file.
    const auto& r = study.request_sizes;
    auto out = open_out(dir("fig4.tsv"));
    out << "# size\treads_cdf\tread_bytes_cdf\twrites_cdf\twrite_bytes_cdf\n";
    for (double x : util::log_spaced(64, 3.3e7, 6)) {
      out << x << '\t' << r.reads_by_count.at(x) << '\t'
          << r.reads_by_bytes.at(x) << '\t' << r.writes_by_count.at(x)
          << '\t' << r.writes_by_bytes.at(x) << '\n';
    }
    ++result.files_written;
  }
  {  // Figures 5/6: per-class sequential / consecutive CDFs.
    const auto r = analysis::analyze_sequentiality(store);
    write_cdf(dir("fig5_read_only.tsv"), r.read_only.sequential_cdf);
    write_cdf(dir("fig5_write_only.tsv"), r.write_only.sequential_cdf);
    write_cdf(dir("fig5_read_write.tsv"), r.read_write.sequential_cdf);
    write_cdf(dir("fig6_read_only.tsv"), r.read_only.consecutive_cdf);
    write_cdf(dir("fig6_write_only.tsv"), r.write_only.consecutive_cdf);
    result.files_written += 5;
  }
  {  // Figure 7: sharing CDFs.
    const auto r = analysis::analyze_sharing(store, study.header.block_size);
    write_cdf(dir("fig7_read_bytes.tsv"), r.read_only.byte_shared_cdf);
    write_cdf(dir("fig7_read_blocks.tsv"), r.read_only.block_shared_cdf);
    write_cdf(dir("fig7_write_bytes.tsv"), r.write_only.byte_shared_cdf);
    result.files_written += 3;
  }
  {  // Figure 8: job hit-rate CDF, 1 and 50 buffers.
    const auto r = sweeps.run_compute(figure_compute_configs());
    write_cdf(dir("fig8_1buf.tsv"), r[0].hit_rate_cdf);
    write_cdf(dir("fig8_50buf.tsv"), r[1].hit_rate_cdf);
    result.files_written += 2;
  }
  {  // Figure 9: hit rate vs buffers, LRU and FIFO.
    const auto buffers = analysis::fig9_buffer_grid();
    const auto r = sweeps.run_io(figure_io_configs(
        study.header.io_nodes > 0 ? study.header.io_nodes : 10));
    auto out = open_out(dir("fig9.tsv"));
    out << "# buffers\tlru\tfifo\n";
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      out << static_cast<std::size_t>(buffers[i]) << '\t' << r[i].hit_rate
          << '\t' << r[buffers.size() + i].hit_rate << '\n';
    }
    ++result.files_written;
  }
  {  // Extra: the I/O-rate timeline.
    const auto& r = study.io_rate;
    auto out = open_out(dir("iorate.tsv"));
    out << "# t_seconds\tread_mb\twrite_mb\n";
    for (const auto& b : r.timeline) {
      out << static_cast<double>(b.start) / util::kSecond << '\t'
          << static_cast<double>(b.bytes_read) / 1e6 << '\t'
          << static_cast<double>(b.bytes_written) / 1e6 << '\n';
    }
    ++result.files_written;
  }

  {  // The gnuplot script tying it together.
    result.plot_script = dir("plots.gp");
    auto out = open_out(result.plot_script);
    out << "# gnuplot script regenerating the paper's figures from the\n"
           "# exported series: gnuplot -p plots.gp\n"
           "set style data linespoints\n"
           "set key bottom right\n"
           "set term push\n"
           "set grid\n\n"
           "set title 'Figure 1: concurrent jobs'\n"
           "set xlabel 'jobs running'; set ylabel 'fraction of time'\n"
           "plot 'fig1.tsv' using 1:2 with boxes title 'this reproduction'\n"
           "pause -1\n\n"
           "set title 'Figure 3: file sizes at close'\n"
           "set logscale x; set xlabel 'bytes'; set ylabel 'CDF'\n"
           "plot 'fig3.tsv' title 'files'\n"
           "pause -1\n\n"
           "set title 'Figure 4: request sizes'\n"
           "plot 'fig4.tsv' using 1:2 title 'reads', \\\n"
           "     'fig4.tsv' using 1:3 title 'read bytes', \\\n"
           "     'fig4.tsv' using 1:4 title 'writes', \\\n"
           "     'fig4.tsv' using 1:5 title 'write bytes'\n"
           "pause -1\n\n"
           "unset logscale x\n"
           "set title 'Figure 9: I/O-node cache'\n"
           "set xlabel '4 KB buffers'; set ylabel 'hit rate'\n"
           "plot 'fig9.tsv' using 1:2 title 'LRU', "
           "'fig9.tsv' using 1:3 title 'FIFO'\n"
           "pause -1\n";
    ++result.files_written;
  }
  return result;
}

ExportResult export_campaign(const CampaignResult& campaign,
                             const std::string& directory) {
  ExportResult result;
  result.directory = directory;
  std::filesystem::create_directories(directory);
  {
    auto out = open_out(directory + "/campaign_studies.tsv");
    out << "# label\tseed\tscale\tdigest\tevents\trecords\tops\t"
           "sim_end_us\tidle\tmultiprog\tsingle_node\tsmall_read\t"
           "small_write\ttemporary\tmode0\n";
    for (const auto& s : campaign.studies) {
      out << s.label << '\t' << s.seed << '\t' << s.scale << '\t' << std::hex
          << "0x" << s.trace_digest << std::dec << '\t'
          << s.events_dispatched << '\t' << s.records << '\t' << s.total_ops
          << '\t' << s.sim_end << '\t' << s.idle_fraction << '\t'
          << s.multiprogrammed_fraction << '\t'
          << s.single_node_job_fraction << '\t' << s.small_read_fraction
          << '\t' << s.small_write_fraction << '\t' << s.temporary_fraction
          << '\t' << s.mode0_fraction << '\n';
    }
    ++result.files_written;
  }
  {
    auto out = open_out(directory + "/campaign_aggregate.tsv");
    out << "# stat\tn\tmean\tstddev\tmin\tmax\tci95_half\n";
    for (const auto& a : campaign.aggregates) {
      out << a.name << '\t' << a.summary.count() << '\t' << a.summary.mean()
          << '\t' << a.summary.stddev() << '\t' << a.summary.min() << '\t'
          << a.summary.max() << '\t' << a.ci95_half_width() << '\n';
    }
    ++result.files_written;
  }
  for (const auto& env : campaign.figure_envelopes) {
    auto out = open_out(directory + "/campaign_" + env.name + ".tsv");
    out << "# x\tmean\tmin\tmax\tci95_half\tn\n";
    for (std::size_t i = 0; i < env.size(); ++i) {
      out << env.xs[i] << '\t' << env.mean[i] << '\t' << env.min[i] << '\t'
          << env.max[i] << '\t' << env.ci95_half[i] << '\t'
          << env.replications << '\n';
    }
    ++result.files_written;
  }
  return result;
}

}  // namespace charisma::core
