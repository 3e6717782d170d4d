// A realistic CFD checkpoint/restart cycle, hand-written against the
// public API (no workload generator): P nodes restore from per-node
// restart files, iterate with interleaved grid reads, and write periodic
// per-node snapshots — the access pattern at the heart of the paper.
//
//   cfd_checkpoint [--nodes=32] [--steps=4]
#include <cstdio>
#include <memory>
#include <vector>

#include "cfs/client.hpp"
#include "util/flags.hpp"

using namespace charisma;

namespace {

struct App {
  App(cfs::Runtime& cfs, std::int32_t nodes) {
    for (std::int32_t n = 0; n < nodes; ++n) {
      clients.push_back(std::make_unique<cfs::Client>(cfs, n));
    }
  }
  std::vector<std::unique_ptr<cfs::Client>> clients;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv, {"nodes", "steps"});
  // A misspelt flag must not silently run the defaults.
  if (flags.remaining_argc() > 1) {
    std::fprintf(stderr, "usage: cfd_checkpoint [--nodes=N] [--steps=N]\n");
    return 2;
  }
  const auto P = static_cast<std::int32_t>(flags.get_int("nodes", 32));
  const auto steps = static_cast<std::int32_t>(flags.get_int("steps", 4));

  sim::Engine engine;
  util::Rng rng(7);
  ipsc::Machine machine(engine, ipsc::MachineConfig::nas_ames(), rng);
  cfs::Runtime cfs(machine);
  App app(cfs, P);
  const cfs::JobId job = 100;

  // Stage the shared grid and the per-node restart dumps (a previous run's
  // output).
  {
    cfs::Client& staging = *app.clients[0];
    auto grid = staging.open(job - 1, "mesh/wing.g",
                             cfs::kWrite | cfs::kCreate,
                             cfs::IoMode::kIndependent);
    (void)staging.write(grid.fd, 512 * util::kKiB);
    (void)staging.close(grid.fd);
  }
  for (std::int32_t n = 0; n < P; ++n) {
    auto r = app.clients[static_cast<std::size_t>(n)]->open(
        job - 1, "restart/r" + std::to_string(n) + ".chk",
        cfs::kWrite | cfs::kCreate, cfs::IoMode::kIndependent);
    (void)app.clients[static_cast<std::size_t>(n)]->write(r.fd,
                                                          2 * util::kMiB);
    (void)app.clients[static_cast<std::size_t>(n)]->close(r.fd);
  }
  std::printf("staged grid + %d restart files by t=%s\n", P,
              util::format_duration(engine.now()).c_str());

  // --- Restart: every node reads its own dump in one request. -----------
  util::MicroSec phase_end = engine.now();
  for (std::int32_t n = 0; n < P; ++n) {
    cfs::Client& c = *app.clients[static_cast<std::size_t>(n)];
    auto r = c.open(job, "restart/r" + std::to_string(n) + ".chk", cfs::kRead,
                    cfs::IoMode::kIndependent);
    const auto read = c.read(r.fd, 2 * util::kMiB);
    phase_end = std::max(phase_end, read.completed_at);
    (void)c.close(r.fd);
  }
  engine.run_until(phase_end);  // barrier: wait for the slowest node

  // --- Timestep loop. -----------------------------------------------------
  constexpr std::int64_t kRec = 400;
  std::int64_t small_reads = 0;
  for (std::int32_t step = 0; step < steps; ++step) {
    // Interleaved grid read: node n takes records n, n+P, 2P+n, ...
    phase_end = engine.now();
    for (std::int32_t n = 0; n < P; ++n) {
      cfs::Client& c = *app.clients[static_cast<std::size_t>(n)];
      auto g = c.open(job, "mesh/wing.g", cfs::kRead,
                      cfs::IoMode::kIndependent);
      (void)c.seek(g.fd, n * kRec, cfs::Whence::kSet);
      for (int rec = 0; rec < 40; ++rec) {
        const auto r = c.read(g.fd, kRec);
        if (!r.ok || r.bytes == 0) break;
        ++small_reads;
        phase_end = std::max(phase_end, r.completed_at);
        (void)c.seek(g.fd, (P - 1) * kRec, cfs::Whence::kCurrent);
      }
      (void)c.close(g.fd);
    }
    engine.run_until(phase_end);
    // Per-node snapshot: header plus fixed records (Table 3's two-size
    // signature).
    for (std::int32_t n = 0; n < P; ++n) {
      cfs::Client& c = *app.clients[static_cast<std::size_t>(n)];
      auto s = c.open(job,
                      "snap/s" + std::to_string(step) + "_n" +
                          std::to_string(n) + ".q",
                      cfs::kWrite | cfs::kCreate, cfs::IoMode::kIndependent);
      (void)c.write(s.fd, 512);
      for (int rec = 0; rec < 60; ++rec) {
        const auto w = c.write(s.fd, 1024);
        phase_end = std::max(phase_end, w.completed_at);
      }
      (void)c.close(s.fd);
    }
    engine.run_until(phase_end);
    std::printf("step %d done at t=%s\n", step,
                util::format_duration(engine.now()).c_str());
  }

  std::printf(
      "\n%d nodes, %d steps: %lld interleaved sub-block reads, "
      "%d snapshot files, %s of checkpoint data\n",
      P, steps, static_cast<long long>(small_reads), P * steps,
      util::format_bytes(static_cast<std::int64_t>(P) * steps *
                         (512 + 60 * 1024))
          .c_str());
  double util = 0;
  for (int d = 0; d < machine.io_nodes(); ++d) {
    util += machine.disk(d).utilization(engine.now());
  }
  std::printf("mean disk utilization: %.1f%%\n",
              100.0 * util / machine.io_nodes());
  return 0;
}
