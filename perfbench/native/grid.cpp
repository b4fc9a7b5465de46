// The `grid` workload: core::run_matrix over the four configurations x 13
// benchmarks, each cell starting from empty modelled caches (every
// run_experiment builds a fresh ClusterSim).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/serde.hpp"
#include "bench.hpp"
#include "exec/thread_pool.hpp"
#include "workload/workload.hpp"

namespace perfbench {

namespace obsj = respin::obs::json;
namespace core = respin::core;

namespace {

std::vector<Keyed> grid_cells(const Flags& flags) {
  std::vector<Keyed> cells;
  for (const std::string& line : grid_request_lines(
           flags.num("scale"), static_cast<std::uint64_t>(flags.num("seed")))) {
    cells.push_back(parse_request(line));
  }
  return cells;
}

}  // namespace

void put(obsj::Value& object, const std::string& name, double value) {
  object.set(name, obsj::Value::number(value));
}

double self_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

int cmd_provenance(const Flags&) {
#if defined(__clang__)
  const std::string compiler = __VERSION__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("GNU ") + __VERSION__;
#else
  const std::string compiler = __VERSION__;
#endif
  std::printf(
      "{\"compiler\":\"%s\",\"build_type\":\"%s\",\"lto\":\"%s\","
      "\"respin_obs\":\"%s\"}\n",
      respin::obs::json::escape(compiler).c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_LTO, PERFBENCH_OBS);
  return 0;
}

int cmd_lines(const Flags& flags) {
  std::string text;
  for (const std::string& line : grid_request_lines(
           flags.num("scale"), static_cast<std::uint64_t>(flags.num("seed")))) {
    text += line + "\n";
  }
  write_file(flags.str("out"), text);
  return 0;
}

int cmd_setup_grid(const Flags& flags) {
  respin::exec::set_thread_count(
      static_cast<std::size_t>(flags.num("threads")));
  const std::size_t width = respin::exec::thread_count();
  const std::vector<Keyed> cells = grid_cells(flags);
  std::printf("ready %zu cells on %zu threads\n", cells.size(), width);
  return 0;
}

int cmd_grid(const Flags& flags) {
  respin::exec::set_thread_count(
      static_cast<std::size_t>(flags.num("threads")));
  const std::vector<Keyed> cells = grid_cells(flags);
  const bool traced = flags.num("traced", 0) != 0;
  const double budget_s = flags.num("seconds");
  const int min_reps = static_cast<int>(flags.num("min-reps", 2));

  std::vector<core::ConfigId> configs;
  for (const std::string& name : grid_configs()) {
    configs.push_back(core::parse_config_id(name));
  }
  core::RunOptions options = cells.front().spec.options;

  obsj::Array reps;
  std::vector<std::string> reference;
  std::vector<core::SimResult> first_results;
  std::size_t repeat_mismatches = 0;
  std::size_t limit_hits = 0;
  const std::int64_t start = now_ns();
  for (int rep = 0;; ++rep) {
    const std::int64_t t0 = now_ns();
    const double cpu0 = process_cpu_s();
    const auto rows = core::run_matrix(configs, respin::workload::benchmark_names(),
                                       options);
    const double wall_s = (now_ns() - t0) * 1e-9;
    const double cpu_s = process_cpu_s() - cpu0;

    std::vector<std::string> dumps;
    std::uint64_t instructions = 0;
    for (const auto& row : rows) {
      for (const core::SimResult& r : row) {
        dumps.push_back(core::result_to_json(r).dump());
        instructions += r.instructions;
        if (r.hit_cycle_limit) ++limit_hits;
        if (rep == 0) first_results.push_back(r);
      }
    }
    if (rep == 0) {
      reference = dumps;
    } else {
      for (std::size_t i = 0; i < dumps.size(); ++i) {
        if (dumps[i] != reference[i]) ++repeat_mismatches;
      }
    }
    obsj::Value r = obsj::Value::object();
    put(r, "wall_s", wall_s);
    put(r, "cpu_s", cpu_s);
    put(r, "instructions", static_cast<double>(instructions));
    reps.push_back(std::move(r));

    // A traced run needs only the untraced reference reps.
    const double elapsed_s = (now_ns() - start) * 1e-9;
    if (rep + 1 >= min_reps && (traced || elapsed_s >= budget_s)) break;
  }

  obsj::Value out = obsj::Value::object();
  put(out, "threads", static_cast<double>(respin::exec::thread_count()));
  put(out, "cells", static_cast<double>(cells.size()));
  out.set("reps", obsj::Value::array(std::move(reps)));
  put(out, "repeat_mismatches", static_cast<double>(repeat_mismatches));
  put(out, "limit_hits", static_cast<double>(limit_hits));
  put(out, "peak_rss_mb", self_peak_rss_mb());

  if (traced) {
    SpanLog spans;
    obsj::Value layers = obsj::Value::object();
    const std::int64_t t0 = now_ns();
    const std::vector<core::SimResult> traced_results =
        probe_sims(cells, spans, layers);
    std::size_t traced_mismatches = 0;
    for (std::size_t i = 0; i < traced_results.size(); ++i) {
      if (core::result_to_json(traced_results[i]).dump() != reference[i]) {
        ++traced_mismatches;
      }
    }
    put(out, "traced_mismatches", static_cast<double>(traced_mismatches));
    put(out, "probe_s", (now_ns() - t0) * 1e-9);
    probe_serve(cells, first_results, flags.str("store"), spans, layers);
    out.set("layers", std::move(layers));
    spans.write(flags.str("spans"));
  }
  write_file(flags.str("out"), out.dump() + "\n");
  return 0;
}

}  // namespace perfbench
