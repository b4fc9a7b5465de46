// Subcommands of perfbench_native. run.py calls them; each reads flags,
// does one measurement, and writes its findings as one JSON object to the
// path given by --out.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "core/cluster_sim.hpp"
#include "obs/json.hpp"

namespace perfbench {

/// `provenance`: compiler, build type, LTO and RESPIN_OBS of this build,
/// as one JSON line on stdout.
int cmd_provenance(const Flags& flags);

/// `lines`: the 52 grid keys as `run` request lines, one per line.
int cmd_lines(const Flags& flags);

/// `setup-grid`: process start, exec pool construction and the grid's
/// cell-list build, then exit. run.py times the whole process.
int cmd_setup_grid(const Flags& flags);

/// `grid`: core::run_matrix over the grid, repeated for --seconds; with
/// --traced 1 it then re-runs the cells under spans (probe_sims) and the
/// in-process serve-layer probes.
int cmd_grid(const Flags& flags);

/// `load`: one window of requests against a line-protocol server, open
/// loop (Poisson, --rate) or closed loop (--closed 1).
int cmd_load(const Flags& flags);

/// `verify`: recomputes results for served keys and compares bytes; the
/// recomputation, repeated for --seconds, also gives the simulator rate
/// over those keys.
int cmd_verify(const Flags& flags);

/// `layers`: the traced per-layer probes for a serve workload's key set
/// (--hot-count leading lines are warmed keys, the rest fresh keys).
int cmd_layers(const Flags& flags);

/// Simulator-side layer probes over a set of specs, each cell under
/// spans (exec lane > cell > make_sim / run / result), plus the workload
/// stream drain and the cycle-skip subset. Fills `out` with the exec.*,
/// core.*, workload.* and sim.* metrics and returns each cell's result.
/// serve.sim_ms is the median cell time of cells[sim_from:] (the fresh
/// keys of a serve workload), or of all cells when that range is empty.
std::vector<respin::core::SimResult> probe_sims(
    const std::vector<Keyed>& cells, SpanLog& spans,
    respin::obs::json::Value& out, std::size_t sim_from = 0);

/// Serve-layer probes in-process over keys with known results: serde,
/// store put, Server::handle_line on cache hits and the router's self
/// time. Fills `out` with serve.* metrics and leaves the store log at
/// `store_path` (every key put once).
void probe_serve(const std::vector<Keyed>& keys,
                 const std::vector<respin::core::SimResult>& results,
                 const std::string& store_path, SpanLog& spans,
                 respin::obs::json::Value& out);

/// Adds a numeric member to a JSON object.
void put(respin::obs::json::Value& object, const std::string& name,
         double value);

/// VmHWM of this process in MB (0 when /proc is unavailable).
double self_peak_rss_mb();

}  // namespace perfbench
