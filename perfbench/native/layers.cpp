// Per-layer probes of the traced runs. Every span is taken here, in the
// benchmark, around a call into one module's public functions; nothing
// inside the program is instrumented.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/serde.hpp"
#include "bench.hpp"
#include "exec/parallel.hpp"
#include "obs/counters.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "workload/workload.hpp"

namespace perfbench {

namespace obsj = respin::obs::json;
namespace core = respin::core;
namespace serve = respin::serve;

namespace {

/// Timing of one cell under probe_sims.
struct CellTiming {
  std::int64_t make_ns = 0;
  std::int64_t run_ns = 0;
  std::int64_t cell_ns = 0;
  double directory_lookups = 0;
};

core::SimParams params_of(const core::RequestSpec& spec, bool cycle_skip) {
  core::SimParams params;
  params.workload_scale = spec.options.workload_scale;
  params.seed = spec.options.seed;
  params.cycle_skip = cycle_skip;
  params.faults = spec.options.faults;
  return params;
}

/// make_cluster_config + ClusterSim construction: the set-up half of
/// core::run_experiment for a non-oracle configuration.
std::unique_ptr<core::ClusterSim> make_sim(const core::RequestSpec& spec,
                                           bool cycle_skip) {
  core::ClusterConfig config = core::make_cluster_config(
      spec.config, spec.options.size, spec.options.cluster_cores,
      spec.options.seed, core::CoreCalibration{}, /*first_core=*/0,
      spec.options.tech);
  if (config.governor == core::GovernorKind::kOracle) {
    throw std::invalid_argument("perfbench does not probe oracle configs");
  }
  return std::make_unique<core::ClusterSim>(
      std::move(config), respin::workload::benchmark(spec.benchmark),
      params_of(spec, cycle_skip));
}

Span span_of(std::int64_t id, std::int64_t parent, const char* name,
             std::int64_t start, std::int64_t end, std::int64_t item) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.item = item;
  return s;
}

/// A router backend that serves from an in-process Server and times its
/// own call(), so the router's self time is handle_line minus call().
class TimedBackend : public serve::WorkerBackend {
 public:
  TimedBackend(std::string name, serve::Server& server, SpanLog& spans)
      : name_(std::move(name)), server_(server), spans_(spans) {}
  std::string name() const override { return name_; }
  std::string call(const std::string& line) override {
    const std::int64_t t0 = now_ns();
    std::string response = server_.handle_line(line);
    const std::int64_t t1 = now_ns();
    last_call_ns = t1 - t0;
    spans_.add(span_of(spans_.next_id(), parent, "serve.worker_call", t0, t1,
                       item));
    return response;
  }

  // Set by the (single-threaded) probe before each router call.
  std::int64_t parent = 0;
  std::int64_t item = -1;
  std::int64_t last_call_ns = 0;

 private:
  std::string name_;
  serve::Server& server_;
  SpanLog& spans_;
};

double us(std::int64_t ns) { return ns * 1e-3; }

}  // namespace

std::vector<core::SimResult> probe_sims(const std::vector<Keyed>& cells,
                                        SpanLog& spans, obsj::Value& out,
                                        std::size_t sim_from) {
  respin::exec::ThreadPool& pool = respin::exec::global_pool();
  const std::size_t threads = pool.size();
  const std::size_t n = cells.size();

  // Cells under spans: exec.fanout > exec.lane (one per pool thread) >
  // exec.cell > core.make_sim / core.run / core.result.
  std::vector<CellTiming> timing(n);
  const std::int64_t fanout_id = spans.next_id();
  std::vector<std::int64_t> lane_ids(threads);
  for (std::int64_t& id : lane_ids) id = spans.next_id();
  std::mutex lane_mu;
  std::map<std::thread::id, std::size_t> lane_of;
  const std::int64_t t0 = now_ns();
  std::vector<core::SimResult> results =
      respin::exec::parallel_map_n(pool, n, [&](std::size_t i) {
        std::size_t lane = 0;
        {
          std::lock_guard<std::mutex> lock(lane_mu);
          lane = lane_of.emplace(std::this_thread::get_id(), lane_of.size())
                     .first->second;
        }
        const core::RequestSpec& spec = cells[i].spec;
        const auto item = static_cast<std::int64_t>(i);
        const std::int64_t cell_id = spans.next_id();
        const std::int64_t c0 = now_ns();
        std::unique_ptr<core::ClusterSim> sim =
            make_sim(spec, spec.options.cycle_skip);
        const std::int64_t c1 = now_ns();
        sim->run();
        const std::int64_t c2 = now_ns();
        core::SimResult result = sim->result();
        respin::obs::CounterSet counters;
        sim->collect_counters(counters);
        const std::int64_t c3 = now_ns();
        if (const double* d = counters.find("pl1.directory_lookups")) {
          timing[i].directory_lookups = *d;
        }
        timing[i].make_ns = c1 - c0;
        timing[i].run_ns = c2 - c1;
        timing[i].cell_ns = c3 - c0;
        spans.add(span_of(cell_id, lane_ids[std::min(lane, threads - 1)],
                          "exec.cell", c0, c3, item));
        spans.add(span_of(spans.next_id(), cell_id, "core.make_sim", c0, c1,
                          item));
        spans.add(span_of(spans.next_id(), cell_id, "core.run", c1, c2, item));
        spans.add(
            span_of(spans.next_id(), cell_id, "core.result", c2, c3, item));
        return result;
      });
  const std::int64_t t1 = now_ns();
  spans.add(span_of(fanout_id, 0, "exec.fanout", t0, t1, -1));
  for (std::size_t lane = 0; lane < threads; ++lane) {
    spans.add(span_of(lane_ids[lane], fanout_id, "exec.lane", t0, t1,
                      static_cast<std::int64_t>(lane)));
  }

  double cell_s = 0;
  std::vector<double> make_ms;
  std::vector<double> sim_ms;
  std::int64_t run_ns_total = 0;
  std::map<std::string, double> run_ns;
  std::map<std::string, double> instructions;
  std::map<std::string, std::map<std::string, double>> sim;
  for (std::size_t i = 0; i < n; ++i) {
    const core::SimResult& r = results[i];
    const std::string slug = config_slug(r.config_name);
    cell_s += timing[i].cell_ns * 1e-9;
    make_ms.push_back(timing[i].make_ns * 1e-6);
    sim_ms.push_back(timing[i].cell_ns * 1e-6);
    run_ns_total += timing[i].run_ns;
    run_ns[slug] += static_cast<double>(timing[i].run_ns);
    instructions[slug] += static_cast<double>(r.instructions);
    auto& counts = sim[slug];
    counts["instructions"] += static_cast<double>(r.instructions);
    counts["cycles"] += static_cast<double>(r.cycles);
    counts["l1_accesses"] +=
        static_cast<double>(r.counts.l1_reads + r.counts.l1_writes);
    counts["dl1_half_misses"] += static_cast<double>(r.dl1_half_misses);
    counts["directory_lookups"] += timing[i].directory_lookups;
  }
  const double wall_s = (t1 - t0) * 1e-9;
  put(out, "exec.wall_s", wall_s);
  put(out, "exec.busy_share", cell_s / (wall_s * static_cast<double>(threads)));
  put(out, "exec.tail_s", wall_s - cell_s / static_cast<double>(threads));
  put(out, "exec.threads", static_cast<double>(threads));
  for (const std::string& config : grid_configs()) {
    const std::string slug = config_slug(config);
    if (instructions[slug] > 0) {
      put(out, "core.run_ns_per_inst." + slug,
          run_ns[slug] / instructions[slug]);
    }
    for (const char* name : {"instructions", "cycles", "l1_accesses",
                             "dl1_half_misses", "directory_lookups"}) {
      put(out, std::string("sim.") + name + "." + slug, sim[slug][name]);
    }
  }
  put(out, "core.make_sim_ms", median(make_ms));
  put(out, "serve.sim_ms",
      median(sim_from < n ? std::vector<double>(sim_ms.begin() + sim_from,
                                                sim_ms.end())
                          : sim_ms));

  // Workload generation alone: drain every thread's op stream of each
  // cell, as ClusterSim would consume it.
  std::vector<std::int64_t> drain_ns(n);
  std::vector<std::uint64_t> drain_ops(n);
  respin::exec::parallel_map_n(pool, n, [&](std::size_t i) {
    const core::RequestSpec& spec = cells[i].spec;
    const respin::workload::WorkloadSpec& w =
        respin::workload::benchmark(spec.benchmark);
    const std::uint32_t count = spec.options.cluster_cores;
    const std::int64_t d0 = now_ns();
    std::uint64_t ops = 0;
    for (std::uint32_t t = 0; t < count; ++t) {
      respin::workload::ThreadWorkload stream(
          w, t, count, spec.options.workload_scale, spec.options.seed);
      while (stream.next().kind != respin::workload::OpKind::kFinished) ++ops;
    }
    const std::int64_t d1 = now_ns();
    drain_ns[i] = d1 - d0;
    drain_ops[i] = ops;
    spans.add(span_of(spans.next_id(), 0, "workload.drain", d0, d1,
                      static_cast<std::int64_t>(i)));
    return 0;
  });
  double total_drain_ns = 0;
  double total_ops = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total_drain_ns += static_cast<double>(drain_ns[i]);
    total_ops += static_cast<double>(drain_ops[i]);
  }
  put(out, "workload.ns_per_op", total_ops > 0 ? total_drain_ns / total_ops : 0);
  put(out, "workload.share",
      run_ns_total > 0 ? total_drain_ns / static_cast<double>(run_ns_total)
                       : 0);

  // Event-driven clock: the first cell of each configuration, run with
  // cycle_skip off and on. Results must match (determinism contract).
  std::vector<std::size_t> subset;
  for (const std::string& config : grid_configs()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (results[i].config_name == config) {
        subset.push_back(i);
        break;
      }
    }
  }
  std::vector<std::int64_t> skip_ns(2 * subset.size());
  std::vector<std::string> skip_dumps(2 * subset.size());
  respin::exec::parallel_map_n(pool, skip_ns.size(), [&](std::size_t k) {
    const bool skip = k % 2 == 0;
    const Keyed& cell = cells[subset[k / 2]];
    std::unique_ptr<core::ClusterSim> sim = make_sim(cell.spec, skip);
    const std::int64_t r0 = now_ns();
    sim->run();
    skip_ns[k] = now_ns() - r0;
    skip_dumps[k] = core::result_to_json(sim->result()).dump();
    return 0;
  });
  double on_ns = 0;
  double off_ns = 0;
  std::size_t skip_mismatches = 0;
  for (std::size_t k = 0; k < skip_ns.size(); k += 2) {
    on_ns += static_cast<double>(skip_ns[k]);
    off_ns += static_cast<double>(skip_ns[k + 1]);
    if (skip_dumps[k] != skip_dumps[k + 1]) ++skip_mismatches;
  }
  put(out, "core.skip_speedup", on_ns > 0 ? off_ns / on_ns : 0);
  put(out, "check.skip_mismatches", static_cast<double>(skip_mismatches));
  return results;
}

void probe_serve(const std::vector<Keyed>& keys,
                 const std::vector<core::SimResult>& results,
                 const std::string& store_path, SpanLog& spans,
                 obsj::Value& out) {
  constexpr int kRounds = 20;
  std::vector<std::string> expected;
  for (const core::SimResult& r : results) {
    expected.push_back(core::result_to_json(r).dump());
  }

  // Serde: protocol parse, spec + canonical key, result serialization.
  std::vector<double> parse_us;
  std::vector<double> key_us;
  std::vector<double> serialize_us;
  std::size_t mismatches = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto item = static_cast<std::int64_t>(i);
      const std::int64_t t0 = now_ns();
      const obsj::Value request = obsj::parse(keys[i].line);
      const std::int64_t t1 = now_ns();
      const std::string key =
          core::canonical_key(core::request_spec_from_json(request));
      const std::int64_t t2 = now_ns();
      const std::string text = core::result_to_json(results[i]).dump();
      const std::int64_t t3 = now_ns();
      if (key != keys[i].key || text != expected[i]) ++mismatches;
      parse_us.push_back(us(t1 - t0));
      key_us.push_back(us(t2 - t1));
      serialize_us.push_back(us(t3 - t2));
      if (round == 0) {
        spans.add(span_of(spans.next_id(), 0, "serve.parse", t0, t1, item));
        spans.add(span_of(spans.next_id(), 0, "serve.key", t1, t2, item));
        spans.add(span_of(spans.next_id(), 0, "serve.serialize", t2, t3, item));
      }
    }
  }
  put(out, "serve.parse_us", median(parse_us));
  put(out, "serve.key_us", median(key_us));
  put(out, "serve.serialize_us", median(serialize_us));

  // Durable store: each put appends one line and flushes.
  std::remove(store_path.c_str());
  std::vector<double> put_ms;
  {
    serve::ResultStore store(store_path);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::int64_t t0 = now_ns();
      store.put(keys[i].key, results[i]);
      const std::int64_t t1 = now_ns();
      put_ms.push_back((t1 - t0) * 1e-6);
      spans.add(span_of(spans.next_id(), 0, "serve.store_put", t0, t1,
                        static_cast<std::int64_t>(i)));
    }
  }
  put(out, "serve.store_put_ms", median(put_ms));

  // A worker over that store: the first pass promotes store -> cache,
  // later passes are cache hits.
  serve::ServerConfig config;
  config.store_path = store_path;
  serve::Server server(config);
  for (const Keyed& k : keys) (void)server.handle_line(k.line);
  std::vector<double> handle_us;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::int64_t t0 = now_ns();
      const std::string response = server.handle_line(keys[i].line);
      const std::int64_t t1 = now_ns();
      if (result_bytes(response) != expected[i]) ++mismatches;
      handle_us.push_back(us(t1 - t0));
      if (round == 0) {
        spans.add(span_of(spans.next_id(), 0, "serve.handle", t0, t1,
                          static_cast<std::int64_t>(i)));
      }
    }
  }
  put(out, "serve.handle_us", median(handle_us));

  // The router hop over two benchmark-owned backends sharing the worker.
  std::vector<std::unique_ptr<serve::WorkerBackend>> backends;
  std::vector<TimedBackend*> timed;
  for (const char* name : {"timed:0", "timed:1"}) {
    auto backend = std::make_unique<TimedBackend>(name, server, spans);
    timed.push_back(backend.get());
    backends.push_back(std::move(backend));
  }
  serve::Router router(serve::RouterConfig{}, std::move(backends));
  std::vector<double> router_us;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::int64_t id = spans.next_id();
      for (TimedBackend* b : timed) {
        b->parent = id;
        b->item = static_cast<std::int64_t>(i);
        b->last_call_ns = 0;
      }
      const std::int64_t t0 = now_ns();
      const std::string response = router.handle_line(keys[i].line);
      const std::int64_t t1 = now_ns();
      std::int64_t call_ns = 0;
      for (const TimedBackend* b : timed) call_ns += b->last_call_ns;
      if (result_bytes(response) != expected[i]) ++mismatches;
      router_us.push_back(us(t1 - t0 - call_ns));
      spans.add(span_of(id, 0, "serve.router", t0, t1,
                        static_cast<std::int64_t>(i)));
    }
  }
  put(out, "serve.router_us", median(router_us));

  const respin::obs::CounterSet counters = server.counters();
  const double* hits = counters.find("serve.cache_hits");
  const double* runs = counters.find("serve.run_requests");
  put(out, "inproc.cache_hit_ratio",
      hits != nullptr && runs != nullptr && *runs > 0 ? *hits / *runs : 0);
  put(out, "check.serve_mismatches", static_cast<double>(mismatches));
}

int cmd_verify(const Flags& flags) {
  // Input: one "request line \t result bytes" row per served key.
  std::vector<Keyed> keys;
  std::vector<std::string> served;
  for (const std::string& row : read_lines(flags.str("served"))) {
    const std::size_t tab = row.find('\t');
    if (tab == std::string::npos) throw std::runtime_error("bad served row");
    keys.push_back(parse_request(row.substr(0, tab)));
    served.push_back(row.substr(tab + 1));
  }
  respin::exec::set_thread_count(
      static_cast<std::size_t>(flags.num("threads")));
  // The recomputation doubles as the simulator-throughput measurement of
  // this key set: repeated until --seconds have passed, median rate.
  std::vector<std::string> expected;
  std::vector<double> mips;
  const std::int64_t start = now_ns();
  do {
    std::uint64_t instructions = 0;
    const std::int64_t t0 = now_ns();
    const std::vector<core::SimResult> results =
        respin::exec::parallel_map_n(keys.size(), [&](std::size_t i) {
          const core::RequestSpec& spec = keys[i].spec;
          return core::run_experiment(spec.config, spec.benchmark,
                                      spec.options);
        });
    const double wall_s = (now_ns() - t0) * 1e-9;
    for (const core::SimResult& r : results) instructions += r.instructions;
    mips.push_back(static_cast<double>(instructions) / wall_s / 1e6);
    if (expected.empty()) {
      for (const core::SimResult& r : results) {
        expected.push_back(core::result_to_json(r).dump());
      }
    }
  } while ((now_ns() - start) * 1e-9 < flags.num("seconds", 0));
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (expected[i] != served[i]) {
      ++mismatches;
      std::fprintf(stderr, "verify: mismatch for %s\n", keys[i].line.c_str());
    }
  }
  obsj::Value out = obsj::Value::object();
  put(out, "checked", static_cast<double>(keys.size()));
  put(out, "mips", median(mips));
  put(out, "reps", static_cast<double>(mips.size()));
  put(out, "mismatches", static_cast<double>(mismatches));
  write_file(flags.str("out"), out.dump() + "\n");
  return 0;
}

int cmd_layers(const Flags& flags) {
  respin::exec::set_thread_count(
      static_cast<std::size_t>(flags.num("threads")));
  std::vector<Keyed> keys;
  for (const std::string& line : read_lines(flags.str("lines"))) {
    keys.push_back(parse_request(line));
  }
  SpanLog spans;
  obsj::Value layers = obsj::Value::object();
  const std::vector<core::SimResult> results = probe_sims(
      keys, spans, layers, static_cast<std::size_t>(flags.num("hot-count", 0)));
  probe_serve(keys, results, flags.str("store"), spans, layers);

  // Served bytes from the traced window must equal the probe's results.
  std::map<std::string, std::string> expected;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    expected[keys[i].line] = core::result_to_json(results[i]).dump();
  }
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  for (const std::string& row : read_lines(flags.str("served"))) {
    const std::size_t tab = row.find('\t');
    const auto it = expected.find(row.substr(0, tab));
    if (tab == std::string::npos || it == expected.end()) continue;
    ++checked;
    if (it->second != row.substr(tab + 1)) ++mismatches;
  }
  put(layers, "check.served_checked", static_cast<double>(checked));
  put(layers, "check.served_mismatches", static_cast<double>(mismatches));
  spans.write(flags.str("spans"));
  write_file(flags.str("out"), layers.dump() + "\n");
  return 0;
}

}  // namespace perfbench
