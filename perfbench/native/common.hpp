// Shared plumbing for perfbench_native: clocks, flag parsing, the
// benchmark's request specs, and the in-memory span log of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/serde.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock); every span and latency uses it.
std::int64_t now_ns();

/// CPU seconds (user + system) this process has used so far.
double process_cpu_s();

/// `--name value` pairs; every flag takes exactly one value.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string str(const std::string& name) const;
  std::string str(const std::string& name, const std::string& fallback) const;
  double num(const std::string& name) const;
  double num(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// The four Table IV configurations every workload covers, in grid order.
const std::vector<std::string>& grid_configs();

/// Metric-name suffix for a configuration ("SH-HYBRID-4+12" ->
/// "sh_hybrid_4_12").
std::string config_slug(const std::string& config);

/// The 52 grid keys (grid_configs() x the 13-benchmark catalog) as `run`
/// request lines at `scale` with simulation seed `seed`.
std::vector<std::string> grid_request_lines(double scale, std::uint64_t seed);

/// Reads one request line per text line of `path`.
std::vector<std::string> read_lines(const std::string& path);

/// A parsed `run` request line: its spec and canonical key.
struct Keyed {
  std::string line;
  respin::core::RequestSpec spec;
  std::string key;
};
Keyed parse_request(const std::string& line);

/// Raw bytes of the "result" member of a `run` response line, or "" when
/// the line has none. Taken from the wire text itself, so a byte-level
/// comparison sees exactly what the server sent.
std::string result_bytes(const std::string& response);

/// One traced interval. `parent` is 0 for a root span; `item` names the
/// request or cell the span belongs to (-1 when none).
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t item = -1;
};

/// Spans kept in memory while a traced run executes; written once, at the
/// end, as JSON lines. Thread-safe.
class SpanLog {
 public:
  /// Reserves an id so children can name their parent before it closes.
  std::int64_t next_id();
  void add(Span span);
  void write(const std::string& path) const;
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::int64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// Median of `values` (copied); 0 when empty.
double median(std::vector<double> values);

/// Writes `text` to `path`, throwing on failure.
void write_file(const std::string& path, const std::string& text);

}  // namespace perfbench
