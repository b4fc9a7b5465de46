#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "workload/workload.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string name = argv[i];
    if (name.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value, got " + name);
    }
    values_[name.substr(2)] = argv[i + 1];
  }
}

std::string Flags::str(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::invalid_argument("missing --" + name);
  return it->second;
}

std::string Flags::str(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Flags::num(const std::string& name) const {
  return std::stod(str(name));
}

double Flags::num(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stod(it->second);
}

const std::vector<std::string>& grid_configs() {
  static const std::vector<std::string> configs = {
      "PR-SRAM-NT", "SH-STT", "SH-STT-CC", "SH-HYBRID-4+12"};
  return configs;
}

std::string config_slug(const std::string& config) {
  std::string slug;
  for (const char c : config) {
    slug += std::isalnum(static_cast<unsigned char>(c))
                ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
                : '_';
  }
  return slug;
}

std::vector<std::string> grid_request_lines(double scale, std::uint64_t seed) {
  namespace obsj = respin::obs::json;
  std::vector<std::string> lines;
  for (const std::string& config : grid_configs()) {
    for (const std::string& benchmark : respin::workload::benchmark_names()) {
      obsj::Value v = obsj::Value::object();
      v.set("op", obsj::Value::str("run"));
      v.set("config", obsj::Value::str(config));
      v.set("benchmark", obsj::Value::str(benchmark));
      v.set("scale", obsj::Value::number(scale));
      v.set("seed", obsj::Value::number(seed));
      lines.push_back(v.dump());
    }
  }
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

Keyed parse_request(const std::string& line) {
  Keyed k;
  k.line = line;
  k.spec = respin::core::request_spec_from_json(respin::obs::json::parse(line));
  k.key = respin::core::canonical_key(k.spec);
  return k;
}

std::string result_bytes(const std::string& response) {
  static const std::string kTag = "\"result\":";
  const std::size_t at = response.find(kTag);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + kTag.size();
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = begin; i < response.size(); ++i) {
    const char c = response[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) return response.substr(begin, i + 1 - begin);
    }
  }
  return "";
}

std::int64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++last_id_;
}

void SpanLog::add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::write(const std::string& path) const {
  std::ostringstream os;
  for (const Span& s : spans()) {
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
       << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"item\":" << s.item << "}\n";
  }
  write_file(path, os.str());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
