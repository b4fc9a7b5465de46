// The load generator: one process, one event-loop thread, a fixed set of
// loopback connections. Open loop: arrivals follow a seeded Poisson
// schedule and each request is sent when due whether or not earlier ones
// have been answered, so a stall shows as latency (measured from the due
// time) instead of as fewer requests. Closed loop (set-up warm-up): each
// connection sends its next request when the previous one returns. The
// loop never sleeps, so the generator thread occupies one CPU for the
// whole window.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "workload/workload.hpp"

namespace perfbench {

namespace obsj = respin::obs::json;

namespace {

/// splitmix64: a small, portable seeded stream (the schedule must be the
/// same for the same seed on every host).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// A request not answered this long after the schedule ends is failed.
constexpr std::int64_t kResponseTimeoutNs = 20'000'000'000;

struct Request {
  std::int64_t due_ns = 0;  ///< Offset from the window start.
  std::size_t line = 0;     ///< Index into the window's request lines.
  std::size_t conn = 0;
  bool miss = false;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> pending;  ///< Requests awaiting a response.
  std::size_t closed_next = 0;      ///< Closed loop: next own request.
  std::vector<std::size_t> closed_queue;
};

int dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) +
                             " refused");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// A fresh `run` request: a grid configuration and benchmark with a
/// simulation seed no other request of any run uses.
std::string miss_line(Rng& rng, double scale, std::uint64_t sim_seed) {
  const auto& configs = grid_configs();
  const auto names = respin::workload::benchmark_names();
  obsj::Value v = obsj::Value::object();
  v.set("op", obsj::Value::str("run"));
  v.set("config", obsj::Value::str(configs[rng.below(configs.size())]));
  v.set("benchmark", obsj::Value::str(names[rng.below(names.size())]));
  v.set("scale", obsj::Value::number(scale));
  v.set("seed", obsj::Value::number(sim_seed));
  return v.dump();
}

}  // namespace

int cmd_load(const Flags& flags) {
  const int port = static_cast<int>(flags.num("port"));
  const auto conn_count = static_cast<std::size_t>(flags.num("conns"));
  const bool closed = flags.num("closed", 0) != 0;
  const bool traced = !flags.str("spans", "").empty();
  std::vector<std::string> lines = read_lines(flags.str("lines"));
  const std::size_t hot_count = lines.size();

  // Timer slack defaults to 50 us; the schedule needs better than that.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  std::vector<Request> requests;
  if (closed) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      requests.push_back(Request{0, i, i % conn_count, false});
    }
  } else {
    const double rate = flags.num("rate");
    const double window_s = flags.num("seconds");
    const double miss_share = flags.num("miss-share", 0);
    const double miss_scale = flags.num("miss-scale", 0.01);
    const auto seed = static_cast<std::uint64_t>(flags.num("seed"));
    const auto window = static_cast<std::uint64_t>(flags.num("window", 0));
    Rng rng(seed * 0x100000001b3ULL + window * 0x9e37ULL + 1);
    // Simulation seeds of fresh keys: disjoint per (workload seed, window).
    std::uint64_t miss_seed = 1'000'000'000'000ULL +
                              (seed % 100'000) * 10'000'000ULL +
                              (window % 1000) * 10'000ULL;
    double t = 0;
    for (;;) {
      t += -std::log1p(-rng.uniform()) / rate;
      if (t >= window_s) break;
      Request r;
      r.due_ns = static_cast<std::int64_t>(t * 1e9);
      r.conn = rng.below(conn_count);
      r.miss = miss_share > 0 && rng.uniform() < miss_share;
      if (r.miss) {
        r.line = lines.size();
        lines.push_back(miss_line(rng, miss_scale, miss_seed++));
      } else {
        r.line = rng.below(hot_count);
      }
      requests.push_back(r);
    }
  }
  const std::size_t n = requests.size();

  std::vector<Conn> conns(conn_count);
  for (Conn& c : conns) c.fd = dial(port);
  if (closed) {
    for (std::size_t i = 0; i < n; ++i) {
      conns[requests[i].conn].closed_queue.push_back(i);
    }
  }

  std::vector<std::int64_t> send_ns(n, -1);
  std::vector<std::int64_t> recv_ns(n, -1);
  std::vector<char> ok(n, 0);
  std::vector<char> hit(n, 0);
  std::map<std::size_t, std::string> served;  // line -> result bytes
  std::size_t failed = 0;
  std::size_t mismatched = 0;
  std::vector<std::string> errors;
  std::vector<double> backlog;
  std::size_t sent = 0;
  std::size_t received = 0;

  auto enqueue = [&](std::size_t i, std::int64_t now) {
    Conn& c = conns[requests[i].conn];
    c.out += lines[requests[i].line];
    c.out += '\n';
    c.pending.push_back(i);
    send_ns[i] = now;
    ++sent;
  };
  auto on_response = [&](Conn& c, const std::string& line, std::int64_t now) {
    const std::size_t i = c.pending.front();
    c.pending.pop_front();
    recv_ns[i] = now;
    ++received;
    if (line.rfind("{\"ok\":true", 0) != 0) {
      ++failed;
      if (errors.size() < 5) errors.push_back(line.substr(0, 300));
      return;
    }
    const std::string bytes = result_bytes(line);
    const auto [it, fresh] = served.emplace(requests[i].line, bytes);
    if (bytes.empty() || (!fresh && it->second != bytes)) {
      ++failed;
      ++mismatched;
      return;
    }
    ok[i] = 1;
    hit[i] = line.find("\"source\":\"cache\"") != std::string::npos ? 1 : 0;
  };

  // Open loop: the schedule starts just after the dials.
  const std::int64_t start = now_ns() + (closed ? 0 : 2'000'000);
  const std::int64_t schedule_end = start + (n > 0 ? requests.back().due_ns : 0);
  const std::int64_t give_up = schedule_end + kResponseTimeoutNs;
  std::int64_t next_sample = start;
  std::size_t next = 0;
  if (closed) {
    for (Conn& c : conns) {
      if (!c.closed_queue.empty()) enqueue(c.closed_queue[c.closed_next++], now_ns());
    }
    next = n;
  }
  std::vector<pollfd> fds(conn_count);
  char buffer[65536];
  bool transport_failed = false;
  while (received < n && !transport_failed) {
    std::int64_t now = now_ns();
    if (now > give_up) break;
    while (next < n && start + requests[next].due_ns <= now) {
      enqueue(next++, now);
    }
    if (!closed && now >= next_sample && now <= schedule_end) {
      backlog.push_back(static_cast<double>(sent - received));
      next_sample += 50'000'000;
    }
    for (std::size_t k = 0; k < conn_count; ++k) {
      Conn& c = conns[k];
      while (c.out_off < c.out.size()) {
        const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (w > 0) {
          c.out_off += static_cast<std::size_t>(w);
        } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          transport_failed = true;
          break;
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
      fds[k] = pollfd{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    }
    // Spin rather than sleep: a sleeping thread can wake milliseconds late
    // on an idle virtual CPU, which would show as generator lateness (and
    // late receive stamps) instead of as the system's latency.
    const timespec ts{0, 0};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    for (std::size_t k = 0; k < conn_count; ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[k];
      for (;;) {
        const ssize_t r = ::recv(c.fd, buffer, sizeof buffer, 0);
        if (r > 0) {
          const std::int64_t at = now_ns();
          c.in.append(buffer, static_cast<std::size_t>(r));
          std::size_t from = 0;
          for (std::size_t nl; (nl = c.in.find('\n', from)) != std::string::npos;
               from = nl + 1) {
            if (c.pending.empty()) {
              transport_failed = true;
              break;
            }
            on_response(c, c.in.substr(from, nl - from), at);
            if (closed && c.closed_next < c.closed_queue.size()) {
              enqueue(c.closed_queue[c.closed_next++], at);
            }
          }
          c.in.erase(0, from);
        } else if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          transport_failed = true;  // Peer closed or reset.
          break;
        }
      }
    }
  }
  for (Conn& c : conns) ::close(c.fd);

  // Requests never answered (timeout, refused, dropped) count as failed.
  std::size_t unanswered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (recv_ns[i] < 0) ++unanswered;
  }
  failed += unanswered;

  std::ostringstream lat;
  std::ostringstream late;
  std::ostringstream rtt;
  std::ostringstream hits;
  std::size_t hit_count = 0;
  std::size_t miss_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const char* sep = i == 0 ? "" : ",";
    const std::int64_t due =
        closed ? send_ns[i] : start + requests[i].due_ns;
    // Failed requests carry -1: they miss any latency limit.
    lat << sep << (ok[i] ? (recv_ns[i] - due) / 1000.0 : -1.0);
    late << sep << (send_ns[i] >= 0 ? (send_ns[i] - due) / 1000.0 : -1.0);
    rtt << sep << (ok[i] ? (recv_ns[i] - send_ns[i]) / 1000.0 : -1.0);
    hits << sep << static_cast<int>(hit[i]);
    hit_count += hit[i];
    miss_count += requests[i].miss ? 1 : 0;
  }
  std::ostringstream out;
  out << "{\"attempted\":" << n << ",\"failed\":" << failed
      << ",\"unanswered\":" << unanswered << ",\"mismatched\":" << mismatched
      << ",\"hits\":" << hit_count << ",\"misses\":" << miss_count
      << ",\"transport_failed\":" << (transport_failed ? "true" : "false")
      << ",\"lat_us\":[" << lat.str() << "],\"late_us\":[" << late.str()
      << "],\"rtt_us\":[" << rtt.str() << "],\"hit\":[" << hits.str()
      << "],\"backlog\":[";
  for (std::size_t i = 0; i < backlog.size(); ++i) {
    out << (i == 0 ? "" : ",") << backlog[i];
  }
  out << "],\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out << (i == 0 ? "" : ",") << '"' << respin::obs::json::escape(errors[i])
        << '"';
  }
  out << "]}\n";
  write_file(flags.str("out"), out.str());

  if (const std::string path = flags.str("served", ""); !path.empty()) {
    std::ostringstream rows;
    for (const auto& [line, bytes] : served) {
      if (!bytes.empty()) rows << lines[line] << '\t' << bytes << '\n';
    }
    write_file(path, rows.str());
  }
  if (traced) {
    SpanLog spans;
    for (std::size_t i = 0; i < n; ++i) {
      if (recv_ns[i] < 0) continue;
      const std::int64_t due =
          closed ? send_ns[i] : start + requests[i].due_ns;
      const auto item = static_cast<std::int64_t>(i);
      Span request;
      request.id = spans.next_id();
      request.name = hit[i] ? "client.hit" : "client.request";
      request.start_ns = due;
      request.end_ns = recv_ns[i];
      request.item = item;
      Span gen;
      gen.id = spans.next_id();
      gen.parent = request.id;
      gen.name = "gen.late";
      gen.start_ns = due;
      gen.end_ns = send_ns[i];
      gen.item = item;
      Span wire;
      wire.id = spans.next_id();
      wire.parent = request.id;
      wire.name = "client.wire";
      wire.start_ns = send_ns[i];
      wire.end_ns = recv_ns[i];
      wire.item = item;
      spans.add(request);
      spans.add(gen);
      spans.add(wire);
    }
    spans.write(flags.str("spans"));
  }
  return 0;
}

}  // namespace perfbench
