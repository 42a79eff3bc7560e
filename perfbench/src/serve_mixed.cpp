// serve_mixed: popprotod on loopback with 16 count buckets (approx_majority)
// and 4 agent buckets (phase_clock), all at n = 2^16, under a mixed request
// stream: ~60% reads, ~35% advances, ~4% snapshot/restore, ~1% create/drop.
//
// One load-generator thread owns every connection (at most nproc of them).
// Each bucket is addressed over one fixed connection, so the per-bucket
// command order is the generation order — which is what makes restore
// follow its snapshot and lets a traced run replay the identical stream
// in-process through CommandExecutor. Phases: open loop at a low and a
// high fixed rate (latency timed from each request's due time), then
// closed-loop passes at a fixed pipeline depth until --seconds is used.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "server/bucket.hpp"
#include "support/rng.hpp"
#include "server/command.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace popproto;

constexpr int kCountBuckets = 16;
constexpr int kAgentBuckets = 4;
constexpr std::uint64_t kBucketN = std::uint64_t{1} << 16;
constexpr unsigned kDaemonWorkers = 2;
// Offered rates, both below the ~9k req/s this mix saturates at on the
// 4-core host the benchmark was sized on.
constexpr double kLowRate = 1000.0;
constexpr double kHighRate = 2000.0;
// Requests per open-loop window; every run makes well over 1000 per rate,
// so the p99 has at least ten samples beyond it.
constexpr int kLowWindow = 400;
constexpr int kHighWindow = 400;
// Closed loop: requests per pass and outstanding requests per connection.
constexpr int kClosedRequests = 2000;
// Share of --seconds given to the open-loop passes; the rest is closed loop.
constexpr double kOpenShare = 0.75;
constexpr int kDepth = 4;
constexpr int kSetups = 3;

enum Class { kRead = 0, kAdvance, kPersist, kLifecycle, kClasses };
const char* const kClassName[kClasses] = {"read", "advance", "persist",
                                          "lifecycle"};

enum class Expect { kCount, kSpecies, kStats, kStatus, kSnapshot, kCreated,
                    kDeleted, kConverged };

struct Request {
  std::string line;
  Class cls = kRead;
  Expect expect = Expect::kStatus;
  int conn = 0;
  // Filled in by the load generator.
  double due = 0.0, sent = 0.0, done = 0.0;
  bool ok = false;
};

struct BucketInfo {
  std::string name;
  std::string create_line;
  std::string all_guard;  // a tautology over the protocol's own variables
  bool has_snapshot = false;
};

/// Deterministic request stream from the workload seed.
class Generator {
 public:
  Generator(std::uint64_t seed, int conns) : state_(seed), conns_(conns) {
    for (int i = 0; i < kCountBuckets + kAgentBuckets; ++i) {
      BucketInfo b;
      const bool count = i < kCountBuckets;
      b.name = count ? "c" + std::to_string(i)
                     : "a" + std::to_string(i - kCountBuckets);
      b.create_line = "create " + b.name + (count ? " count approx_majority "
                                                   : " agent phase_clock ") +
                      std::to_string(kBucketN) + " " +
                      std::to_string(derive_seed(seed, 100 + i) % 1000000007);
      b.all_guard = count ? "BA|!BA" : "PC_B0|!PC_B0";
      buckets_.push_back(b);
    }
    temp_live_.assign(static_cast<std::size_t>(conns), false);
  }

  const std::vector<BucketInfo>& buckets() const { return buckets_; }
  int conn_of(std::size_t bucket) const {
    return static_cast<int>(bucket % static_cast<std::size_t>(conns_));
  }

  Request next() {
    Request q;
    const double u = uniform();
    if (u >= 0.99) {  // lifecycle: create or drop this connection's temp
      const int c = static_cast<int>(below(static_cast<std::uint64_t>(conns_)));
      const std::string name = "t" + std::to_string(c);
      const bool live = temp_live_[static_cast<std::size_t>(c)];
      q.cls = kLifecycle;
      q.conn = c;
      if (live) {
        q.line = "drop " + name;
        q.expect = Expect::kDeleted;
      } else {
        q.line = "create " + name + " count approx_majority " +
                 std::to_string(kBucketN) + " " + std::to_string(below(1000000));
        q.expect = Expect::kCreated;
      }
      temp_live_[static_cast<std::size_t>(c)] = !live;
      return q;
    }
    const std::size_t bi = below(buckets_.size());
    BucketInfo& b = buckets_[bi];
    q.conn = conn_of(bi);
    if (u < 0.60) {
      q.cls = kRead;
      switch (below(3)) {
        case 0:
          q.line = "observe " + b.name + " " + b.all_guard;
          q.expect = Expect::kCount;
          break;
        case 1:
          q.line = "species " + b.name;
          q.expect = Expect::kSpecies;
          break;
        default:
          q.line = "stats " + b.name;
          q.expect = Expect::kStats;
      }
    } else if (u < 0.95) {
      q.cls = kAdvance;
      q.line = below(2) == 0 ? "step " + b.name + " 8" : "run " + b.name + " 0.25";
      q.expect = Expect::kStatus;
    } else {
      q.cls = kPersist;
      const std::string path = "snap-" + b.name + ".ckpt";
      if (b.has_snapshot && below(2) == 0) {
        q.line = "restore " + b.name + " " + path;
        q.expect = Expect::kStatus;
      } else {
        q.line = "snapshot " + b.name + " " + path;
        q.expect = Expect::kSnapshot;
        b.has_snapshot = true;
      }
    }
    return q;
  }

 private:
  std::uint64_t next_u64() { return splitmix64(state_); }
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1p-53; }
  std::uint64_t below(std::uint64_t k) { return next_u64() % k; }

  std::uint64_t state_;
  int conns_;
  std::vector<BucketInfo> buckets_;
  std::vector<bool> temp_live_;
};

/// Check one complete response against what its request expects.
bool check_response(const Request& q, const std::string& text) {
  if (text.rfind("ERROR", 0) == 0) return false;
  std::istringstream in(text);
  std::string word;
  in >> word;
  switch (q.expect) {
    case Expect::kCount: {
      std::uint64_t v = 0;
      return word == "COUNT" && (in >> v) && v == kBucketN;
    }
    case Expect::kSpecies: {
      std::uint64_t k = 0, total = 0, seen = 0;
      if (word != "SPECIES" || !(in >> k)) return false;
      std::string line;
      std::getline(in, line);
      while (std::getline(in, line) && line != "END") {
        total += std::strtoull(line.c_str(), nullptr, 10);
        ++seen;
      }
      return line == "END" && seen == k && total == kBucketN;
    }
    case Expect::kStats: {
      std::istringstream lines(text);
      std::string line;
      bool active_ok = false;
      while (std::getline(lines, line) && line != "END")
        if (line == "STAT active_n " + std::to_string(kBucketN))
          active_ok = true;
      return active_ok && line == "END";
    }
    case Expect::kStatus: {
      double rounds = 0.0;
      return word == "OK" && (in >> rounds);
    }
    case Expect::kSnapshot: {
      std::uint64_t bytes = 0;
      return word == "OK" && (in >> bytes) && bytes > 0;
    }
    case Expect::kCreated:
      return word == "CREATED";
    case Expect::kDeleted:
      return word == "DELETED";
    case Expect::kConverged:
      return word == "CONVERGED";
  }
  return false;
}

bool multi_line(Expect e) {
  return e == Expect::kSpecies || e == Expect::kStats;
}

struct Conn {
  int fd = -1;
  std::string out;
  std::string in;
  std::deque<Request*> inflight;
  std::deque<Request*> backlog;  // closed loop: not yet sent
};

int connect_loopback(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// The single load-generator thread's event loop over every connection.
class Client {
 public:
  Client(std::vector<int> fds, Tracer& tr) : tr_(tr) {
    for (int fd : fds) {
      Conn c;
      c.fd = fd;
      conns_.push_back(std::move(c));
    }
  }
  ~Client() {
    for (Conn& c : conns_)
      if (c.fd >= 0) close(c.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool broken() const { return broken_; }

  void send(Request& q) {
    Conn& c = conns_[static_cast<std::size_t>(q.conn)];
    q.sent = now_s();
    c.out += q.line;
    c.out += '\n';
    c.inflight.push_back(&q);
    ++outstanding_;
    flush(c);
  }

  /// Open loop: send reqs[i] at t0 + i / rate whatever the replies do.
  void open_loop(std::vector<Request>& reqs, double rate) {
    const double t0 = now_s() + 0.01;
    for (std::size_t i = 0; i < reqs.size(); ++i)
      reqs[i].due = t0 + static_cast<double>(i) / rate;
    std::size_t next = 0;
    while ((next < reqs.size() || outstanding_ > 0) && !broken_) {
      const double now = now_s();
      while (next < reqs.size() && reqs[next].due <= now) send(reqs[next++]);
      const double wait = next < reqs.size() ? reqs[next].due - now_s() : 0.05;
      pump(wait > 0.0 ? wait : 0.0);
    }
  }

  /// Closed loop: every connection keeps `depth` requests outstanding
  /// until its share of reqs is answered. Latency is timed from send.
  void closed_loop(std::vector<Request>& reqs, int depth) {
    for (Request& q : reqs)
      conns_[static_cast<std::size_t>(q.conn)].backlog.push_back(&q);
    depth_ = depth;
    for (Conn& c : conns_) refill(c);
    while (outstanding_ > 0 && !broken_) pump(0.05);
    depth_ = 0;
  }

 private:
  void refill(Conn& c) {
    while (depth_ > 0 && !c.backlog.empty() &&
           static_cast<int>(c.inflight.size()) < depth_) {
      Request* q = c.backlog.front();
      c.backlog.pop_front();
      q->due = now_s();
      send(*q);
    }
  }

  void flush(Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(),
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        c.out.erase(0, static_cast<std::size_t>(n));
      } else {
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) broken_ = true;
        return;
      }
    }
  }

  /// Wait up to `timeout_s` for socket events and complete what arrived.
  void pump(double timeout_s) {
    std::vector<pollfd> pfds;
    for (Conn& c : conns_)
      pfds.push_back({c.fd,
                      static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                      0});
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
    const int ready = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) return;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (pfds[i].revents & POLLOUT) flush(c);
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[65536];
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n <= 0) {
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) broken_ = true;
        continue;
      }
      c.in.append(buf, static_cast<std::size_t>(n));
      complete(c);
      refill(c);
    }
  }

  /// Frame and check every complete response at the head of c.in.
  void complete(Conn& c) {
    std::size_t pos = 0;
    while (!c.inflight.empty()) {
      Request& q = *c.inflight.front();
      std::size_t end = c.in.find('\n', pos);
      if (end == std::string::npos) break;
      const bool error = c.in.compare(pos, 5, "ERROR") == 0;
      if (multi_line(q.expect) && !error) {
        // Payload lines until a lone END.
        std::size_t line_start = pos;
        bool found = false;
        while (end != std::string::npos) {
          if (c.in.compare(line_start, end - line_start, "END") == 0 &&
              end - line_start == 3) {
            found = true;
            break;
          }
          line_start = end + 1;
          end = c.in.find('\n', line_start);
        }
        if (!found) break;
      }
      const double t = now_s();
      q.done = t;
      q.ok = check_response(q, c.in.substr(pos, end - pos));
      tr_.add(std::string("server.request.") + kClassName[q.cls], q.sent, t);
      c.inflight.pop_front();
      --outstanding_;
      pos = end + 1;
    }
    c.in.erase(0, pos);
  }

  Tracer& tr_;
  std::vector<Conn> conns_;
  std::size_t outstanding_ = 0;
  int depth_ = 0;
  bool broken_ = false;
};

/// Send one request and wait for its reply (setup and teardown).
bool call(Client& client, Request& q) {
  std::vector<Request> one{q};
  client.closed_loop(one, 1);
  q = one[0];
  return q.ok;
}

std::vector<Request> generate(Generator& g, int count) {
  std::vector<Request> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(g.next());
  return out;
}

void record_all(Tally& tally, const std::vector<Request>& reqs,
                const char* phase) {
  for (const Request& q : reqs)
    if (!tally.record(q.ok))
      std::fprintf(stderr, "serve_mixed: %s request failed: %s\n", phase,
                   q.line.c_str());
}


/// A running popprotod and the load generator's connections to it. A
/// daemon still running when this goes away (an error path) is killed and
/// reaped.
struct Daemon {
  Child child;
  std::unique_ptr<Client> client;

  Daemon() = default;
  ~Daemon() {
    client.reset();
    if (child.pid > 0) wait_child(child, 0.0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
};

bool start_daemon(const Context& ctx, const std::string& snap_root,
                  const std::vector<int>& cpus, int conns, Daemon& d) {
  d.child = spawn({ctx.bin_dir + "/popprotod", "--port", "0", "--workers",
                   std::to_string(kDaemonWorkers), "--snapshot-root",
                   snap_root},
                  true, cpus);
  std::string banner;
  pollfd p{d.child.stdout_fd, POLLIN, 0};
  char ch = 0;
  while (banner.find('\n') == std::string::npos && poll(&p, 1, 10000) > 0 &&
         read(d.child.stdout_fd, &ch, 1) == 1)
    banner += ch;
  unsigned port = 0;
  if (std::sscanf(banner.c_str(), "LISTENING %u", &port) != 1) {
    wait_child(d.child, 1.0);
    return false;
  }
  std::vector<int> fds;
  for (int i = 0; i < conns; ++i)
    fds.push_back(connect_loopback(static_cast<std::uint16_t>(port)));
  d.client = std::make_unique<Client>(fds, *ctx.tracer);
  for (int fd : fds)
    if (fd < 0) return false;
  return true;
}

/// Ask the daemon to shut down and reap it; true on a clean exit.
bool stop_daemon(Daemon& d) {
  Request bye;
  bye.line = "shutdown";
  bye.expect = Expect::kStatus;
  call(*d.client, bye);
  d.client.reset();
  return wait_child(d.child, 30.0) == 0;
}

}  // namespace

Result run_serve_mixed(const Context& ctx) {
  Result r;
  Tracer& tr = *ctx.tracer;
  const std::string snap_root = ctx.work_dir + "/snap";
  std::filesystem::create_directories(snap_root);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int conns = static_cast<int>(nproc < 4 ? (nproc < 1 ? 1 : nproc) : 4);

  // On a host with spare cores the daemon and the load generator get
  // disjoint CPUs, so thread placement does not change from run to run.
  std::vector<int> daemon_cpus;
  if (nproc >= 4) {
    daemon_cpus = {0, 1, 2};
    pin_to({3});
  }
  Generator gen(ctx.seed, conns);
  // Set-up: start the daemon, connect, create every bucket and bring the
  // count buckets to consensus, so the measured phases see a steady state
  // instead of one that gets cheaper as the populations converge.
  std::vector<std::string> setup_lines;
  for (std::size_t i = 0; i < gen.buckets().size(); ++i) {
    setup_lines.push_back(gen.buckets()[i].create_line);
    if (i < kCountBuckets)
      setup_lines.push_back("run-until " + gen.buckets()[i].name +
                            " 2000 BB == 0");
  }
  Daemon d;
  std::vector<double> setup_times, create_ms;
  for (int k = 0; k < kSetups; ++k) {
    if (d.child.pid > 0) stop_daemon(d);
    const double t0 = now_s();
    if (!start_daemon(ctx, snap_root, daemon_cpus, conns, d)) {
      std::fprintf(stderr, "serve_mixed: popprotod did not start\n");
      r.tally.record(false);
      return r;
    }
    for (const std::string& line : setup_lines) {
      Request q;
      q.line = line;
      q.expect = line.rfind("create", 0) == 0 ? Expect::kCreated
                                              : Expect::kConverged;
      q.conn = 0;
      r.tally.record(call(*d.client, q));
      if (q.expect == Expect::kCreated)
        create_ms.push_back((q.done - q.sent) * 1e3);
    }
    setup_times.push_back(now_s() - t0);
  }
  r.setup_times = setup_times;
  Client& client = *d.client;
  tr.set_enabled(ctx.trace);
  const Child& daemon = d.child;
  const auto cpu_tree = [&] { return cpu_self_s() + cpu_pid_s(daemon.pid); };

  // Each pass: an open-loop window at the low rate, then one at the high
  // rate. Many short windows spread over the run keep a few seconds of host
  // noise from deciding a percentile. The rest of the run is closed loop.
  // Requests are kept in generation order (the in-process replay needs it).
  struct Phase {
    std::vector<Request> low, high, closed;
  };
  std::vector<Phase> phases;
  Context open_ctx = ctx;
  open_ctx.seconds = ctx.seconds * kOpenShare;
  run_passes(
      open_ctx,
      [&](int) {
        Phase& p = phases.emplace_back();
        p.low = generate(gen, kLowWindow);
        p.high = generate(gen, kHighWindow);
        client.open_loop(p.low, kLowRate);
        client.open_loop(p.high, kHighRate);
      },
      cpu_tree, r.passes);
  // Closed loop at a fixed pipeline depth until --seconds is used up.
  double served = 0.0, closed_wall = 0.0, closed_cpu = 0.0;
  const double closed_end = now_s() + ctx.seconds * (1.0 - kOpenShare);
  for (int k = 0; k < 2 || now_s() < closed_end; ++k) {
    Phase& p = phases.emplace_back();
    p.closed = generate(gen, kClosedRequests);
    const double c0 = cpu_tree(), t0 = now_s();
    client.closed_loop(p.closed, kDepth);
    closed_wall += now_s() - t0;
    closed_cpu += cpu_tree() - c0;
    served += static_cast<double>(p.closed.size());
  }
  if (client.broken()) r.checks_ok = false;
  if (!stop_daemon(d)) r.checks_ok = false;
  r.peak_rss_mb = maxrss_self_mb() + maxrss_children_mb();

  std::vector<double> low_ms, high_ms, lag;
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const Phase& p = phases[k];
    record_all(r.tally, p.low, "low-rate");
    record_all(r.tally, p.high, "high-rate");
    record_all(r.tally, p.closed, "closed-loop");
    if (k < r.passes.size() && r.passes[k].traced) continue;
    for (const Request& q : p.low) {
      low_ms.push_back(latency_from_due(q.due, q.done) * 1e3);
      lag.push_back(generator_lag(q.due, q.sent) * 1e3);
    }
    for (const Request& q : p.high) {
      high_ms.push_back(latency_from_due(q.due, q.done) * 1e3);
      lag.push_back(generator_lag(q.due, q.sent) * 1e3);
    }
  }
  const Summary low_s = summarize(low_ms);
  const Summary high_s = summarize(high_ms);
  const Summary lag_s = summarize(lag);
  r.op_latency = low_s;
  r.work_per_s = closed_wall > 0.0 ? served / closed_wall : 0.0;

  char line[256];
  std::snprintf(line, sizeof line,
                "serve_mixed: %d connections, %u daemon workers; "
                "saturation_rps %.1f (depth %d, %.0f requests, %.1f "
                "requests per CPU-second)",
                conns, kDaemonWorkers, r.work_per_s, kDepth, served,
                closed_cpu > 0.0 ? served / closed_cpu : 0.0);
  r.report.emplace_back(line);
  std::snprintf(line, sizeof line, "  latency at %.0f req/s: %s", kLowRate,
                low_s.describe("ms").c_str());
  r.report.emplace_back(line);
  std::snprintf(line, sizeof line, "  latency at %.0f req/s: %s", kHighRate,
                high_s.describe("ms").c_str());
  r.report.emplace_back(line);
  std::snprintf(line, sizeof line, "  generator lag: %s",
                lag_s.describe("ms").c_str());
  r.report.emplace_back(line);

  if (ctx.trace) {
    r.layer["bench.generator_lag_ms.tail"] = lag_s.tail;
    r.layer["server.latency_ms.low.p50"] = low_s.p50;
    r.layer["server.latency_ms.low.tail"] = low_s.tail;
    r.layer["server.latency_ms.high.p50"] = high_s.p50;
    r.layer["server.latency_ms.high.tail"] = high_s.tail;
    r.layer["server.saturation_rps"] = r.work_per_s;
    r.layer["server.registry.create_ms"] = quantile(create_ms, 0.5);
    // Every request, in generation order (per-bucket order is wire order).
    std::vector<const Request*> all;
    for (const Phase& p : phases)
      for (const auto* reqs : {&p.low, &p.high, &p.closed})
        for (const Request& q : *reqs) all.push_back(&q);

    // Replay the identical stream in-process: execute time without the
    // socket, framing, poll loop or worker hand-off.
    const std::string replay_root = ctx.work_dir + "/replay";
    std::filesystem::create_directories(replay_root);
    BucketRegistry registry;
    ServerStats server_stats;
    CommandLimits limits;
    limits.snapshot_root = replay_root;
    CommandExecutor exec(registry, server_stats, limits);
    for (const std::string& c : setup_lines) exec.execute(c);
    std::vector<double> rtt[kClasses], ex[kClasses], io_wait;
    for (const Request* q : all) {
      const double t0 = now_s();
      const CommandResult res = exec.execute(q->line);
      const double e = (now_s() - t0) * 1e6;
      Request replayed = *q;
      if (!check_response(replayed, res.text)) r.checks_ok = false;
      const double rt = (q->done - q->sent) * 1e6;
      rtt[q->cls].push_back(rt);
      ex[q->cls].push_back(e);
      io_wait.push_back(rt - e);
    }
    for (int c = 0; c < kClasses; ++c) {
      const Summary a = summarize(rtt[c]), b = summarize(ex[c]);
      const std::string k = kClassName[c];
      r.layer["server.rtt_us." + k + ".p50"] = a.p50;
      r.layer["server.rtt_us." + k + ".tail"] = a.tail;
      r.layer["server.execute_us." + k + ".p50"] = b.p50;
      r.layer["server.execute_us." + k + ".tail"] = b.tail;
    }
    const Summary w = summarize(io_wait);
    r.layer["server.io_wait_us.p50"] = w.p50;
    r.layer["server.io_wait_us.tail"] = w.tail;

    // SimBackend snapshot/restore on the same buckets, without files.
    std::vector<double> snap_ms, restore_ms, bytes;
    for (const BucketInfo& b : gen.buckets()) {
      auto bucket = registry.find(b.name);
      if (!bucket) continue;
      std::ostringstream out;
      double t0 = now_s();
      bucket->engine->snapshot(out);
      snap_ms.push_back((now_s() - t0) * 1e3);
      const std::string blob = out.str();
      bytes.push_back(static_cast<double>(blob.size()));
      std::istringstream in(blob);
      t0 = now_s();
      bucket->engine->restore(in);
      restore_ms.push_back((now_s() - t0) * 1e3);
    }
    r.layer["persist.snapshot_ms"] = quantile(snap_ms, 0.5);
    r.layer["persist.restore_ms"] = quantile(restore_ms, 0.5);
    r.layer["persist.snapshot_bytes"] = quantile(bytes, 0.5);
    remove_tree(replay_root);
  }
  remove_tree(snap_root);
  return r;
}

}  // namespace perfbench
