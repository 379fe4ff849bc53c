// serve_stream: an in-process serve::Server (2 dispatchers, jobs 1) driven
// over its Unix socket by one generator connection.
//
// The generator speaks the wire protocol itself (encode_struct + Decoder in
// a poll loop) rather than through serve::Client, so that sends leave on
// schedule and every Ack and Result is timestamped when its frame arrives.
// Phase 1 is an open loop at a fixed rate (latency timed from each
// request's due time); phase 2 is a closed loop with 2 requests outstanding
// (capacity). Requests use the fast-model engine with mixed sizes and an
// explicit 4x4 tile shape; fields the roadmap plans to delete (solver,
// batch) are left at their defaults.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitmap/extraction.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "stats.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace sv = ecms::serve;

/// Open-loop arrival rate: about half the closed-loop capacity measured on a
/// quiet 4-core Xeon VM (~3,000 req/s), so the queue stays short but not
/// empty.
constexpr double kRate = 1500.0;
constexpr std::uint32_t kSizes[] = {8, 16, 32, 64};
/// One result in this many is re-extracted one-shot and its hash compared.
constexpr std::size_t kVerifyEvery = 25;

/// One request and the times the generator saw for it.
struct Req {
  sv::ExtractSpec spec;
  double due = 0, sent = 0, ack = 0, done = 0;
  bool ok = false, failed = false;
  std::uint64_t code_hash = 0;
};

/// Specs of the stream: sizes from {8,16,32,64}^2, distinct seeds, 4x4
/// tiles, all drawn from the workload seed.
sv::ExtractSpec stream_spec(ecms::Rng& rng, std::uint64_t id) {
  sv::ExtractSpec s;
  s.request_id = id;
  s.rows = kSizes[rng.uniform_index(4)];
  s.cols = kSizes[rng.uniform_index(4)];
  s.seed = rng.next_u64();
  s.gradient = rng.uniform(0.0, 0.3);
  s.engine = 0;
  s.tile_rows = 4;
  s.tile_cols = 4;
  return s;
}

/// The generator's connection: blocking writes, polled reads.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("serve_stream: cannot create socket");
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      throw std::runtime_error("serve_stream: connect: " +
                               std::string(std::strerror(errno)));
    }
    sv::Hello hello;
    hello.config_hash = sv::wire_format_hash();
    send(sv::encode_struct(sv::FrameType::kHello, hello));
    sv::Frame f;
    if (!next(f, 5.0) || f.type != sv::FrameType::kHelloOk) {
      throw std::runtime_error("serve_stream: handshake refused");
    }
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send(const std::string& bytes) {
    const char* p = bytes.data();
    std::size_t n = bytes.size();
    while (n > 0) {
      const ssize_t w = ::write(fd_, p, n);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) throw std::runtime_error("serve_stream: write failed");
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  }

  /// Returns the next frame, waiting at most `timeout_s` for bytes; false
  /// when none is complete by then.
  bool next(sv::Frame& f, double timeout_s) {
    for (;;) {
      switch (dec_.next(f)) {
        case sv::Decoder::Status::kFrame:
          return true;
        case sv::Decoder::Status::kBad:
          throw std::runtime_error("serve_stream: bad frame: " + dec_.error());
        case sv::Decoder::Status::kNeedMore:
          break;
      }
      pollfd p{fd_, POLLIN, 0};
      const timespec ts{static_cast<time_t>(timeout_s),
                        static_cast<long>(1e9 * (timeout_s -
                                                 std::floor(timeout_s)))};
      const int r = ::ppoll(&p, 1, &ts, nullptr);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      char buf[1 << 16];
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("serve_stream: server closed");
      dec_.feed(buf, static_cast<std::size_t>(n));
      timeout_s = 0;  // drain what arrived, then return to the caller
    }
  }

 private:
  int fd_ = -1;
  sv::Decoder dec_;
};

/// Runs requests over one connection and records their timeline.
class Generator {
 public:
  Generator(Conn& conn, std::vector<Req>& reqs) : conn_(conn), reqs_(reqs) {}

  void submit(Req r) {
    r.sent = now_s();
    if (r.due == 0) r.due = r.sent;
    reqs_.push_back(std::move(r));
    const std::size_t i = reqs_.size() - 1;
    by_id_[reqs_[i].spec.request_id] = i;
    ++outstanding_;
    conn_.send(sv::encode_struct(sv::FrameType::kExtract, reqs_[i].spec));
  }

  /// Reads frames until `deadline` (absolute now_s()); returns after the
  /// first batch of frames when `one_batch`.
  void pump(double deadline, bool one_batch) {
    sv::Frame f;
    for (;;) {
      const double wait = std::max(0.0, deadline - now_s());
      const bool got = conn_.next(f, wait);
      if (got) handle(f);
      if ((got && one_batch) || (!got && now_s() >= deadline)) return;
      if (!got && wait <= 0) return;
    }
  }

  void drain(double timeout_s) {
    const double end = now_s() + timeout_s;
    while (outstanding_ > 0 && now_s() < end) pump(end, true);
    for (Req& r : reqs_) {
      if (!r.ok && !r.failed) r.failed = true;  // lost: counted as failed
    }
    outstanding_ = 0;
  }

  std::size_t outstanding() const { return outstanding_; }

  /// Forgets every finished request, so a long run keeps only one block's
  /// bookkeeping in memory (peak RSS then measures the server, not us).
  void clear() {
    reqs_.clear();
    by_id_.clear();
  }

 private:
  void handle(const sv::Frame& f) {
    const double t = now_s();
    switch (f.type) {
      case sv::FrameType::kAccepted: {
        sv::Ack a;
        if (sv::read_struct(f, a)) at(a.request_id).ack = t;
        return;
      }
      case sv::FrameType::kResult: {
        sv::ResultInfo info;
        if (!sv::read_struct(f, info)) return;
        Req& r = at(info.request_id);
        if (r.ok || r.failed) return;  // already given up on by drain()
        r.done = t;
        r.code_hash = info.code_hash;
        r.ok = info.unmeasurable == 0;
        r.failed = !r.ok;
        --outstanding_;
        return;
      }
      case sv::FrameType::kReject:
      case sv::FrameType::kError: {
        sv::TextInfo info;
        std::string why;
        if (sv::read_text_frame(f, info, why)) {
          Req& r = at(info.request_id);
          if (r.ok || r.failed) return;
          r.failed = true;
          r.done = t;
          --outstanding_;
        }
        return;
      }
      default:
        return;
    }
  }

  Req& at(std::uint64_t id) {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) {
      throw std::runtime_error("serve_stream: frame for unknown request");
    }
    return reqs_[it->second];
  }

  Conn& conn_;
  std::vector<Req>& reqs_;
  std::map<std::uint64_t, std::size_t> by_id_;
  std::size_t outstanding_ = 0;
};

/// A running server with its generator connection, warmed up.
struct Session {
  std::unique_ptr<sv::Server> server;
  std::unique_ptr<Conn> conn;
  std::vector<Req> reqs;
  std::unique_ptr<Generator> gen;
  std::uint64_t next_id = 1;

  ~Session() {
    gen.reset();
    conn.reset();
    if (server) {
      server->begin_drain();
      server->wait_drained();
      server->stop();
    }
  }
};

/// Starts a server, connects, and warms it up with one request of every
/// size plus the array16 array.
std::unique_ptr<Session> open_session(const Options& o) {
  auto s = std::make_unique<Session>();
  sv::ServerConfig cfg;
  cfg.socket_path = o.scratch + "/serve.sock";
  cfg.dispatchers = 2;
  cfg.jobs = 1;
  // Deep enough to hold 0.7 s of open-loop arrivals: a host stall then
  // shows as latency. At the default depth of 64 a 40 ms stall on a shared
  // host rejected requests.
  cfg.queue_capacity = 1024;
  s->server = std::make_unique<sv::Server>(cfg);
  s->server->start();
  s->conn = std::make_unique<Conn>(cfg.socket_path);
  s->gen = std::make_unique<Generator>(*s->conn, s->reqs);

  Req ref;
  const sv::ArraySpec a = array16_spec();
  ref.spec.request_id = s->next_id++;
  ref.spec.rows = static_cast<std::uint32_t>(a.rows);
  ref.spec.cols = static_cast<std::uint32_t>(a.cols);
  ref.spec.seed = a.seed;
  ref.spec.gradient = a.gradient;
  ref.spec.tile_rows = ref.spec.tile_cols = 4;
  s->gen->submit(ref);
  ecms::Rng rng(o.seed ^ 0x5741524dull);
  for (const std::uint32_t n : kSizes) {
    Req w;
    w.spec = stream_spec(rng, s->next_id++);
    w.spec.rows = w.spec.cols = n;
    s->gen->submit(w);
  }
  s->gen->drain(30.0);
  return s;
}

/// Open loop at `rate` for `seconds`; returns the index range it added.
std::pair<std::size_t, std::size_t> open_loop(Session& s, ecms::Rng& rng,
                                              double rate, double seconds) {
  const std::size_t begin = s.reqs.size();
  const double t0 = now_s() + 0.01;
  const auto n = static_cast<std::size_t>(rate * seconds);
  for (std::size_t k = 0; k < n; ++k) {
    const double due = t0 + static_cast<double>(k) / rate;
    while (now_s() < due) s.gen->pump(due, false);
    Req r;
    r.due = due;
    r.spec = stream_spec(rng, s.next_id++);
    s.gen->submit(r);
  }
  s.gen->drain(30.0);
  return {begin, s.reqs.size()};
}

/// Closed loop with `depth` requests outstanding for `seconds`. Returns the
/// index range and the window it measured.
struct Closed {
  std::size_t begin = 0, end = 0;
  double wall = 0;
  std::size_t completed = 0, cells = 0;
};
Closed closed_loop(Session& s, ecms::Rng& rng, std::size_t depth,
                   double seconds) {
  Closed c;
  c.begin = s.reqs.size();
  const double t0 = now_s(), stop = t0 + seconds;
  auto send_one = [&] {
    Req r;
    r.spec = stream_spec(rng, s.next_id++);
    s.gen->submit(r);
  };
  while (s.gen->outstanding() < depth) send_one();
  while (now_s() < stop) {
    s.gen->pump(stop, true);
    while (s.gen->outstanding() < depth && now_s() < stop) send_one();
  }
  c.wall = now_s() - t0;
  s.gen->drain(30.0);
  c.end = s.reqs.size();
  for (std::size_t i = c.begin; i < c.end; ++i) {
    const Req& r = s.reqs[i];
    if (!r.ok || r.done > stop) continue;
    ++c.completed;
    c.cells += std::size_t{r.spec.rows} * r.spec.cols;
  }
  return c;
}

/// Counts failures over [begin, end) and re-extracts every kVerifyEvery-th
/// result one-shot: the served code hash must equal it (EXT-A12 identity).
void check_requests(const std::vector<Req>& reqs, std::size_t begin,
                    std::size_t end, Outcome& out) {
  std::size_t failed = 0, mismatched = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const Req& r = reqs[i];
    ++out.attempted;
    if (!r.ok) {
      ++failed;
      continue;
    }
    if ((i - begin) % kVerifyEvery != 0) continue;
    const ecms::edram::MacroCell mc = sv::build_array(sv::array_spec_of(r.spec));
    const ecms::extraction::ExtractReport rep =
        ecms::extraction::extract(mc, sv::request_of(r.spec));
    const std::vector<int>& codes = rep.bitmap.codes();
    if (ecms::util::fnv1a64(codes.data(), codes.size() * sizeof(int)) !=
        r.code_hash) {
      ++mismatched;
    }
  }
  out.failed += failed + mismatched;
  if (failed > 0) {
    out.violate("serve_stream: " + std::to_string(failed) +
                " request(s) rejected, expired, failed or lost");
  }
  if (mismatched > 0) {
    out.violate("serve_stream: " + std::to_string(mismatched) +
                " served code hash(es) differ from one-shot extraction");
  }
}

}  // namespace

void measure_serve(const Options& o, Outcome& out) {
  constexpr int kSetups = 5;
  std::vector<double> setup;
  std::unique_ptr<Session> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const double t0 = now_s();
    s = open_session(o);
    setup.push_back(now_s() - t0);
  }
  check_requests(s->reqs, 0, s->reqs.size(), out);
  const std::size_t off_ref = fast_model_off_ref(out);
  s->gen->clear();

  // The two phases alternate in kBlocks blocks, and each metric is the
  // median over blocks: a stall from a neighbour on the host moves one
  // block, not the run. Each block's results are checked, outside the
  // timed and CPU-counted phases, before the next block starts.
  constexpr int kBlocks = 16;
  ecms::Rng rng(o.seed);
  std::vector<double> p50s, tails, rps, cells_ps;
  std::size_t cells = 0, requests = 0, latencies = 0;
  double cpu = 0.0;
  Tail tail;
  BusySampler busy;
  busy.start();
  for (int k = 0; k < kBlocks; ++k) {
    const double c0 = process_cpu_s();
    const auto [b, e] = open_loop(*s, rng, kRate, 0.6 * o.seconds / kBlocks);
    const Closed cl = closed_loop(*s, rng, 2, 0.4 * o.seconds / kBlocks);
    cpu += process_cpu_s() - c0;

    std::vector<double> lat_ms;
    for (std::size_t i = 0; i < s->reqs.size(); ++i) {
      const Req& r = s->reqs[i];
      if (!r.ok) continue;
      cells += std::size_t{r.spec.rows} * r.spec.cols;
      if (i >= b && i < e) lat_ms.push_back(1e3 * (r.done - r.due));
    }
    latencies += lat_ms.size();
    p50s.push_back(median(lat_ms));
    tail = tail_percentile(lat_ms, 99.0);
    tails.push_back(tail.value);
    rps.push_back(cl.completed / cl.wall);
    cells_ps.push_back(cl.cells / cl.wall);
    requests += s->reqs.size();
    check_requests(s->reqs, 0, s->reqs.size(), out);
    s->gen->clear();
  }
  out.peak_busy_threads = busy.stop();

  out.add("setup_s", median(setup), "s", setup.size(),
          "median server start + handshake + warm-up");
  out.add("cells_per_s", median(cells_ps), "cells/s", kBlocks,
          "closed loop, 2 outstanding; median of blocks");
  out.add("cpu_ms_per_cell", 1e3 * cpu / std::max<std::size_t>(cells, 1),
          "ms", requests, "process CPU (server and generator), both phases");
  out.add("cells_off_ref", static_cast<double>(off_ref), "count", 1,
          "fast-model codes of the array16 array vs the 5 ps reference");
  out.add("p50_ms", median(p50s), "ms", latencies,
          "open loop, from due time; median of block medians");
  out.add("p99_ms", median(tails), "ms", latencies,
          "median of block " + tail.name() + " (" +
              std::to_string(tail.beyond) + " samples beyond in each)");
  out.add("capacity_rps", median(rps), "1/s", kBlocks,
          "closed loop, 2 outstanding; median of blocks");
  out.add("units_per_s", median(cells_ps) / 16.0, "1/s", kBlocks,
          "4x4 tiles per second, closed loop; median of blocks");
  out.add("peak_rss_mb", peak_rss_mb(false), "MB");
}

void trace_serve(const Options& o, bool full, Outcome& out) {
  namespace obs = ecms::obs;
  const double span_s = full ? 0.3 * o.seconds : 1.0;
  std::unique_ptr<Session> s = open_session(o);
  check_requests(s->reqs, 0, s->reqs.size(), out);
  ecms::Rng rng(o.seed);

  // Tracing overhead: closed-loop capacity untraced vs traced.
  double overhead = 0.0;
  if (full) {
    std::vector<double> plain, traced;
    for (int k = 0; k < 2; ++k) {
      for (const bool on : {false, true}) {
        if (on) {
          obs::set_metrics_enabled(true);
          obs::start_tracing();
        }
        const Closed c = closed_loop(*s, rng, 2, 0.1 * o.seconds);
        check_requests(s->reqs, c.begin, c.end, out);
        (on ? traced : plain).push_back(c.completed / c.wall);
        obs::stop_tracing();
        obs::set_metrics_enabled(false);
      }
    }
    overhead = median(plain) / median(traced) - 1.0;
  }

  // Traced open loop, joined per request with the server's spans.
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  const double z0 = now_s();
  obs::start_tracing();
  const double z1 = now_s();
  const auto range = open_loop(*s, rng, kRate, span_s);
  const std::size_t b = range.first, e = range.second;
  obs::stop_tracing();
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  obs::set_metrics_enabled(false);
  check_requests(s->reqs, b, e, out);
  const double zero = 0.5 * (z0 + z1);  // trace clock origin on ours

  struct Span {
    double start, dur;
    std::uint32_t rows = 0, cols = 0;
  };
  std::vector<Span> spans;
  {
    const auto events = obs::collected_trace_events();
    std::map<std::uint64_t, std::size_t> index;
    for (const auto& ev : events) {
      if (ev.name != "serve.request") continue;
      index[ev.span_id] = spans.size();
      spans.push_back({zero + 1e-9 * ev.start_ns, 1e-9 * ev.dur_ns});
    }
    for (const auto& ev : events) {
      const auto it = index.find(ev.parent_id);
      if (it == index.end() || ev.name != "extract_tiled_robust") continue;
      for (const auto& [k, v] : ev.args) {
        if (k == "rows") spans[it->second].rows = static_cast<std::uint32_t>(v);
        if (k == "cols") spans[it->second].cols = static_cast<std::uint32_t>(v);
      }
    }
    std::sort(spans.begin(), spans.end(),
              [](const Span& x, const Span& y) { return x.start < y.start; });
  }
  // The queue is FIFO and the one session admits in send order, so the
  // k-th span to start serves the k-th request; two dispatchers can start
  // neighbours out of order, which the array shape recorded on the span
  // detects and a swap repairs.
  const std::size_t n = std::min(spans.size(), e - b);
  auto fits = [&](std::size_t k, std::size_t i) {
    return spans[k].rows == s->reqs[b + i].spec.rows &&
           spans[k].cols == s->reqs[b + i].spec.cols;
  };
  for (std::size_t k = 0; k + 1 < n; ++k) {
    if (!fits(k, k) && fits(k + 1, k) && fits(k, k + 1)) {
      std::swap(spans[k], spans[k + 1]);
    }
  }
  std::vector<double> ack_us, queue_ms, service_ms, wire_us, wire_frac,
      late_ms;
  std::size_t unjoined = 0;
  for (std::size_t i = 0; i < e - b; ++i) {
    const Req& r = s->reqs[b + i];
    late_ms.push_back(1e3 * (r.sent - r.due));
    if (!r.ok || i >= n || !fits(i, i)) {
      ++unjoined;
      continue;
    }
    // From the send: until a dispatcher starts it (queue wait, which
    // includes the session's decode and admission), the service span, and
    // the remainder (result framing and the trip back).
    const Span& sp = spans[i];
    const double total = r.done - r.sent;
    const double queue = sp.start - r.sent;
    const double wire = total - queue - sp.dur;
    ack_us.push_back(1e6 * (r.ack - r.sent));
    queue_ms.push_back(1e3 * queue);
    service_ms.push_back(1e3 * sp.dur);
    wire_us.push_back(1e6 * wire);
    wire_frac.push_back(wire / total);
  }
  if (unjoined * 20 > e - b) {
    out.violate("serve_stream trace: " + std::to_string(unjoined) + " of " +
                std::to_string(e - b) + " requests not joined to a span");
  }
  const auto depth = snap.gauges.find("serve.queue.depth");
  const std::size_t joined = ack_us.size();
  out.add("serve.ack_us.p50", percentile(ack_us, 50), "us", joined);
  out.add("serve.ack_us.p99", tail_percentile(ack_us, 99).value, "us", joined);
  out.add("serve.queue_wait_ms.p50", percentile(queue_ms, 50), "ms", joined);
  out.add("serve.queue_wait_ms.p99", tail_percentile(queue_ms, 99).value, "ms",
          joined);
  out.add("serve.service_ms.p50", percentile(service_ms, 50), "ms", joined);
  out.add("serve.service_ms.p99", tail_percentile(service_ms, 99).value, "ms",
          joined);
  out.add("serve.wire_us.p50", percentile(wire_us, 50), "us", joined,
          "remainder: latency from send minus queue wait and service");
  out.add("serve.queue.depth_max",
          depth == snap.gauges.end() ? 0.0
                                     : static_cast<double>(depth->second.max),
          "count");
  out.add("serve.generator_late_ms.p99", tail_percentile(late_ms, 99).value,
          "ms", late_ms.size());
  out.add("serve.unattributed_frac", median(wire_frac), "frac", joined,
          "median share of a request's latency outside queue wait and "
          "service");
  if (full) {
    out.add("trace_overhead_frac", overhead, "frac", 2,
            "untraced over traced closed-loop capacity, minus 1");
  }
}

/// Fast-engine extraction and array building, timed on the stream's specs.
void probe_fast_model(const Options& o, Outcome& out) {
  ecms::Rng rng(o.seed);
  std::vector<sv::ExtractSpec> specs;
  for (int i = 0; i < 64; ++i) specs.push_back(stream_spec(rng, i));
  std::size_t cells = 0;
  for (const auto& s : specs) cells += std::size_t{s.rows} * s.cols;
  std::vector<double> build_us, extract_us;
  for (int rep = 0; rep < 5; ++rep) {
    double tb = 0, te = 0;
    for (const auto& s : specs) {
      const double t0 = now_s();
      const ecms::edram::MacroCell mc = sv::build_array(sv::array_spec_of(s));
      const double t1 = now_s();
      const auto r = ecms::extraction::extract(mc, sv::request_of(s));
      te += now_s() - t1;
      tb += t1 - t0;
      if (!r.complete()) out.violate("fast-model probe: incomplete extraction");
    }
    build_us.push_back(1e6 * tb / cells);
    extract_us.push_back(1e6 * te / cells);
  }
  out.add("bitmap.extract_fast_us_per_cell", median(extract_us), "us",
          build_us.size(), "fast-engine extraction::extract on stream specs");
  out.add("edram.build_array_us_per_cell", median(build_us), "us",
          build_us.size(), "serve::build_array on stream specs");
}

}  // namespace perfbench
