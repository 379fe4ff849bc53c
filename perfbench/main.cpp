// The perfbench program: runs one workload untraced (end-to-end metrics) or
// traced (per-layer metrics), checks its outputs, and prints a header, a
// metric table and, as the last line, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
// Exit code 0 when every correctness check passed, 1 when one failed, 2 on
// a usage or runtime error (no JSON line then).
//
//   perfbench --workload array16|bitmap|serve_stream|campaign --seed N
//             --seconds S --trace 0|1
//   perfbench --make-reference PATH [--jobs N]
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "common.hpp"
#include "obs/metrics.hpp"

namespace {

using perfbench::Outcome;

struct Workload {
  const char* name;
  void (*measure)(const perfbench::Options&, Outcome&);
  void (*trace)(const perfbench::Options&, bool, Outcome&);
};

constexpr Workload kWorkloads[] = {
    {"array16", perfbench::measure_array16, perfbench::trace_array16},
    {"bitmap", perfbench::measure_bitmap, perfbench::trace_bitmap},
    {"serve_stream", perfbench::measure_serve, perfbench::trace_serve},
    {"campaign", perfbench::measure_campaign, perfbench::trace_campaign},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload array16|bitmap|serve_stream|campaign "
               "--seed N --seconds S --trace 0|1\n"
               "       perfbench --make-reference PATH [--jobs N]\n",
               why);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

void print_result(const Outcome& out) {
  std::printf("\n%-40s %16s %-8s %8s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const auto& m : out.metrics) {
    std::printf("%-40s %16.6g %-8s %8zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
  const double fail_frac =
      out.attempted == 0 ? 0.0
                         : static_cast<double>(out.failed) / out.attempted;
  std::printf("%-40s %16.6g %-8s %8llu  %s\n", "fail_frac", fail_frac, "frac",
              static_cast<unsigned long long>(out.attempted),
              "failed / attempted operations");
  if (out.peak_busy_threads > 0) {
    std::printf("%-40s %16.3g %-8s\n", "peak_busy_threads",
                out.peak_busy_threads, "threads");
  }
  for (const auto& v : out.violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.violations.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : out.metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    json += (first ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
            num + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const perfbench::Options& o) {
  const Workload* named = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) named = &w;
  }
  if (named == nullptr) return usage("unknown workload");

  const perfbench::HostInfo h = perfbench::host_info();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("host: nproc=%u cpu=\"%s\"\n", h.nproc, h.cpu_model.c_str());
  std::printf("build: compiler=\"%s\" build_type=%s isa=\"%s\"\n",
              h.compiler.c_str(), h.build_type.c_str(), h.isa.c_str());
  std::fflush(stdout);

  Outcome out;
  perfbench::host_steal_frac();
  if (!o.trace) {
    named->measure(o, out);
    if (out.peak_busy_threads > h.nproc) {
      out.violate("peak busy threads " +
                  std::to_string(out.peak_busy_threads) + " exceed nproc " +
                  std::to_string(h.nproc));
    }
  } else {
    // Every traced run reports every per-layer metric: the named workload
    // gets the full pass (and the tracing-overhead figure), the others the
    // shortest pass that yields their layers.
    for (const Workload& w : kWorkloads) w.trace(o, &w == named, out);
  }
  for (const auto& m : out.metrics) {
    if (!std::isfinite(m.value)) out.violate("metric " + m.name + " is not finite");
  }
  std::printf("host steal during the run: %.1f%% of all CPU time\n",
              100.0 * perfbench::host_steal_frac());
  print_result(out);
  return out.violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead peer must surface as EPIPE
  ecms::obs::set_metrics_enabled(false);

  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0) return usage("arguments come in --key value pairs");
    args[k.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");

  try {
    if (args.count("make-reference")) {
      const std::size_t jobs =
          args.count("jobs") ? std::stoul(args["jobs"]) : 2;
      return perfbench::make_array16_reference(args["make-reference"], jobs);
    }
    for (const char* k : {"workload", "seed", "seconds", "trace"}) {
      if (!args.count(k)) return usage((std::string("missing --") + k).c_str());
    }
    perfbench::Options o;
    o.workload = args["workload"];
    o.seed = std::stoull(args["seed"]);
    o.seconds = std::stod(args["seconds"]);
    o.trace = args["trace"] == "1";
    if (!(o.seconds > 0) || (args["trace"] != "0" && args["trace"] != "1")) {
      return usage("--seconds must be positive and --trace 0 or 1");
    }
    o.scratch = ".bench_build/run-" + std::to_string(::getpid());
    std::filesystem::remove_all(o.scratch);
    std::filesystem::create_directories(o.scratch);
    int rc = 2;
    try {
      rc = run(o);
    } catch (...) {
      std::filesystem::remove_all(o.scratch);
      throw;
    }
    std::filesystem::remove_all(o.scratch);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
