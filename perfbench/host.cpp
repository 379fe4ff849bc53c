#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "circuit/kernels.hpp"
#include "common.hpp"

namespace perfbench {

void Outcome::add(std::string name, double value, std::string unit,
                  std::size_t samples, std::string note) {
  metrics.push_back({std::move(name), value, std::move(unit), samples,
                     std::move(note)});
}

void Outcome::violate(std::string what) {
  violations.push_back(std::move(what));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

/// utime + stime of a live process, from /proc/<pid>/stat; 0 if it is gone.
double live_cpu_s(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace

double tree_cpu_s() {
  // Live children first, then reaped ones: a child reaped in between is
  // missed for one sample rather than counted twice.
  double live = 0.0;
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      std::ifstream kids(std::string("/proc/self/task/") + e->d_name +
                         "/children");
      std::string pid;
      while (kids >> pid) live += live_cpu_s(pid);
    }
    closedir(d);
  }
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return process_cpu_s() + live + tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double peak_rss_mb(bool include_children) {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  long kb = self.ru_maxrss;
  if (include_children) {
    getrusage(RUSAGE_CHILDREN, &kids);
    kb = std::max(kb, kids.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

void BusySampler::start() {
  running_ = true;
  peak_ = 0.0;
  thread_ = std::thread([this] {
    double t0 = now_s(), c0 = tree_cpu_s();
    while (running_) {
      std::this_thread::sleep_for(std::chrono::duration<double>(period_s_));
      const double t1 = now_s(), c1 = tree_cpu_s();
      const double rate = (c1 - c0) / (t1 - t0);
      if (rate > peak_) peak_ = rate;
      t0 = t1;
      c0 = c1;
    }
  });
}

double BusySampler::stop() {
  running_ = false;
  if (thread_.joinable()) thread_.join();
  return peak_;
}

double host_steal_frac() {
  static std::vector<unsigned long long> prev;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::vector<unsigned long long> cur;
  unsigned long long v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) cur.push_back(v);
  if (cur.size() < 8) return 0.0;
  double total = 0, steal = 0;
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const double d =
        static_cast<double>(cur[i] - (prev.empty() ? 0 : prev[i]));
    total += d;
    if (i == 7) steal = d;
  }
  prev = cur;
  return total > 0 ? steal / total : 0.0;
}

HostInfo host_info() {
  HostInfo h;
  // The CPUs this process may run on, as nproc(1) counts them.
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? static_cast<unsigned>(CPU_COUNT(&set))
                : std::max(1u, std::thread::hardware_concurrency());
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      h.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.isa = ecms::circuit::kernels::isa_summary();
  return h;
}

}  // namespace perfbench
