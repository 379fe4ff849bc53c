// campaign: campaign::run_campaign with 2 forked workers over many small
// 8x8 fast-model units, repeated for the run's duration.
//
// The journal (one fsync'd page+commit per unit), the worker pipes and the
// supervisor poll loop carry the wall time; the fast model is shared with
// serve_stream but runs here in worker processes with measurement noise on.
// Workers are plain forks of this process, so the campaign passes keep the
// process single-threaded (no sampler thread): busy threads are sampled
// between campaigns instead.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/compact.hpp"
#include "campaign/store.hpp"
#include "campaign/supervisor.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace cp = ecms::campaign;
namespace fs = std::filesystem;

/// 256 dies x 5 corners x 2 noise seeds = 2560 units of 64 cells.
constexpr std::uint32_t kDies = 256;
constexpr int kWorkers = 2;
constexpr std::size_t kSampledUnits = 8;

cp::CampaignConfig config(const Options& o, const std::string& dir,
                          cp::UnitSpace space) {
  cp::CampaignConfig c;
  c.space = space;
  c.seed = o.seed;
  c.rows = c.cols = 8;
  c.workers = kWorkers;
  c.exec_self = false;
  c.dir = dir;
  return c;
}

cp::UnitSpace workload_space() { return {kDies, 5, 2}; }

/// Records are compared byte for byte: UnitRecord has no padding (its size
/// is pinned by a static_assert in campaign/record.hpp).
bool same_record(const cp::UnitRecord& a, const cp::UnitRecord& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Runs one campaign and checks its compact image: it opens CRC-verified,
/// holds every unit in order, and sampled records equal measure_unit.
/// Returns the wall time of run_campaign alone.
double run_checked(const cp::CampaignConfig& cfg, ecms::Rng& pick,
                   Outcome& out) {
  const double t0 = now_s();
  const cp::CampaignResult res = cp::run_campaign(cfg);
  const double wall = now_s() - t0;

  const std::uint64_t total = cfg.space.total();
  out.attempted += total;
  std::uint64_t bad = res.summary.units_failed;
  if (res.summary.degraded() || res.compact_path.empty()) {
    out.violate("campaign degraded: " +
                std::to_string(res.summary.units_failed) + " failed, " +
                std::to_string(res.summary.worker_crashes) + " crashes, " +
                std::to_string(res.summary.units_retried) + " retried");
  } else {
    try {
      const cp::CompactReader rd = cp::CompactReader::open(res.compact_path);
      if (rd.count() != total) {
        out.violate("campaign compact image holds " +
                    std::to_string(rd.count()) + " of " +
                    std::to_string(total) + " units");
        bad += total - std::min(total, rd.count());
      }
      for (std::uint64_t u = 0; u < rd.count(); ++u) {
        const cp::UnitRecord r = rd.record(u);
        if (r.die != cfg.space.die_of(u) || r.corner != cfg.space.corner_of(u) ||
            r.seed != cfg.space.seed_of(u)) {
          ++bad;
        }
      }
      for (std::size_t k = 0; k < kSampledUnits && rd.count() == total; ++k) {
        const std::uint64_t u = pick.uniform_index(total);
        if (!same_record(rd.record(u), cp::measure_unit(cfg, u))) ++bad;
      }
    } catch (const std::exception& e) {
      out.violate(std::string("campaign compact image: ") + e.what());
      bad = total;
    }
    if (bad > 0) {
      out.violate("campaign: " + std::to_string(bad) +
                  " unit(s) missing or different from measure_unit");
    }
  }
  out.failed += std::min(bad, total);
  fs::remove_all(cfg.dir);
  return wall;
}

}  // namespace

void measure_campaign(const Options& o, Outcome& out) {
  ecms::Rng pick(o.seed);
  std::vector<double> setup;
  for (int i = 0; i < 5; ++i) {
    setup.push_back(run_checked(
        config(o, o.scratch + "/setup" + std::to_string(i), {1, 1, 1}), pick,
        out));
  }

  const cp::UnitSpace space = workload_space();
  std::vector<double> walls;
  double busy_peak = 0.0;
  const double cpu0 = tree_cpu_s(), t_end = now_s() + o.seconds;
  while (walls.size() < 3 || now_s() < t_end) {
    const double c0 = tree_cpu_s();
    const double w = run_checked(
        config(o, o.scratch + "/c" + std::to_string(walls.size()), space),
        pick, out);
    busy_peak = std::max(busy_peak, (tree_cpu_s() - c0) / w);
    walls.push_back(w);
  }
  const double cpu = tree_cpu_s() - cpu0;
  out.peak_busy_threads = busy_peak;

  // Rates come from the median campaign, so one campaign slowed by a
  // neighbour on the host does not move them.
  const double per_campaign = median(walls);
  const double units = static_cast<double>(space.total());
  const double cells = units * 64;
  std::vector<double> ms;
  for (const double w : walls) ms.push_back(1e3 * w);
  const Tail tail = tail_percentile(ms, 99.0);

  out.add("setup_s", median(setup), "s", setup.size(),
          "median wall of a one-unit campaign");
  out.add("cells_per_s", cells / per_campaign, "cells/s", walls.size(),
          "committed cells over the median campaign wall");
  out.add("cpu_ms_per_cell", 1e3 * cpu / (cells * walls.size()), "ms",
          walls.size(), "supervisor, workers and checks");
  out.add("cells_off_ref", static_cast<double>(fast_model_off_ref(out)),
          "count", 1,
          "the campaign's fast model on the array16 array vs the 5 ps "
          "reference");
  out.add("p50_ms", median(ms), "ms", ms.size(),
          "wall of one 2560-unit campaign");
  out.add("p99_ms", tail.value, "ms", ms.size(),
          "reported percentile " + tail.name() + " (" +
              std::to_string(tail.beyond) + " samples beyond)");
  out.add("capacity_rps", 1.0 / per_campaign, "1/s", walls.size(),
          "campaigns per second, one at a time");
  out.add("units_per_s", units / per_campaign, "1/s", walls.size(),
          "committed units per second");
  out.add("peak_rss_mb", peak_rss_mb(true), "MB", 1,
          "largest of supervisor and workers");
}

void trace_campaign(const Options& o, bool full, Outcome& out) {
  namespace obs = ecms::obs;
  ecms::Rng pick(o.seed);
  const cp::UnitSpace space = workload_space();
  const double units = static_cast<double>(space.total());
  const double t_end = now_s() + (full ? 0.5 * o.seconds : 0.0);

  // Untraced and traced campaigns alternate: the overhead, and the store
  // and supervisor counters of one traced campaign.
  std::vector<double> plain, traced;
  obs::MetricsSnapshot snap;
  int k = 0;
  while (traced.empty() || now_s() < t_end) {
    for (const bool on : {false, true}) {
      if (on) {
        obs::Registry::global().reset();
        obs::set_metrics_enabled(true);
        obs::start_tracing();
      }
      const std::string dir = o.scratch + "/t" + std::to_string(k++);
      const double w = run_checked(config(o, dir, space), pick, out);
      if (on) {
        obs::stop_tracing();
        snap = obs::Registry::global().snapshot();
        obs::set_metrics_enabled(false);
      }
      (on ? traced : plain).push_back(w);
    }
  }

  // Unit measurement, in process, over the workload's units.
  const cp::CampaignConfig cfg = config(o, o.scratch + "/journal", space);
  std::vector<cp::UnitRecord> recs;
  const double m0 = now_s();
  for (std::uint64_t u = 0; u < space.total(); ++u) {
    recs.push_back(cp::measure_unit(cfg, u));
  }
  const double measure_ms = 1e3 * (now_s() - m0) / units;

  // Journal append + commit into a fresh store on the same filesystem,
  // then the compact image of it.
  fs::create_directories(cfg.dir);
  cp::ResultStore::Meta meta;
  meta.space = space;
  meta.config_hash = cfg.config_hash();
  meta.campaign_seed = cfg.seed;
  double journal_ms = 0, compact_s = 0;
  {
    cp::ResultStore store = cp::ResultStore::create(cfg.store_path(), meta);
    const double j0 = now_s();
    for (const cp::UnitRecord& r : recs) {
      store.append(r);
      store.commit();
    }
    journal_ms = 1e3 * (now_s() - j0) / units;
    const double c0 = now_s();
    store.write_compact(cfg.compact_path());
    compact_s = now_s() - c0;
  }
  fs::remove_all(cfg.dir);

  auto count = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double unit_ms = 1e3 * median(plain) / units;
  out.add("campaign.measure_unit_ms", measure_ms, "ms", recs.size(),
          "campaign::measure_unit in process");
  out.add("campaign.journal_ms", journal_ms, "ms", recs.size(),
          "ResultStore append + commit per unit");
  out.add("campaign.store.fsyncs_per_unit",
          count("campaign.store.fsyncs") / units, "count", 1,
          "one traced campaign");
  out.add("campaign.store.bytes_per_unit",
          count("campaign.store.bytes") / units, "B", 1,
          "one traced campaign");
  out.add("campaign.compact_s", compact_s, "s", 1);
  out.add("campaign.workers.spawned", count("campaign.workers.spawned"),
          "count", 1, "one traced campaign");
  out.add("campaign.unattributed_ms",
          unit_ms - journal_ms - measure_ms / kWorkers, "ms", plain.size(),
          "per unit: wall minus journal minus measurement split over the "
          "workers");
  if (full) {
    out.add("trace_overhead_frac", median(traced) / median(plain) - 1.0,
            "frac", traced.size(),
            "traced over untraced campaign wall, minus 1");
  }
}

}  // namespace perfbench
