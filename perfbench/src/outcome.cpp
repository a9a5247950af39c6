#include "outcome.h"

#include <cstring>

namespace perfbench {

namespace ex = daris::exp;
using daris::metrics::ClassSummary;

namespace {

/// FNV-1a over the raw bytes of the values fed to it.
class Hasher {
 public:
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const ClassSummary& s) {
    add(s.released);
    add(s.accepted);
    add(s.rejected);
    add(s.completed);
    add(s.missed);
    add(static_cast<std::uint64_t>(s.response_ms.count()));
    for (double q : {50.0, 90.0, 99.0, 99.9, 100.0}) {
      add(s.response_ms.percentile(q));
    }
    add(s.response_ms.mean());
  }
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t on_time(const ClassSummary& s) { return s.completed - s.missed; }

/// On-time finishes per second of the measured window over releases per
/// second of the whole horizon: both classes, shed and rejected releases
/// counting as misses. Releases are counted from t = 0 while finishes are
/// counted after warm-up, hence the two rates.
double goodput_rates(const ClassSummary& hp, const ClassSummary& lp,
                     double duration_s, double warmup_s, double* released) {
  *released += static_cast<double>(hp.released + lp.released) / duration_s;
  return static_cast<double>(on_time(hp) + on_time(lp)) /
         (duration_s - warmup_s);
}

void quantiles(const ClassSummary& hp, const ClassSummary& lp, Outcome* o) {
  o->hp_p50_ms = hp.response_ms.percentile(50.0);
  o->hp_p99_ms = hp.response_ms.percentile(99.0);
  o->lp_p50_ms = lp.response_ms.percentile(50.0);
  o->lp_p99_ms = lp.response_ms.percentile(99.0);
  o->hp_samples = hp.response_ms.count();
  o->lp_samples = lp.response_ms.count();
}

}  // namespace

std::uint64_t digest_of(const ex::RunResult& r) {
  Hasher h;
  h.add(r.total_jps);
  h.add(r.hp);
  h.add(r.lp);
  h.add(r.gpu_utilization);
  h.add(r.migrations);
  return h.value();
}

std::uint64_t digest_of(const ex::ClusterResult& r) {
  Hasher h;
  h.add(r.total_jps);
  h.add(r.hp);
  h.add(r.lp);
  for (std::uint64_t v :
       {r.cross_gpu_migrations, r.drops, r.infeasible_rejects, r.transfers,
        r.intra_gpu_migrations, r.arrivals, r.steals, r.steal_scans,
        r.rehomes, r.rehome_rounds, r.coalesced_transfers, r.transfer_cancels,
        r.jobs_lost, r.unmatched_rows, r.first_attempts, r.retries,
        r.retry_admits, r.hedges, r.hedge_wins, r.hedge_cancels,
        r.hedge_waste, r.breaker_opens, r.breaker_closes}) {
    h.add(v);
  }
  h.add(r.transferred_mb);
  h.add(r.coalesced_mb_saved);
  h.add(static_cast<std::uint64_t>(r.conservation_ok));
  for (const ex::GpuSummary& g : r.per_gpu) {
    h.add(g.utilization);
    h.add(g.completed);
    h.add(g.intra_migrations);
  }
  return h.value();
}

Outcome grid_outcome(const std::vector<GridRun>& runs,
                     const std::vector<std::string>& labels) {
  Outcome o;
  Hasher h;
  const GridRun* peak = nullptr;
  std::uint64_t hp_missed = 0, hp_completed = 0, lp_missed = 0,
                lp_completed = 0;
  double ontime_rate = 0.0, release_rate = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const GridRun& g = runs[i];
    const ex::RunResult& r = g.result;
    h.add(digest_of(r));
    if (peak == nullptr || r.total_jps > peak->result.total_jps) {
      peak = &g;
      o.peak_label = labels[i];
    }
    hp_missed += r.hp.missed;
    hp_completed += r.hp.completed;
    lp_missed += r.lp.missed;
    lp_completed += r.lp.completed;
    o.jobs_completed += r.hp.completed + r.lp.completed;
    ontime_rate += goodput_rates(r.hp, r.lp, g.config->duration_s,
                                 g.config->warmup_s, &release_rate);
  }
  if (peak == nullptr) return o;
  o.sim_jps = peak->result.total_jps;
  o.goodput_frac = ratio(ontime_rate, release_rate);
  o.hp_dmr = ratio(static_cast<double>(hp_missed),
                   static_cast<double>(hp_completed));
  o.lp_dmr = ratio(static_cast<double>(lp_missed),
                   static_cast<double>(lp_completed));
  quantiles(peak->result.hp, peak->result.lp, &o);
  o.digest = h.value();
  return o;
}

Outcome cluster_outcome(const ex::ClusterConfig& config,
                        const ex::ClusterResult& r) {
  Outcome o;
  o.sim_jps = r.total_jps;
  double release_rate = 0.0;
  const double ontime_rate = goodput_rates(
      r.hp, r.lp, config.duration_s, config.warmup_s, &release_rate);
  o.goodput_frac = ratio(ontime_rate, release_rate);
  o.hp_dmr = r.hp.dmr();
  o.lp_dmr = r.lp.dmr();
  quantiles(r.hp, r.lp, &o);
  o.jobs_completed = r.hp.completed + r.lp.completed;
  o.conservation_ok = r.conservation_ok;
  o.digest = digest_of(r);
  return o;
}

}  // namespace perfbench
