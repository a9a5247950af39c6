#include "cluster/fleet.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "metrics/eventlog.h"
#include "sim/sharded.h"

namespace daris::cluster {

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

}  // namespace

gpusim::GpuSpec GpuNodeSpec::resolved() const {
  gpusim::GpuSpec spec = base;
  spec.sm_count = std::max(
      1, static_cast<int>(std::lround(base.sm_count * compute_scale)));
  spec.mem_bandwidth = base.mem_bandwidth * compute_scale;
  return spec;
}

Fleet::Fleet(sim::ShardedSimulator& sharded, const FleetConfig& config,
             metrics::Collector* collector)
    : sharded_(sharded),
      sim_(sharded.control()),
      collector_(collector),
      seed_(config.seed),
      seed_rng_(config.seed),
      transfer_us_per_mb_(std::max(0.0, config.transfer_us_per_mb)) {
  assert(collector_ != nullptr);
  if (config.nodes.empty()) {
    nodes_.assign(static_cast<std::size_t>(config.device_count()),
                  GpuNodeSpec{config.gpu});
  } else {
    nodes_ = config.nodes;
  }
  assert(sharded.device_shards() == static_cast<int>(nodes_.size()));
  sched_cfg_ = config.sched;
  sched_cfg_.canonicalize();
  // Per-GPU jitter seeds derive from the fleet seed through the same
  // generator (a member, so add_gpu_now continues the sequence), so a fleet
  // run is a pure function of (config, seed, fault schedule).
  const std::size_t n = nodes_.size();
  gpus_.reserve(n);
  schedulers_.reserve(n);
  health_.assign(n, GpuHealth::kHealthy);
  hot_models_.assign(n, {});
  placement_.reserve(n);
  for (const GpuNodeSpec& node : nodes_) add_device(node);
  collector_->set_gpu_count(size());
}

void Fleet::add_device(const GpuNodeSpec& node) {
  const int g = static_cast<int>(gpus_.size());
  sim::Simulator& dev_sim = sharded_.shard(g);
  gpus_.push_back(std::make_unique<gpusim::Gpu>(dev_sim, node.resolved(),
                                                seed_rng_.next_u64()));
  schedulers_.push_back(std::make_unique<rt::Scheduler>(
      dev_sim, *gpus_.back(), sched_cfg_, collector_, &tasks_));
  schedulers_.back()->set_device_id(g);
  const double* table = placement_.data();
  placement_.push_back(0.0);
  if (placement_.data() == table) {
    schedulers_.back()->publish_load(&placement_.back(), node.compute_scale);
  } else {
    bind_placement();
  }
}

void Fleet::bind_placement() {
  for (int g = 0; g < size(); ++g) {
    scheduler(g).publish_load(&placement_[static_cast<std::size_t>(g)],
                              node(g).compute_scale);
  }
}

int Fleet::add_task(const rt::TaskSpec& spec, const dnn::CompiledModel* model,
                    int home_gpu) {
  assert(home_gpu >= 0 && home_gpu < size());
  // The home registers the task in the shared table, resident there; every
  // other scheduler reads it as non-resident.
  const int id = scheduler(home_gpu).add_task(spec, model);
  home_.push_back(home_gpu);
  assert(id + 1 == task_count());
  warm_model(home_gpu, id);
  return id;
}

void Fleet::set_afet(int task_id, const std::vector<double>& per_stage_us) {
  for (int g = 0; g < size(); ++g) {
    scheduler(g).set_afet(task_id, per_stage_us);
  }
}

void Fleet::set_afet(int task_id, int g,
                     const std::vector<double>& per_stage_us) {
  scheduler(g).set_afet(task_id, per_stage_us);
}

std::vector<std::uint16_t> Fleet::intern_afet(const rt::AfetResult& afet) {
  std::vector<std::uint16_t> seeds(static_cast<std::size_t>(task_count()));
  for (int t = 0; t < task_count(); ++t) {
    seeds[static_cast<std::size_t>(t)] =
        tasks_.intern(t, afet.for_model(model_of(t)));
  }
  return seeds;
}

void Fleet::run_offline_phase() {
  run_offline_phase(std::vector<const std::vector<std::uint16_t>*>());
}

void Fleet::run_offline_phase(
    const std::vector<const std::vector<std::uint16_t>*>& seeds) {
  assert(seeds.empty() || seeds.size() == static_cast<std::size_t>(size()));
  // Device g is shard g. A lane writes only its devices' schedulers and
  // reads the task table, which nothing grows meanwhile.
  sharded_.for_each_shard([this, &seeds](int g) {
    rt::Scheduler& sched = scheduler(g);
    if (!seeds.empty()) {
      sched.set_afet_seeds(*seeds[static_cast<std::size_t>(g)]);
    }
    sched.run_offline_phase();
  });
}

std::uint64_t Fleet::task_records() const {
  std::uint64_t n = 0;
  for (int g = 0; g < size(); ++g) n += scheduler(g).records();
  return n;
}

double Fleet::relative_load(int g) const {
  const int streams = scheduler(g).config().parallelism();
  return load(g) / static_cast<double>(std::max(1, streams));
}

double Fleet::transfer_mb(int task_id) const {
  return model_of(task_id)->weight_mb;
}

bool Fleet::model_hot(int g, int task_id) const {
  const dnn::CompiledModel* model = model_of(task_id);
  const auto& hot = hot_models_[static_cast<std::size_t>(g)];
  return std::find(hot.begin(), hot.end(), model) != hot.end();
}

void Fleet::warm_model(int g, int task_id) {
  if (!model_hot(g, task_id)) {
    hot_models_[static_cast<std::size_t>(g)].push_back(model_of(task_id));
  }
}

bool Fleet::feasible(int task_id) const {
  const bool tested = spec(task_id).priority == common::Priority::kLow
                          ? sched_cfg_.lp_admission
                          : sched_cfg_.hp_admission;
  for (int g = 0; g < size(); ++g) {
    if (!placeable(g)) continue;  // failed/draining devices host nothing new
    if (!tested) return true;
    // Utilisation: one job must fit an idle context of this device (the
    // best case of Eq. 12, with no HP reservation and no active LP load).
    const double util = scheduler(g).utilization(task_id);
    const int streams = scheduler(g).config().streams_per_context;
    if (util < static_cast<double>(streams)) return true;
  }
  return false;
}

std::uint64_t Fleet::intra_gpu_migrations() const {
  std::uint64_t total = 0;
  for (int g = 0; g < size(); ++g) total += scheduler(g).migrations();
  return total;
}

Fleet::ConservationReport Fleet::check_conservation(
    const ConservationInput& in) const {
  ConservationReport rep;
  auto fail = [&rep](std::string why) {
    if (rep.ok) {
      rep.ok = false;
      rep.detail = std::move(why);
    }
  };
  const common::Priority classes[2] = {common::Priority::kHigh,
                                       common::Priority::kLow};
  for (int c = 0; c < 2; ++c) {
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t revoked = 0;
    std::uint64_t in_flight = 0;
    for (int g = 0; g < size(); ++g) {
      const auto& sc = scheduler(g).class_counters(classes[c]);
      const std::uint64_t flight =
          scheduler(g).jobs_in_flight_of(classes[c]);
      // Per-device identity first: a violation here means a scheduler path
      // lost track of a job regardless of what the router did.
      if (sc.admitted != sc.completed + sc.failed + sc.revoked + flight) {
        fail("scheduler " + std::to_string(g) + " class " +
             std::to_string(c) + ": admitted " + std::to_string(sc.admitted) +
             " != completed " + std::to_string(sc.completed) + " + failed " +
             std::to_string(sc.failed) + " + revoked " +
             std::to_string(sc.revoked) + " + in-flight " +
             std::to_string(flight));
      }
      completed += sc.completed;
      failed += sc.failed;
      revoked += sc.revoked;
      in_flight += flight;
    }
    // Steals only move LP jobs; each one re-admits on the thief (one extra
    // admit, one extra revoke, no new route attempt), so they cancel out of
    // the class-wide identity. Every remaining revoke is a cancelled hedge
    // copy — its surviving twin already accounts for the route attempt.
    const std::uint64_t steals =
        classes[c] == common::Priority::kLow ? in.steals : 0;
    if (revoked < steals) {
      fail("class " + std::to_string(c) + ": steals " +
           std::to_string(steals) + " exceed revokes " +
           std::to_string(revoked));
      continue;
    }
    const std::uint64_t accounted = in.shed[c] + in.pending[c] + completed +
                                    failed + in_flight + (revoked - steals);
    if (in.released[c] != accounted) {
      fail("class " + std::to_string(c) + ": released " +
           std::to_string(in.released[c]) + " != shed " +
           std::to_string(in.shed[c]) + " + pending " +
           std::to_string(in.pending[c]) + " + completed " +
           std::to_string(completed) + " + failed " + std::to_string(failed) +
           " + in-flight " + std::to_string(in_flight) +
           " + cancelled-hedges " + std::to_string(revoked - steals));
    }
  }
  // The shared count behind active_jobs must equal the per-device counts,
  // which only records hold.
  std::vector<long long> device_sum(static_cast<std::size_t>(task_count()), 0);
  for (int g = 0; g < size(); ++g) {
    const rt::Scheduler& sched = scheduler(g);
    for (std::size_t r = 0; r < sched.records(); ++r) {
      const rt::Task& t = sched.record(r);
      device_sum[static_cast<std::size_t>(t.id())] += t.active_jobs;
    }
  }
  for (int t = 0; t < task_count(); ++t) {
    if (active_jobs(t) != device_sum[static_cast<std::size_t>(t)]) {
      fail("task " + std::to_string(t) + ": fleet active count " +
           std::to_string(active_jobs(t)) + " != device sum " +
           std::to_string(device_sum[static_cast<std::size_t>(t)]));
    }
  }
  // Every placement-table entry must be exactly what a fresh fold gives.
  for (int g = 0; g < size(); ++g) {
    const double want = scheduler(g).active_utilization() / compute_scale(g);
    const double have = placement_score(g);
    if (bits_of(want) != bits_of(have)) {
      fail("gpu " + std::to_string(g) + ": placement score " +
           std::to_string(have) + " != active utilisation / scale " +
           std::to_string(want));
    }
  }
  return rep;
}

void Fleet::rehome_tasks_from(int g) {
  // The score reads *active* utilisation, which rehoming does not change,
  // so one lookup serves every task and the result is order-independent.
  const int best = best_placeable();
  if (best < 0) return;  // nowhere to go: feasible() sheds the releases
  for (int t = 0; t < task_count(); ++t) {
    if (home_[static_cast<std::size_t>(t)] != g) continue;
    rehome_task(t, best);
  }
}

void Fleet::rehome_task(int task_id, int to, metrics::EventCause cause) {
  const int from = home_[static_cast<std::size_t>(task_id)];
  if (from == to) return;
  scheduler(from).set_task_resident(task_id, false);
  scheduler(to).set_task_resident(task_id, true);
  home_[static_cast<std::size_t>(task_id)] = to;
  warm_model(to, task_id);
  collector_->record(sim_.now(), metrics::EventKind::kRehome, cause, from, to,
                     task_id);
}

std::size_t Fleet::fail_gpu_now(int g) {
  auto& h = health_[static_cast<std::size_t>(g)];
  if (h == GpuHealth::kFailed) return 0;
  h = GpuHealth::kFailed;
  // Shed the scheduler's bookkeeping first (each lost job becomes a missed
  // finish), then silence the device; the order is immaterial for
  // correctness — dropped stage callbacks no-op through the jobs_ guard —
  // but shedding first reports the losses before the device goes dark.
  const std::size_t lost = scheduler(g).fail_all_jobs();
  gpu(g).halt();
  collector_->record(sim_.now(), metrics::EventKind::kFault,
                     metrics::EventCause::kFailStop, g, -1, -1,
                     static_cast<double>(lost));
  // Let the router cancel/retarget transfers still headed here before the
  // homes move (the retarget re-migration reads placement scores, which
  // rehoming does not change, but the hook must see the device already
  // unplaceable — health flipped above).
  if (on_unplaceable_) on_unplaceable_(g);
  rehome_tasks_from(g);
  return lost;
}

void Fleet::slow_gpu_now(int g, double factor) {
  assert(factor > 0.0);
  nodes_[static_cast<std::size_t>(g)].compute_scale *= factor;
  gpu(g).set_spec(nodes_[static_cast<std::size_t>(g)].resolved());
  scheduler(g).publish_load(&placement_[static_cast<std::size_t>(g)],
                            compute_scale(g));
  collector_->record(sim_.now(), metrics::EventKind::kFault,
                     metrics::EventCause::kStraggler, g, -1, -1, factor);
}

void Fleet::drain_gpu_now(int g) {
  auto& h = health_[static_cast<std::size_t>(g)];
  if (h != GpuHealth::kHealthy) return;  // failed stays failed
  h = GpuHealth::kDraining;
  collector_->record(sim_.now(), metrics::EventKind::kDrain,
                     metrics::EventCause::kScaleDown, g);
  if (on_unplaceable_) on_unplaceable_(g);
  rehome_tasks_from(g);
}

int Fleet::add_gpu_now(const GpuNodeSpec& node) {
  const int g = size();
  nodes_.push_back(node);
  health_.push_back(GpuHealth::kHealthy);
  hot_models_.emplace_back();
  // A fresh device shard (clock pre-advanced to the fleet's now) so the new
  // device's local events parallelise like every other; add_gpu_now runs
  // from a control-shard event, which is exactly the phase add_shard()
  // requires.
  const int s = sharded_.add_shard();
  (void)s;
  assert(s == g);
  add_device(node);
  collector_->grow_gpu_count(g + 1);
  collector_->grow_lanes(g + 1);
  // The new scheduler shares the task table, so it sees every logical task
  // non-resident (homes do not move on scale-up; load reaches the device
  // through routing) and its contexts reserve no HP utilisation in Eq. 11.
  collector_->record(sim_.now(), metrics::EventKind::kFault,
                     metrics::EventCause::kScaleUp, g, -1, -1,
                     node.compute_scale);
  return g;
}

}  // namespace daris::cluster
