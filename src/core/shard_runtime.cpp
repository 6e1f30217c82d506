#include "core/shard_runtime.hpp"

#include <algorithm>
#include <cassert>

namespace nfv::core {

Lane::Lane(std::uint32_t lane_id, const mgr::ManagerConfig& mgr_cfg,
           const flow::FlowTable::Config& flow_cfg,
           std::uint32_t mempool_capacity, flow::ChainRegistry& chains,
           mgr::ShardLink* link)
    : id(lane_id), pool(mempool_capacity), flows(flow_cfg) {
  manager = std::make_unique<mgr::Manager>(engine, pool, flows, chains,
                                           mgr_cfg, &obs);
  if (link != nullptr) manager->set_shard_link(link, lane_id);
  // Platform probes: every lane registers the same keys, so a merged report
  // sums them across lanes into the familiar series. Sampled, so the hot
  // paths pay nothing for them.
  obs.metrics().counter_fn("sim.dispatched_events", {},
                           [this] { return dispatched_events(); });
  obs.metrics().gauge_fn("sim.mbufs_in_use", {}, [this] {
    return static_cast<double>(pool.in_use());
  });
  obs.metrics().counter_fn("flow.hits", {}, [this] { return flows.hits(); });
  obs.metrics().counter_fn("flow.misses", {},
                           [this] { return flows.misses(); });
  obs.metrics().counter_fn("flow.installs", {},
                           [this] { return flows.installs(); });
  obs.metrics().counter_fn("flow.expirations", {},
                           [this] { return flows.expirations(); });
  obs.metrics().gauge_fn("flow.table_size", {}, [this] {
    return static_cast<double>(flows.size());
  });
  obs.metrics().gauge_fn("flow.load_factor", {},
                         [this] { return flows.load_factor(); });
}

io::BlockDevice& Lane::disk() {
  if (!block_device) {
    block_device = std::make_unique<io::BlockDevice>(engine);
  }
  return *block_device;
}

ShardRuntime::ShardRuntime(std::uint32_t shards,
                           const mgr::ManagerConfig& mgr_cfg,
                           const flow::FlowTable::Config& flow_cfg,
                           std::uint32_t mempool_capacity,
                           flow::ChainRegistry& chains)
    : shards_(shards),
      mgr_cfg_(mgr_cfg),
      flow_cfg_(flow_cfg),
      mempool_capacity_(mempool_capacity),
      chains_(chains) {
  add_lane();
}

ShardRuntime::~ShardRuntime() = default;

Lane& ShardRuntime::add_lane() {
  assert(!exec_ && "topology is frozen once the simulation has run");
  const auto id = static_cast<std::uint32_t>(lanes_.size());
  lanes_.push_back(std::make_unique<Lane>(
      id, mgr_cfg_, flow_cfg_, mempool_capacity_, chains_,
      shards_ > 0 ? this : nullptr));
  return *lanes_.back();
}

Lane& ShardRuntime::add_core() {
  const bool own_lane = shards_ > 0 && !core_lane_.empty();
  Lane& lane = own_lane ? add_lane() : *lanes_[0];
  core_lane_.push_back(lane.id);
  return lane;
}

std::uint64_t ShardRuntime::dispatched_events() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->dispatched_events();
  return total;
}

void ShardRuntime::post(std::uint32_t src, std::uint32_t dst,
                        const mgr::ShardMsg& msg) {
  assert(!boxes_.empty() && "posting before the first run");
  boxes_[src * lanes_.size() + dst].msgs.push_back(msg);
}

void ShardRuntime::run_until(Cycles target) {
  if (shards_ == 0) {
    // One lane, nothing to exchange: no epochs, and the deadline itself is
    // run — the monitor tick and the wakeup scan land exactly on it.
    lanes_[0]->engine.run_until(target);
    now_ = target;
    return;
  }
  if (!exec_) {
    const std::size_t n = lanes_.size();
    exec_ = std::make_unique<sim::ShardExecutor>(
        n, std::min<std::size_t>(shards_, n));
    boxes_.resize(n * n);
  }
  // Epochs are [now, horizon). Engine::run_until is inclusive of its
  // deadline, so each lane runs to horizon - 1: events stamped exactly at
  // the horizon belong to the next epoch, after this epoch's mailboxes
  // have been drained. A drain schedules each delivery at send_time +
  // latency, which the epoch length guarantees is >= horizon > horizon - 1
  // = engine.now(), so it never schedules into a lane's past.
  while (now_ < target) {
    const Cycles horizon =
        std::min<Cycles>(now_ + mgr::kCrossLaneLatency, target);
    exec_->run_phase(
        [&](std::size_t i) { lanes_[i]->engine.run_until(horizon - 1); });
    exec_->run_phase([this](std::size_t i) { drain_lane(i); });
    now_ = horizon;
  }
}

namespace {

/// Take a free slot of `lane`'s pending store for a run due at `when` and
/// schedule the run's one delivery event; the drain fills the slot before
/// the event can fire. The {lane, slot} capture fits SmallCallback's inline
/// storage and the slot is recycled when the event fires, so steady-state
/// delivery does not allocate. Runs open only in the drain phase, so
/// `pending` never grows while a delivery event holds a reference into it.
std::vector<mgr::ShardMsg>& open_run(Lane& lane, Cycles when) {
  auto slot = static_cast<std::uint32_t>(lane.pending.size());
  if (lane.free_slots.empty()) {
    lane.pending.emplace_back();
  } else {
    slot = lane.free_slots.back();
    lane.free_slots.pop_back();
  }
  Lane* owner = &lane;
  lane.engine.schedule_at(when, [owner, slot] {
    std::vector<mgr::ShardMsg>& run = owner->pending[slot];
    owner->manager->apply_shard_run(run.data(), run.size());
    owner->run_followers += run.size() - 1;
    run.clear();
    owner->free_slots.push_back(slot);
  });
  return lane.pending[slot];
}

}  // namespace

void ShardRuntime::drain_lane(std::size_t dst) {
  // One delivery event per maximal run of consecutively drained messages
  // that share a delivery time. A drain schedules nothing but deliveries,
  // so as events of their own a run's messages would hold adjacent
  // sequence numbers at one instant, and no other event could fire between
  // them; whatever applying one schedules sorts after the whole drain
  // either way. Applying the run in order in one event keeps every lane's
  // order without reserving sequence numbers.
  Lane& lane = *lanes_[dst];
  const std::size_t n = lanes_.size();
  std::vector<mgr::ShardMsg>* run = nullptr;
  for (std::size_t src = 0; src < n; ++src) {
    auto& msgs = boxes_[src * n + dst].msgs;
    for (const mgr::ShardMsg& msg : msgs) {
      if (run == nullptr || msg.when != run->front().when) {
        run = &open_run(lane, msg.when);
      }
      run->push_back(msg);
    }
    msgs.clear();
  }
}

}  // namespace nfv::core
