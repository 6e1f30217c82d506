// PAM-style push-aside (DESIGN.md §17), the share allocator's second
// multiplier, armed by ManagerConfig::push_aside.enabled: an NF whose RX
// queue sits over the high watermark borrows share from lower-priority NFs
// on its core instead of pushing the overload upstream.
#pragma once

#include <cstdint>
#include <vector>

#include "bp/backpressure.hpp"
#include "nf/nf_task.hpp"

namespace nfv::mgr {

class Lifecycle;

/// Confiscation floor: a victim's share scale never drops below this, so
/// it keeps earning service-time samples and can recover instantly.
inline constexpr double kPushVictimFloor = 0.125;

class PushAside {
 public:
  explicit PushAside(obs::Observability* obs) : obs_(obs) {}

  /// Track a local NF (at Manager::start); registers its pam.* probes.
  void add_nf(flow::NfId id, nf::NfTask* task, sched::Core* core);
  /// Monitor tick: latch queue pressure (RX ring over the high watermark,
  /// or not Clear in `bp`): a short ring can cross the watermark and drain
  /// again between share updates.
  void latch(const bp::BackpressureManager* bp);
  /// Share update: grab or give back on every local core, then reset the
  /// latches. Only NFs `life` (if any) reports RUNNING take part.
  void update(Cycles now, const Lifecycle* life);
  /// A dead NF holds no borrowed-from slice.
  void clear(flow::NfId id) { nfs_[id].scale = 1.0; nfs_[id].hold = 0; }

  /// Share multiplier in [kPushVictimFloor, 1.0] and grab/give-back
  /// totals; neutral for a remote NF.
  [[nodiscard]] double scale(flow::NfId id) const { return at(id).scale; }
  [[nodiscard]] std::uint64_t grabs(flow::NfId id) const {
    return at(id).grabs;
  }
  [[nodiscard]] std::uint64_t givebacks(flow::NfId id) const {
    return at(id).givebacks;
  }

 private:
  struct Nf {
    nf::NfTask* task = nullptr;  ///< nullptr = not a local NF.
    sched::Core* core = nullptr;
    double scale = 1.0;
    std::uint32_t hold = 0;  ///< Updates a grab is still held.
    bool pressure = false;   ///< Latched since the last update.
    std::uint64_t grabs = 0;
    std::uint64_t givebacks = 0;
  };
  [[nodiscard]] const Nf& at(flow::NfId id) const {
    static const Nf kRemote{};
    return id < nfs_.size() ? nfs_[id] : kRemote;
  }

  obs::Observability* obs_;
  std::vector<Nf> nfs_;
};

}  // namespace nfv::mgr
